"""Polynomial algebra over F_q and batched matrix kernels over the local
rings o_l.

A matrix is a numpy array of integer element codes, and its Ring (or q, for
F_q) is passed next to it.  Over F_q there are minimal polynomials and
irreducible factorization against a sieve of monic irreducibles.  F_q is
GF_ring(q), the l = 1 Ring of the equal family: Poly and min_poly do their
scalar arithmetic on it, and min_poly its matrix products too.  The
characteristic polynomial is a test oracle (tests/oracles.py).

The batched kernels multiply, take determinants of and invert stacks of code
matrices; they are the workhorses of group enumeration and character sums.
The batched det is the Leibniz sum over permutations and the batched inverse
is the adjugate (the same sum on each (n-1)-minor) times det^-1, both written
on the ring's vectorized operations: one formula for every n and both ring
families.  The independent scalar reference for them (cofactor expansion)
lives with the other test oracles in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .localring import Ring, RingKind, _factor_prime_power, all_tuples, get_ring, ring_make


# ---------------------------------------------------------------------------
# the residue field


@lru_cache(maxsize=None)
def GF_ring(q: int) -> Ring:
    """The field F_q as the r = 1 local ring (equal family)."""
    p, f = _factor_prime_power(q)
    return get_ring(ring_make(RingKind.EQUAL, p, f, 1))


# ---------------------------------------------------------------------------
# polynomials over F_q


class Poly:
    """Polynomial over F_q, coefficients ascending, no trailing zeros."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs):
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.q = q
        self.coeffs = tuple(c)

    @property
    def field(self) -> Ring:
        return GF_ring(self.q)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(self.q, [
            F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
            for i in range(n)
        ])

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(self.q, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.q, ())
        F = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(self.q, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(self.q, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, den: "Poly") -> tuple["Poly", "Poly"]:
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        d = den.degree
        lead_inv = F.inv(den.coeffs[-1])
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = F.mul(rem[i], lead_inv)
            if c:
                quot[i - d] = c
                for j, dc in enumerate(den.coeffs):
                    rem[i - d + j] = F.sub(rem[i - d + j], F.mul(c, dc))
        return Poly(self.q, quot), Poly(self.q, rem)

    def __mod__(self, den: "Poly") -> "Poly":
        return self.divmod(den)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __repr__(self):
        return f"Poly({self.q}, {self.coeffs})"


# ---------------------------------------------------------------------------
# irreducible sieve and factorization

FACTOR_DEGREE_CAP = 8

# (q, max_deg) -> sieve, kept for the life of the process
_SIEVE_MEMO: dict[tuple[int, int], tuple] = {}


def monic_irreducibles(q: int, max_deg: int) -> tuple[tuple[Poly, ...], ...]:
    """All monic irreducibles over F_q of degree 1..max_deg, by trial division."""
    got = _SIEVE_MEMO.get((q, max_deg))
    if got is not None:
        return got
    by_degree: list[list[Poly]] = [[]]  # degree 0 slot unused
    for d in range(1, max_deg + 1):
        found = []
        for tail in all_tuples(q, d):
            cand = Poly(q, list(tail) + [1])
            if _is_irreducible(cand, by_degree):
                found.append(cand)
        by_degree.append(found)
    sieve = tuple(tuple(lst) for lst in by_degree)
    _SIEVE_MEMO[(q, max_deg)] = sieve
    return sieve


def _is_irreducible(cand: Poly, by_degree) -> bool:
    d = cand.degree
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for p in by_degree[e]:
            if (cand % p).is_zero():
                return False
    return True


def factor_poly(poly: Poly, cap: int = FACTOR_DEGREE_CAP) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial into (irreducible, exponent) pairs.

    Deterministic trial division against the sieve of monic irreducibles of
    degree <= cap; degrees above the cap are rejected.
    """
    if not poly.is_monic:
        raise ValueError("factor_poly requires a monic polynomial")
    if poly.degree > cap:
        raise ValueError(f"degree {poly.degree} above factorization cap {cap}")
    sieve = monic_irreducibles(poly.q, max(poly.degree, 1))
    out = []
    rem = poly
    for d in range(1, poly.degree + 1):
        if rem.degree < d:
            break
        for p in sieve[d]:
            e = 0
            while rem.degree >= d:
                quot, r = rem.divmod(p)
                if not r.is_zero():
                    break
                rem, e = quot, e + 1
            if e:
                out.append((p, e))
    if rem.degree != 0:
        raise AssertionError("factorization did not terminate")  # unreachable
    return out


# ---------------------------------------------------------------------------
# batched kernels on code arrays over o_r (and over F_q as the r = 1 case)


def mat_mul(ring: Ring, A, B) -> np.ndarray:
    """Batched matrix product of code arrays; shapes broadcast on the left."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if ring.kind is RingKind.MIXED:
        return (A @ B) % ring.size
    k = A.shape[-1]
    out = None
    for t in range(k):
        term = ring.v_mul(A[..., :, t][..., :, None], B[..., t, :][..., None, :])
        out = term if out is None else ring.v_add(out, term)
    return out


def _leibniz(ring: Ring, E: np.ndarray, rows, cols, negate: bool = False) -> np.ndarray:
    """Batched det of the minor on `rows` x `cols` (negated if `negate`) by the
    Leibniz sum over permutations; E[r, c] is the stack of (r, c) entries."""
    shape = E.shape[2:]
    terms = ([], [])  # the products of the even and of the odd permutations
    for perm in itertools.permutations(cols):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        # the 0 x 0 minor (adjugate of a 1 x 1 matrix) has det 1
        factors = [E[r, c] for r, c in zip(rows, perm)] or [np.ones(shape, dtype=np.int64)]
        terms[odd ^ negate].append(reduce(ring.v_mul, factors))
    plus, minus = (reduce(ring.v_add, t) if t else np.zeros(shape, dtype=np.int64)
                   for t in terms)
    return ring.v_sub(plus, minus)


def _entries(A) -> np.ndarray:
    """(n, n, ...) contiguous copy of a stack of matrices: one array per entry."""
    A = np.asarray(A, dtype=np.int64)
    return np.ascontiguousarray(A.transpose(A.ndim - 2, A.ndim - 1, *range(A.ndim - 2)))


def mat_det_batch(ring: Ring, A) -> np.ndarray:
    """Batched determinant for any n, exact on every matrix over o_l."""
    E = _entries(A)
    return _leibniz(ring, E, range(len(E)), range(len(E)))


def mat_inv_batch(ring: Ring, A) -> np.ndarray:
    """Batched inverse for any n: adjugate times det^-1; ValueError unless
    every det is a unit."""
    E = _entries(A)
    n = len(E)
    dets = _leibniz(ring, E, range(n), range(n))
    if not np.all(ring.v_is_unit(dets)):
        raise ValueError("batch contains a non-invertible matrix")
    adj = np.empty(E.shape[2:] + (n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):  # adj[j, i] = (-1)^(i+j) det(A without row i, column j)
            adj[..., j, i] = _leibniz(ring, E, [r for r in range(n) if r != i],
                                      [c for c in range(n) if c != j], (i + j) % 2 == 1)
    return ring.v_mul(ring.v_inv()[dets][..., None, None], adj)


# ---------------------------------------------------------------------------
# minimal polynomials over F_q


def min_poly(a: np.ndarray, q: int) -> Poly:
    """Minimal polynomial: least-degree monic annihilator of a code matrix
    over F_q."""
    F = GF_ring(q)
    n = a.shape[0]
    dim = n * n
    # echelon rows over F_q with their expression in powers of the matrix
    pivots: dict[int, tuple[list[int], list[int]]] = {}
    power = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        vec = [int(c) for c in power.reshape(dim)]
        combo = [0] * (n + 1)
        combo[k] = 1
        for col in sorted(pivots):
            if vec[col]:
                cvec, ccombo = pivots[col]
                f = vec[col]
                vec = [F.sub(x, F.mul(f, y)) for x, y in zip(vec, cvec)]
                combo = [F.sub(x, F.mul(f, y)) for x, y in zip(combo, ccombo)]
        lead = next((i for i, c in enumerate(vec) if c), None)
        if lead is None:
            return Poly(q, combo).monic()
        linv = F.inv(vec[lead])
        pivots[lead] = ([F.mul(linv, c) for c in vec], [F.mul(linv, c) for c in combo])
        power = mat_mul(F, power, a)
    raise AssertionError("no annihilator of degree <= n")  # unreachable

"""Reference implementations that only the tests call.

Most are an independent route to a fact that `whittaker` computes another
way: the scalar determinant and the characteristic polynomial by cofactor
expansion, scalar polynomials over F_q (`Poly`) factored by trial division
against a sieve of monic irreducibles, the primes by the sieve of
Eratosthenes, the factorization type read off the
characteristic polynomial,
exact kernel counting over o_l by Smith-style diagonalization, group
centralizers by filtering a full table, conjugacy classes by one full
conjugation sweep per class, the adjoint orbits on g(F_q) by the same sweep
over G(F_q), the power classes, orders and inverse classes of the class
representatives one at a time, the regular classification over every x of
g(F_q) instead of one per orbit, the cyclic-vector search over o_r,
restriction norms one row at a time, every character sum exactly in
Z[zeta_e] (`pairings`, read by `integer_values` through the reduction mod
Phi_rad(e)), row orthogonality by the exact Gram (`verify_exact`), the
induced norm by the Frobenius double sum over G/ZU and U (all units at
once) and unit by unit over a G/U transversal, and the closed forms of the
type combinatorics.  A few
(`is_regular`, `verify_checks`, `write_with_metadata`) are thin conveniences
over `whittaker` that only tests use.
Matrices are code arrays with their Ring (or q) alongside, as in
`whittaker` itself.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import isqrt, prod
from pathlib import Path

import numpy as np

from whittaker.cache import _write
from whittaker.chartab import CLASSIFY_PAIR_CAP, CharTable, ClassData, RegularFlag, class_data
from whittaker.cli import JobConfig, run
from whittaker.cyclotomic import (CycloNum, IntegralityError, NonRationalError, prime_divisors,
                                  reduction_matrix)
from whittaker.groups import (CapExceeded, GroupSpec, GroupTable, central_units,
                              congruence_subgroup, coset_representatives, element_keys,
                              enumerate_group, matrix_powers, unipotent_matrices)
from whittaker.linalg import GF_ring, mat_det_batch, mat_inv_batch, mat_mul
from whittaker.localring import Ring, RingDesc, all_tuples, get_ring
from whittaker.regular import TypeMatrix, type_of
from whittaker.whittaker_verify import NonDegenChar, phi_x_exponents


# ---------------------------------------------------------------------------
# scalars, polynomials and cyclotomic numbers


@lru_cache(maxsize=None)
def prime_sieve(top: int) -> np.ndarray:
    """prime_sieve(top)[n]: whether n < top is prime, by Eratosthenes."""
    prime = np.ones(top, dtype=bool)
    prime[:2] = False
    for d in range(2, isqrt(top - 1) + 1):
        if prime[d]:
            prime[d * d::d] = False
    return prime


def valuation(ring: Ring, a: int) -> int:
    """q-adic valuation of the code; valuation(0) = ell by convention."""
    if a == 0:
        return ring.ell
    v = 0
    while a % ring.q == 0:
        a //= ring.q
        v += 1
    return v


def mul_varpi_pow(ring: Ring, a: int, k: int) -> int:
    """a * pi^k; in code terms (a mod q^(l-k)) * q^k for both families."""
    if k >= ring.ell:
        return 0
    return (a % ring.q ** (ring.ell - k)) * ring.q**k


def div_varpi_pow(ring: Ring, a: int, k: int) -> int:
    """Exact division by pi^k; the result is well defined mod pi^(ell-k)."""
    if a % ring.q**k != 0:
        raise ValueError("element not divisible by pi^k")
    return a // ring.q**k


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

    def __repr__(self):
        return f"Poly({self.q}, {self.coeffs})"


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, max_deg: int) -> tuple[tuple[Poly, ...], ...]:
    """All monic irreducibles over F_q of degree 1..max_deg, by trial division;
    each sieve is kept for the life of the process."""
    by_degree: list[list[Poly]] = [[]]  # degree 0 slot unused
    for d in range(1, max_deg + 1):
        found = []
        for tail in all_tuples(q, d):
            cand = Poly(q, list(tail) + [1])
            if _is_irreducible(cand, by_degree):
                found.append(cand)
        by_degree.append(found)
    return tuple(tuple(lst) for lst in by_degree)


def _is_irreducible(cand: Poly, by_degree) -> bool:
    d = cand.degree
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for p in by_degree[e]:
            if (cand % p).is_zero():
                return False
    return True


def factor_poly(poly: Poly) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial into (irreducible, exponent) pairs by
    deterministic trial division against the sieve of monic irreducibles:
    once no factor of degree <= deg/2 is left, what is left is irreducible."""
    if not poly.is_monic:
        raise ValueError("factor_poly requires a monic polynomial")
    sieve = monic_irreducibles(poly.q, max(poly.degree // 2, 1))
    out = []
    rem = poly
    for d in range(1, poly.degree // 2 + 1):
        if rem.degree < 2 * d:
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
    if rem.degree > 0:
        out.append((rem, 1))
    return out


def poly_value(poly: Poly, x: int) -> int:
    """The polynomial evaluated at x in F_q, by Horner's rule."""
    F = poly.field
    acc = 0
    for c in reversed(poly.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def companion(poly: Poly) -> np.ndarray:
    """Companion matrix (codes) of a monic polynomial over F_q."""
    if not poly.is_monic:
        raise ValueError("companion matrix requires a monic polynomial")
    n = poly.degree
    F = poly.field
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        a[i, i - 1] = 1
    for i in range(n):
        a[i, n - 1] = F.neg(poly.coeffs[i])
    return a


def euler_phi(m: int) -> int:
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def root_of_unity(m: int, j: int) -> CycloNum:
    """zeta_m^j as a CycloNum."""
    c = [0] * m
    c[j % m] = 1
    return CycloNum(m, c)


def char_poly(a: np.ndarray, q: int) -> Poly:
    """Characteristic polynomial det(tI - a) of a code matrix over F_q."""
    F = GF_ring(q)
    n = a.shape[0]
    entries = [[Poly(q, (F.neg(int(a[i, j])),)) if i != j
                else Poly(q, (F.neg(int(a[i, j])), 1))
                for j in range(n)] for i in range(n)]
    return _poly_det(entries, q)


def _poly_det(rows: list[list[Poly]], q: int) -> Poly:
    """Determinant of a matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly(q, ())
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = c * _poly_det(minor, q)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


# ---------------------------------------------------------------------------
# matrices over o_l


def det_scalar(ring: Ring, a: np.ndarray) -> int:
    """Exact determinant (code) by cofactor expansion."""
    n = a.shape[0]
    if n == 1:
        return int(a[0, 0])
    if n == 2:
        return ring.sub(ring.mul(int(a[0, 0]), int(a[1, 1])),
                        ring.mul(int(a[0, 1]), int(a[1, 0])))
    acc = 0
    sign_pos = True
    for j in range(n):
        c = int(a[0, j])
        if c:
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            term = ring.mul(c, det_scalar(ring, minor))
            acc = ring.add(acc, term if sign_pos else ring.neg(term))
        sign_pos = not sign_pos
    return acc


def smith_diagonal(ring: Ring, A, track_cols: bool = False):
    """Diagonalize A by unimodular row/column operations over o_l.

    Returns (valuations of diagonal pivots, V) where V is the accumulated
    column transform (A_new = U A V); V is None unless track_cols.
    """
    rows = [[int(c) for c in r] for r in np.asarray(A, dtype=np.int64)]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)] if track_cols else None
    pivots = []
    s = 0
    while s < min(nr, nc):
        best = None
        for i in range(s, nr):
            for j in range(s, nc):
                v = valuation(ring, rows[i][j])
                if v < ring.ell and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        e, bi, bj = best
        rows[s], rows[bi] = rows[bi], rows[s]
        if bj != s:
            for r in rows:
                r[s], r[bj] = r[bj], r[s]
            if track_cols:
                for r in V:
                    r[s], r[bj] = r[bj], r[s]
        # normalize pivot to pi^e
        u = div_varpi_pow(ring, rows[s][s], e) if e else rows[s][s]
        uinv = ring.inv(u)
        for j in range(nc):
            rows[s][j] = ring.mul(uinv, rows[s][j])
        # clear column s below, then row s to the right
        for i in range(nr):
            if i != s and rows[i][s]:
                f = div_varpi_pow(ring, rows[i][s], e)
                for j in range(nc):
                    rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[s][j]))
        for j in range(nc):
            if j != s and rows[s][j]:
                f = div_varpi_pow(ring, rows[s][j], e)
                for i in range(nr):
                    rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[i][s]))
                if track_cols:
                    for i in range(nc):
                        V[i][j] = ring.sub(V[i][j], ring.mul(f, V[i][s]))
        pivots.append(e)
        s += 1
    return pivots, V


def solve_count(ring: Ring, A) -> tuple[int, list[np.ndarray]]:
    """Exact count and spanning set for {v | A v = 0} over o_l.

    The count is q^(sum of pivot valuations) * q^(l * #free coordinates),
    always a power of p.
    """
    A = np.asarray(A, dtype=np.int64)
    nc = A.shape[1]
    pivots, V = smith_diagonal(ring, A, track_cols=True)
    rank = len(pivots)
    count = ring.q ** (sum(pivots) + ring.ell * (nc - rank))
    basis = []
    for s, e in enumerate(pivots):
        if e > 0:
            col = np.array([V[i][s] for i in range(nc)], dtype=np.int64)
            basis.append(np.array([mul_varpi_pow(ring, int(c), ring.ell - e) for c in col],
                                  dtype=np.int64))
    for j in range(rank, nc):
        basis.append(np.array([V[i][j] for i in range(nc)], dtype=np.int64))
    return count, basis


def span_size(ring: Ring, gens) -> int:
    """Number of elements of the o_l-module spanned by the given row vectors."""
    G = np.asarray(gens, dtype=np.int64)
    if G.size == 0:
        return 1
    pivots, _ = smith_diagonal(ring, G)
    return ring.q ** sum(ring.ell - e for e in pivots)


def commutant_matrix(ring: Ring, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> xy - yx on the n^2 coordinates of y, over o_l."""
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                out[row, k * n + j] = ring.add(int(out[row, k * n + j]), int(x[i, k]))
                out[row, i * n + k] = ring.sub(int(out[row, i * n + k]), int(x[k, j]))
    return out


def lie_centralizer_count(spec: GroupSpec, x: np.ndarray) -> int:
    """|C_{g(o_r)}(x)| by exact kernel counting (gl: all y; sl: tr y = 0)."""
    ring = get_ring(spec.ring)
    sys_rows = commutant_matrix(ring, np.asarray(x, dtype=np.int64))
    if spec.family == "SL":
        n = spec.n
        tr = np.zeros((1, n * n), dtype=np.int64)
        for i in range(n):
            tr[0, i * n + i] = 1
        sys_rows = np.concatenate([sys_rows, tr])
    count, _ = solve_count(ring, sys_rows)
    return count


def centralizer(table: GroupTable, x: np.ndarray) -> np.ndarray:
    """Sorted ids of the group centralizer of a code matrix over the group's
    ring, by table filtering."""
    ring = table.ring
    x = np.asarray(x, dtype=np.int64)
    left = mat_mul(ring, table.elems, x)
    right = mat_mul(ring, x[None], table.elems)
    mask = (left == right).all(axis=(1, 2))
    return np.flatnonzero(mask)


def is_regular(ring: Ring, xs: np.ndarray) -> list[bool]:
    """Whether each code matrix of an (X, n, n) stack over o_r is regular:
    `type_of` gives its residue a type."""
    return [tau is not None for tau in type_of(np.asarray(xs) % ring.q, ring.q)]


def is_cyclic(ring: Ring, x: np.ndarray) -> bool:
    """Cyclic-vector search over o_r itself (independent oracle for is_regular).

    Looks for v with det([v, xv, ..., x^(n-1)v]) a unit, over all q^(rn)
    candidate vectors.
    """
    n = x.shape[0]
    pows = matrix_powers(ring, np.asarray(x, dtype=np.int64), n)
    vecs = all_tuples(ring.size, n)
    # columns of the Krylov matrix: x^j v
    kry = np.empty((len(vecs), n, n), dtype=np.int64)
    for j in range(n):
        col = None
        for k in range(n):
            term = ring.v_mul(pows[j][:, k][None, :], vecs[:, k][:, None])
            col = term if col is None else ring.v_add(col, term)
        kry[:, :, j] = col
    dets = mat_det_batch(ring, kry)
    return bool(ring.v_is_unit(dets).any())


# ---------------------------------------------------------------------------
# counts and types


def count_a_regular_classes(family: str, n: int, desc: RingDesc) -> int:
    """Number of a-regular conjugacy classes of g(o_r) for a fixed unit a:
    q^(n r) for gl_n, q^((n-1) r) for sl_n.  For sl_n the count holds where
    (p,2) = (p,n) = 1 (whittaker_verify.predictions_supported)."""
    d = n if family == "GL" else n - 1
    return desc.q ** (d * desc.ell)


def centralizer_order_residue(tau: TypeMatrix, q: int) -> int:
    """|C_{GL_n(F_q)}(x)| for tau-regular x: the centralizer is the unit group
    of a product of rings F_{q^d}[t]/(t^e)."""
    out = 1
    for d, e, c in tau.entries:
        out *= (q ** (d * e) - q ** (d * (e - 1))) ** c
    return out


def all_n_typical(n: int) -> list[TypeMatrix]:
    """All n-typical type matrices (multisets of (d, e) blocks)."""
    blocks = [(d, e) for d in range(1, n + 1) for e in range(1, n + 1) if d * e <= n]
    out: list[TypeMatrix] = []

    def rec(rem: int, idx: int, counts: dict):
        if rem == 0:
            out.append(TypeMatrix.make(n, dict(counts)))
            return
        if idx == len(blocks):
            return
        d, e = blocks[idx]
        cost = d * e
        maxc = rem // cost
        for c in range(maxc, -1, -1):
            if c:
                counts[(d, e)] = c
            rec(rem - c * cost, idx + 1, counts)
            counts.pop((d, e), None)

    rec(n, 0, {})
    return out


def tau_regular_companion(tau: TypeMatrix, q: int) -> np.ndarray | None:
    """A tau-regular companion matrix (codes) over F_q, or None when F_q has
    too few irreducibles of some degree to realize tau."""
    need: dict[int, int] = {}
    for d, _, c in tau.entries:
        need[d] = need.get(d, 0) + c
    maxd = max(need) if need else 1
    sieve = monic_irreducibles(q, maxd)
    for d, cnt in need.items():
        if len(sieve[d]) < cnt:
            return None
    poly = Poly(q, (1,))
    cursor = {d: 0 for d in need}
    for d, e, c in tau.entries:
        for _ in range(c):
            f = sieve[d][cursor[d]]
            cursor[d] += 1
            for _ in range(e):
                poly = poly * f
    return companion(poly)


def type_of_charpoly(a: np.ndarray, q: int) -> TypeMatrix:
    """Type of a regular code matrix over F_q from its characteristic
    polynomial's factorization; ValueError unless a has a cyclic vector."""
    if not is_cyclic(GF_ring(q), a):
        raise ValueError("type_of_charpoly requires a regular matrix")
    cp = char_poly(a, q)
    counts: dict[tuple[int, int], int] = {}
    for f, e in factor_poly(cp):
        key = (f.degree, e)
        counts[key] = counts.get(key, 0) + 1
    return TypeMatrix.make(a.shape[-1], counts)


# ---------------------------------------------------------------------------
# conjugacy classes


def conjugacy_classes_sweep(table: GroupTable) -> ClassData:
    """The classes by full conjugation sweeps: the orbit of the smallest id
    not yet in a class, conjugated by every element of G at once."""
    ring, elems, invs = table.ring, table.elems, table.inverses()
    class_of = np.full(len(table), -1, dtype=np.int64)
    k = 0
    for i in range(len(table)):
        if class_of[i] < 0:
            orbit = mat_mul(ring, mat_mul(ring, elems, elems[i]), invs)
            class_of[table.ids_of(orbit)] = k
            k += 1
    return class_data(table, class_of)


def class_powers_by_lookup(cd: ClassData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power classes, the element orders and the inverse classes of cd's
    representatives, each its own way: one matrix_powers stack and one lookup
    per representative out to the largest order, a scalar order loop, and a
    lookup of the table's inverses."""
    table = cd.table
    ring, xs = table.ring, table.elems[cd.reps]
    eye = np.eye(table.n, dtype=np.int64)
    orders = []
    for x in xs:
        o, power = 1, x
        while not np.array_equal(power, eye):
            power = mat_mul(ring, power, x)
            o += 1
        orders.append(o)
    powers = np.array([cd.class_of[table.ids_of(matrix_powers(ring, x, max(orders)))]
                       for x in xs])
    inverses = cd.class_of[table.ids_of(table.inverses()[cd.reps])]
    return powers, np.array(orders), inverses


def lie_algebra_residue(spec: GroupSpec) -> np.ndarray:
    """All elements of g(F_q), in all_tuples order of their first lie_dim
    entries: the full matrix algebra for gl, trace zero for sl."""
    res = get_ring(spec.ring).residue_field()
    n, free = spec.n, spec.lie_dim  # sl: the last diagonal entry is -(the others)
    out = np.zeros((res.size**free, n * n), dtype=np.int64)
    out[:, :free] = all_tuples(res.size, free)
    out = out.reshape(-1, n, n)
    if spec.family == "SL":
        diag_sum = np.zeros(len(out), dtype=np.int64)
        for i in range(n - 1):
            diag_sum = res.v_add(diag_sum, out[:, i, i])
        out[:, n - 1, n - 1] = res.v_neg(diag_sum)
    return out


def adjoint_orbits_by_sweep(spec: GroupSpec) -> np.ndarray:
    """The smallest index in its orbit of each x of lie_algebra_residue(spec),
    under conjugation by G(F_q): each x, in turn the smallest one not yet
    labelled, is conjugated by every element of the l = 1 group table at once."""
    res_spec = GroupSpec(spec.family, spec.n, RingDesc(spec.ring.kind, spec.ring.p,
                                                        spec.ring.f, 1))
    table = enumerate_group(res_spec)
    res, n, free = table.ring, spec.n, spec.lie_dim
    xs = lie_algebra_residue(spec)
    labels = np.full(len(xs), -1, dtype=np.int64)
    for i in range(len(xs)):
        if labels[i] < 0:
            orbit = mat_mul(res, mat_mul(res, table.elems, xs[i]), table.inverses())
            labels[orbit.reshape(-1, n * n)[:, :free] @ res.q ** np.arange(free)] = i
    return labels


# ---------------------------------------------------------------------------
# character sums


def pairings(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exponent vectors (X, T, m) of sum_c f[x, c] * conj(g[t, c]) for stacks
    f (X, k, m) and g (T, k, m) of class functions with values in Z[zeta_m].

    Only the live classes, where f is nonzero, are read from g: they are paired
    in the smallest subring Z[zeta_m^d] holding their values (d = gcd of m and
    the exponents used), grouped by d.  Only the exponents that f uses enter
    the contiguous inner axis of the int64 matmuls, one per output exponent.
    Raises IntegralityError unless k' * m * max|f| * max|g'|, with k' live
    classes and g' the columns of g on them, is below 2^63: it bounds every
    partial sum, and g may exceed it on a class that f does not touch.
    g may be of any integer dtype, such as a CharTable's narrow values: it is
    only read by gathers and comparisons, and what the products gather from
    it is widened to int64 first; f is taken as int64.
    """
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g)
    X, k, m = f.shape
    T = g.shape[0]
    f_used = f.any(axis=0)
    live = np.flatnonzero(f_used.any(axis=1))
    g_live = g[:, live] if len(live) < k else g  # a row orthogonality has every class live
    bound = len(live) * m * _max_abs(f) * _max_abs(g_live)
    if bound >= 1 << 63:
        raise IntegralityError(f"pairing sums bounded by {bound} could overflow int64")
    used = f_used[live] | g_live.any(axis=0)
    del g_live  # the pairs below gather from g itself
    steps = np.gcd(np.gcd.reduce(np.where(used, np.arange(m), 0), axis=1), m)
    out = np.zeros((X, T, m), dtype=np.int64)
    for d in np.flatnonzero(np.bincount(steps)).tolist():
        cls = live[steps == d]
        mm = m // d
        expos = np.flatnonzero(f_used[cls, ::d].any(axis=0))
        # f over (x; exponent a, class c), and conj(g) as hc[j, c, t] = g[t, c, -j d],
        # each gathered in that layout by one index
        fa = np.take(f.reshape(X, k * m), (cls * m + d * expos[:, None]).ravel(), axis=1)
        hc = g.transpose(2, 1, 0)[(-np.arange(mm) % mm * d)[:, None], cls].astype(np.int64)
        for w in range(mm):
            # zeta^a * conj(zeta^j) lands on zeta^(d w) when j = w - a (mod mm)
            out[:, :, w * d] += fa @ hc[(w - expos) % mm].reshape(-1, T)
    return out


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def integer_values(acc: np.ndarray, m: int, divisor: int = 1) -> np.ndarray:
    """Exact integers acc / divisor for a stack (..., m) of exponent vectors.

    The reduction runs through s = rad(m): Phi_m(x) = Phi_s(x^(m/s)), so
    exponent c (m/s) + b reduces by reduction_matrix(s) acting on c alone.
    Each vector is read as an (s, m/s) block, and reduction_matrix(s) maps
    its s rows to phi(s) rows, the canonical coordinates of
    reduction_matrix(m) with m/s times fewer products.  Raises NonRationalError when a vector is
    not rational, IntegralityError when it is not divisible by divisor or
    when the int64 reduction could overflow: every partial sum of the product
    is bounded by the row L1 norm, at most m * max |entry|, times
    max |reduction entry| (the same for reduction_matrix(s) and
    reduction_matrix(m)), and that bound must stay below 2^63.
    """
    s = prod(prime_divisors(m))
    red = reduction_matrix(s)
    flat = np.asarray(acc, dtype=np.int64).reshape(-1, s, m // s)
    bound = m * _max_abs(flat) * _max_abs(red)
    if bound >= 1 << 63:
        raise IntegralityError(f"reducing sums bounded by {bound} could overflow int64")
    # reduced[n, b, c'] is the coordinate of zeta^(c' m/s + b)
    reduced = flat.transpose(0, 2, 1) @ red
    if np.any(reduced.reshape(len(flat), -1)[:, 1:]):
        raise NonRationalError("character sum is not rational")
    vals, rem = np.divmod(reduced[:, 0, 0], divisor)
    if np.any(rem):
        raise IntegralityError(f"character sum is not divisible by {divisor}")
    return vals.reshape(np.shape(acc)[:-1])




def classify_regular_by_x(ct: CharTable) -> list[RegularFlag]:
    """chartab.classify_regular without the orbits: <chi|_{K^(l-1)}, phi_x>
    for every x in g(F_q), each the level y' of one y = I + pi^(l-1) y' of
    K^(l-1), and the type of every supported x."""
    table = ct.table
    spec, ring = table.spec, table.ring
    ell, n, q = ring.ell, spec.n, ring.q
    if ell < 2:
        raise ValueError("regular classification needs l >= 2")
    k_ids = congruence_subgroup(table, ell - 1)
    yprimes = (table.elems[k_ids] - np.eye(n, dtype=np.int64)[None]) // q ** (ell - 1) % q
    y_classes = ct.cd.class_of[k_ids]
    xs = yprimes
    if len(xs) * len(yprimes) > CLASSIFY_PAIR_CAP:
        raise CapExceeded("classification pair count beyond cap")
    e, k, X = ct.e, ct.k, len(xs)
    expo = phi_x_exponents(ring, ell - 1, xs, yprimes) * (e // ring.char_order)
    cells = (np.arange(X)[:, None] * k + y_classes[None, :]) * e + expo
    acc = pairings(np.bincount(cells.ravel(), minlength=X * k * e).reshape(X, k, e), ct.rows)
    mults = integer_values(acc, e, len(k_ids))
    if np.any(mults < 0):
        raise IntegralityError("negative restriction multiplicity")
    supported = np.flatnonzero(mults.any(axis=1))
    types = dict(zip(supported.tolist(), type_of(xs[supported], q)))
    flags = []
    for t in range(k):
        support = np.flatnonzero(mults[:, t])
        if len(support) == 0:
            raise AssertionError("restriction to the kernel has empty support")
        taus = {types[xi] for xi in support.tolist()}
        reg = None not in taus
        if reg and len(taus) != 1:
            raise AssertionError("factorization type is not orbit-constant")
        tau = taus.pop() if reg else None
        flags.append(RegularFlag(t, int(ct.degrees[t]), reg, tau,
                                 tau.label() if tau else None))
    return flags


def verify_exact(ct: CharTable) -> None:
    """Row orthogonality R H R* = |G| I by the exact Gram in Z[zeta_e]: one
    pairings call over all rows, read by integer_values.  AssertionError when
    the Gram is not |G| I, IntegralityError when an entry is not an integer."""
    rows = ct.rows
    prods = integer_values(pairings(rows * ct.cd.sizes[None, :, None], rows), ct.e)
    if not np.array_equal(prods, len(ct.table) * np.eye(ct.k, dtype=np.int64)):
        raise AssertionError("row orthogonality fails")


def sl_class_profile_by_lookup(ct_gl: CharTable, sl_table: GroupTable) -> np.ndarray:
    """How many SL elements land in each GL conjugacy class, by looking up
    every element of a full SL table in the GL table."""
    classes = ct_gl.cd.class_of[ct_gl.table.ids_of(sl_table.elems)]
    return np.bincount(classes, minlength=ct_gl.k)


def restriction_norm_row(ct_gl: CharTable, t: int, sl_table: GroupTable) -> int:
    """<Res chi_t, Res chi_t>_SL for one row, by its own pairings call over
    the looked-up SL profile."""
    row = ct_gl.rows[t][None]
    acc = pairings(row * sl_class_profile_by_lookup(ct_gl, sl_table)[None, :, None], row)
    return int(integer_values(acc, ct_gl.e, len(sl_table))[0, 0])


# ---------------------------------------------------------------------------
# verdicts


def gu_transversal(table: GroupTable) -> np.ndarray:
    """A transversal of G/U read off the full table: the member of smallest
    key in each coset g U."""
    ring = table.ring
    keys = np.full(len(table), np.iinfo(np.int64).max)
    for u in unipotent_matrices(table.spec):
        keys = np.minimum(keys, element_keys(ring, mat_mul(ring, table.elems, u)))
    _, first = np.unique(keys, return_index=True)
    return table.elems[first]


def unipotent_mask(batch: np.ndarray, n: int) -> np.ndarray:
    """Which matrices of a stack are in U: unit diagonal, zero below it."""
    mask = np.ones(batch.shape[:-2], dtype=bool)
    for i in range(n):
        mask &= batch[..., i, i] == 1
        for j in range(i):
            mask &= batch[..., i, j] == 0
    return mask


def induced_norm_by_loop(spec: GroupSpec, units) -> list[int]:
    """<Ind_U^G theta_a, Ind_U^G theta_a> for each unit a of `units` by the
    Frobenius sum over a G/ZU transversal r and u in U with r u r^-1 in U:
    |Z| sum of theta_a(r u r^-1) conj(theta_a(u)) / |U|, one pass over U for
    every unit, accumulated as exponent counters and finalized in Z[zeta_m]."""
    thetas = [NonDegenChar(spec, a) for a in units]
    ring = get_ring(spec.ring)
    m = ring.char_order
    reps = coset_representatives(spec)
    invs = mat_inv_batch(ring, reps)
    u_mats = unipotent_matrices(spec, 0)
    u_expos = np.array([theta.exponents_on(u_mats) for theta in thetas])
    offsets = m * np.arange(len(thetas))[:, None]  # row a of the (units, m) counter
    counter = np.zeros(len(thetas) * m, dtype=np.int64)
    for u, eu in zip(u_mats, u_expos.T):
        v = mat_mul(ring, mat_mul(ring, reps, u), invs)
        v = v[unipotent_mask(v, spec.n)]
        if len(v):
            ev = np.array([theta.exponents_on(v) for theta in thetas])
            counter += np.bincount(((ev - eu[:, None]) % m + offsets).ravel(),
                                   minlength=len(counter))
    counter = counter.reshape(len(thetas), m) * len(central_units(spec))
    return integer_values(counter, m, len(u_mats)).tolist()


def induced_norm_by_unit(spec: GroupSpec, a: int) -> int:
    """<Ind_U^G theta_a, Ind_U^G theta_a> by the Frobenius sum over a G/U
    transversal, one pass over U for the one unit a: (1/|U|) sum over r in
    G/U and u in U with r u r^-1 in U of theta_a(r u r^-1) conj(theta_a(u))."""
    theta = NonDegenChar(spec, a)
    ring = theta.ring
    m = theta.m
    reps = gu_transversal(enumerate_group(spec))
    invs = mat_inv_batch(ring, reps)
    u_mats = unipotent_matrices(spec, 0)
    counter = np.zeros(m, dtype=np.int64)
    for u, eu in zip(u_mats, theta.exponents_on(u_mats)):
        v = mat_mul(ring, mat_mul(ring, reps, u), invs)
        mask = unipotent_mask(v, spec.n)
        if mask.any():
            counter += np.bincount((theta.exponents_on(v[mask]) - int(eu)) % m, minlength=m)
    return int(integer_values(counter, m, len(u_mats)))


def verify_checks(family: str, n: int, ring: str, a: str = "1") -> dict:
    """The checks of a passing `verify` report at --a `a`, by name."""
    env = run(JobConfig("verify", ring=ring, family=family, n=n, a_select=a, no_cache=True))
    assert env.passed
    return {c.name: c for c in env.checks}


def write_with_metadata(key: str, cache_dir: Path, meta: dict,
                        arrays: dict[str, np.ndarray]) -> Path:
    """A cache file as older writers left it: the cache's own file for
    `arrays`, with the keys of `meta` (such as e, r and degrees) added to its
    metadata line and the header rewritten to match, so that the file passes
    the integrity rule."""
    path = _write(key, cache_dir, arrays)
    line, packed = path.read_bytes().split(b"\n", 1)[1].split(b"\n", 1)
    body = json.dumps({**meta, **json.loads(line)}, sort_keys=True).encode() + b"\n" + packed
    header = {"key": key, "length": len(body), "sha256": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    return path

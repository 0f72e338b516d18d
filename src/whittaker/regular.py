"""Regular matrices over o_r, canonical a-regular forms, and factorization
types.

A matrix over o_r is regular iff it admits a cyclic vector; equivalently
iff its residue image x has a minimal polynomial of degree n, which then
equals the characteristic polynomial (Cayley-Hamilton).  Regularity is
decided at the residue field by counting annihilators: the monic degree-n
polynomials that kill x are the multiples of its minimal polynomial, and x
is regular iff there is exactly one.  type_of types a whole stack of
residue matrices at once and returns None for each non-regular one.  The
cyclic-vector search over o_r and the characteristic-polynomial route to
the type are independent test oracles (tests/oracles.py).

The type of a regular residue matrix records the degree/exponent pattern
of its characteristic polynomial; the type and iota drive the GL -> SL
branching predictions.  monic_types holds the type of every monic
polynomial of one degree, from a sieve of products on coefficient codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .localring import Ring, RingDesc, all_tuples, get_ring
from .linalg import GF_ring
from .groups import GroupSpec, poly_values


# ---------------------------------------------------------------------------
# a-regular canonical forms


def a_regular(desc: RingDesc, n: int, a: int, coeffs) -> np.ndarray:
    """The canonical regular matrix with subdiagonal (a, 1, ..., 1) and last
    column (x_1, ..., x_n), or the stack of them for a stack (..., n) of
    coefficient tuples; distinct coefficient tuples give distinct
    characteristic polynomials for fixed a."""
    if not get_ring(desc).is_unit(a):
        raise ValueError("a must be a unit")
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape[-1:] != (n,):
        raise ValueError(f"expected {n} coefficients")
    m = np.zeros(coeffs.shape + (n,), dtype=np.int64)
    if n > 1:
        m[..., 1, 0] = a
    for i in range(2, n):
        m[..., i, i - 1] = 1
    m[..., :, n - 1] = coeffs
    return m


def a_regular_coeff_tuples(spec: GroupSpec, ring: Ring):
    """Coefficient tuples (x_1..x_n) indexing a-regular classes: all of o_r^n
    for gl, last coordinate 0 (trace condition) for sl."""
    free = spec.n if spec.family == "GL" else spec.n - 1
    out = np.zeros((ring.size**free, spec.n), dtype=np.int64)
    out[:, :free] = all_tuples(ring.size, free)
    return out


# ---------------------------------------------------------------------------
# factorization types


@dataclass(frozen=True)
class TypeMatrix:
    """Sparse n-typical matrix: entries ((d, e) -> count), sum d*e*count = n."""

    n: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        total = sum(d * e * c for d, e, c in self.entries)
        if total != self.n:
            raise ValueError(f"type matrix is not {self.n}-typical")

    @staticmethod
    def make(n: int, counts: dict[tuple[int, int], int]) -> "TypeMatrix":
        entries = tuple(sorted((d, e, c) for (d, e), c in counts.items() if c))
        return TypeMatrix(n, entries)

    def count(self, d: int, e: int) -> int:
        for dd, ee, c in self.entries:
            if (dd, ee) == (d, e):
                return c
        return 0

    def exponents(self) -> set[int]:
        return {e for _, e, c in self.entries if c}

    def label(self) -> str:
        """n = 2 trichotomy label, or a generic type string for n >= 3."""
        if self.n == 2:
            if self.count(2, 1):
                return "cuspidal"
            if self.count(1, 2):
                return "split-nss"
            return "split-ss"
        return ",".join(f"({d},{e})x{c}" for d, e, c in self.entries)


def _monics(q: int, d: int) -> np.ndarray:
    """The ascending coefficient codes (q^d, d + 1) of every monic degree-d
    polynomial over F_q, in all_tuples order: the code of a monic is the
    base-q number of its coefficients below t^d, constant term fastest."""
    monic = np.ones((q**d, d + 1), dtype=np.int64)
    monic[:, :d] = all_tuples(q, d)
    return monic


def _products(F: Ring, i: int, j: int) -> dict[int, tuple[int, int]]:
    """{code: (a, b)} over the products of every monic a of degree i with every
    monic b of degree j, by one batched convolution over F; a code that
    several pairs reach keeps the first of them, a-major."""
    a, b = _monics(F.size, i), _monics(F.size, j)
    out = np.zeros((len(a), len(b), i + j + 1), dtype=np.int64)
    for s in range(i + 1):  # out += a_s t^s b
        out[:, :, s:s + j + 1] = F.v_add(out[:, :, s:s + j + 1],
                                         F.v_mul(a[:, None, s, None], b[None]))
    codes = (out[..., :i + j] @ F.size ** np.arange(i + j)).ravel().tolist()
    # the first pair to reach a code is the last one written
    return {code: divmod(k, len(b)) for k, code in reversed(list(enumerate(codes)))}


@lru_cache(maxsize=None)
def monic_types(q: int, n: int) -> tuple[TypeMatrix, ...]:
    """The type of every monic degree-n polynomial over F_q, indexed by its
    code (the _monics order).

    A monic of degree d is reducible iff it is the product of monics of
    degrees i and d - i for some 1 <= i <= d/2.  Its irreducible factors are
    those of the first such pair that reaches it; the codes that no pair
    reaches are the irreducibles of degree d.
    """
    F = GF_ring(q)
    # factors[d][code]: the irreducible factors (degree, code) of a monic, repeated
    factors: list[list[tuple]] = [[()]]
    for d in range(1, n + 1):
        got: dict[int, tuple] = {}
        for i in range(1, d // 2 + 1):
            for code, (a, b) in _products(F, i, d - i).items():
                if code not in got:
                    got[code] = factors[i][a] + factors[d - i][b]
        factors.append([got.get(code, ((d, code),)) for code in range(q**d)])
    return tuple(TypeMatrix.make(n, Counter((deg, e) for (deg, _), e in Counter(f).items()))
                 for f in factors[n])


def type_of(xs: np.ndarray, q: int) -> list[TypeMatrix | None]:
    """Type of each code matrix of an (X, n, n) stack over F_q, or None where
    it is not regular.

    The monic degree-n annihilators of x are the multiples of its minimal
    polynomial mu, q^(n - deg mu) of them: x is regular iff exactly one
    exists, and then it is the characteristic polynomial, whose type
    monic_types holds.  All q^n of them are evaluated at every x at once.
    """
    n = xs.shape[-1]
    types = monic_types(q, n)
    kills = ~poly_values(GF_ring(q), _monics(q, n), xs).any(axis=(-2, -1))  # (X, q^n)
    return [types[first] if count == 1 else None
            for count, first in zip(kills.sum(axis=1).tolist(), kills.argmax(axis=1).tolist())]


def iota(tau: TypeMatrix, r: int) -> int:
    """gcd of the occurring exponents together with r."""
    g = r
    for e in tau.exponents():
        g = gcd(g, e)
    return g

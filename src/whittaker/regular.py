"""Regular matrices over o_r, canonical a-regular forms, and factorization
types.

A matrix over o_r is regular iff it admits a cyclic vector; equivalently
iff its residue image has a minimal polynomial of degree n, which then
equals the characteristic polynomial (Cayley-Hamilton).  Regularity is
decided at the residue field, by one minimal polynomial: type_of returns
None for a non-regular matrix.  The cyclic-vector search over o_r and the
characteristic-polynomial route to the type are independent test oracles
(tests/oracles.py).

The type of a regular residue matrix records the degree/exponent pattern
of its minimal (= characteristic) polynomial; the type and iota drive the
GL -> SL branching predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .localring import Ring, RingDesc, all_tuples, get_ring
from .linalg import Poly, factor_poly, min_poly
from .groups import GroupSpec


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


def type_of(a: np.ndarray, q: int) -> TypeMatrix | None:
    """Type of a code matrix over F_q, or None when it is not regular.

    One minimal polynomial decides both: it divides the characteristic
    polynomial, so it has degree n iff the two are equal (a is regular), and
    then its factorization is the type.  Each distinct polynomial is
    factored once per process.
    """
    mp = min_poly(a, q)
    return _poly_type(mp) if mp.degree == a.shape[-1] else None


@lru_cache(maxsize=None)
def _poly_type(poly: Poly) -> TypeMatrix:
    """The (degree, exponent) counts of a monic polynomial's factorization;
    the cache holds one entry per distinct polynomial, at most q^n per (q, n)."""
    counts: dict[tuple[int, int], int] = {}
    for f, e in factor_poly(poly):
        key = (f.degree, e)
        counts[key] = counts.get(key, 0) + 1
    return TypeMatrix.make(poly.degree, counts)


def iota(tau: TypeMatrix, r: int) -> int:
    """gcd of the occurring exponents together with r."""
    g = r
    for e in tau.exponents():
        g = gcd(g, e)
    return g

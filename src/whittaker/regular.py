"""Regular (cyclic) matrices over o_r, canonical a-regular forms, and the
combinatorics of factorization types.

A matrix over o_r is regular iff it admits a cyclic vector; equivalently
iff its residue image has equal characteristic and minimal polynomials.
Regularity is decided at the residue field, with the cyclic-vector search
over o_r kept as an independent cross-check oracle.

The type of a regular residue matrix records the degree/exponent pattern
of its characteristic polynomial; iota and the residue centralizer order
computed from the type drive the GL -> SL branching predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .localring import Ring, RingDesc, all_tuples, get_ring
from .linalg import (GF_ring, Mat, Poly, char_poly, companion, factor_poly, mat_det_batch,
                     min_poly, monic_irreducibles)
from .groups import GroupSpec, matrix_powers


# ---------------------------------------------------------------------------
# regularity tests


def is_regular(x: Mat) -> bool:
    """True iff x is regular: its residue has char poly = min poly."""
    xbar = x.project(1) if x.ring.ell > 1 else x
    return min_poly(xbar).degree == x.n


def is_cyclic(x: Mat) -> bool:
    """Cyclic-vector search over o_r itself (independent oracle for is_regular).

    Looks for v with det([v, xv, ..., x^(n-1)v]) a unit, over all q^(rn)
    candidate vectors.
    """
    ring = x.ring
    n = x.n
    pows = matrix_powers(ring, x.a, n)
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
# a-regular canonical forms


def a_regular(desc: RingDesc, n: int, a: int, coeffs) -> Mat:
    """The canonical regular matrix with subdiagonal (a, 1, ..., 1) and last
    column (x_1, ..., x_n); distinct coefficient tuples give distinct
    characteristic polynomials for fixed a."""
    if not get_ring(desc).is_unit(a):
        raise ValueError("a must be a unit")
    if len(coeffs) != n:
        raise ValueError(f"expected {n} coefficients")
    m = np.zeros((n, n), dtype=np.int64)
    if n > 1:
        m[1, 0] = a
    for i in range(2, n):
        m[i, i - 1] = 1
    for i in range(n):
        m[i, n - 1] = coeffs[i]
    return Mat(desc, m)


def a_regular_coeff_tuples(spec: GroupSpec, ring: Ring):
    """Coefficient tuples (x_1..x_n) indexing a-regular classes: all of o_r^n
    for gl, last coordinate 0 (trace condition) for sl."""
    free = spec.n if spec.family == "GL" else spec.n - 1
    out = np.zeros((ring.size**free, spec.n), dtype=np.int64)
    out[:, :free] = all_tuples(ring.size, free)
    return out


def count_a_regular_classes(family: str, n: int, desc: RingDesc) -> int:
    """Number of a-regular conjugacy classes of g(o_r) for a fixed unit a:
    q^(n r) for gl_n, q^((n-1) r) for sl_n.  For sl_n the count holds where
    (p,2) = (p,n) = 1 (whittaker_verify.predictions_supported)."""
    d = n if family == "GL" else n - 1
    return desc.q ** (d * desc.ell)


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


def type_of(xbar: Mat) -> TypeMatrix:
    """Type of a regular matrix over F_q from its char poly factorization."""
    if xbar.ring.ell != 1:
        raise ValueError("type_of expects a residue-field matrix")
    cp = char_poly(xbar)
    if min_poly(xbar) != cp:
        raise ValueError("type_of requires a regular matrix")
    counts: dict[tuple[int, int], int] = {}
    for f, e in factor_poly(cp):
        key = (f.degree, e)
        counts[key] = counts.get(key, 0) + 1
    return TypeMatrix.make(xbar.n, counts)


def iota(tau: TypeMatrix, r: int) -> int:
    """gcd of the occurring exponents together with r."""
    g = r
    for e in tau.exponents():
        g = gcd(g, e)
    return g


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


def tau_regular_companion(tau: TypeMatrix, q: int) -> Mat | None:
    """A tau-regular companion matrix over F_q, or None when F_q has too few
    irreducibles of some degree to realize tau."""
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
    return Mat(GF_ring(q).desc, companion(poly))

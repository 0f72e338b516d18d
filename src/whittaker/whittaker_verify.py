"""Exact verification of Whittaker-model multiplicity and dimension claims.

For G in {GL_n, SL_n} over o_l and a unit a, the induced representation
Ind_U^G(theta_a) of the non-degenerate character

    theta_a((x_ij)) = phi(a x_12 + x_23 + ... + x_{n-1,n})

is analyzed through two independent routes:

* computed: dim Ind = [G : U] and the self-intertwining norm
  <Ind theta_a, Ind theta_a> by the exact Frobenius sum over a G/U
  transversal g and u in U with g u g^-1 unipotent, accumulated as a
  root-of-unity exponent counter and finalized in Z[zeta_m] by
  cyclotomic.integer_values;

* predicted: the count of a-regular constituents (sum of centralizer
  orders over a-regular classes of g(o_m), m = floor(l/2), with an extra
  q^d factor for odd l) and the closed-form dimension sum.

Norm = count and dim = dimension sum certify, at this (group, a), that
Ind theta_a is multiplicity free with the predicted constituent set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import CycloNum, integer_values
from .cyclotomic import IntegralityError  # noqa: F401  re-exported under its old home
from .localring import Ring, RingElem, get_ring, primitive_char
from .linalg import Mat, mat_mul, mat_inv_batch
from .groups import (
    GroupSpec,
    GroupTable,
    coset_representatives,
    unipotent_matrices,
    unipotent_subgroup,
    unipotent_order,
    centralizer_order_by_units,
)
from .regular import a_regular, a_regular_coeff_tuples, _check_sl_char


# ---------------------------------------------------------------------------
# characters


class NonDegenChar:
    """theta_a on U(o_l), built from the fixed primitive character phi = phi_1."""

    def __init__(self, spec: GroupSpec, a):
        self.spec = spec
        self.ring = get_ring(spec.ring)
        self.a_code = a.code if isinstance(a, RingElem) else int(a)
        if not self.ring.is_unit(self.a_code):
            raise ValueError("theta_a requires a unit twist a")
        self.phi = primitive_char(spec.ring, 1)
        self.m = self.phi.m
        self._expo = self.ring.phi_exponents()

    def exponents_on(self, batch: np.ndarray) -> np.ndarray:
        """Exponent of theta_a on a stack of unipotent matrices (unvalidated)."""
        ring = self.ring
        n = self.spec.n
        s = ring.v_mul(np.full(batch.shape[:-2], self.a_code, dtype=np.int64),
                       batch[..., 0, 1]) if n >= 2 else np.zeros(batch.shape[:-2], np.int64)
        for i in range(1, n - 1):
            s = ring.v_add(s, batch[..., i, i + 1])
        return self._expo[np.asarray(s, dtype=np.intp)]

    def exponent(self, u_codes) -> int:
        return int(self.exponents_on(np.asarray(u_codes, dtype=np.int64)[None])[0])


def theta_value(theta: NonDegenChar, u: Mat) -> CycloNum:
    """Value of theta_a at u in U(o_l), as an exact root of unity."""
    if u.desc != theta.spec.ring or not unipotent_mask(u.a, u.n):
        raise ValueError("theta is defined on unipotent upper-triangular matrices")
    c = [0] * theta.m
    c[theta.exponent(u.a)] = 1
    return CycloNum(theta.m, c)


def unipotent_mask(batch: np.ndarray, n: int) -> np.ndarray:
    mask = np.ones(batch.shape[:-2], dtype=bool)
    for i in range(n):
        mask &= batch[..., i, i] == 1
        for j in range(i):
            mask &= batch[..., i, j] == 0
    return mask


class DualityChar:
    """phi_x on the congruence kernel K^i, for x over o_{l-i} and i >= ceil(l/2).

    On y = I + pi^i y' the value is phi(pi^i tr(x_hat y')), independent of
    the chosen lift x_hat of x.
    """

    def __init__(self, group_ring: Ring, i: int, x: Mat, lift: np.ndarray | None = None):
        ell = group_ring.ell
        if i < (ell + 1) // 2 or i > ell:
            raise ValueError(f"duality requires ceil(l/2) <= i <= l; got i = {i}, l = {ell}")
        sub = group_ring.subring(ell - i) if i < ell else None
        if i < ell and x.desc != sub.desc:
            raise ValueError(f"x must live over o_{ell - i}")
        self.ring = group_ring
        self.i = i
        self.x = x
        self.lift = np.asarray(lift, dtype=np.int64) if lift is not None else x.a.copy()
        if i < ell and not np.array_equal(self.lift % group_ring.q ** (ell - i), x.a):
            raise ValueError("lift does not reduce to x")
        self.m = group_ring.char_order
        self._expo = group_ring.phi_exponents()

    def exponent_from_level(self, yprime: np.ndarray) -> int:
        """Exponent at y = I + pi^i y', with y' given as a code matrix."""
        ring = self.ring
        t = 0
        n = yprime.shape[0]
        prod = mat_mul(ring, self.lift, yprime)
        for k in range(n):
            t = ring.add(t, int(prod[k, k]))
        return int(self._expo[ring.mul_varpi_pow(t, self.i)])

    def exponent(self, y_codes: np.ndarray) -> int:
        ring = self.ring
        y = np.asarray(y_codes, dtype=np.int64)
        diff = ring.v_sub(y, np.eye(y.shape[0], dtype=np.int64))
        if np.any(diff % ring.q**self.i != 0):
            raise ValueError(f"element is not in K^{self.i}")
        yprime = diff // ring.q**self.i
        return self.exponent_from_level(yprime)


def phi_x_value(d: DualityChar, y: Mat) -> CycloNum:
    """Value of phi_x at y in K^i."""
    e = d.exponent(y.a)
    c = [0] * d.m
    c[e] = 1
    return CycloNum(d.m, c)


# ---------------------------------------------------------------------------
# induced dimension and norm


def induced_dim(spec: GroupSpec, table: GroupTable | None = None) -> int:
    """dim Ind_U^G(theta) = [G : U], by closed form (and table division)."""
    order = spec.order()
    u_order = unipotent_order(spec.n, spec.ring)
    dim, rem = divmod(order, u_order)
    if rem:
        raise AssertionError("group order not divisible by |U|")
    if table is not None:
        by_table = len(table) // len(unipotent_subgroup(table, 0))
        if by_table != dim:
            raise AssertionError("closed-form index disagrees with table division")
    return dim


def induced_norm(spec: GroupSpec, a) -> int:
    """<Ind_U^G theta_a, Ind_U^G theta_a> by the exact Frobenius sum over a
    G/U transversal.

    S(g) = sum over u in U with g u g^-1 in U of theta_a(g u g^-1)
    conj(theta_a(u)) is constant on each coset gU (theta_a is a linear
    character of U), so the norm (1/|U|^2) sum_{g in G} S(g) equals
    (1/|U|) sum_{r in G/U} S(r).  The sum is accumulated as an exponent
    counter and finalized in Z[zeta_m]; the result must be an integer.
    """
    theta = NonDegenChar(spec, a)
    ring = theta.ring
    m = theta.m
    reps = coset_representatives(spec)
    invs = mat_inv_batch(ring, reps)
    u_mats = unipotent_matrices(spec, 0)
    counter = np.zeros(m, dtype=np.int64)
    for u, eu in zip(u_mats, theta.exponents_on(u_mats)):
        v = mat_mul(ring, mat_mul(ring, reps, u), invs)
        mask = unipotent_mask(v, spec.n)
        if mask.any():
            counter += np.bincount((theta.exponents_on(v[mask]) - int(eu)) % m, minlength=m)
    return int(integer_values(counter, m, len(u_mats)))


# ---------------------------------------------------------------------------
# predictions from the regular-representation counting


def predictions_supported(spec: GroupSpec) -> bool:
    """The regular-count/dimension predictions require (p,2) = (p,n) = 1 for SL."""
    if spec.family == "GL":
        return True
    p = spec.ring.p
    return p != 2 and spec.n % p != 0


def predicted_regular_count(spec: GroupSpec, a, strict: bool = True) -> int:
    """Predicted number of constituents of Ind theta_a: the number of
    a-regular irreducibles.

    Even l = 2m: sum over a-regular classes x of g(o_m) of |C_{G(o_m)}(x)|.
    Odd l = 2m+1: the same sum times q^d, d the residue centralizer
    dimension.  Centralizer orders come from unit groups of o_m[x].
    """
    ring = get_ring(spec.ring)
    if ring.ell < 2:
        raise ValueError("predictions require l >= 2")
    _check_sl_char(spec.family, spec.n, spec.ring, strict)
    m_level = ring.ell // 2
    sub = ring.subring(m_level)
    spec_m = GroupSpec(spec.family, spec.n, sub.desc)
    a_code = a.code if isinstance(a, RingElem) else int(a)
    a_m = ring.project_code(a_code, m_level)
    xs = np.stack([a_regular(sub.desc, spec.n, a_m, [int(c) for c in coeffs]).a
                   for coeffs in a_regular_coeff_tuples(spec, sub)])
    total = int(centralizer_order_by_units(spec_m, xs).sum())
    if ring.ell % 2 == 1:
        total *= ring.q**spec.reg_centralizer_dim
    return total


def predicted_dim_sum(spec: GroupSpec, strict: bool = True) -> int:
    """Predicted sum of dimensions of the a-regular irreducibles (closed form).

    Even l = 2m: q^(d m) |G(o_m)|; odd l = 2m+1: q^(d m) q^((d_g + d)/2)
    |G(o_m)|, with d_g = dim g and d the regular residue centralizer
    dimension.  The multiplicity-one theorem makes this equal [G : U].
    """
    ring = get_ring(spec.ring)
    if ring.ell < 2:
        raise ValueError("predictions require l >= 2")
    _check_sl_char(spec.family, spec.n, spec.ring, strict)
    m_level = ring.ell // 2
    q = ring.q
    d = spec.reg_centralizer_dim
    base = q ** (d * m_level) * GroupSpec(spec.family, spec.n, ring.subring(m_level).desc).order()
    if ring.ell % 2 == 1:
        base *= q ** ((spec.lie_dim + d) // 2)
    return base


def sl2_printed_index(q: int, ell: int) -> int:
    """The index value (q^2-1) q^(2l-4) as printed in the SL_2 source table;
    disagrees with |SL_2(o_l)| / |U| (recorded as a note in reports)."""
    return (q * q - 1) * q ** (2 * ell - 4)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class CheckRecord:
    claim: str
    predicted: object
    computed: object
    passed: bool
    informational: bool = False


@dataclass
class VerificationReport:
    spec_key: str
    a_code: int
    ind_dim: int
    ind_norm: int
    predicted_count: int | None
    predicted_dim: int | None
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_key,
            "a": self.a_code,
            "computed": {"ind_dim": self.ind_dim, "ind_norm": self.ind_norm},
            "predicted": {
                "regular_count": self.predicted_count,
                "dim_sum": self.predicted_dim,
            },
            "checks": [
                {
                    "claim": c.claim,
                    "predicted": c.predicted,
                    "computed": c.computed,
                    "pass": c.passed,
                    "informational": c.informational,
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }


def verify_multiplicity_one(
    spec: GroupSpec,
    a,
    table: GroupTable | None = None,
) -> VerificationReport:
    """Full verdict at one (group, a): norm = regular count and
    dim = dimension sum = index.

    For SL with p | 2n the predictions are skipped (reported as such).
    """
    a_code = a.code if isinstance(a, RingElem) else int(a)
    ring = get_ring(spec.ring)
    dim = induced_dim(spec, table)
    norm = induced_norm(spec, a_code)
    checks = [
        CheckRecord("induced-norm-positive-and-bounded", f"1..{dim}", norm,
                    1 <= norm <= dim),
    ]
    pcount = pdim = None
    if predictions_supported(spec):
        pcount = predicted_regular_count(spec, a_code)
        pdim = predicted_dim_sum(spec)
        checks.append(CheckRecord("whittaker-norm-equals-regular-count", pcount, norm,
                                  norm == pcount))
        checks.append(CheckRecord("dimension-sum-equals-induced-dim", pdim, dim,
                                  pdim == dim))
    else:
        checks.append(CheckRecord("predictions-skipped-sl-bad-characteristic",
                                  None, None, True, informational=True))
    if spec.family == "SL" and spec.n == 2:
        printed = sl2_printed_index(ring.q, ring.ell)
        checks.append(CheckRecord("sl2-printed-index-identity", printed, dim,
                                  printed == dim, informational=True))
    return VerificationReport(
        spec_key=spec.key(),
        a_code=a_code,
        ind_dim=dim,
        ind_norm=norm,
        predicted_count=pcount,
        predicted_dim=pdim,
        checks=checks,
    )

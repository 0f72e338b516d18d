"""The two sides of the Whittaker-model multiplicity and dimension claims.

For G in {GL_n, SL_n} over o_l and a unit a, the induced representation
Ind_U^G(theta_a) of the non-degenerate character

    theta_a((x_ij)) = phi(a x_12 + x_23 + ... + x_{n-1,n})

is measured here, and cli.cmd_verify compares the two sides:

* computed: dim Ind = [G : U] and the self-intertwining norm
  <Ind theta_a, Ind theta_a> by the exact Frobenius sum over a G/ZU
  transversal g (Z the scalar matrices of G) and u in U with g u g^-1
  unipotent, one pass over U for every unit a at once, accumulated as
  root-of-unity exponent counters and finalized in Z[zeta_m] by
  cyclotomic.integer_values;

* predicted: the count of a-regular constituents (sum of centralizer
  orders over a-regular classes of g(o_m), m = floor(l/2), with an extra
  q^d factor for odd l) and the closed-form dimension sum.

Both characters are exponent maps on code arrays, read off the one table
Ring.phi_exponents() of phi: theta_a is NonDegenChar.exponents_on, on a
stack of unipotent matrices, and the duality character
phi_x(I + pi^i y') = phi(pi^i tr(x y')) of the congruence kernel K^i is
phi_x_exponents, on a stack of x against a stack of y'.  The verdicts and
the lemma tests call the same two functions.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import integer_values
from .cyclotomic import IntegralityError  # noqa: F401  re-exported under its old home
from .localring import Ring, get_ring
from .linalg import mat_mul, mat_inv_batch
from .groups import (
    GroupSpec,
    GroupTable,
    central_units,
    coset_representatives,
    unipotent_matrices,
    unipotent_subgroup,
    unipotent_order,
    centralizer_order_by_units,
)
from .regular import a_regular, a_regular_coeff_tuples


# ---------------------------------------------------------------------------
# characters


class NonDegenChar:
    """theta_a on U(o_l), built from the fixed primitive character phi = phi_1."""

    def __init__(self, spec: GroupSpec, a: int):
        self.spec = spec
        self.ring = get_ring(spec.ring)
        self.a_code = int(a)
        if not self.ring.is_unit(self.a_code):
            raise ValueError("theta_a requires a unit twist a")
        self.m = self.ring.char_order
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


def unipotent_mask(batch: np.ndarray, n: int) -> np.ndarray:
    mask = np.ones(batch.shape[:-2], dtype=bool)
    for i in range(n):
        mask &= batch[..., i, i] == 1
        for j in range(i):
            mask &= batch[..., i, j] == 0
    return mask


def phi_x_exponents(ring: Ring, i: int, lifts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Exponents of phi_x(y) = phi(pi^i tr(x_hat y')) of zeta_m, m = ring.char_order,
    as an (X, Y) array over a stack of lifts x_hat and a stack of levels y'.

    x is a matrix over o_(l-i), x_hat any lift of it to o_l (an (X, n, n) code
    stack), and y = I + pi^i y' runs over the congruence kernel K^i (an
    (Y, n, n) code stack of y').  For ceil(l/2) <= i <= l the value does not
    depend on the lift, and x -> phi_x is the duality onto the characters of K^i.
    """
    ell = ring.ell
    if i < (ell + 1) // 2 or i > ell:
        raise ValueError(f"duality requires ceil(l/2) <= i <= l; got i = {i}, l = {ell}")
    n = lifts.shape[-1]
    tr = np.zeros((len(lifts), len(levels)), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            tr = ring.v_add(tr, ring.v_mul(lifts[:, a, b][:, None], levels[:, b, a][None, :]))
    # pi^i t has the code (t mod q^(l-i)) q^i in both families
    return ring.phi_exponents()[tr % ring.q ** (ell - i) * ring.q**i]


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


def induced_norm(spec: GroupSpec, units) -> list[int]:
    """<Ind_U^G theta_a, Ind_U^G theta_a> for each unit a of `units`, by the
    exact Frobenius sum over a G/ZU transversal, Z the scalar matrices of G.

    S(g) = sum over u in U with g u g^-1 in U of theta_a(g u g^-1)
    conj(theta_a(u)) is constant on each coset gU (theta_a is a linear
    character of U), and S(z g) = S(g) for z in Z, since z is central and
    (z g) u (z g)^-1 = g u g^-1.  A scalar z keeps the canonical pattern of
    a coset representative (groups.coset_representatives), so G is the
    disjoint union of the z r U and the norm (1/|U|^2) sum_{g in G} S(g)
    equals |Z| sum_{r in G/ZU} S(r) / |U|.  The sum over r alone need not be
    divisible by |U|; times |Z| it is the sum over the G/U transversal
    {z r}, which is.
    Each u in U is conjugated once, and the unipotent mask taken once, for
    all the units; each unit's sum is accumulated as an exponent counter and
    finalized in Z[zeta_m], and the result must be an integer.
    """
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


# ---------------------------------------------------------------------------
# predictions from the regular-representation counting


def predictions_supported(spec: GroupSpec) -> bool:
    """The one gate of the regular-count/dimension predictions: for SL they
    require (p,2) = (p,n) = 1."""
    if spec.family == "GL":
        return True
    p = spec.ring.p
    return p != 2 and spec.n % p != 0


def predicted_regular_count(spec: GroupSpec, a: int) -> int:
    """Predicted number of constituents of Ind theta_a: the number of
    a-regular irreducibles.

    Even l = 2m: sum over a-regular classes x of g(o_m) of |C_{G(o_m)}(x)|.
    Odd l = 2m+1: the same sum times q^d, d the residue centralizer
    dimension.  Centralizer orders come from unit groups of o_m[x].  The
    formula is asserted only where predictions_supported(spec) holds.
    """
    ring = get_ring(spec.ring)
    if ring.ell < 2:
        raise ValueError("predictions require l >= 2")
    m_level = ring.ell // 2
    sub = ring.subring(m_level)
    spec_m = GroupSpec(spec.family, spec.n, sub.desc)
    a_m = ring.project_code(a, m_level)
    xs = a_regular(sub.desc, spec.n, a_m, a_regular_coeff_tuples(spec, sub))
    total = int(centralizer_order_by_units(spec_m, xs).sum())
    if ring.ell % 2 == 1:
        total *= ring.q**spec.reg_centralizer_dim
    return total


def predicted_dim_sum(spec: GroupSpec) -> int:
    """Predicted sum of dimensions of the a-regular irreducibles (closed form).

    Even l = 2m: q^(d m) |G(o_m)|; odd l = 2m+1: q^(d m) q^((d_g + d)/2)
    |G(o_m)|, with d_g = dim g and d the regular residue centralizer
    dimension.  The multiplicity-one theorem makes this equal [G : U]; it
    is asserted only where predictions_supported(spec) holds.
    """
    ring = get_ring(spec.ring)
    if ring.ell < 2:
        raise ValueError("predictions require l >= 2")
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

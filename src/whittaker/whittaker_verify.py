"""The two sides of the Whittaker-model multiplicity and dimension claims.

For G in {GL_n, SL_n} over o_l and a unit a, the induced representation
Ind_U^G(theta_a) of the non-degenerate character

    theta_a((x_ij)) = phi(a x_12 + x_23 + ... + x_{n-1,n})

is measured here, and cli.cmd_verify compares the two sides:

* computed: dim Ind = [G : U] and the self-intertwining norm
  <Ind theta_a, Ind theta_a> by Mackey over o_l-modules: a sum over a G/ZU
  transversal (Z the scalar matrices of G) of |U cap r^-1 U r| or 0, read
  off one Smith elimination of an o_l-linear map per representative r,
  batched over the transversal for every unit a at once (mackey_terms);

* predicted: the count of a-regular constituents (sum of centralizer
  orders over a-regular classes of g(o_m), m = floor(l/2), with an extra
  q^d factor for odd l) and the closed-form dimension sum.

Both characters are exponent maps on code arrays, read off the one table
Ring.phi_exponents() of phi: theta_a is NonDegenChar.exponents_on, and the
duality character phi_x(I + pi^i y') = phi(pi^i tr(x y')) of the congruence
kernel K^i is phi_x_exponents; chartab and the lemma tests call the same two.
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import IntegralityError
from .localring import Ring, get_ring
from .linalg import mat_inv_batch
from .groups import (
    GroupSpec,
    GroupTable,
    central_units,
    coset_representatives,
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
    dim, rem = divmod(spec.order(), unipotent_order(spec.n, spec.ring))
    if rem:
        raise AssertionError("group order not divisible by |U|")
    if table is not None:
        by_table = len(table) // len(unipotent_subgroup(table, 0))
        if by_table != dim:
            raise AssertionError("closed-form index disagrees with table division")
    return dim


def mackey_terms(ring: Ring, reps: np.ndarray, units) -> tuple[np.ndarray, np.ndarray]:
    """(sum_v, passed) for a stack of r: |U cap r^-1 U r| = q^sum_v[r], and
    passed[r, x] says if theta_a(r u r^-1) conj(theta_a(u)) = phi(L_r N), u = I + N,
    is trivial on it, a = units[x].  r u r^-1 is in U iff C_r N = 0, C_r[(a, b),
    (i, j)] = r_ai (r^-1)_jb for a >= b, i < j.  Column operations, shared by the
    L_r rows, bring C_r to pi^v_t times a unit in column t (v_t = l if zero); row
    operations need no arithmetic, the pivot row being zero right of column t.
    L_r vanishes on ker C_r iff its column t has valuation >= v_t for every t.
    """
    n, val, count = reps.shape[-1], ring.valuations, len(reps)
    invs = mat_inv_batch(ring, reps)
    (rows, cols), (i, j) = np.tril_indices(n), np.triu_indices(n, 1)
    d, k_dim = len(rows), len(i)
    M = np.zeros((count, d + len(units), k_dim), dtype=np.int64)  # C_r over the L_r rows
    M[:, :d] = ring.v_mul(reps[:, rows[:, None], i], invs[:, j, cols[:, None]])
    for k in range(n - 1):  # L_r N = lambda_a(r N r^-1 - N), lambda_a(N) = a N_01 + N_12 + ...
        term = ring.v_sub(ring.v_mul(reps[:, k, i], invs[:, j, k + 1]), (i == k) & (j == k + 1))
        M[:, d:] = ring.v_add(M[:, d:], ring.v_mul(np.c_[units] if k == 0 else 1, term[:, None]))
    at, sum_v, passed = np.arange(count), np.zeros(count, int), np.ones((count, len(units)), bool)
    for t in range(k_dim):
        v = val[M[:, :d, t:]].reshape(count, -1)
        flat = v.argmin(axis=1)
        row, col, v = flat // (k_dim - t), t + flat % (k_dim - t), v[at, flat]
        M[at, :, t], M[at, :, col] = M[at, :, col], M[at, :, t]
        piv = M[at, row, t:] // ring.q ** v[:, None]  # the pivot row over pi^v, code q^v
        f = ring.v_mul(piv[:, 1:], ring.v_inv()[piv[:, :1]])
        M[:, :, t + 1:] = ring.v_sub(M[:, :, t + 1:], ring.v_mul(f[:, None], M[:, :, t, None]))
        sum_v += v
        passed &= val[M[:, d:, t]] >= v[:, None]
    return sum_v, passed


def induced_norm(spec: GroupSpec, units) -> list[int]:
    """<Ind_U^G theta_a, Ind_U^G theta_a> for each unit a of `units`: with Z the
    scalars of G and S(g) the sum over U cap g^-1 U g of theta_a(g u g^-1)
    conj(theta_a(u)), constant on gU and on Zg, it is |Z| sum_{r in G/ZU} S(r)
    / |U| (groups.coset_representatives), S(r) = |U cap r^-1 U r| or 0."""
    ring = get_ring(spec.ring)
    sum_v, passed = mackey_terms(ring, coset_representatives(spec), units)
    z, u_order = len(central_units(spec)), unipotent_order(spec.n, spec.ring)
    totals = [z * sum(int(c) * ring.q**s for s, c in enumerate(np.bincount(sum_v[hit])))
              for hit in passed.T]
    if any(total % u_order for total in totals):
        raise IntegralityError(f"Mackey sums {totals} are not all divisible by |U| = {u_order}")
    return [total // u_order for total in totals]


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

"""Enumeration and indexing of GL_n(o_l) and SL_n(o_l) with their subgroups.

A full GroupTable holds every element as a code matrix in a canonical
order (identity first, the rest ascending by row-major code tuple), in
code_dtype, plus their int64 keys (the code tuple read in base |o_l|): those
after the identity are the index, searched in O(log |G|) per element of a batch.

G is listed as Z * (G/ZU transversal) * U, with Z the scalar matrices c I
of G (c any unit for GL, c^n = 1 for SL; central_units lists the c):
coset_representatives builds a transversal of G/ZU without listing G, and
every element of G is z r u for exactly one z in Z, one representative r
and one u in U.  The transversal asserts |R| |Z| |U| = |G| and that det r
is a unit (GL) or 1 (SL), so every product is in G since
det(z r u) = c^n det r.  A table is accepted only with |G| rows, the
identity first and strictly increasing keys after it, so its rows are |G|
distinct matrices.  Those of enumerate_group are members of G, hence all of
G; a table loaded from the cache has no determinant checked, and only its
file's digest stands for its membership.  The induced norm sums over the
transversal alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .localring import CapExceeded, Ring, RingDesc, all_tuples, get_ring
from .linalg import mat_det_batch, mat_inv_batch, mat_mul

TABLE_CAP = 200_000
COSET_CAP = 2_000_000


@dataclass(frozen=True)
class GroupSpec:
    family: str  # "GL" or "SL"
    n: int
    ring: RingDesc

    def __post_init__(self):
        if self.family not in ("GL", "SL"):
            raise ValueError("family must be GL or SL")
        if self.n < 1:
            raise ValueError("n must be positive")

    def order(self) -> int:
        return group_order(self.family, self.n, self.ring)

    def key(self) -> str:
        return f"{self.family}{self.n}({self.ring.key()})"

    def __str__(self):
        return self.key()

    @property
    def lie_dim(self) -> int:
        """d_g: n^2 for gl, n^2 - 1 for sl."""
        return self.n * self.n - (1 if self.family == "SL" else 0)

    @property
    def reg_centralizer_dim(self) -> int:
        """Residue centralizer dimension of a regular element: n or n - 1."""
        return self.n - (1 if self.family == "SL" else 0)


def gl_order_residue(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def group_order(family: str, n: int, ring: RingDesc) -> int:
    q, ell = ring.q, ring.ell
    gl = q ** (n * n * (ell - 1)) * gl_order_residue(n, q)
    if family == "GL":
        return gl
    return gl // (q ** (ell - 1) * (q - 1))


def unipotent_order(n: int, ring: RingDesc, k: int = 0) -> int:
    return ring.q ** ((ring.ell - k) * n * (n - 1) // 2)


def congruence_order(spec: GroupSpec, i: int) -> int:
    d = spec.lie_dim
    return spec.ring.q ** (d * (spec.ring.ell - i))


# ---------------------------------------------------------------------------
# enumeration


def iter_group_chunks(spec: GroupSpec):
    """Yield the elements of G(o_l) as (N, n, n) code arrays: z r u over
    every scalar z in Z and every coset representative r, for one u in
    U(o_l) per block."""
    ring = get_ring(spec.ring)
    reps = coset_representatives(spec)
    scalars = central_units(spec)[:, None, None, None]
    for u in unipotent_matrices(spec):
        yield ring.v_mul(scalars, mat_mul(ring, reps, u)).reshape(-1, spec.n, spec.n)


def code_dtype(ring: Ring) -> np.dtype:
    """The dtype of every table's codes, built or stored: uint8 up to 256 codes, uint16 above."""
    return np.min_scalar_type(ring.size - 1)


def element_keys(ring: Ring, batch: np.ndarray) -> np.ndarray:
    """The int64 key of each code matrix: its row-major code tuple read in
    base |o_l|, first entry most significant, so keys order as the tuples do.
    einsum sums in int64 and widens a narrow batch a buffer at a time, not whole."""
    width = batch.shape[-2] * batch.shape[-1]
    if ring.size**width >= 1 << 63:
        raise CapExceeded(f"element keys of {width}-entry matrices over {ring.desc.key()} "
                          "do not fit in int64")
    return np.einsum("ij,j->i", batch.reshape(len(batch), width),
                     ring.size ** np.arange(width - 1, -1, -1), dtype=np.int64)


class GroupTable:
    """Fully enumerated group with canonical ids and batched element lookup.

    The table rule, checked on every table built or loaded: |G| rows, the
    identity first, then strictly increasing keys.  It makes the rows
    distinct, not members of G: no determinant is checked.

    elems holds the codes in code_dtype, as built or as the file's read-only
    buffer; a consumer only gathers or compares them, or widens a gathered
    block to int64 before arithmetic, which numpy would wrap silently.  The
    index is keys[1:], sorted by the table rule: position p there is id p + 1.
    """

    def __init__(self, spec: GroupSpec, elems: np.ndarray):
        self.spec = spec
        self.ring = get_ring(spec.ring)
        self.n = spec.n
        self.elems = elems
        self.size = len(elems)
        self.keys = keys = element_keys(self.ring, elems)
        if self.size != spec.order():
            raise AssertionError(f"group table of {spec.key()} has {self.size} rows, "
                                 f"|G| = {spec.order()}")
        if not np.array_equal(elems[0], np.eye(self.n, dtype=np.int64)):
            raise AssertionError(f"group table of {spec.key()} does not start with the identity")
        if np.any(keys[2:] <= keys[1:-1]) or np.any(keys[1:] == keys[0]):
            raise AssertionError(f"group table of {spec.key()}: the keys after the identity "
                                 "are not distinct and strictly increasing")
        self._invs = None

    def __len__(self):
        return self.size

    def id_of(self, codes) -> int:
        return int(self.ids_of(np.asarray(codes, dtype=np.int64)[None])[0])

    def ids_of(self, batch: np.ndarray) -> np.ndarray:
        """Ids of a stack of code matrices; KeyError if any is not an element."""
        keys = element_keys(self.ring, batch)
        ids = np.searchsorted(self.keys[1:], keys) + 1
        ids[keys == self.keys[0]] = 0
        if not np.array_equal(self.keys[np.minimum(ids, self.size - 1)], keys):
            raise KeyError("matrix is not a group element")
        return ids

    def inverses(self) -> np.ndarray:
        if self._invs is None:
            self._invs = mat_inv_batch(self.ring, self.elems)
        return self._invs


def enumerate_group(spec: GroupSpec, cap: int = TABLE_CAP) -> GroupTable:
    """Build the full table, in code_dtype; raises CapExceeded when |G| > cap."""
    order = spec.order()
    if order > cap:
        raise CapExceeded(
            f"|{spec.key()}| = {order} exceeds table cap {cap}"
        )
    elems = np.concatenate(list(iter_group_chunks(spec)))
    ring = get_ring(spec.ring)
    keys = element_keys(ring, elems)
    keys[keys == element_keys(ring, np.eye(spec.n, dtype=np.int64)[None])[0]] = -1
    # identity first, then ascending keys
    return GroupTable(spec, elems.astype(code_dtype(ring))[np.argsort(keys)])


# ---------------------------------------------------------------------------
# subgroups


def unipotent_matrices(spec: GroupSpec, k: int = 0) -> np.ndarray:
    """All of U(pi^k o_l): unit diagonal, strictly upper entries in pi^k o_l."""
    ring = get_ring(spec.ring)
    n = spec.n
    if not 0 <= k <= ring.ell:
        raise ValueError(f"k = {k} out of range [0, {ring.ell}]")
    rows, cols = np.triu_indices(n, 1)
    entries = all_tuples(ring.q ** (ring.ell - k), len(rows)) * ring.q**k
    out = np.tile(np.eye(n, dtype=np.int64), (len(entries), 1, 1))
    out[:, rows, cols] = entries
    return out


def unipotent_subgroup(table: GroupTable, k: int = 0) -> np.ndarray:
    """The sorted ids of U(pi^k) in the table."""
    ids = np.flatnonzero(np.bincount(table.ids_of(unipotent_matrices(table.spec, k))))
    expected = unipotent_order(table.n, table.spec.ring, k)
    if len(ids) != expected:
        raise AssertionError(f"U(pi^{k}) of {table.spec.key()} has {len(ids)} elements, "
                             f"|U(pi^{k})| = {expected}")
    return ids


def central_units(spec: GroupSpec) -> np.ndarray:
    """The codes c, ascending, of the scalar matrices c I in G: every unit
    for GL, the units with c^n = 1 for SL.  They form the central subgroup Z."""
    ring = get_ring(spec.ring)
    units = np.array(ring.unit_codes(), dtype=np.int64)  # CapExceeded above the table gate
    if spec.family == "GL":
        return units
    power = np.ones_like(units)
    for _ in range(spec.n):
        power = ring.v_mul(power, units)
    return units[power == 1]


def coset_representatives(spec: GroupSpec) -> np.ndarray:
    """A transversal of G/ZU, Z the scalar matrices of central_units: every
    element of G(o_l) is z r u for one z in Z, one returned r and one u in
    U(o_l).  CapExceeded, before allocating, if [G:ZU] > COSET_CAP.

    Right multiplication by U adds multiples of earlier columns to later
    ones, so each coset of U has one member whose column j is zero in the
    pivot rows of the earlier columns; the pivot of column j is its first
    other row holding a unit, so the free rows above it hold non-units.  For
    SL the last column, whose only free row is its pivot, is scaled to
    det = 1.  A scalar unit c keeps that zero/unit pattern (and det = 1 on
    SL, c^n = 1), so c permutes these members freely, moving the pivot
    entry x of column 0 to c x; the member whose x is the smallest code of
    its coset x Z is the one kept.
    """
    ring = get_ring(spec.ring)
    u_order = unipotent_order(spec.n, spec.ring)
    scalars = central_units(spec)
    index = spec.order() // (len(scalars) * u_order)
    if index > COSET_CAP:
        raise CapExceeded(f"[G : ZU] = {index} for {spec.key()} exceeds coset cap {COSET_CAP}")
    reps = _echelon_forms(ring, spec.n, spec.family, scalars)
    if spec.family == "SL":
        dinv = ring.v_inv()[mat_det_batch(ring, reps)]
        reps[:, :, -1] = ring.v_mul(reps[:, :, -1], dinv[:, None])
    if len(reps) * len(scalars) * u_order != spec.order():
        raise AssertionError(f"{len(reps)} coset representatives, closed-form index {index}")
    dets = mat_det_batch(ring, reps)
    if not np.all(dets == 1 if spec.family == "SL" else ring.v_is_unit(dets)):
        raise AssertionError(f"a coset representative of {spec.key()} has det "
                             + ("!= 1" if spec.family == "SL" else "a non-unit"))
    return reps


def _echelon_forms(ring: Ring, n: int, family: str, scalars: np.ndarray) -> np.ndarray:
    """Every n x n code matrix of the column echelon pattern that
    coset_representatives describes, with the pivot entry of column 0 the
    smallest code of its coset modulo the scalars, of every later column a
    unit, and of the last column 1 for SL."""
    codes = np.arange(ring.size, dtype=np.int64)
    unit = ring.v_is_unit(codes)
    units, nonunits = codes[unit], codes[~unit]
    first_pivots = units[ring.v_mul(scalars[:, None], units).min(axis=0) == units]
    pivot_sets = [first_pivots, *[units] * (n - 1)]
    if family == "SL":
        pivot_sets[-1] = [1]
    blocks = []
    for piv in itertools.permutations(range(n)):  # piv[j]: pivot row of column j
        entry_sets = [[0] if i in piv[:j] else
                      pivot_sets[j] if i == piv[j] else
                      nonunits if i < piv[j] else codes
                      for i in range(n) for j in range(n)]
        grid = np.meshgrid(*entry_sets, indexing="ij")
        blocks.append(np.stack([g.ravel() for g in grid], axis=1).reshape(-1, n, n))
    return np.concatenate(blocks)


def congruence_subgroup(table: GroupTable, i: int) -> np.ndarray:
    """The sorted ids of K^i = kernel of reduction G(o_l) -> G(o_i): the
    matrices I + pi^i y, y over (o_l / pi^(l-i))^(n x n) (the code of pi^i y
    is q^i times that of y), those of det 1 for SL, looked up in the table."""
    ring, n = table.ring, table.n
    if not 1 <= i <= ring.ell:
        raise ValueError(f"congruence level {i} out of range [1, {ring.ell}]")
    ys = all_tuples(ring.q ** (ring.ell - i), n * n).reshape(-1, n, n)
    mats = np.eye(n, dtype=np.int64) + ring.q**i * ys
    if table.spec.family == "SL":
        mats = mats[mat_det_batch(ring, mats) == 1]
    ids = np.flatnonzero(np.bincount(table.ids_of(mats)))
    expected = congruence_order(table.spec, i)
    if len(ids) != expected:
        raise AssertionError(f"K^{i} of {table.spec.key()} has {len(ids)} elements, "
                             f"|K^{i}| = {expected}")
    return ids


def matrix_powers(ring: Ring, x: np.ndarray, n: int) -> np.ndarray:
    """[I, x, x^2, ..., x^(n-1)] stacked on a new first axis, for one matrix
    or a stack of them."""
    out = [np.broadcast_to(np.eye(x.shape[-1], dtype=np.int64), x.shape)]
    for _ in range(n - 1):
        out.append(mat_mul(ring, out[-1], x))
    return np.stack(out)


def poly_values(ring: Ring, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_i c_i x^i for every coefficient tuple c (ascending) of a (C, k)
    stack at every x of an (X, n, n) stack, as an (X, C, n, n) array."""
    pows = matrix_powers(ring, np.asarray(xs, dtype=np.int64), coeffs.shape[1])
    out = None
    for i in range(coeffs.shape[1]):
        term = ring.v_mul(coeffs[None, :, i, None, None], pows[i][:, None])
        out = term if out is None else ring.v_add(out, term)
    return out


def centralizer_order_by_units(spec: GroupSpec, xs: np.ndarray) -> np.ndarray:
    """|C_{G(o_r)}(x)| for each regular x of an (N, n, n) stack, via the unit
    group of o_r[x], with one batched determinant.

    For regular x the matrix centralizer is the free module spanned by
    I, x, ..., x^(n-1); the group centralizer is its unit part (det a unit
    for GL, det = 1 for SL).
    """
    ring = get_ring(spec.ring)
    # (N, |o_r|^n, n, n): every combination of the powers of each x
    dets = mat_det_batch(ring, poly_values(ring, all_tuples(ring.size, spec.n), xs))
    central = ring.v_is_unit(dets) if spec.family == "GL" else dets == 1
    return np.count_nonzero(central, axis=1)


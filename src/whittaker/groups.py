"""Enumeration and indexing of GL_n(o_l) and SL_n(o_l) with their subgroups.

A full GroupTable holds every element as a code matrix in a canonical
order (identity first, the rest ascending by row-major code tuple) plus a
sorted int64 key index (the code tuple read in base |o_l|, searched in
O(log |G|) per element of a batch) and precomputed inverses.  Nothing
enumerates a group beyond the table cap: the induced norm runs over
coset_representatives, a transversal of G/U built without listing G.

Enumeration exploits the fiber structure over the residue field: the
invertible matrices over F_q are found by filtering, and every element of
G(o_l) is a lift of exactly one of them (a lift of an invertible matrix
is invertible).  SL is cut out of GL by det = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .localring import Ring, RingDesc, get_ring
from .linalg import Mat, mat_mul, mat_det_batch, mat_inv_batch

TABLE_CAP = 200_000
COSET_CAP = 2_000_000
RESIDUE_ENUM_CAP = 20_000_000


class CapExceeded(RuntimeError):
    """A requested computation exceeds a configured size cap."""


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


def _residue_invertibles(n: int, ring: Ring) -> np.ndarray:
    """All invertible n x n matrices over the residue field, as lifts-ready codes."""
    q = ring.q
    total = q ** (n * n)
    if total > RESIDUE_ENUM_CAP:
        raise CapExceeded(f"residue enumeration of size {total} exceeds cap")
    idx = np.arange(total, dtype=np.int64)
    entries = np.empty((total, n * n), dtype=np.int64)
    for e in range(n * n):
        entries[:, e] = (idx // q**e) % q
    mats = entries.reshape(total, n, n)
    dets = mat_det_batch(ring.residue_field(), mats)
    return mats[dets != 0]


def _lift_offsets(n: int, ring: Ring) -> np.ndarray:
    """All strictly-positive-level lift offsets; element = residue + q * lift."""
    q, ell = ring.q, ring.ell
    per = q ** (ell - 1)
    total = per ** (n * n)
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, n * n), dtype=np.int64)
    for e in range(n * n):
        out[:, e] = (idx // per**e) % per
    return out.reshape(total, n, n)


def iter_group_chunks(spec: GroupSpec):
    """Yield the elements of G(o_l) as (N, n, n) code arrays, one block per
    invertible residue matrix (residue-major, then lift index)."""
    ring = get_ring(spec.ring)
    n = spec.n
    lifts = _lift_offsets(n, ring) if ring.ell > 1 else np.zeros((1, n, n), dtype=np.int64)
    for r in _residue_invertibles(n, ring):
        block = r[None, :, :] + ring.q * lifts
        if spec.family == "SL":
            block = block[mat_det_batch(ring, block) == 1]
        yield block


class GroupTable:
    """Fully enumerated group with canonical ids and batched element lookup."""

    def __init__(self, spec: GroupSpec, elems: np.ndarray):
        self.spec = spec
        self.ring = get_ring(spec.ring)
        self.n = spec.n
        self.elems = elems
        self.size = len(elems)
        width = self.n * self.n
        if self.ring.size**width >= 1 << 63:
            raise CapExceeded(f"element keys of {spec.key()} do not fit in int64")
        # key = row-major code tuple read in base |o_l|, first entry most significant
        self._radix = self.ring.size ** np.arange(width - 1, -1, -1, dtype=np.int64)
        keys = self._keys(elems)
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]
        self._invs = None

    def __len__(self):
        return self.size

    def _keys(self, batch: np.ndarray) -> np.ndarray:
        return batch.reshape(len(batch), -1) @ self._radix

    def id_of(self, codes) -> int:
        return int(self.ids_of(np.asarray(codes, dtype=np.int64)[None])[0])

    def ids_of(self, batch: np.ndarray) -> np.ndarray:
        """Ids of a stack of code matrices; KeyError if any is not an element."""
        keys = self._keys(batch)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), self.size - 1)
        if not np.array_equal(self._sorted_keys[pos], keys):
            raise KeyError("matrix is not a group element")
        return self._key_order[pos]

    def inverses(self) -> np.ndarray:
        if self._invs is None:
            self._invs = mat_inv_batch(self.ring, self.elems)
        return self._invs

    def element(self, i: int) -> Mat:
        return Mat(self.spec.ring, self.elems[i])


def enumerate_group(spec: GroupSpec, cap: int = TABLE_CAP) -> GroupTable:
    """Build the full table; raises CapExceeded when |G| > cap."""
    order = spec.order()
    if order > cap:
        raise CapExceeded(
            f"|{spec.key()}| = {order} exceeds table cap {cap}"
        )
    elems = np.concatenate(list(iter_group_chunks(spec)))
    if len(elems) != order:
        raise AssertionError(
            f"enumerated {len(elems)} elements of {spec.key()}, closed form {order}"
        )
    flat = elems.reshape(len(elems), -1)
    sort_idx = np.lexsort(tuple(flat[:, c] for c in range(flat.shape[1] - 1, -1, -1)))
    elems = elems[sort_idx]
    ident = np.flatnonzero(
        (elems.reshape(len(elems), -1) == np.eye(spec.n, dtype=np.int64).reshape(-1)).all(axis=1)
    )[0]
    order_ids = np.concatenate(([ident], np.delete(np.arange(len(elems)), ident)))
    return GroupTable(spec, np.ascontiguousarray(elems[order_ids]))


# ---------------------------------------------------------------------------
# subgroups


class SubgroupHandle:
    """Sorted member-id list of a subgroup of a GroupTable."""

    def __init__(self, parent: GroupTable, ids, tag: str):
        self.parent = parent
        self.ids = np.unique(np.asarray(ids, dtype=np.int64))
        self.tag = tag

    def __len__(self):
        return len(self.ids)

    def contains(self, i: int) -> bool:
        pos = np.searchsorted(self.ids, i)
        return pos < len(self.ids) and self.ids[pos] == i

    def elements(self) -> np.ndarray:
        return self.parent.elems[self.ids]

    def __repr__(self):
        return f"SubgroupHandle({self.tag}, order {len(self.ids)})"


def unipotent_matrices(spec: GroupSpec, k: int = 0) -> np.ndarray:
    """All of U(pi^k o_l): unit diagonal, strictly upper entries in pi^k o_l."""
    ring = get_ring(spec.ring)
    n = spec.n
    if not 0 <= k <= ring.ell:
        raise ValueError(f"k = {k} out of range [0, {ring.ell}]")
    per = ring.q ** (ring.ell - k)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = per ** len(positions)
    out = np.tile(np.eye(n, dtype=np.int64), (total, 1, 1))
    idx = np.arange(total, dtype=np.int64)
    for e, (i, j) in enumerate(positions):
        out[:, i, j] = ((idx // per**e) % per) * ring.q**k
    return out


def unipotent_subgroup(table: GroupTable, k: int = 0) -> SubgroupHandle:
    mats = unipotent_matrices(table.spec, k)
    ids = table.ids_of(mats)
    h = SubgroupHandle(table, ids, f"U(pi^{k})")
    assert len(h) == unipotent_order(table.n, table.spec.ring, k)
    return h


def coset_representatives(spec: GroupSpec) -> np.ndarray:
    """A transversal of G/U: every element of G(o_l) is r u for one returned
    r and one u in U(o_l).  CapExceeded, before allocating, if [G:U] > COSET_CAP.

    Right multiplication by U adds multiples of earlier columns to later
    ones, so each coset has one member whose column j is zero in the pivot
    rows of the earlier columns; the pivot of column j is its first other
    row holding a unit, so the free rows above it hold non-units.  For SL the
    last column, whose only free row is its pivot, is scaled to det = 1.
    """
    ring = get_ring(spec.ring)
    n = spec.n
    u_order = unipotent_order(n, spec.ring)
    index = spec.order() // u_order
    if index > COSET_CAP:
        raise CapExceeded(f"[G : U] = {index} for {spec.key()} exceeds coset cap {COSET_CAP}")
    codes = np.arange(ring.size, dtype=np.int64)
    unit = ring.v_is_unit(codes)
    units, nonunits = codes[unit], codes[~unit]
    last_pivot = [1] if spec.family == "SL" else units
    blocks = []
    for piv in itertools.permutations(range(n)):  # piv[j]: pivot row of column j
        entry_sets = [[0] if i in piv[:j] else
                      (units if j < n - 1 else last_pivot) if i == piv[j] else
                      nonunits if i < piv[j] else codes
                      for i in range(n) for j in range(n)]
        grid = np.meshgrid(*entry_sets, indexing="ij")
        blocks.append(np.stack([g.ravel() for g in grid], axis=1).reshape(-1, n, n))
    reps = np.concatenate(blocks)
    if spec.family == "SL":
        dinv = ring.v_inv()[mat_det_batch(ring, reps)]
        reps[:, :, -1] = ring.v_mul(reps[:, :, -1], dinv[:, None])
    if len(reps) * u_order != spec.order():
        raise AssertionError(f"{len(reps)} coset representatives, closed-form index {index}")
    return reps


def congruence_subgroup(table: GroupTable, i: int) -> SubgroupHandle:
    """K^i = kernel of reduction G(o_l) -> G(o_i)."""
    ring = table.ring
    if not 1 <= i <= ring.ell:
        raise ValueError(f"congruence level {i} out of range [1, {ring.ell}]")
    modulus = ring.q**i
    eye = np.eye(table.n, dtype=np.int64)
    mask = ((table.elems % modulus) == (eye % modulus)).all(axis=(1, 2))
    h = SubgroupHandle(table, np.flatnonzero(mask), f"K^{i}")
    assert len(h) == congruence_order(table.spec, i)
    return h


def centralizer(table: GroupTable, x: Mat) -> SubgroupHandle:
    """Group centralizer of a matrix over the same ring, by table filtering."""
    if x.desc != table.spec.ring:
        raise ValueError("centralizer requires a matrix over the group's ring")
    ring = table.ring
    left = mat_mul(ring, table.elems, x.a)
    right = mat_mul(ring, x.a[None], table.elems)
    mask = (left == right).all(axis=(1, 2))
    return SubgroupHandle(table, np.flatnonzero(mask), "centralizer")


def matrix_powers(ring: Ring, x: np.ndarray, n: int) -> np.ndarray:
    """[I, x, x^2, ..., x^(n-1)] as an (n, n, n) code array."""
    out = [np.eye(x.shape[0], dtype=np.int64)]
    for _ in range(n - 1):
        out.append(mat_mul(ring, out[-1], x))
    return np.stack(out)


def centralizer_order_by_units(spec: GroupSpec, x: np.ndarray) -> int:
    """|C_{G(o_r)}(x)| for regular x, via the unit group of o_r[x].

    For regular x the matrix centralizer is the free module spanned by
    I, x, ..., x^(n-1); the group centralizer is its unit part (det a unit
    for GL, det = 1 for SL).
    """
    ring = get_ring(spec.ring)
    n = spec.n
    pows = matrix_powers(ring, np.asarray(x, dtype=np.int64), n)
    R = ring.size
    total = R**n
    idx = np.arange(total, dtype=np.int64)
    combo = None
    for i in range(n):
        ci = (idx // R**i) % R
        term = ring.v_mul(ci[:, None, None], pows[i][None, :, :])
        combo = term if combo is None else ring.v_add(combo, term)
    dets = mat_det_batch(ring, combo)
    if spec.family == "GL":
        return int(np.count_nonzero(ring.v_is_unit(dets)))
    return int(np.count_nonzero(dets == 1))


def lie_centralizer_count(spec: GroupSpec, x: np.ndarray) -> int:
    """|C_{g(o_r)}(x)| by exact kernel counting (gl: all y; sl: tr y = 0)."""
    from .linalg import commutant_matrix, solve_count

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

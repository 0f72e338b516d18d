"""The residue field F_q and batched matrix kernels over the local rings o_l.

A matrix is a numpy array of integer element codes, and its Ring (or q, for
F_q) is passed next to it.  F_q is GF_ring(q), the l = 1 Ring of the equal
family.

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

from .localring import Ring, RingKind, _factor_prime_power, get_ring, ring_make


# ---------------------------------------------------------------------------
# the residue field


@lru_cache(maxsize=None)
def GF_ring(q: int) -> Ring:
    """The field F_q as the r = 1 local ring (equal family)."""
    p, f = _factor_prime_power(q)
    return get_ring(ring_make(RingKind.EQUAL, p, f, 1))


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

"""Exhaustive structural suites for the centralizer and duality lemmas.

Scales follow the acceptance list: matrix algebras M_2(F_2), M_2(F_3),
M_3(F_2), M_2(Z/4), M_2(Z/9) for the regularity equivalences, the
(n, q, r) scales (2,2,1), (2,3,1), (3,2,1), (2,3,2) for the unipotent
intersection, and l = 2, n = 2, q in {2, 3} for the duality.

The sl variants of the centralizer-size law and of the duality require
p not dividing 2n (for sl_2 in characteristic 2 the identity lies in sl
and the trace pairing degenerates), so those sub-suites run only on the
scales where the hypothesis holds.
"""

import itertools

import numpy as np
import pytest

from whittaker.localring import get_ring, ring_make
from whittaker.linalg import mat_mul
from whittaker.groups import GroupSpec, matrix_powers, unipotent_matrices
from whittaker.regular import a_regular, a_regular_coeff_tuples, type_of
from whittaker.whittaker_verify import phi_x_exponents
from oracles import commutant_matrix, is_cyclic, lie_centralizer_count, solve_count, span_size

F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)
Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
F3T2 = ring_make("equal", 3, 1, 2)

EQUIVALENCE_SCALES = [
    (2, F2), (2, F3), (3, F2), (2, Z4), (2, Z9),
]


def _pairwise_commute(ring, basis, n):
    mats = [np.asarray(b, dtype=np.int64).reshape(n, n) for b in basis]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not np.array_equal(mat_mul(ring, mats[i], mats[j]),
                                  mat_mul(ring, mats[j], mats[i])):
                return False
    return True


@pytest.mark.parametrize("n,desc", EQUIVALENCE_SCALES,
                         ids=[f"M{n}({d.key()})" for n, d in EQUIVALENCE_SCALES])
def test_four_way_regularity_equivalence(n, desc):
    """cyclic <-> all projections regular <-> abelian matrix centralizer
    <-> centralizer equals the subalgebra generated by powers."""
    ring = get_ring(desc)
    xs = np.array(list(itertools.product(range(ring.size), repeat=n * n)),
                  dtype=np.int64).reshape(-1, n, n)
    # residue regularity (char = min) for the whole stack in one type_of call
    residue_types = type_of(xs % ring.q, ring.q)
    for x, tau in zip(xs, residue_types):
        c1 = is_cyclic(ring, x)
        # residue regularity, plus cyclicity of every projection
        c2 = tau is not None and all(
            is_cyclic(ring.subring(i), x % ring.q**i) for i in range(1, ring.ell + 1))
        count, basis = solve_count(ring, commutant_matrix(ring, x))
        c3 = _pairwise_commute(ring, basis, n)
        pows = matrix_powers(ring, x, n).reshape(n, n * n)
        c4 = span_size(ring, pows) == count
        assert c1 == c2 == c3 == c4, (x.tolist(), c1, c2, c3, c4)


LIE_SIZE_SCALES = [
    ("GL", 2, F2), ("GL", 2, F3), ("GL", 3, F2), ("GL", 2, Z4), ("GL", 2, Z9),
    # sl requires p not dividing 2n
    ("SL", 2, F3), ("SL", 3, F2), ("SL", 2, Z9), ("SL", 2, F3T2),
]


@pytest.mark.parametrize("family,n,desc", LIE_SIZE_SCALES,
                         ids=[f"{f}{n}({d.key()})" for f, n, d in LIE_SIZE_SCALES])
def test_lie_centralizer_size_for_a_regular(family, n, desc):
    """|C_{g(o_r)}(x)| = q^(d r), d = n for gl and n - 1 for sl."""
    ring = get_ring(desc)
    spec = GroupSpec(family, n, desc)
    d = spec.reg_centralizer_dim
    expected = ring.q ** (d * ring.ell)
    for a in ring.unit_codes():
        for coeffs in a_regular_coeff_tuples(spec, ring):
            x = a_regular(desc, n, a, [int(c) for c in coeffs])
            assert lie_centralizer_count(spec, x) == expected


INTERSECTION_SCALES = [
    (2, F2), (2, F3), (3, F2), (2, Z9), (2, F3T2),
]


@pytest.mark.parametrize("n,desc", INTERSECTION_SCALES,
                         ids=[f"n{n}({d.key()})" for n, d in INTERSECTION_SCALES])
def test_unipotent_centralizer_intersection_trivial(n, desc):
    """For a-regular x, the only unipotent upper-triangular matrix commuting
    with x is the identity (both in G(o_r) and in g(o_r))."""
    ring = get_ring(desc)
    spec = GroupSpec("GL", n, desc)
    umats = unipotent_matrices(spec, 0)
    eye = np.eye(n, dtype=np.int64)
    for a in ring.unit_codes():
        for coeffs in a_regular_coeff_tuples(spec, ring):
            x = a_regular(desc, n, a, [int(c) for c in coeffs])
            left = mat_mul(ring, umats, x)
            right = mat_mul(ring, x[None], umats)
            mask = (left == right).all(axis=(1, 2))
            fixed = umats[mask]
            assert len(fixed) == 1 and np.array_equal(fixed[0], eye)


DUALITY_SCALES = [("GL", F2), ("GL", F3), ("SL", F3)]


@pytest.mark.parametrize("family,fdesc", DUALITY_SCALES,
                         ids=[f"{f}2(q={d.q})" for f, d in DUALITY_SCALES])
def test_duality_bijectivity_level_two(family, fdesc):
    """x -> phi_x is a bijection g(F_q) -> dual of K^1 at l = 2, n = 2."""
    q = fdesc.q
    desc = ring_make("mixed", q, 1, 2)
    ring = get_ring(desc)
    if family == "GL":
        levels = [np.array(e, dtype=np.int64).reshape(2, 2)
                  for e in itertools.product(range(q), repeat=4)]
    else:
        levels = []
        fld = get_ring(fdesc)
        for e in itertools.product(range(q), repeat=3):
            m = np.array([[e[0], e[1]], [e[2], fld.neg(e[0])]], dtype=np.int64)
            levels.append(m)
    levels = np.array(levels)
    tables = {tuple(row) for row in phi_x_exponents(ring, 1, levels, levels).tolist()}
    # injective on a set of the same size as the dual group: bijective
    assert len(tables) == len(levels)


def test_duality_degenerates_for_sl2_in_characteristic_two():
    # I lies in sl_2(F_2); phi_I is trivial on the SL congruence kernel, so
    # the map x -> phi_x cannot separate 0 from I (excluded by p | 2n)
    desc = ring_make("mixed", 2, 1, 2)
    ring = get_ring(desc)
    eye = np.eye(2, dtype=np.int64)[None]
    sl_levels = np.array([[[a, b], [c, a]] for a, b, c in itertools.product(range(2), repeat=3)])
    assert not phi_x_exponents(ring, 1, eye, sl_levels).any()


def test_phi_x_lift_independence_exhaustive_small():
    rng = np.random.default_rng(41)
    for desc in (Z9, ring_make("mixed", 2, 1, 3)):
        ring = get_ring(desc)
        ell = ring.ell
        i = (ell + 1) // 2
        sub = ring.subring(ell - i)
        for xe in itertools.product(range(sub.size), repeat=4):
            x = np.array(xe, dtype=np.int64).reshape(2, 2)
            ylvl = rng.integers(0, ring.size, size=(1, 2, 2))
            # x itself, then 50 lifts x + pi^(l-i) bump
            bumps = rng.integers(0, ring.q**i, size=(50, 2, 2))
            lifts = np.concatenate([x[None], (x + bumps * ring.q ** (ell - i)) % ring.size])
            expo = phi_x_exponents(ring, i, lifts, ylvl)
            assert (expo == expo[0]).all()
import itertools

import numpy as np
import pytest

from whittaker.localring import get_ring, ring_make
from whittaker.linalg import Poly
from whittaker.groups import GroupSpec, enumerate_group
from whittaker.regular import TypeMatrix, a_regular, iota, type_of
from oracles import (all_n_typical, centralizer, centralizer_order_residue, char_poly,
                     companion, count_a_regular_classes, is_cyclic, is_regular,
                     tau_regular_companion, type_of_charpoly)

Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)


def test_is_regular_examples():
    r9 = get_ring(Z9)
    assert is_regular(r9, np.array([[0, 8], [1, 0]]))      # companion of t^2 + 1
    assert not is_regular(r9, np.array([[2, 0], [0, 2]]))  # scalar


def test_lower_shift_with_unit_subdiagonal_is_regular():
    # n = 3 over Z/4: subdiagonal (a, 1), zeros further below, any upper part
    rng = np.random.default_rng(2)
    upper = [(i, j) for i in range(3) for j in range(3) if j >= i]
    r4 = get_ring(Z4)
    for a in (1, 3):
        for _ in range(40):
            m = np.zeros((3, 3), dtype=np.int64)
            m[1, 0] = a
            m[2, 1] = 1
            for (i, j) in upper:
                m[i, j] = rng.integers(0, 4)
            assert is_regular(r4, m) and is_cyclic(r4, m)


def test_is_cyclic_agrees_with_residue_test_exhaustively():
    for desc in (F2, F3, Z4):
        ring = get_ring(desc)
        for entries in itertools.product(range(ring.size), repeat=4):
            x = np.array(entries).reshape(2, 2)
            assert is_cyclic(ring, x) == is_regular(ring, x)


def test_a_regular_examples():
    x = a_regular(F3, 2, 1, (1, 0))
    assert np.array_equal(x, [[0, 1], [1, 0]])
    assert char_poly(x, 3).coeffs == (2, 0, 1)  # t^2 - 1
    x0 = a_regular(F3, 2, 1, (0, 0))
    assert np.array_equal(x0, [[0, 0], [1, 0]])
    assert char_poly(x0, 3).coeffs == (0, 0, 1)  # t^2
    x3 = a_regular(Z4, 3, 3, (1, 1, 1))
    assert x3[1, 0] == 3 and x3[2, 1] == 1
    r4 = get_ring(Z4)
    assert is_regular(r4, x3) and is_cyclic(r4, x3)


def test_a_regular_requires_unit():
    with pytest.raises(ValueError):
        a_regular(Z4, 3, 2, (1, 1, 1))


def test_a_regular_always_regular():
    for desc in (Z4, Z9):
        ring = get_ring(desc)
        for a in ring.unit_codes():
            for coeffs in itertools.product(range(ring.size), repeat=2):
                assert is_regular(ring, a_regular(desc, 2, a, coeffs))


def test_count_examples():
    assert count_a_regular_classes("GL", 2, F3) == 9
    assert count_a_regular_classes("SL", 2, F3) == 3
    assert count_a_regular_classes("GL", 2, Z4) == 16


def test_a_regular_classes_pairwise_nonconjugate():
    # distinct coefficient tuples give distinct (trace, det), hence distinct
    # characteristic polynomials over o_r, at (n,r,q) = (2,1,3) and (2,2,2)
    for desc in (F3, Z4):
        ring = get_ring(desc)
        for a in ring.unit_codes():
            seen = set()
            for coeffs in itertools.product(range(ring.size), repeat=2):
                x = a_regular(desc, 2, a, coeffs)
                tr = ring.add(int(x[0, 0]), int(x[1, 1]))
                dt = ring.sub(ring.mul(int(x[0, 0]), int(x[1, 1])),
                              ring.mul(int(x[0, 1]), int(x[1, 0])))
                seen.add((tr, dt))
            assert len(seen) == ring.size ** 2


def test_type_of_examples():
    assert type_of(companion(Poly(3, (1, 0, 1))), 3).entries == ((2, 1, 1),)
    assert type_of(companion(Poly(3, (0, 0, 1))), 3).entries == ((1, 2, 1),)
    assert type_of(companion(Poly(3, (2, 0, 1))), 3).entries == ((1, 1, 2),)
    assert type_of(np.eye(2, dtype=np.int64), 3) is None


@pytest.mark.parametrize("n, q", [(2, 3), (2, 4), (3, 2)])
def test_type_of_matches_charpoly_oracle_exhaustively(n, q):
    # every matrix of gl_n(F_q): the same type, and None exactly where the
    # char-poly route refuses a non-regular matrix
    for entries in itertools.product(range(q), repeat=n * n):
        x = np.array(entries, dtype=np.int64).reshape(n, n)
        try:
            want = type_of_charpoly(x, q)
        except ValueError:
            want = None
        assert type_of(x, q) == want


def test_type_labels_n2():
    labels = {
        (1, 0, 1): "cuspidal",
        (0, 0, 1): "split-nss",
        (2, 0, 1): "split-ss",
    }
    for coeffs, label in labels.items():
        tau = type_of(companion(Poly(3, coeffs)), 3)
        assert tau.label() == label


def test_n_typical_invariant():
    with pytest.raises(ValueError):
        TypeMatrix(2, ((1, 1, 1),))  # sums to 1, not 2
    assert len(all_n_typical(2)) == 3
    assert len(all_n_typical(3)) == 5


def test_iota_examples():
    t21 = TypeMatrix.make(2, {(2, 1): 1})
    t12 = TypeMatrix.make(2, {(1, 2): 1})
    t11 = TypeMatrix.make(2, {(1, 1): 2})
    assert iota(t21, 2) == 1
    assert iota(t12, 2) == 2
    assert iota(t11, 2) == 1
    assert 1 <= iota(t12, 3) <= 2


def test_centralizer_order_residue_examples():
    t21 = TypeMatrix.make(2, {(2, 1): 1})
    t12 = TypeMatrix.make(2, {(1, 2): 1})
    t11 = TypeMatrix.make(2, {(1, 1): 2})
    assert centralizer_order_residue(t21, 3) == 8
    assert centralizer_order_residue(t12, 3) == 6
    assert centralizer_order_residue(t11, 3) == 4


def test_centralizer_order_residue_brute_force_all_types():
    for n in (2, 3):
        for q in (2, 3):
            desc = ring_make("mixed", q, 1, 1)
            table = enumerate_group(GroupSpec("GL", n, desc))
            for tau in all_n_typical(n):
                xm = tau_regular_companion(tau, q)
                if xm is None:
                    continue  # not realizable over this small field
                assert type_of(xm, q) == tau
                pred = centralizer_order_residue(tau, q)
                assert pred == len(centralizer(table, xm))

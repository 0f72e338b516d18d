import itertools
from collections import Counter

import numpy as np
import pytest

from whittaker import regular
from whittaker.cli import main
from whittaker.localring import all_tuples, get_ring, ring_make
from whittaker.groups import GroupSpec, enumerate_group
from whittaker.regular import TypeMatrix, a_regular, iota, monic_types, type_of
from oracles import (Poly, all_n_typical, centralizer, centralizer_order_residue, char_poly,
                     companion, count_a_regular_classes, factor_poly, is_cyclic, is_regular,
                     tau_regular_companion, type_of_charpoly)

Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)


def test_is_regular_examples():
    r9 = get_ring(Z9)
    # the companion of t^2 + 1, and a scalar
    assert is_regular(r9, np.array([[[0, 8], [1, 0]], [[2, 0], [0, 2]]])) == [True, False]


def test_lower_shift_with_unit_subdiagonal_is_regular():
    # n = 3 over Z/4: subdiagonal (a, 1), zeros further below, any upper part
    rng = np.random.default_rng(2)
    upper = [(i, j) for i in range(3) for j in range(3) if j >= i]
    r4 = get_ring(Z4)
    for a in (1, 3):
        ms = np.zeros((40, 3, 3), dtype=np.int64)
        ms[:, 1, 0] = a
        ms[:, 2, 1] = 1
        for m in ms:
            for (i, j) in upper:
                m[i, j] = rng.integers(0, 4)
        assert all(is_regular(r4, ms)) and all(is_cyclic(r4, m) for m in ms)


def test_is_cyclic_agrees_with_residue_test_exhaustively():
    for desc in (F2, F3, Z4):
        ring = get_ring(desc)
        xs = all_tuples(ring.size, 4).reshape(-1, 2, 2)
        assert [is_cyclic(ring, x) for x in xs] == is_regular(ring, xs)


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
    assert is_regular(r4, x3[None]) == [True] and is_cyclic(r4, x3)


def test_a_regular_requires_unit():
    with pytest.raises(ValueError):
        a_regular(Z4, 3, 2, (1, 1, 1))


def test_a_regular_always_regular():
    for desc in (Z4, Z9):
        ring = get_ring(desc)
        for a in ring.unit_codes():
            assert all(is_regular(ring, a_regular(desc, 2, a, all_tuples(ring.size, 2))))


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
    xs = np.stack([companion(Poly(3, (1, 0, 1))), companion(Poly(3, (0, 0, 1))),
                   np.eye(2, dtype=np.int64), companion(Poly(3, (2, 0, 1)))])
    got = [tau and tau.entries for tau in type_of(xs, 3)]
    assert got == [((2, 1, 1),), ((1, 2, 1),), None, ((1, 1, 2),)]


def _charpoly_type_or_none(x, q):
    try:
        return type_of_charpoly(x, q)
    except ValueError:
        return None


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_type_of_matches_charpoly_oracle_exhaustively(n, q):
    # all of gl_n(F_q) as one stack: the same type, and None exactly where the
    # char-poly route refuses a non-regular matrix, position by position
    xs = all_tuples(q, n * n).reshape(-1, n, n)
    assert type_of(xs, q) == [_charpoly_type_or_none(x, q) for x in xs]


def _factor_types(q, n):
    """The type of every monic degree-n polynomial over F_q by the scalar
    trial division of the oracle, in the order of monic_types."""
    return tuple(TypeMatrix.make(n, Counter((f.degree, e)
                                            for f, e in factor_poly(Poly(q, tail + [1]))))
                 for tail in all_tuples(q, n).tolist())


@pytest.mark.parametrize("q, n", [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16)
                                  for n in range(1, 5) if q**n <= 4096])
def test_monic_types_match_factor_poly_oracle(q, n):
    assert monic_types(q, n) == _factor_types(q, n)


@pytest.fixture
def fresh_monic_types():
    """Clears the monic_types cache around a test that plants a sieve fault."""
    regular.monic_types.cache_clear()
    yield
    regular.monic_types.cache_clear()


def _drop_t_squared(monkeypatch):
    products = regular._products

    def faulty(F, i, j):
        pairs = products(F, i, j)
        pairs.pop(0)  # t^(i+j) has code 0: at n = 2 the one pair (t, t) is dropped
        return pairs

    monkeypatch.setattr(regular, "_products", faulty)


def _swap_two_types(monkeypatch):
    sieve = regular.monic_types

    def faulty(q, n):
        types = list(sieve(q, n))
        types[0], types[1] = types[1], types[0]  # t^n and t^n + 1
        return tuple(types)

    monkeypatch.setattr(regular, "monic_types", faulty)


@pytest.mark.parametrize("plant", [_drop_t_squared, _swap_two_types])
def test_sieve_faults_fail_the_oracle_and_the_tables(plant, fresh_monic_types, monkeypatch,
                                                     capsys):
    # over F_3, t^2 is split non-semisimple and t^2 + 1 is cuspidal; both are
    # characteristic polynomials of trace-zero matrices, so the SL_2(Z/9)
    # cross-check of gl2-sl2-tables sees either fault
    plant(monkeypatch)
    assert regular.monic_types(3, 2) != _factor_types(3, 2)
    assert main(["gl2-sl2-tables", "--ring", "mixed:3^2", "--chartab-cap", "1000",
                 "--no-cache"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_type_labels_n2():
    labels = {
        (1, 0, 1): "cuspidal",
        (0, 0, 1): "split-nss",
        (2, 0, 1): "split-ss",
    }
    xs = np.stack([companion(Poly(3, coeffs)) for coeffs in labels])
    assert [tau.label() for tau in type_of(xs, 3)] == list(labels.values())


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
                assert type_of(xm[None], q) == [tau]
                pred = centralizer_order_residue(tau, q)
                assert pred == len(centralizer(table, xm))

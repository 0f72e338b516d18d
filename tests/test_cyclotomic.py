import math

import numpy as np
import pytest

from whittaker import cyclotomic
from whittaker.cyclotomic import (CycloNum, IntegralityError, NonRationalError,
                                  cyclotomic_poly, reduction_matrix, unit_generators)
from oracles import euler_phi, integer_values, pairings, root_of_unity


def test_root_arithmetic_exponent_addition():
    assert root_of_unity(9, 3) * root_of_unity(9, 7) == root_of_unity(9, 1)


def test_full_sum_of_roots_vanishes():
    s = CycloNum.zero(9)
    for j in range(9):
        s = s + root_of_unity(9, j)
    assert s.is_zero()


def test_conjugation_is_inverse_root():
    assert root_of_unity(4, 1).conj() == root_of_unity(4, 3)


def test_conj_is_ring_map_on_random_sums():
    rng = np.random.default_rng(7)
    for m in (4, 8, 9, 12):
        for _ in range(20):
            a = CycloNum(m, rng.integers(-4, 5, size=m).tolist())
            b = CycloNum(m, rng.integers(-4, 5, size=m).tolist())
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b) * a == a * a + b * a


def test_rational_value_integer():
    assert CycloNum.integer(9, 5).rational_value() == 5


def test_rational_value_sum_of_nontrivial_ninth_roots():
    z = CycloNum.zero(9)
    for j in range(1, 9):
        z = z + root_of_unity(9, j)
    assert z.rational_value() == -1


def test_rational_value_rejects_primitive_root():
    with pytest.raises(NonRationalError):
        root_of_unity(9, 1).rational_value()


def test_mixed_order_operands_rejected():
    with pytest.raises(ValueError):
        root_of_unity(9, 1) * root_of_unity(4, 1)


def test_norm_squared_rational_when_real_subfield_is_rational():
    # |z|^2 lies in the maximal real subfield; for these m that subfield is Q,
    # so the value is always a nonnegative rational
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 4, 6):
        for _ in range(30):
            z = CycloNum.zero(m)
            for j in rng.integers(0, m, size=6):
                z = z + root_of_unity(m, int(j))
            val = z.norm_squared().rational_value()
            assert val >= 0


def test_galois_symmetrized_norm_rational_nonnegative():
    # for general m, |z|^2 need not be rational (m = 5, z = 1 + zeta_5);
    # the Galois-symmetrized norm sum always is, and it is nonnegative
    rng = np.random.default_rng(11)
    for m in (5, 8, 9, 16, 27):
        for _ in range(20):
            z = CycloNum.zero(m)
            for j in rng.integers(0, m, size=6):
                z = z + root_of_unity(m, int(j))
            total = CycloNum.zero(m)
            for s in range(m):
                if math.gcd(s, m) == 1:
                    sz = CycloNum(m, [z.coeffs[(j * pow(s, -1, m)) % m]
                                      for j in range(m)])
                    total = total + sz.norm_squared()
            assert total.rational_value() >= 0


def test_norm_squared_can_be_irrational():
    z = CycloNum.integer(5, 1) + root_of_unity(5, 1)
    with pytest.raises(NonRationalError):
        z.norm_squared().rational_value()


def test_rational_value_matches_float_on_galois_averaged_inputs():
    rng = np.random.default_rng(13)
    checked = 0
    for m in (8, 9, 12, 25, 27):
        for _ in range(200):
            coeffs = rng.integers(-5, 6, size=m)
            avg = CycloNum.zero(m)
            for s in range(m):
                if math.gcd(s, m) == 1:
                    # sigma_s: zeta^j -> zeta^(j s); averaging makes it rational
                    avg = avg + CycloNum(
                        m, [int(coeffs[(j * pow(s, -1, m)) % m]) for j in range(m)]
                    )
            val = avg.rational_value()
            assert abs(avg.complex_value() - float(val)) < 1e-6
            checked += 1
    assert checked == 1000


def test_root_of_unity_mod_r():
    # order exactly m, for every divisor m of r - 1 (m = r - 1: a primitive root)
    for r in (13, 37, 73, 433):
        for m in (m for m in range(1, r) if (r - 1) % m == 0):
            z = cyclotomic.root_of_unity(m, r)
            assert pow(z, m, r) == 1 and len({pow(z, j, r) for j in range(m)}) == m


def test_unit_generators_generate_the_units():
    # each generator lies outside the span of the ones before it, and the
    # span of all of them is every unit of Z/m
    for m in range(1, 130):
        span = {1 % m}
        for w in unit_generators(m):
            assert math.gcd(w, m) == 1 and w not in span
            while not {s * w % m for s in span} <= span:
                span |= {s * w % m for s in span}
        assert span == {u for u in range(m) if math.gcd(u, m) == 1}


def test_cyclotomic_polynomial_degrees_and_values():
    for m in (1, 2, 4, 8, 9, 12, 36, 72):
        phi = cyclotomic_poly(m)
        assert len(phi) - 1 == euler_phi(m)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_integer_values_of_a_stack():
    # sum of all 9th roots is 0; 1 + zeta_9^3 + zeta_9^6 = 0; 6 * 1 = 6
    acc = np.array([[[1] * 9, [1, 0, 0, 1, 0, 0, 1, 0, 0], [6, 0, 0, 0, 0, 0, 0, 0, 0]]])
    assert integer_values(acc, 9).tolist() == [[0, 0, 6]]
    assert integer_values(acc, 9, 3).tolist() == [[0, 0, 2]]
    with pytest.raises(IntegralityError):
        integer_values(acc, 9, 4)  # 6 is not divisible by 4
    with pytest.raises(NonRationalError):
        integer_values(np.array([0, 1, 0, 0, 0, 0, 0, 0, 0]), 9)


def test_integer_values_refuses_sums_that_could_overflow():
    # 9 entries of 2^61: the reduction's partial sums could reach 9 * 2^61 > 2^63
    with pytest.raises(IntegralityError, match="overflow"):
        integer_values(np.full((1, 9), 1 << 61, dtype=np.int64), 9)
    assert integer_values(np.full((1, 9), 1 << 58, dtype=np.int64), 9).tolist() == [0]


def test_integer_values_fold_matches_full_reduction():
    # the fold through rad(m) against flat @ reduction_matrix(m) for every
    # m <= 240: w subtracts the non-constant coordinates of a random v, so it
    # is rational with the constant coordinate of v; w plus one other
    # canonical coordinate is not rational
    rng = np.random.default_rng(12)
    for m in range(1, 241):
        red = reduction_matrix(m)
        v = rng.integers(-9, 10, size=(4, m))
        coords = v @ red
        w = v.copy()
        w[:, 1:red.shape[1]] -= coords[:, 1:]
        assert integer_values(w, m).tolist() == coords[:, 0].tolist()
        assert integer_values(w.reshape(2, 2, m), m).shape == (2, 2)
        for row, c in zip(v, coords):
            if np.any(c[1:]):
                with pytest.raises(NonRationalError):
                    integer_values(row, m)
            else:
                assert integer_values(row, m) == c[0]
        if red.shape[1] > 1:
            j = int(rng.integers(1, red.shape[1]))
            w[:, j] += 1
            with pytest.raises(NonRationalError):
                integer_values(w, m)


def test_integer_values_fold_rejects_non_rational_roots():
    # m = 72, rad(m) = 6: zeta_72 lies outside the b = 0 block of the fold,
    # zeta_72^12 = zeta_6 inside it
    for j in (1, 12):
        with pytest.raises(NonRationalError):
            integer_values(np.eye(72, dtype=np.int64)[j], 72)
    # zeta_72^36 = -1 and zeta_72^24 + zeta_72^48 = -1 are rational
    acc = np.zeros((2, 72), dtype=np.int64)
    acc[0, 36] = 4
    acc[1, [24, 48]] = 4
    assert integer_values(acc, 72, 2).tolist() == [-2, -2]


def test_integer_values_fold_keeps_integrality_checks():
    acc = np.zeros((1, 72), dtype=np.int64)
    acc[0, 0] = 6
    with pytest.raises(IntegralityError, match="divisible"):
        integer_values(acc, 72, 4)
    # 72 * 2^57 * max|reduction entry| >= 2^63
    with pytest.raises(IntegralityError, match="overflow"):
        integer_values(np.full((1, 72), 1 << 57, dtype=np.int64), 72)


@pytest.mark.parametrize("m", [1, 2, 4, 6, 9, 12])
def test_pairings_match_cyclonum_reference(m):
    # random signed stacks; class 0 of f vanishes while g does not, and the
    # other classes take values in a random subring Z[zeta_m^d]
    rng = np.random.default_rng(m)
    X, T, k = 3, 2, 5
    f = rng.integers(-4, 5, size=(X, k, m))
    g = rng.integers(-4, 5, size=(T, k, m))
    f[:, 0] = 0
    g[:, 0, 0] = 7
    for c in range(1, k):
        d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        f[:, c, np.arange(m) % d != 0] = 0
        g[:, c, np.arange(m) % d != 0] = 0
    out = pairings(f, g)
    assert out.shape == (X, T, m)
    for x in range(X):
        for t in range(T):
            ref = CycloNum.zero(m)
            for c in range(k):
                ref = ref + CycloNum(m, f[x, c]) * CycloNum(m, g[t, c]).conj()
            assert out[x, t].tolist() == list(ref.coeffs)


def test_pairings_refuse_sums_that_could_overflow():
    # k * m * max|f| * max|g| = 2 * 4 * 2^30 * 2^30 = 2^63
    f = np.full((1, 2, 4), 1 << 30, dtype=np.int64)
    with pytest.raises(IntegralityError, match="overflow"):
        pairings(f, f)
    assert pairings(f // 2, f).shape == (1, 1, 4)


def test_pairings_bound_reads_only_the_live_classes():
    # g on class 1, where f vanishes, is far beyond the int64 bound; it is
    # never read, so the result is the one with that class zeroed
    rng = np.random.default_rng(0)
    f = rng.integers(-4, 5, size=(2, 3, 6))
    g = rng.integers(-4, 5, size=(3, 3, 6))
    f[:, 1] = 0
    want = pairings(f, np.where(np.arange(3)[:, None] == 1, 0, g))
    g[:, 1] = 1 << 62
    assert np.array_equal(pairings(f, g), want)
    assert want.any()


def test_counter_construction():
    counter = [0] * 9
    counter[3] = 2
    counter[0] = 1
    z = CycloNum.from_counter(9, counter)
    assert z == CycloNum.integer(9, 1) + 2 * root_of_unity(9, 3)

import itertools

import numpy as np
import pytest

from whittaker.localring import CONWAY_POLYS, all_tuples, get_ring, ring_make
from whittaker.linalg import (GF_ring, Poly, factor_poly, mat_det_batch, mat_inv_batch,
                              mat_mul, monic_irreducibles)
from whittaker.regular import type_of
from oracles import (char_poly, commutant_matrix, companion, det_scalar, poly_value,
                     solve_count, span_size)

Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)


def test_det_inverse_identity():
    r9 = get_ring(Z9)
    I3 = np.eye(3, dtype=np.int64)
    assert det_scalar(r9, I3) == 1
    assert np.array_equal(mat_inv_batch(r9, I3), I3)


def test_inverse_unipotent_over_z4():
    M = np.array([[1, 1], [0, 1]])
    assert np.array_equal(mat_inv_batch(get_ring(Z4), M), [[1, 3], [0, 1]])


def test_noninvertible_raises():
    r9 = get_ring(Z9)
    N = np.array([[0, 1], [3, 0]])
    assert det_scalar(r9, N) == (-3) % 9
    with pytest.raises(ValueError):
        mat_inv_batch(r9, N)


def test_det_multiplicative_random():
    rng = np.random.default_rng(3)
    for desc in (Z9, ring_make("equal", 2, 2, 1), ring_make("equal", 3, 1, 2)):
        ring = get_ring(desc)
        for _ in range(25):
            A = rng.integers(0, ring.size, size=(3, 3))
            B = rng.integers(0, ring.size, size=(3, 3))
            assert det_scalar(ring, mat_mul(ring, A, B)) == ring.mul(det_scalar(ring, A),
                                                                    det_scalar(ring, B))


# The minimal-polynomial halves of the next four tests read type_of: a matrix
# is regular (min poly = char poly) iff type_of gives it a type.


def test_char_min_poly_zero_matrix():
    z = np.zeros((2, 2), dtype=np.int64)
    assert char_poly(z, 2).coeffs == (0, 0, 1)
    assert type_of(z[None], 2) == [None]  # min poly t


def test_char_min_poly_companion_direct_oracle():
    # x = companion(t^2+t+1) over F2: check x^2 + x + I = 0 and x is not scalar
    cp = Poly(2, (1, 1, 1))
    C = companion(cp)
    ring = GF_ring(2)
    acc = ring.v_add(ring.v_add(mat_mul(ring, C, C), C), np.eye(2, dtype=np.int64))
    assert not acc.any()
    assert C[0, 1] != 0 or C[1, 0] != 0
    assert char_poly(C, 2) == cp
    assert [tau.entries for tau in type_of(C[None], 2)] == [((2, 1, 1),)]  # cp irreducible


def test_char_min_poly_scalar():
    d = np.eye(2, dtype=np.int64)
    assert char_poly(d, 3).coeffs == (1, 1, 1)  # (t-1)^2 over F3
    assert type_of(d[None], 3) == [None]        # min poly t - 1


def test_min_poly_divides_char_poly_exhaustive_2x2():
    for q in (2, 3):
        ring = get_ring(ring_make("mixed", q, 1, 1))
        ms = all_tuples(q, 4).reshape(-1, 2, 2)
        for m, tau in zip(ms, type_of(ms, q)):
            cp = char_poly(m, q)
            # the char poly annihilates the matrix (Cayley-Hamilton)
            acc = np.zeros((2, 2), dtype=np.int64)
            power = np.eye(2, dtype=np.int64)
            for c in cp.coeffs:
                acc = ring.v_add(acc, ring.v_mul(np.full((2, 2), c), power))
                power = mat_mul(ring, power, m)
            assert not acc.any()
            # the min poly is a proper divisor of cp exactly for the scalars,
            # and every other matrix is typed by the factorization of cp
            scalar = m[0, 1] == m[1, 0] == 0 and m[0, 0] == m[1, 1]
            assert (tau is None) == scalar
            if tau is not None:
                assert sorted((d, e) for d, e, c in tau.entries for _ in range(c)) == \
                    sorted((f.degree, e) for f, e in factor_poly(cp))


def test_factor_examples():
    f = Poly(3, (2, 0, 1))  # t^2 - 1
    assert sorted((p.coeffs, e) for p, e in factor_poly(f)) == [
        ((1, 1), 1), ((2, 1), 1)]
    g = Poly(3, (1, 0, 1))  # t^2 + 1: no roots in F3 (exhaustive oracle)
    assert all(poly_value(g, x) != 0 for x in range(3))
    assert factor_poly(g) == [(g, 1)]
    assert factor_poly(Poly(2, (0, 0, 0, 0, 1))) == [(Poly(2, (0, 1)), 4)]


def test_factor_degree_cap():
    with pytest.raises(ValueError):
        factor_poly(Poly(2, [1] + [0] * 8 + [1]), cap=8)


def test_factor_refactors_exhaustively_degree_le_4():
    for q in (2, 3, 4):
        for d in range(1, 5):
            for tail in itertools.product(range(q), repeat=d):
                f = Poly(q, list(tail) + [1])
                prod = Poly(q, (1,))
                for p, e in factor_poly(f):
                    for _ in range(e):
                        prod = prod * p
                assert prod == f


def test_irreducible_counts():
    # number of monic irreducibles of degree d: (1/d) sum_{e|d} mu(e) q^(d/e)
    for q in (2, 3, 4):
        sieve = monic_irreducibles(q, 4)
        assert len(sieve[1]) == q
        assert len(sieve[2]) == (q * q - q) // 2
        assert len(sieve[3]) == (q**3 - q) // 3
        assert len(sieve[4]) == (q**4 - q**2) // 4


def test_solve_count_examples():
    r9 = get_ring(Z9)
    cnt, basis = solve_count(r9, [[3]])
    assert cnt == 3
    assert all(r9.mul(3, int(v[0])) == 0 for v in basis)
    assert solve_count(r9, [[1]])[0] == 1


def test_commutant_of_companion_brute_force():
    # companion of t^2+1 over Z/9: 81 = q^(2*2) commuting matrices
    x = np.array([[0, 8], [1, 0]], dtype=np.int64)
    r9 = get_ring(Z9)
    brute = sum(
        1 for yv in itertools.product(range(9), repeat=4)
        if np.array_equal((x @ np.reshape(yv, (2, 2))) % 9,
                          (np.reshape(yv, (2, 2)) @ x) % 9)
    )
    cnt, _ = solve_count(r9, commutant_matrix(r9, x))
    assert brute == cnt == 81


def _brute_kernel_count(ring, A):
    A = np.asarray(A, dtype=np.int64)
    nc = A.shape[1]
    count = 0
    for v in itertools.product(range(ring.size), repeat=nc):
        ok = True
        for row in A:
            s = 0
            for c, x in zip(row, v):
                s = ring.add(s, ring.mul(int(c), x))
            if s != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_solve_count_matches_brute_force_enumeration():
    rng = np.random.default_rng(17)
    for desc in (Z4, Z9):
        ring = get_ring(desc)
        for cols in (1, 2, 3, 4):
            for _ in range(6):
                A = rng.integers(0, ring.size, size=(rng.integers(1, 4), cols))
                cnt, basis = solve_count(ring, A)
                assert cnt == _brute_kernel_count(ring, A)
                for v in basis:
                    prod = [0] * A.shape[0]
                    for i, row in enumerate(A):
                        s = 0
                        for c, x in zip(row, v):
                            s = ring.add(s, ring.mul(int(c), int(x)))
                        prod[i] = s
                    assert not any(prod)


def test_kernel_basis_spans_solution_set():
    ring = get_ring(Z4)
    A = np.array([[2, 1], [0, 2]], dtype=np.int64)
    cnt, basis = solve_count(ring, A)
    span = set()
    for coeffs in itertools.product(range(ring.size), repeat=len(basis)):
        v = [0, 0]
        for c, b in zip(coeffs, basis):
            for i in range(2):
                v[i] = ring.add(v[i], ring.mul(c, int(b[i])))
        span.add(tuple(v))
    assert len(span) == cnt


def test_span_size():
    r9 = get_ring(Z9)
    x = np.array([[0, 8], [1, 0]], dtype=np.int64)
    gens = np.stack([np.eye(2, dtype=np.int64).reshape(4), x.reshape(4)])
    assert span_size(r9, gens) == 81
    assert span_size(r9, np.array([[3, 0]])) == 3
    assert span_size(r9, np.zeros((0, 2))) == 1


def test_batched_kernels_match_scalar_paths():
    rng = np.random.default_rng(23)
    for desc in (Z9, ring_make("equal", 3, 1, 2), ring_make("equal", 2, 2, 2)):
        ring = get_ring(desc)
        for n in (1, 2, 3, 4):
            A = rng.integers(0, ring.size, size=(40, n, n))
            B = rng.integers(0, ring.size, size=(40, n, n))
            P = mat_mul(ring, A, B)
            D = mat_det_batch(ring, A)
            for t in range(0, 40, 7):
                assert np.array_equal(mat_mul(ring, A[t], B[t]), P[t])
                assert int(D[t]) == det_scalar(ring, A[t])
            mask = ring.v_is_unit(D)
            if mask.any():
                inv = mat_inv_batch(ring, A[mask])
                eye = np.eye(n, dtype=np.int64)
                for p in mat_mul(ring, A[mask], inv):
                    assert np.array_equal(p, eye)


def test_fq_field_modulus_recorded():
    # the generator x of F_p[x]/(modulus) has code p and is a root of the modulus
    for q, p, modulus in ((4, 2, (1, 1, 1)), (9, 3, (2, 2, 1))):
        assert CONWAY_POLYS[(p, 2)] == modulus
        assert poly_value(Poly(q, modulus), p) == 0
    assert (3, 1) not in CONWAY_POLYS and GF_ring(3).f == 1

import copy
import dataclasses
import hashlib
import itertools
from collections import Counter
from math import gcd

import numpy as np
import pytest

from whittaker.cyclotomic import CycloNum, IntegralityError, unit_generators
from whittaker.localring import get_ring, is_prime, ring_make
from whittaker.linalg import mat_mul
from whittaker.groups import (CapExceeded, GroupSpec, GroupTable, enumerate_group,
                              unipotent_subgroup)
from whittaker.whittaker_verify import NonDegenChar, induced_norm
from whittaker import chartab
from whittaker.chartab import (CharTable, adjoint_orbits, central_eigen_rows, charpoly_mod,
                               character_table, class_data, class_matrix, class_sums,
                               classify_regular, components, conjugacy_classes,
                               decompose_induced, dixon_prime, eigen_rows, nullspace_mod,
                               poly_roots_mod, restriction_norm, rref_mod, sl_class_profile,
                               special_regular_scan, value_dtype)
from oracles import (adjoint_orbits_by_sweep, class_powers_by_lookup, classify_regular_by_x,
                     conjugacy_classes_sweep, integer_values, pairings, restriction_norm_row,
                     sl_class_profile_by_lookup, verify_exact, write_with_metadata)

Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)
F3T2 = ring_make("equal", 3, 1, 2)
CLASS_FIELDS = ("class_of", "reps", "sizes", "orders", "inverse_perm", "powers")


def _value(ct, t, i):
    """chi_t at class i as an exact element of Z[zeta_e]."""
    return CycloNum(ct.e, ct.rows[t, i].tolist())


# -- shared tables (module scope: they are the expensive part) ----------------


@pytest.fixture(scope="module")
def sl2f3_ct():
    return character_table(enumerate_group(GroupSpec("SL", 2, F3)))


@pytest.fixture(scope="module")
def gl2z4_ct():
    return character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


@pytest.fixture(scope="module")
def sl2z9_ct():
    return character_table(enumerate_group(GroupSpec("SL", 2, Z9)))


@pytest.fixture(scope="module")
def gl2z8_ct():
    return character_table(enumerate_group(GroupSpec("GL", 2, Z8)))


@pytest.fixture(scope="module")
def gl2z9_ct():
    return character_table(enumerate_group(GroupSpec("GL", 2, Z9)))


# -- mod-r helpers -------------------------------------------------------------


def test_charpoly_mod_matches_determinant_evaluation():
    rng = np.random.default_rng(5)
    r = 433
    for _ in range(4):
        n = 6
        A = rng.integers(0, r, size=(n, n))
        cp = charpoly_mod(A, r)
        assert len(cp) == n + 1 and cp[-1] == 1
        for lam in rng.integers(0, r, size=5):
            M = (int(lam) * np.eye(n, dtype=np.int64) - A) % r
            det = 1
            W = M.copy()
            for c in range(n):
                nz = np.flatnonzero(W[c:, c])
                if nz.size == 0:
                    det = 0
                    break
                i = c + int(nz[0])
                if i != c:
                    W[[c, i]] = W[[i, c]]
                    det = -det % r
                det = det * int(W[c, c]) % r
                inv = pow(int(W[c, c]), r - 2, r)
                for j in range(c + 1, n):
                    f = int(W[j, c]) * inv % r
                    if f:
                        W[j] = (W[j] - f * W[c]) % r
            val = 0
            for coef in reversed(cp.tolist()):
                val = (val * int(lam) + coef) % r
            assert val == det


def test_rref_and_nullspace_mod():
    rng = np.random.default_rng(7)
    for r in (433, 337):
        for m, n, rank in ((5, 5, 5), (4, 9, 4), (9, 6, 6), (8, 8, 3), (6, 10, 2), (7, 7, 0)):
            A = rng.integers(0, r, size=(m, rank)) @ rng.integers(0, r, size=(rank, n)) % r
            R, piv = rref_mod(A, r)
            assert len(piv) == len(R) == rank and piv == sorted(piv)
            # reduced at the pivots, zero left of each pivot, same row space
            assert np.array_equal(R[:, piv], np.eye(rank, dtype=np.int64))
            assert all(not R[t, :c].any() for t, c in enumerate(piv))
            assert np.array_equal(A[:, piv] @ R % r, A)
            basis, free = nullspace_mod(A, r)
            assert basis.shape == (n - rank, n)
            assert not (A @ basis.T % r).any()
            assert len(rref_mod(basis, r)[1]) == n - rank
            # the one kernel basis that is the identity on the free columns
            assert free.tolist() == [c for c in range(n) if c not in piv]
            assert np.array_equal(basis[:, free], np.eye(n - rank, dtype=np.int64))


def _inverse_mod(S, r):
    d = len(S)
    R, piv = rref_mod(np.hstack([S, np.eye(d, dtype=np.int64)]), r)
    assert piv == list(range(d)), "S is singular"
    return R[:, d:]


@pytest.mark.parametrize("mults", [
    (1, 1, 1, 1, 1, 1), (3, 3), (2, 5, 1), (7, 1), (1, 8, 2), (4, 2, 2, 1), (10,),
], ids=str)
def test_eigen_rows_match_a_per_root_nullspace(mults, monkeypatch):
    # A = S diag S^-1 with the multiplicities on both sides of d/2, so both
    # branches (the reduced projector and the kernel of I - Q) are taken
    kernels = []
    monkeypatch.setattr(chartab, "nullspace_mod",
                        lambda M, r: kernels.append(len(M)) or nullspace_mod(M, r))
    r = 433
    rng = np.random.default_rng(sum(mults) * 31 + len(mults))
    d = sum(mults)
    lams = rng.choice(r, size=len(mults), replace=False)
    diag = np.repeat(lams, mults)
    while True:
        S = rng.integers(0, r, size=(d, d))
        if len(rref_mod(S, r)[1]) == d:
            break
    A = S * diag[None, :] % r @ _inverse_mod(S, r) % r
    got = eigen_rows(A, r)
    assert len(got) == len(mults)
    assert len(kernels) == sum(2 * m > d for m in mults)
    for (C, p), lam, m in zip(got, np.sort(lams).tolist(), np.array(mults)[np.argsort(lams)]):
        assert C.shape == (m, d)
        assert np.array_equal(C[:, p], np.eye(m, dtype=np.int64))
        assert not ((C @ A - lam * C) % r).any()
        oracle, _ = nullspace_mod((A.T - lam * np.eye(d, dtype=np.int64)) % r, r)
        assert np.array_equal(rref_mod(C, r)[0], rref_mod(oracle, r)[0])


def test_eigen_rows_refuse_a_dropped_root(monkeypatch):
    # mu(A) over the roots found no longer kills A
    monkeypatch.setattr(chartab, "poly_roots_mod",
                        lambda coeffs, r: poly_roots_mod(coeffs, r)[:-1])
    A = np.diag(np.array([2, 2, 5, 7], dtype=np.int64))
    with pytest.raises(AssertionError, match="failed to act semisimply"):
        eigen_rows(A, 13)
    with pytest.raises(AssertionError, match="failed to act semisimply"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_poly_roots_mod():
    # (x - 3)(x - 5) over F_13
    assert poly_roots_mod(np.array([15, -8, 1]) % 13, 13).tolist() == [3, 5]


def test_dixon_prime_choice():
    # smallest prime = 1 mod e above 2 sqrt(|G|)
    assert dixon_prime(12, 24) == 13
    assert dixon_prime(12, 96) == 37
    assert dixon_prime(36, 648) == 73
    assert dixon_prime(72, 3888) == 433
    # the search ends where the root scan would refuse the prime: the first
    # candidate above 2 sqrt(10^12) = 2 * 10^6 is past it
    with pytest.raises(CapExceeded, match="no Dixon prime"):
        dixon_prime(2, 10**12)


# -- conjugacy classes ----------------------------------------------------------


def test_gl2f2_classes():
    cd = conjugacy_classes(enumerate_group(GroupSpec("GL", 2, F2)))
    assert cd.k == 3
    assert sorted(cd.sizes.tolist()) == [1, 2, 3]


def test_sl2f3_classes():
    cd = conjugacy_classes(enumerate_group(GroupSpec("SL", 2, F3)))
    assert cd.k == 7
    assert cd.sizes.sum() == 24


@pytest.mark.parametrize("family, n, ring", [
    ("GL", 1, F2),  # the trivial group
    ("GL", 1, Z9),  # abelian
    ("GL", 2, F2),
    ("SL", 2, F3),
    ("GL", 2, Z4),
    ("GL", 2, Z8),
    ("SL", 2, Z9),
    ("SL", 2, Z8),
    ("GL", 2, F3T2),
    ("SL", 3, Z4),
])
def test_orbit_classes_match_the_sweep(family, n, ring):
    table = enumerate_group(GroupSpec(family, n, ring))
    cd, want = conjugacy_classes(table), conjugacy_classes_sweep(table)
    for field in CLASS_FIELDS:
        assert np.array_equal(getattr(cd, field), getattr(want, field)), field


def test_components_are_labelled_by_their_smallest_id():
    # p joins 0-3-5 and 1-4, q joins 1-4, and 2 is alone: the labels are the
    # minima, also when p starts from the labels of q's finer partition
    p = np.array([3, 4, 2, 5, 1, 0])
    q = np.array([0, 4, 2, 3, 1, 5])
    assert components([p, q], np.arange(6)).tolist() == [0, 1, 2, 0, 1, 0]
    assert components([q], np.arange(6)).tolist() == [0, 1, 2, 3, 1, 5]
    assert components([p], np.array([0, 1, 2, 3, 1, 5])).tolist() == [0, 1, 2, 0, 1, 0]
    assert components([], np.arange(3)).tolist() == [0, 1, 2]


def test_candidates_in_a_proper_subgroup_fail_the_closure(monkeypatch):
    # only unipotent candidates: they generate U, never all of GL2(Z/4)
    table = enumerate_group(GroupSpec("GL", 2, Z4))
    monkeypatch.setattr(chartab, "generator_candidates",
                        lambda table: unipotent_subgroup(table)[1:])
    with pytest.raises(AssertionError, match="span a proper subgroup of order 4"):
        conjugacy_classes(table)


def test_class_data_matches_elementwise_oracle(gl2z4_ct):
    # representatives, sizes, element orders and the classes of inverses,
    # read element by element instead of off the representatives
    cd = gl2z4_ct.cd
    table = cd.table
    eye = np.eye(2, dtype=np.int64)
    orders = []
    for x in table.elems:
        o, power = 1, x
        while not np.array_equal(power, eye):
            power = mat_mul(table.ring, power, x)
            o += 1
        orders.append(o)
    inverse_classes = cd.class_of[table.ids_of(table.inverses())]
    for c in range(cd.k):
        members = np.flatnonzero(cd.class_of == c)
        assert cd.reps[c] == members[0] and cd.sizes[c] == len(members)
        assert set(np.array(orders)[members]) == {cd.orders[c]}
        assert set(inverse_classes[members]) == {cd.inverse_perm[c]}
    # the identity moved out of class 0: the numbering is out of order
    with pytest.raises(AssertionError, match="not numbered in order of their smallest id"):
        class_data(table, (cd.class_of + 1) % cd.k)


@pytest.mark.parametrize("family, n, ring", [
    ("GL", 2, Z4),
    ("SL", 2, Z9),
    ("GL", 2, F3T2),
    ("SL", 3, Z4),
])
def test_class_powers_match_the_lookup_oracle(family, n, ring):
    # class_data reads the power classes, the orders and the inverse classes
    # off one stack; the oracle takes each representative's powers alone
    cd = conjugacy_classes(enumerate_group(GroupSpec(family, n, ring)))
    powers, orders, inverses = class_powers_by_lookup(cd)
    assert np.array_equal(cd.powers, powers)
    assert np.array_equal(cd.orders, orders)
    assert np.array_equal(cd.inverse_perm, inverses)


def test_class_count_equals_irreducible_count(gl2z4_ct):
    cd = gl2z4_ct.cd
    assert cd.sizes.sum() == 96
    assert gl2z4_ct.k == cd.k == len(gl2z4_ct.degrees)


def test_class_function_constancy_sampled(sl2z9_ct):
    # characters are constant on classes: check one nontrivial row on sampled
    # pairs of conjugate elements
    ct = sl2z9_ct
    table = ct.table
    ring = table.ring
    rng = np.random.default_rng(31)
    t = int(np.argmax(ct.degrees))
    for _ in range(20):
        i = int(rng.integers(0, len(table)))
        g = int(rng.integers(0, len(table)))
        x = table.elems[i]
        conj = mat_mul(ring, mat_mul(ring, table.elems[g], x),
                       table.inverses()[g])
        assert ct.cd.class_of[table.id_of(conj)] == ct.cd.class_of[i]


# -- character tables ------------------------------------------------------------


def test_sl2f3_degrees(sl2f3_ct):
    assert sorted(sl2f3_ct.degrees.tolist()) == [1, 1, 1, 2, 2, 2, 3]


def test_completeness_identities(gl2z4_ct, sl2z9_ct):
    assert int(np.sum(gl2z4_ct.degrees**2)) == 96
    assert int(np.sum(sl2z9_ct.degrees**2)) == 648


def test_char_table_derives_the_exponent_the_prime_and_the_degrees(gl2z4_ct):
    ct = CharTable(gl2z4_ct.cd, gl2z4_ct.rows)
    assert (ct.e, ct.r) == (12, dixon_prime(12, 96)) == (gl2z4_ct.e, gl2z4_ct.r)
    assert ct.degrees.tolist() == [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 6]


def _edited(rows, index, delta):
    rows = rows.copy()
    rows[index] += delta
    return rows


def _row_scaled(rows, t, c):
    return rows * np.where(np.arange(len(rows)) == t, c, 1)[:, None, None]


# each breaks one invariant of GL2(Z/4)'s table, whose row 13 has degree 6
# and row 4 degree 2
CHAR_TABLE_FAULTS = {
    "exponent-doubled": (lambda rows: np.concatenate([rows, 0 * rows], axis=2),
                         r"not \(k, k, e\)"),
    "row-negated": (lambda rows: _row_scaled(rows, 13, -1), r"outside 0..\|G\|"),
    "above-order": (lambda rows: _edited(rows, (13, 1, 0), 97), r"outside 0..\|G\|"),
    "identity-class": (lambda rows: _edited(_edited(rows, (13, 0, 0), -1), (13, 0, 1), 1),
                       "do not sum to degree"),
    "sum-off": (lambda rows: _edited(rows, (13, 1, 0), 1), "do not sum to degree"),
    "degree-zero": (lambda rows: _row_scaled(rows, 4, 0), r"divisors of \|G\|"),
    "row-doubled": (lambda rows: _row_scaled(rows, 13, 2), r"divisors of \|G\|"),
}


@pytest.mark.parametrize("fault", sorted(CHAR_TABLE_FAULTS))
def test_char_table_checks_its_invariants(gl2z4_ct, fault):
    edit, message = CHAR_TABLE_FAULTS[fault]
    with pytest.raises(AssertionError, match=message):
        CharTable(gl2z4_ct.cd, edit(gl2z4_ct.rows))


def test_class_matrix_row_zero_is_the_class_indicator(gl2z4_ct, sl2z9_ct):
    # M_j[0, l] = #{x in C_j : x^-1 z_l = 1} = delta_jl: the invariant that
    # makes the central characters omega equal to the normalized eigen-rows W
    for ct in (gl2z4_ct, sl2z9_ct):
        for j in range(ct.k):
            got = class_matrix(ct.cd, j, ct.r, np.array([0]))
            assert got.tolist() == [np.eye(ct.k, dtype=int)[j].tolist()]


def test_class_matrix_counts_products_into_classes():
    # M_j[i, l] = #{x in C_j : x^-1 z_l in C_i}, counted one product at a
    # time; class_matrix reads any set of its rows off the products x z_i
    cd = conjugacy_classes(enumerate_group(GroupSpec("SL", 2, F3)))
    table = cd.table
    rng = np.random.default_rng(7)
    for j in range(cd.k):
        want = np.zeros((cd.k, cd.k), dtype=np.int64)
        for x in np.flatnonzero(cd.class_of == j):
            xinv = table.inverses()[x]
            for l, z in enumerate(table.elems[cd.reps]):
                want[cd.class_of[table.ids_of((xinv @ z % 3)[None])[0]], l] += 1
        assert np.array_equal(class_matrix(cd, j, 13, np.arange(cd.k)), want % 13)
        for size in (1, 2, cd.k - 1):
            rows = np.sort(rng.choice(cd.k, size=size, replace=False))
            assert np.array_equal(class_matrix(cd, j, 13, rows), want[rows] % 13)


def test_central_split_spans_the_eigen_rows_of_its_permutation(gl2z8_ct, sl2z9_ct):
    # M_z of a central class permutes the classes; its closed-form rows span,
    # root by root, the rows that eigen_rows finds on M_z^T itself
    for ct in (gl2z8_ct, sl2z9_ct):
        cd, k, r = ct.cd, ct.k, ct.r
        central = np.flatnonzero(cd.sizes == 1)[1:].tolist()
        assert central
        for z in central:
            MT = class_matrix(cd, z, r, np.arange(k)).T
            assert set(MT.ravel().tolist()) == {0, 1}
            assert (MT.sum(axis=0) == 1).all() and (MT.sum(axis=1) == 1).all()
            got, want = central_eigen_rows(cd, z, r), eigen_rows(MT, r)
            assert len(got) == len(want)
            for (C, p), (D, _) in zip(got, want):
                assert np.array_equal(C[:, p], np.eye(len(C), dtype=np.int64))
                assert np.array_equal(rref_mod(C, r)[0], rref_mod(D, r)[0])


# sha256 of rows, degrees and (e, r), recorded before the split moved onto
# the restricted action, and the classes whose matrix rows the split asks
# for, in order: the other central classes, then the rest in index order
# (recorded when the first split became the closed-form central one)
PINNED_TABLES = [
    (GroupSpec("GL", 2, Z4), "cd2d962b8f60041369ac01cc6e337175e3763890069b20a20cfecb980afdd739",
     list(range(1, 7))),
    (GroupSpec("SL", 2, Z9), "9e367b68680528578a44026ff80f62b6ef7a77638ec9f12d0d813c09fa91f11a",
     list(range(1, 5))),
    (GroupSpec("GL", 2, Z8), "51813dcb2a0706a3d08db5c383be9ebefd837d0dd1cb1b46e6bb85c568108f83",
     [58, 59, *range(1, 36)]),
]


@pytest.mark.parametrize("spec,digest,calls", PINNED_TABLES, ids=["GL2-Z4", "SL2-Z9", "GL2-Z8"])
def test_tables_match_pinned_digests(monkeypatch, spec, digest, calls):
    seen = []

    def counted(cd, j, r, rows):
        seen.append(j)
        return class_matrix(cd, j, r, rows)
    monkeypatch.setattr(chartab, "class_matrix", counted)
    ct = character_table(enumerate_group(spec))
    got = hashlib.sha256(ct.rows.astype(np.int64).tobytes() + ct.degrees.tobytes()
                         + str((ct.e, ct.r)).encode())
    assert got.hexdigest() == digest
    assert seen == calls


def test_split_starts_on_the_central_class_of_largest_order(monkeypatch):
    # GL2(Z/9): the central classes 64, 74, 75, 76, 77 have orders 6, 3, 6,
    # 3, 2; the closed form takes the first of order 6, and the other
    # central classes come before the rest
    central, seen = [], []
    original_central, original_matrix = chartab.central_eigen_rows, chartab.class_matrix

    def central_split(cd, z, r):
        central.append(z)
        return original_central(cd, z, r)

    def counted(cd, j, r, rows):
        seen.append(j)
        return original_matrix(cd, j, r, rows)
    monkeypatch.setattr(chartab, "central_eigen_rows", central_split)
    monkeypatch.setattr(chartab, "class_matrix", counted)
    ct = character_table(enumerate_group(GroupSpec("GL", 2, Z9)))
    assert np.flatnonzero(ct.cd.sizes == 1).tolist() == [0, 64, 74, 75, 76, 77]
    assert ct.cd.orders[[64, 74, 75, 76, 77]].tolist() == [6, 3, 6, 3, 2]
    assert central == [64]
    assert seen[:5] == [74, 75, 76, 77, 1]


def _refuse_class_matrix(cd, j, r, rows):
    raise AssertionError("class_matrix reached")


def test_dixon_prime_breaking_the_int64_bound_is_refused(monkeypatch):
    monkeypatch.setattr(chartab, "dixon_prime", lambda e, order: 2**32 + 15)
    monkeypatch.setattr(chartab, "class_matrix", _refuse_class_matrix)
    with pytest.raises(CapExceeded, match="2\\^63"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_split_refuses_a_non_semisimple_class_matrix(monkeypatch):
    # the rows of a Jordan block: one eigenvalue, a one-dimensional eigenspace
    def jordan(cd, j, r, rows):
        return (3 * np.eye(cd.k, dtype=np.int64) + np.eye(cd.k, k=1, dtype=np.int64))[rows] % r
    monkeypatch.setattr(chartab, "class_matrix", jordan)
    with pytest.raises(AssertionError, match="failed to act semisimply"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_split_refuses_class_matrices_that_do_not_separate(monkeypatch):
    monkeypatch.setattr(chartab, "class_matrix",
                        lambda cd, j, r, rows: np.eye(cd.k, dtype=np.int64)[rows])
    with pytest.raises(AssertionError, match="did not separate all characters"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_orthogonality_verification_runs(gl2z4_ct):
    gl2z4_ct.verify()


def test_column_orthogonality(gl2z4_ct, sl2z9_ct):
    # sum_t chi_t(i) conj(chi_t(j)) = delta_ij |C(g_i)|: verify checks only the
    # row relation, which implies this one for a square table
    for ct in (gl2z4_ct, sl2z9_ct):
        cols = ct.rows.transpose(1, 0, 2)
        got = integer_values(pairings(cols, cols), ct.e)
        assert np.array_equal(got, np.diag(len(ct.table) // ct.cd.sizes))


def _passes(check) -> bool:
    try:
        check()
    except (AssertionError, IntegralityError):
        return False
    return True


def _corrupted(ct, seed, count):
    """`count` tables of each kind, each with one (row, class) vector of ct
    edited off the identity class, so that CharTable accepts it: "move" moves
    one eigenvalue to another exponent, "sigma" applies a sigma_w (w a unit
    mod e) that changes the vector."""
    rng = np.random.default_rng(seed)
    e = ct.e
    units = [w for w in range(2, e) if gcd(w, e) == 1]
    for kind in ("move", "sigma"):
        made = 0
        while made < count:
            t, i = rng.integers(ct.k), rng.integers(1, ct.k)
            v = ct.rows[t, i]
            if kind == "move":
                new = v.copy()
                u = rng.choice(np.flatnonzero(v))
                new[u] -= 1
                new[(u + rng.integers(1, e)) % e] += 1
            else:
                new = np.zeros_like(v)
                new[rng.choice(units) * np.arange(e) % e] = v
                if np.array_equal(new, v):
                    continue
            rows = ct.rows.copy()
            rows[t, i] = new
            made += 1
            yield kind, CharTable(ct.cd, rows)


@pytest.mark.parametrize("fixture,count", [("gl2z4_ct", 40), ("gl2z8_ct", 20),
                                           ("sl2z9_ct", 40), ("gl2z9_ct", 10)])
def test_modular_verify_agrees_with_the_exact_gram(fixture, count, request):
    # every genuine table passes both checks, and a seeded corruption that
    # passes verify passes the exact Gram too; the reverse fails where the
    # power map sees an edit that keeps every row relation
    ct = request.getfixturevalue(fixture)
    ct.verify()
    verify_exact(ct)
    stricter = Counter()
    for kind, bad in _corrupted(ct, 23, count):
        modular, exact = _passes(bad.verify), _passes(lambda: verify_exact(bad))
        assert exact or not modular, kind
        stricter[kind] += exact and not modular
    print(f"{ct.table.spec.key()}: failed verify alone {dict(stricter)} of {count} per kind")


def test_verify_reads_vbar_through_the_inverse_classes(gl2z4_ct):
    # verify reads the values at zeta'^-1 as V[:, inverse_perm]; with the
    # inverse classes of two classes that are not each other's inverse
    # swapped, the power map still holds and the Gram fails
    ct = gl2z4_ct
    cd = ct.cd
    i = 1
    j = next(j for j in range(2, ct.k) if j != cd.inverse_perm[i])
    perm = cd.inverse_perm.copy()
    perm[[i, j]] = perm[[j, i]]
    with pytest.raises(AssertionError, match="row orthogonality fails"):
        CharTable(dataclasses.replace(cd, inverse_perm=perm), ct.rows).verify()


def _widened(ct):
    """ct with an int64 copy of its values, set past the constructor, which
    would narrow them again."""
    wide = copy.copy(ct)
    wide.rows = ct.rows.astype(np.int64)
    return wide


def _outcome(check):
    try:
        check()
    except (AssertionError, IntegralityError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("fixture", ["gl2z8_ct", "sl2z9_ct", "gl2z9_ct"])
def test_verdicts_do_not_depend_on_the_values_dtype(fixture, request):
    # the kernels read the narrow values by gathers, comparisons, sums along
    # one vector and blocks widened to int64: an int64 copy of the values
    # gives the same verdicts, and the same faults on seeded corruptions
    ct = request.getfixturevalue(fixture)
    wide = _widened(ct)
    assert ct.rows.dtype == np.int8 and wide.rows.dtype == np.int64
    assert classify_regular(ct) == classify_regular(wide)
    spec = ct.table.spec
    u_ids = unipotent_subgroup(ct.table, 0)
    for a in get_ring(spec.ring).unit_codes():
        theta = NonDegenChar(spec, a)
        assert np.array_equal(decompose_induced(ct, theta, u_ids),
                              decompose_induced(wide, theta, u_ids))
    assert np.array_equal(restriction_norm(ct, range(ct.k)), restriction_norm(wide, range(ct.k)))
    for table in (ct, wide):
        table.verify()
        verify_exact(table)
    for kind, bad in _corrupted(ct, 29, 3):
        for check in (CharTable.verify, verify_exact):
            assert _outcome(lambda: check(bad)) == _outcome(lambda: check(_widened(bad))), kind


def test_value_dtype_is_the_narrowest_that_holds_the_largest_degree():
    assert [value_dtype(hi) for hi in (1, 127, 128, 32767, 32768, 1 << 31)] == \
        [np.int8, np.int8, np.int16, np.int16, np.int32, np.int64]


def test_a_value_past_int8_is_refused_not_wrapped(sl2z9_ct):
    # one value 256 above the genuine one: a cast to int8 would give back the
    # genuine table, so CharTable checks the incoming array before narrowing
    ct = sl2z9_ct
    rows = ct.rows.astype(np.int64)
    rows[-1, 1, int(np.flatnonzero(rows[-1, 1])[0])] += 256
    assert np.array_equal(rows.astype(np.int8), ct.rows)
    with pytest.raises(AssertionError, match="do not sum to degree"):
        CharTable(ct.cd, rows)


def test_power_classes_are_made_once_per_cold_table(monkeypatch):
    # class_data is the only code that takes powers of the representatives:
    # one call per cold table, whose power classes the lift and the verify
    # share
    made = []
    original = chartab.class_data

    def counted(*args):
        made.append(original(*args))
        return made[-1]
    monkeypatch.setattr(chartab, "class_data", counted)
    ct = character_table(enumerate_group(GroupSpec("GL", 2, Z4)))
    assert len(made) == 1 and ct.cd is made[0]

    # the verify takes no product, no inverse and no lookup of its own
    def refused(*args):
        raise AssertionError("verify computed on the group")
    for name in ("mat_mul", "mat_inv_batch"):
        monkeypatch.setattr(chartab, name, refused)
    monkeypatch.setattr(GroupTable, "ids_of", refused)
    ct.verify()
    assert len(made) == 1


def test_degrees_divide_group_order(gl2z4_ct, sl2z9_ct):
    for ct in (gl2z4_ct, sl2z9_ct):
        for d in ct.degrees:
            assert len(ct.table) % int(d) == 0


def test_trivial_character_present(gl2z4_ct):
    ones = [t for t in range(gl2z4_ct.k)
            if gl2z4_ct.degrees[t] == 1
            and all(_value(gl2z4_ct, t, i) == _value(gl2z4_ct, t, 0)
                    for i in range(gl2z4_ct.k))]
    assert len(ones) == 1


def test_induced_from_trivial_u_character_contains_trivial_once(gl2z4_ct):
    # diagnostic: <Ind_U^G 1, triv> = 1 (the trivial constituent of the
    # permutation character)
    ct = gl2z4_ct
    u = unipotent_subgroup(ct.table, 0)
    u_classes = ct.cd.class_of[u]
    triv = next(t for t in range(ct.k)
                if ct.degrees[t] == 1
                and all(_value(ct, t, i) == _value(ct, t, 0) for i in range(ct.k)))
    acc = np.zeros(ct.e, dtype=np.int64)
    for cls in u_classes:
        acc += ct.rows[triv, cls]
    assert CycloNum(ct.e, acc.tolist()).rational_value() == len(u)


# -- decomposition and classification ---------------------------------------------


def test_decompose_gl2z4(gl2z4_ct):
    for a in (1, 3):
        m = decompose_induced(gl2z4_ct, NonDegenChar(GroupSpec("GL", 2, Z4), a))
        assert m.max() == 1 and m.sum() == 8
        assert int(np.sum(m * gl2z4_ct.degrees)) == 24


def test_non_rational_table_value_fails_decomposition(gl2z4_ct):
    # one multiplicity of chi at the class of u(2), the one class of order 2
    # that U meets once, moved from exponent u to u + 1: the vector keeps its
    # sign and its sum, so the table passes CharTable, and the Frobenius sum
    # would move by (zeta_e^u - zeta_e^(u+1)) / |U| (theta(u(2)) = -1), not
    # rational.  The moved vector is no longer fixed by sigma_5, while
    # g -> g^5 fixes the class, so the power map on the classes of U refuses
    # the table before any sum is taken
    ct = gl2z4_ct
    u_classes = ct.cd.class_of[unipotent_subgroup(ct.table, 0)].tolist()
    c = next(c for c in set(u_classes) - {0} if u_classes.count(c) == 1)
    rows = ct.rows.copy()
    u = int(np.flatnonzero(rows[-1, c])[0])
    rows[-1, c, u] -= 1
    rows[-1, c, (u + 1) % ct.e] += 1
    bad = CharTable(ct.cd, rows)
    with pytest.raises(AssertionError, match=r"the values break the power map g -> g\^(5|7)"):
        decompose_induced(bad, NonDegenChar(GroupSpec("GL", 2, Z4), 1))


def test_decompose_gl1_where_p_to_the_l_does_not_divide_e():
    # GL1(Z/9) is cyclic of order 6: e = 6, while theta's values are 9th
    # roots of unity; U is trivial, so Ind theta is the regular representation
    ct = character_table(enumerate_group(GroupSpec("GL", 1, Z9)))
    assert ct.e == 6
    m = decompose_induced(ct, NonDegenChar(GroupSpec("GL", 1, Z9), 1))
    assert m.tolist() == [1] * 6


def test_decompose_sl2z9(sl2z9_ct):
    spec = GroupSpec("SL", 2, Z9)
    for a in get_ring(Z9).unit_codes():
        m = decompose_induced(sl2z9_ct, NonDegenChar(spec, a))
        assert m.max() == 1 and m.sum() == 12
        assert int(np.sum(m * sl2z9_ct.degrees)) == 72
        assert [int(np.sum(m * m))] == induced_norm(spec, [a])


def test_classify_regular_gl2z4(gl2z4_ct):
    flags = classify_regular(gl2z4_ct)
    regs = [f for f in flags if f.regular]
    assert Counter(f.label for f in regs) == {
        "cuspidal": 3, "split-nss": 4, "split-ss": 1}
    assert Counter((f.label, f.degree) for f in regs) == {
        ("cuspidal", 2): 3, ("split-nss", 3): 4, ("split-ss", 6): 1}
    for a in (1, 3):
        m = decompose_induced(gl2z4_ct, NonDegenChar(GroupSpec("GL", 2, Z4), a))
        assert set(np.flatnonzero(m).tolist()) == {f.index for f in regs}


def test_classify_regular_sl2z9(sl2z9_ct):
    flags = classify_regular(sl2z9_ct)
    regs = [f for f in flags if f.regular]
    assert Counter(f.label for f in regs) == {
        "cuspidal": 4, "split-nss": 12, "split-ss": 2}
    assert Counter((f.label, f.degree) for f in regs) == {
        ("cuspidal", 6): 4, ("split-nss", 4): 12, ("split-ss", 12): 2}


@pytest.mark.parametrize("family, n, ring, count", [
    ("GL", 2, ring_make("mixed", 2, 1, 2), 6),
    ("GL", 2, Z9, 12),
    ("GL", 2, ring_make("equal", 2, 2, 2), 20),
    ("GL", 3, Z4, 14),
    ("SL", 2, Z9, 5),
    ("SL", 3, Z4, 7),
], ids=["gl2-F2", "gl2-F3", "gl2-F4", "gl3-F2", "sl2-F3", "sl3-F2"])
def test_adjoint_orbits_are_the_orbits_of_the_whole_residue_group(family, n, ring, count):
    labels = adjoint_orbits(GroupSpec(family, n, ring))
    assert np.array_equal(labels, adjoint_orbits_by_sweep(GroupSpec(family, n, ring)))
    assert len(np.unique(labels)) == count


@pytest.mark.parametrize("family, n, ring", [
    ("GL", 2, Z4), ("GL", 2, Z8), ("GL", 2, Z9), ("GL", 2, F3T2),
    ("SL", 2, Z9), ("SL", 2, ring_make("mixed", 3, 1, 3)), ("SL", 2, ring_make("equal", 5, 1, 2)),
    ("SL", 3, Z4),
], ids=["GL2-Z4", "GL2-Z8", "GL2-Z9", "GL2-F3t2", "SL2-Z9", "SL2-Z27", "SL2-F5t2", "SL3-Z4"])
def test_classify_regular_on_orbits_matches_every_x(family, n, ring):
    ct = character_table(enumerate_group(GroupSpec(family, n, ring)))
    assert classify_regular(ct) == classify_regular_by_x(ct)


def test_merged_orbits_fail_the_classification(monkeypatch):
    # the orbit of x = I joins the orbit of 0, whose representative 0 is the
    # smaller: the characters over phi_I are then paired with no x at all, so
    # no flags come back to compare with classify_regular_by_x
    ct = character_table(enumerate_group(GroupSpec("GL", 2, Z9)))
    original = chartab.adjoint_orbits

    def merged(spec):
        labels = original(spec).copy()
        labels[labels == labels[1 + 3**3]] = 0  # index 1 + q^3 is diag(1, 1)
        return labels

    monkeypatch.setattr(chartab, "adjoint_orbits", merged)
    with pytest.raises(AssertionError, match="empty support"):
        classify_regular(ct)


def test_sl_with_p_dividing_n_is_refused_up_front():
    # at p | n the identity lies in sl_n(F_q) and pairs to zero with all of
    # it: the pairing over every x leaves some characters with no support
    ct = character_table(enumerate_group(GroupSpec("SL", 2, Z4)))
    with pytest.raises(ValueError, match="p not dividing n"):
        classify_regular(ct)
    with pytest.raises(ValueError, match="p not dividing n"):
        special_regular_scan(ct)
    with pytest.raises(AssertionError, match="empty support"):
        classify_regular_by_x(ct)


def test_special_regular_scan_sl2z9(sl2z9_ct):
    recs = special_regular_scan(sl2z9_ct)
    units = get_ring(Z9).unit_codes()
    squares = sorted({(u * u) % 9 for u in units})
    nonsquares = sorted(set(units) - set(squares))
    by_label = Counter(r.label for r in recs)
    assert by_label == {"cuspidal": 4, "split-nss": 12, "split-ss": 2}
    for rec in recs:
        if rec.label in ("cuspidal", "split-ss"):
            assert rec.all_units and rec.predicted_all_units is True
        else:
            assert not rec.all_units and rec.predicted_all_units is False
            got = sorted(rec.units_with_model)
            assert got in (squares, nonsquares)


def test_restriction_norm_bounded_and_matches_iota(sl2z9_ct):
    # cheap variant of the branching check at GL2(Z/4) scale is not valid
    # (p = n = 2), so use the SL table itself restricted to itself: norm 1
    ct = sl2z9_ct
    assert restriction_norm(ct, range(ct.k)).tolist() == [1] * ct.k


@pytest.mark.parametrize("desc", [Z9, Z8], ids=["Z9", "Z8"])
def test_restriction_norm_blocks_match_per_row_oracle(desc):
    # GL2 -> SL2 over every regular row: one block of all rows, and one block
    # per factorization label as cli.cmd_branching passes them
    ct = character_table(enumerate_group(GroupSpec("GL", 2, desc)))
    sl_table = enumerate_group(GroupSpec("SL", 2, desc))
    regs = [f for f in classify_regular(ct) if f.regular]
    want = [restriction_norm_row(ct, f.index, sl_table) for f in regs]
    got = restriction_norm(ct, [f.index for f in regs])
    assert got.dtype == np.int64 and got.tolist() == want
    for label in {f.label for f in regs}:
        block = [i for i, f in enumerate(regs) if f.label == label]
        assert restriction_norm(ct, [regs[i].index for i in block]).tolist() == \
            [want[i] for i in block]


@pytest.mark.parametrize("desc", [Z4, Z8, Z9, F3T2], ids=["Z4", "Z8", "Z9", "F3t2"])
def test_sl_class_profile_matches_the_lookup_oracle(desc):
    ct = character_table(enumerate_group(GroupSpec("GL", 2, desc)))
    sl_table = enumerate_group(GroupSpec("SL", 2, desc))
    assert np.array_equal(sl_class_profile(ct), sl_class_profile_by_lookup(ct, sl_table))


def test_sl_class_profile_of_an_sl_table_is_its_class_sizes(sl2z9_ct):
    ct = sl2z9_ct
    assert np.array_equal(sl_class_profile(ct), ct.cd.sizes)
    assert np.array_equal(sl_class_profile(ct), sl_class_profile_by_lookup(ct, ct.table))


# -- class sums ------------------------------------------------------------------


@pytest.mark.parametrize("family, desc", [("GL", Z4), ("SL", Z9), ("GL", Z8), ("GL", Z9),
                                          ("GL", F3T2)],
                         ids=["GL2-Z4", "SL2-Z9", "GL2-Z8", "GL2-Z9", "GL2-F3t2"])
def test_class_sums_equal_the_exact_oracle(family, desc, monkeypatch):
    # every class_sums call of the three verdict sums, on the inputs the
    # verdict passes, against the exact sums in Z[zeta_e] of pairings and
    # integer_values over all k classes: decompose_induced at every unit,
    # every classification multiplicity, and the whole T x T norm block
    ct = character_table(enumerate_group(GroupSpec(family, 2, desc)))
    original, calls = chartab.class_sums, []

    def checked(ct, f, classes, ts, divisor):
        got = original(ct, f, classes, ts, divisor)
        full = np.zeros((len(f), ct.k, ct.e), dtype=np.int64)
        full[:, classes] = f
        want = integer_values(pairings(full, ct.rows[np.asarray(ts)]), ct.e, divisor)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        calls.append(got.shape)
        return got

    monkeypatch.setattr(chartab, "class_sums", checked)
    spec = ct.table.spec
    units = get_ring(desc).unit_codes()
    for a in units:
        decompose_induced(ct, NonDegenChar(spec, a))
    classify_regular(ct)
    restriction_norm(ct, range(ct.k))
    assert calls[:len(units)] == [(1, ct.k)] * len(units)
    assert calls[-1] == (ct.k, ct.k) and len(calls) == len(units) + 2


def _sized_row(ct, t):
    """The summands sizes_c chi_t(c) on every class, a (1, k, e) stack: their
    class sums are sum_g chi_t(g) conj(chi_s(g)) = |G| delta_ts."""
    return ct.rows[t][None].astype(np.int64) * ct.cd.sizes[None, :, None]


def test_class_sums_give_row_orthogonality(gl2z9_ct):
    ct = gl2z9_ct
    classes = np.arange(ct.k)
    for t in (0, ct.k // 2, ct.k - 1):
        got = class_sums(ct, _sized_row(ct, t), classes, range(ct.k), len(ct.table))
        assert got.tolist() == [np.eye(ct.k, dtype=np.int64)[t].tolist()]


@pytest.mark.parametrize("which", ["summands", "values"])
def test_class_sums_refuse_a_vector_off_the_power_map(gl2z4_ct, which):
    # one multiplicity moved from exponent u to u + 1 at a class of order 2,
    # which every g -> g^v (v odd) fixes: the moved vector is no longer fixed
    # by sigma_5, in the summands or in the values of the rows summed against
    ct = gl2z4_ct
    c = int(np.flatnonzero(ct.cd.orders == 2)[0])
    f = _sized_row(ct, ct.k - 1)
    rows = ct.rows.copy()
    vector = f[0, c] if which == "summands" else rows[-1, c]
    u = int(np.flatnonzero(vector)[0])
    vector[u] -= 1
    vector[(u + 1) % ct.e] += 1
    with pytest.raises(AssertionError, match=rf"the {which} break the power map g -> g\^(5|7)"):
        class_sums(CharTable(ct.cd, rows), f, np.arange(ct.k), range(ct.k), len(ct.table))


def test_class_sums_refuse_classes_that_a_unit_power_leaves(gl2z9_ct):
    # the identity class and a class that some g -> g^u moves to a third
    ct = gl2z9_ct
    cd = ct.cd
    c = next(c for c in range(1, ct.k) for u in unit_generators(ct.e)
             if cd.powers[c, u % cd.orders[c]] != c)
    classes = np.array([0, c])
    f = _sized_row(ct, 0)[:, classes]
    with pytest.raises(AssertionError, match="does not permute the classes of the sum"):
        class_sums(ct, f, classes, range(ct.k), 1)


def test_class_sums_refuse_a_remainder(gl2z4_ct):
    # sum_g |chi_t(g)|^2 = |G| is not divisible by |G| + 1
    ct = gl2z4_ct
    with pytest.raises(IntegralityError, match=f"not divisible by {len(ct.table) + 1}"):
        class_sums(ct, _sized_row(ct, 0), np.arange(ct.k), range(ct.k), len(ct.table) + 1)


def _with_moduli(ct, primes):
    """A copy of ct whose moduli are the given primes = 1 mod 12."""
    ct = copy.copy(ct)
    assert ct.e == 12
    ct.moduli = (primes, np.array([[pow(z, u, r) for u in range(12)] for r, z in
                                   ((r, chartab.root_of_unity(12, r)) for r in primes)]))
    return ct


def _primes_below(top, n):
    """The n largest primes = 1 mod 12 below top."""
    return list(itertools.islice(filter(is_prime, range(top // 12 * 12 + 1, 0, -12)), n))


BOUND_FAULT = r"the primes \[.*\] break the bounds 2 L d"


@pytest.mark.parametrize("primes", [[13], chartab.verify_primes(12, 10**20),
                                    _primes_below(3 * 10**9, 1)],
                         ids=["short", "past-int64", "product-of-residues"])
def test_class_sums_refuse_moduli_that_break_the_bounds(gl2z4_ct, primes):
    # one prime = 1 mod 12, whose product cannot exceed 2 L d = 2 |U| d_max;
    # four near 10^6, whose product Garner's steps cannot hold in int64; or
    # one near 3 10^9, which holds S, but C (r' - 1)^2 >= 2^63 for the C >= 2
    # classes that meet U
    with pytest.raises(AssertionError, match=BOUND_FAULT):
        decompose_induced(_with_moduli(gl2z4_ct, primes), NonDegenChar(GroupSpec("GL", 2, Z4), 1))


def test_class_sums_refuse_summands_past_int64_at_the_roots(gl2z4_ct):
    # f = 2^33 at the identity: two primes near 3 10^9 hold S and one product
    # of residues, but f at zeta' may reach 2^33 (r' - 1) >= 2^63
    ct = _with_moduli(gl2z4_ct, _primes_below(3 * 10**9, 2))
    f = np.zeros((1, 1, 12), dtype=np.int64)
    f[0, 0, 0] = 1 << 33
    with pytest.raises(AssertionError, match=BOUND_FAULT):
        class_sums(ct, f, np.array([0]), range(ct.k), 1)


@pytest.mark.parametrize("shift, check", [
    (lambda m: -m, "negative multiplicity"),
    (lambda m: m + np.eye(1, m.shape[-1], dtype=np.int64), "do not sum to the induced dimension"),
], ids=["negated", "one-more"])
def test_decomposition_refuses_wrong_multiplicities(sl2z9_ct, monkeypatch, shift, check):
    # class sums that are integers but not the decomposition of Ind theta
    original = chartab.class_sums
    monkeypatch.setattr(chartab, "class_sums", lambda *args: shift(original(*args)))
    with pytest.raises((AssertionError, IntegralityError), match=check):
        decompose_induced(sl2z9_ct, NonDegenChar(GroupSpec("SL", 2, Z9), 1))


def test_special_regular_scan_refuses_a_multiplicity_above_one(sl2z9_ct, monkeypatch):
    original = chartab.decompose_induced
    monkeypatch.setattr(chartab, "decompose_induced", lambda *args: 2 * original(*args))
    with pytest.raises(AssertionError, match="multiplicity above one"):
        special_regular_scan(sl2z9_ct)


def test_chartab_cap():
    with pytest.raises(CapExceeded):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)), cap=10)


def test_cache_round_trip(tmp_path, gl2z4_ct):
    from whittaker.cache import (load_char_table, load_group_table,
                                 save_char_table, save_group_table)

    table = gl2z4_ct.table
    save_group_table(table, tmp_path)
    loaded = load_group_table(table.spec, tmp_path)
    assert np.array_equal(loaded.elems, table.elems)
    save_char_table(gl2z4_ct, tmp_path)
    ct2 = load_char_table(loaded, tmp_path)
    assert ct2.e == gl2z4_ct.e and ct2.r == gl2z4_ct.r
    assert np.array_equal(ct2.degrees, gl2z4_ct.degrees)
    assert np.array_equal(ct2.rows, gl2z4_ct.rows)
    assert np.array_equal(ct2.cd.class_of, gl2z4_ct.cd.class_of)
    ct2.verify()


def test_cached_char_table_is_stored_narrow(tmp_path, gl2z4_ct):
    # int8 in memory and on disk while k and the degrees are below 128, and
    # loaded without a copy
    from whittaker.cache import _read, _write, chartab_cache_key, load_char_table, save_char_table

    ct, key = gl2z4_ct, chartab_cache_key(gl2z4_ct.table.spec)
    save_char_table(ct, tmp_path)
    assert _read(key, tmp_path)[0] == {"arrays": [["class_of", "|i1", [len(ct.table)]],
                               ["rows", "|i1", [ct.k, ct.k, ct.e]]]}
    assert ct.rows.dtype == np.int8
    got = load_char_table(ct.table, tmp_path)
    # the values are the file's buffer, read-only and narrow, not an int64 copy
    assert got.rows.dtype == np.int8 and not got.rows.flags.writeable
    assert not got.rows.flags.owndata
    assert got.cd.class_of.dtype == np.int64
    assert np.array_equal(got.rows, ct.rows)
    assert np.array_equal(got.cd.class_of, ct.cd.class_of)
    # the format keeps any stored dtype, and negative values (fault tests
    # write them), though no CharTable holds them
    for value, dtype in [(-3, np.int8), (-129, np.int16), (1 << 40, np.int64)]:
        rows = ct.rows.astype(dtype)
        rows[-1, 1, 0] = value
        _write(key, tmp_path, {"class_of": ct.cd.class_of.astype(np.int8), "rows": rows})
        stored = _read(key, tmp_path)[1]
        assert stored["rows"].dtype == dtype and np.array_equal(stored["rows"], rows)


def test_int64_cache_file_still_loads(tmp_path, gl2z4_ct):
    # a .ct file as written before the arrays were stored narrow: its int64
    # values are narrowed on load, after their range is checked
    from whittaker.cache import chartab_cache_key, load_char_table

    ct = gl2z4_ct
    write_with_metadata(chartab_cache_key(ct.table.spec), tmp_path,
                        {"e": ct.e, "r": ct.r, "degrees": ct.degrees.tolist()},
                        {"class_of": ct.cd.class_of.astype(np.int64),
                         "rows": ct.rows.astype(np.int64)})
    got = load_char_table(ct.table, tmp_path)
    assert got.loaded and got.rows.dtype == np.int8 and np.array_equal(got.rows, ct.rows)
    for field in CLASS_FIELDS:
        assert np.array_equal(getattr(got.cd, field), getattr(ct.cd, field)), field
    got.verify()

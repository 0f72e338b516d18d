import hashlib
from collections import Counter

import numpy as np
import pytest

from whittaker.cyclotomic import CycloNum, IntegralityError, integer_values, pairings
from whittaker.localring import get_ring, ring_make
from whittaker.linalg import mat_mul
from whittaker.groups import CapExceeded, GroupSpec, enumerate_group, unipotent_subgroup
from whittaker.whittaker_verify import NonDegenChar, induced_norm
from whittaker import chartab
from whittaker.chartab import (CharTable, adjoint_orbits, charpoly_mod, character_table,
                               class_data, class_matrix, classify_regular, components,
                               conjugacy_classes, decompose_induced, dixon_prime, eigen_rows,
                               nullspace_mod, poly_roots_mod, primitive_root,
                               restriction_norm, rref_mod, sl_class_profile,
                               special_regular_scan)
from oracles import (adjoint_orbits_by_sweep, classify_regular_by_x, conjugacy_classes_sweep,
                     restriction_norm_row, sl_class_profile_by_lookup)

Z4 = ring_make("mixed", 2, 1, 2)
Z9 = ring_make("mixed", 3, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)
F3T2 = ring_make("equal", 3, 1, 2)
CLASS_FIELDS = ("class_of", "reps", "sizes", "orders", "inverse_perm")


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


def test_primitive_root():
    for r in (13, 37, 73, 433):
        g = primitive_root(r)
        seen = {pow(g, k, r) for k in range(r - 1)}
        assert len(seen) == r - 1


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
            assert class_matrix(ct.cd, j, ct.r)[0].tolist() == np.eye(ct.k, dtype=int)[j].tolist()


def test_class_matrix_counts_products_into_classes():
    # M_j[i, l] = #{x in C_j : x^-1 z_l in C_i}, counted one product at a time
    cd = conjugacy_classes(enumerate_group(GroupSpec("SL", 2, F3)))
    table = cd.table
    for j in range(cd.k):
        want = np.zeros((cd.k, cd.k), dtype=np.int64)
        for x in np.flatnonzero(cd.class_of == j):
            xinv = table.inverses()[x]
            for l, z in enumerate(table.elems[cd.reps]):
                want[cd.class_of[table.ids_of((xinv @ z % 3)[None])[0]], l] += 1
        assert np.array_equal(class_matrix(cd, j, 13), want % 13)


# sha256 of rows, degrees and (e, r), and the class matrices the split asks
# for, recorded before the split moved onto the restricted action
PINNED_TABLES = [
    (GroupSpec("GL", 2, Z4), "cd2d962b8f60041369ac01cc6e337175e3763890069b20a20cfecb980afdd739", 6),
    (GroupSpec("SL", 2, Z9), "9e367b68680528578a44026ff80f62b6ef7a77638ec9f12d0d813c09fa91f11a", 20),
    (GroupSpec("GL", 2, Z8), "51813dcb2a0706a3d08db5c383be9ebefd837d0dd1cb1b46e6bb85c568108f83", 35),
]


@pytest.mark.parametrize("spec,digest,calls", PINNED_TABLES, ids=["GL2-Z4", "SL2-Z9", "GL2-Z8"])
def test_tables_match_pinned_digests(monkeypatch, spec, digest, calls):
    seen = []

    def counted(cd, j, r):
        seen.append(j)
        return class_matrix(cd, j, r)
    monkeypatch.setattr(chartab, "class_matrix", counted)
    ct = character_table(enumerate_group(spec))
    got = hashlib.sha256(ct.rows.tobytes() + ct.degrees.tobytes() + str((ct.e, ct.r)).encode())
    assert got.hexdigest() == digest
    assert seen == list(range(1, calls + 1))


def _refuse_class_matrix(cd, j, r):
    raise AssertionError("class_matrix reached")


def test_dixon_prime_breaking_the_int64_bound_is_refused(monkeypatch):
    monkeypatch.setattr(chartab, "dixon_prime", lambda e, order: 2**32 + 15)
    monkeypatch.setattr(chartab, "class_matrix", _refuse_class_matrix)
    with pytest.raises(CapExceeded, match="2\\^63"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_split_refuses_a_non_semisimple_class_matrix(monkeypatch):
    # a Jordan block: one eigenvalue, a one-dimensional eigenspace
    def jordan(cd, j, r):
        return (3 * np.eye(cd.k, dtype=np.int64) + np.eye(cd.k, k=1, dtype=np.int64)) % r
    monkeypatch.setattr(chartab, "class_matrix", jordan)
    with pytest.raises(AssertionError, match="failed to act semisimply"):
        character_table(enumerate_group(GroupSpec("GL", 2, Z4)))


def test_split_refuses_class_matrices_that_do_not_separate(monkeypatch):
    monkeypatch.setattr(chartab, "class_matrix", lambda cd, j, r: np.eye(cd.k, dtype=np.int64))
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
    # moves by (zeta_e^u - zeta_e^(u+1)) / |U| (theta(u(2)) = -1), not rational
    ct = gl2z4_ct
    u_classes = ct.cd.class_of[unipotent_subgroup(ct.table, 0)].tolist()
    c = next(c for c in set(u_classes) - {0} if u_classes.count(c) == 1)
    rows = ct.rows.copy()
    u = int(np.flatnonzero(rows[-1, c])[0])
    rows[-1, c, u] -= 1
    rows[-1, c, (u + 1) % ct.e] += 1
    bad = CharTable(ct.cd, rows)
    with pytest.raises(IntegralityError):
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
    # int8 while the values fit, wider when they do not, and negative values
    # survive the file format (fault tests write them), though no CharTable
    # holds them
    from whittaker.cache import (_narrow, _read, _write, chartab_cache_key, load_char_table,
                                 save_char_table)

    ct, key = gl2z4_ct, chartab_cache_key(gl2z4_ct.table.spec)
    save_char_table(ct, tmp_path)
    assert _read(key, tmp_path)[0] == {"arrays": [["class_of", "|i1", [len(ct.table)]],
                               ["rows", "|i1", [ct.k, ct.k, ct.e]]]}
    got = load_char_table(ct.table, tmp_path)
    assert got.rows.dtype == got.cd.class_of.dtype == np.int64
    assert np.array_equal(got.rows, ct.rows)
    assert np.array_equal(got.cd.class_of, ct.cd.class_of)
    for value, dtype in [(-3, np.int8), (-129, np.int16), (1 << 40, np.int64)]:
        rows = ct.rows.copy()
        rows[-1, 1, 0] = value
        _write(key, tmp_path, {}, {"class_of": _narrow(ct.cd.class_of), "rows": _narrow(rows)})
        stored = _read(key, tmp_path)[1]
        assert stored["rows"].dtype == dtype and stored["class_of"].dtype == np.int8
        assert np.array_equal(stored["rows"], rows)


def test_int64_cache_file_still_loads(tmp_path, gl2z4_ct):
    # a .ct file as written before the arrays were stored narrow
    from whittaker.cache import _write, chartab_cache_key, load_char_table

    ct = gl2z4_ct
    _write(chartab_cache_key(ct.table.spec), tmp_path,
           {"e": ct.e, "r": ct.r, "degrees": ct.degrees.tolist()},
           {"class_of": ct.cd.class_of.astype(np.int64), "rows": ct.rows.astype(np.int64)})
    got = load_char_table(ct.table, tmp_path)
    assert got.loaded and np.array_equal(got.rows, ct.rows)
    for field in CLASS_FIELDS:
        assert np.array_equal(getattr(got.cd, field), getattr(ct.cd, field)), field
    got.verify()

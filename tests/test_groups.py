import hashlib
import re

import numpy as np
import pytest

from whittaker import groups
from whittaker.localring import get_ring, ring_make
from whittaker.linalg import mat_det_batch, mat_mul
from whittaker.groups import (CapExceeded, GroupSpec, GroupTable, central_units,
                              centralizer_order_by_units, congruence_subgroup,
                              coset_representatives, enumerate_group,
                              group_order, iter_group_chunks, unipotent_matrices,
                              unipotent_subgroup)
from whittaker.regular import a_regular
from oracles import centralizer, is_regular, lie_centralizer_count

Z4 = ring_make("mixed", 2, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
Z9 = ring_make("mixed", 3, 1, 2)
F2 = ring_make("mixed", 2, 1, 1)
F3 = ring_make("mixed", 3, 1, 1)
F2T2 = ring_make("equal", 2, 1, 2)
F3T2 = ring_make("equal", 3, 1, 2)


def test_orders_match_enumeration():
    cases = [
        (GroupSpec("GL", 2, Z4), 96),
        (GroupSpec("SL", 2, Z9), 648),
        (GroupSpec("GL", 2, Z9), 3888),
        (GroupSpec("GL", 2, F2T2), 96),
        (GroupSpec("SL", 2, F3T2), 648),
        (GroupSpec("SL", 2, Z4), 48),
        (GroupSpec("SL", 2, F2T2), 48),
    ]
    for spec, order in cases:
        assert spec.order() == order
        table = enumerate_group(spec)
        assert len(table) == order


def test_identity_has_id_zero_and_index_lookup():
    table = enumerate_group(GroupSpec("GL", 2, Z4))
    assert np.array_equal(table.elems[0], np.eye(2, dtype=np.int64))
    for i in (0, 1, 17, 95):
        assert table.id_of(table.elems[i]) == i
    with pytest.raises(KeyError):
        table.id_of(np.zeros((2, 2), dtype=np.int64))
    assert table.ids_of(table.elems[[95, 0, 17]]).tolist() == [95, 0, 17]
    batch = table.elems[[0, 1, 17]].copy()
    batch[1] = [[2, 0], [0, 2]]  # singular mod 2: not in GL2(Z/4)
    with pytest.raises(KeyError):
        table.ids_of(batch)


def test_closure_under_product_and_inverse():
    table = enumerate_group(GroupSpec("SL", 2, F3))
    rng = np.random.default_rng(1)
    ids = rng.integers(0, len(table), size=40)
    prods = mat_mul(table.ring, table.elems[ids[:20]], table.elems[ids[20:]])
    for p in prods:
        table.id_of(p)  # raises if not closed
    for inv in table.inverses():
        table.id_of(inv)


def test_streaming_matches_table():
    spec = GroupSpec("GL", 2, Z8)
    assert spec.order() == 1536
    total = 0
    keys = set()
    for chunk in iter_group_chunks(spec):
        total += len(chunk)
        keys.update(m.tobytes() for m in chunk.astype(np.uint8))
    assert total == 1536 and len(keys) == 1536


GROUP_CASES = [GroupSpec("GL", 2, Z4), GroupSpec("SL", 2, Z9),
               GroupSpec("GL", 2, F2T2), GroupSpec("GL", 3, Z4)]


# SL2(Z/8): mu_2 = {1, 3, 5, 7}, so |Z| = 4; SL2(F3[t]/t^2): Z = {1, -1}
COSET_CASES = GROUP_CASES + [GroupSpec("SL", 2, Z8), GroupSpec("SL", 2, F3T2)]


@pytest.mark.parametrize("spec", COSET_CASES, ids=str)
def test_coset_representatives_times_u_is_the_group(spec):
    # oracle: all |o|^(n^2) matrices, kept when det is a unit (GL) or 1 (SL);
    # equal sorted keys show that z r u reaches every element exactly once
    ring = get_ring(spec.ring)
    n = spec.n
    every = np.indices((ring.size,) * (n * n)).reshape(n * n, -1).T.reshape(-1, n, n)
    dets = mat_det_batch(ring, every)
    oracle = every[dets == 1] if spec.family == "SL" else every[ring.v_is_unit(dets)]
    reps = coset_representatives(spec)
    scalars = central_units(spec)
    ru = mat_mul(ring, reps[:, None], unipotent_matrices(spec)[None]).reshape(-1, n, n)
    prods = ring.v_mul(scalars[:, None, None, None], ru[None]).reshape(-1, n, n)
    assert len(prods) == len(oracle) == spec.order()
    key = ring.size ** np.arange(n * n)
    assert np.array_equal(np.sort(prods.reshape(-1, n * n) @ key),
                          np.sort(oracle.reshape(-1, n * n) @ key))


def test_central_units_are_the_scalars_of_the_group():
    assert central_units(GroupSpec("GL", 2, Z9)).tolist() == [1, 2, 4, 5, 7, 8]
    assert central_units(GroupSpec("SL", 2, Z9)).tolist() == [1, 8]
    assert central_units(GroupSpec("SL", 2, Z8)).tolist() == [1, 3, 5, 7]
    assert central_units(GroupSpec("SL", 3, Z4)).tolist() == [1]
    assert len(central_units(GroupSpec("SL", 2, F3T2))) == 2


# sha256 of enumerate_group(spec).elems as int64 bytes: cached tables, class
# ids and reports all depend on this order
CANONICAL_ORDER_SHA256 = {
    "GL2(mixed:2^2)": "dc907bcf385f4d9fbd43f1c16a2e09a6fec8dbc903ee19d870914fe982fb0042",
    "SL2(mixed:3^2)": "d56875950552acb5aa44e3786f85e0166c93a3a8f35cb736c87dcaaadb095633",
    "GL2(equal:2^2)": "dc907bcf385f4d9fbd43f1c16a2e09a6fec8dbc903ee19d870914fe982fb0042",
    "GL3(mixed:2^2)": "cba83c9091ce84aaa4cb133aa1e3be7ff5f6549bbd2812d05d13553dd6cf1abd",
}


@pytest.mark.parametrize("spec", GROUP_CASES, ids=str)
def test_canonical_order_is_pinned(spec):
    elems = np.ascontiguousarray(enumerate_group(spec).elems, dtype=np.int64)
    assert hashlib.sha256(elems.tobytes()).hexdigest() == CANONICAL_ORDER_SHA256[spec.key()]


@pytest.mark.parametrize("fault, message", [
    (lambda e: e[:-1], "has 95 rows, |G| = 96"),
    (lambda e: e[::-1], "does not start with the identity"),
    (lambda e: e[[0, 1, 2, 3, 4, 6, 6, *range(7, 96)]], "not distinct and strictly increasing"),
    (lambda e: e[[0, 1, 2, 3, 4, 0, *range(6, 96)]], "not distinct and strictly increasing"),
    (lambda e: e[[0, *range(95, 0, -1)]], "not distinct and strictly increasing"),
], ids=["short", "identity-not-first", "repeated-row", "repeated-identity", "descending"])
def test_group_table_rule_fires(fault, message):
    elems = enumerate_group(GroupSpec("GL", 2, Z4)).elems
    with pytest.raises(AssertionError, match=re.escape(message)):
        GroupTable(GroupSpec("GL", 2, Z4), fault(elems))


def test_coset_representative_det_check_fires(monkeypatch):
    # a wrong unit-inverse table scales the SL transversal's last column by
    # the wrong factor, so some representative has det != 1
    ring = get_ring(Z9)
    wrong = ring.v_inv().copy()
    wrong[[1, 2]] = wrong[[2, 1]]
    monkeypatch.setattr(ring, "v_inv", lambda: wrong)
    with pytest.raises(AssertionError, match="det != 1"):
        coset_representatives(GroupSpec("SL", 2, Z9))


def test_table_cap():
    with pytest.raises(CapExceeded):
        enumerate_group(GroupSpec("GL", 2, Z9), cap=100)


def test_unipotent_subgroup_orders():
    tg = enumerate_group(GroupSpec("GL", 2, Z9))
    assert len(unipotent_subgroup(tg, 0)) == 9
    u1 = unipotent_subgroup(tg, 1)
    assert len(u1) == 3
    for m in tg.elems[u1]:
        # I + 3c E12
        assert m[0, 0] == m[1, 1] == 1 and m[1, 0] == 0 and m[0, 1] % 3 == 0
    assert len(unipotent_subgroup(tg, 2)) == 1
    assert len(unipotent_matrices(GroupSpec("GL", 3, Z4), 0)) == 64
    with pytest.raises(ValueError):
        unipotent_subgroup(tg, 3)


@pytest.mark.parametrize("name, fault, check, level, message", [
    ("unipotent_matrices", lambda f: lambda spec, k=0: f(spec, k)[:-1], unipotent_subgroup, 0,
     "U(pi^0) of GL2(mixed:3^2) has 8 elements, |U(pi^0)| = 9"),
    ("congruence_order", lambda f: lambda spec, i: f(spec, i) + 1, congruence_subgroup, 1,
     "K^1 of GL2(mixed:3^2) has 81 elements, |K^1| = 82"),
], ids=["unipotent", "congruence"])
def test_subgroup_order_checks_fire(name, fault, check, level, message, monkeypatch):
    # explicit raises, not asserts, so that the checks hold under python -O
    table = enumerate_group(GroupSpec("GL", 2, Z9))
    monkeypatch.setattr(groups, name, fault(getattr(groups, name)))
    with pytest.raises(AssertionError, match=re.escape(message)):
        check(table, level)


def test_congruence_subgroup_orders():
    tg = enumerate_group(GroupSpec("GL", 2, Z9))
    ts = enumerate_group(GroupSpec("SL", 2, Z9))
    assert len(congruence_subgroup(tg, 1)) == 81
    assert len(congruence_subgroup(ts, 1)) == 27
    assert len(congruence_subgroup(tg, 2)) == 1
    with pytest.raises(ValueError):
        congruence_subgroup(tg, 0)


def test_congruence_subgroup_normal_exhaustively():
    for spec in (GroupSpec("GL", 2, Z4), GroupSpec("SL", 2, Z9)):
        table = enumerate_group(spec)
        k1 = congruence_subgroup(table, 1)
        members = table.elems[k1]
        ring = table.ring
        for g, ginv in zip(table.elems, table.inverses()):
            conj = mat_mul(ring, mat_mul(ring, g[None], members), ginv[None])
            assert np.isin(table.ids_of(conj), k1).all()


def test_congruence_quotient_abelian():
    # K^i / K^(i+1) abelian: commutators of K^1 land in K^2 (= trivial at l = 2)
    table = enumerate_group(GroupSpec("SL", 2, Z9))
    k1 = congruence_subgroup(table, 1)
    ring = table.ring
    mem = table.elems[k1]
    inv = table.inverses()[k1]
    for i in range(len(mem)):
        comm = mat_mul(ring, mat_mul(ring, mat_mul(ring, mem[i][None], mem), inv[i][None]), inv)
        for c in comm:
            assert np.array_equal(c, np.eye(2, dtype=np.int64))


def test_centralizer_examples():
    sl2f3 = enumerate_group(GroupSpec("SL", 2, F3))
    x = np.array([[0, 2], [1, 0]])  # companion of t^2 + 1
    assert len(centralizer(sl2f3, x)) == 4
    gl2f2 = enumerate_group(GroupSpec("GL", 2, F2))
    assert len(centralizer(gl2f2, np.array([[0, 0], [1, 0]]))) == 2
    assert len(centralizer(gl2f2, np.eye(2, dtype=np.int64))) == len(gl2f2)


def test_centralizer_two_routes_agree_for_regular_elements():
    # table filtering vs unit group of o_r[x]
    for desc, family in ((F3, "SL"), (F3, "GL"), (Z4, "GL"), (Z9, "SL")):
        spec = GroupSpec(family, 2, desc)
        table = enumerate_group(spec)
        ring = get_ring(desc)
        for a in ring.unit_codes()[:2]:
            xs = [a_regular(desc, 2, a, (c0, 0) if family == "SL" else (c0, min(1, c0)))
                  for c0 in range(ring.size)]
            assert all(is_regular(ring, np.stack(xs)))
            by_units = centralizer_order_by_units(spec, np.stack(xs))
            assert by_units.tolist() == [len(centralizer(table, x)) for x in xs]


def test_lie_centralizer_counts():
    x = np.array([[0, 2], [1, 0]])
    assert lie_centralizer_count(GroupSpec("GL", 2, F3), x) == 9
    assert lie_centralizer_count(GroupSpec("SL", 2, F3), x) == 3


def test_group_order_closed_forms():
    assert group_order("GL", 3, Z4) == 86016
    assert group_order("SL", 3, Z4) == 43008
    assert group_order("GL", 2, Z8) == 1536
    assert group_order("SL", 2, F2T2) == 48


def test_congruence_subgroup_normal_sampled_large():
    # sampled normality check with 20 random conjugators on a 3888-element group
    table = enumerate_group(GroupSpec("GL", 2, Z9))
    k1 = congruence_subgroup(table, 1)
    ring = table.ring
    rng = np.random.default_rng(47)
    members = table.elems[k1]
    for g in rng.integers(0, len(table), size=20):
        conj = mat_mul(ring, mat_mul(ring, table.elems[g][None], members),
                       table.inverses()[g][None])
        assert np.isin(table.ids_of(conj), k1).all()

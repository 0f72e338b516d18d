"""Acceptance suite: every top-level criterion, exact, with runtime bounds.

Each test prints one PASS line; all quantities are exact integers, so the
only tolerances are the stated wall-clock limits (asserted with the same
bounds the criteria state; actual runtimes are orders of magnitude under
them on any recent machine).
"""

import time
from collections import Counter

import numpy as np

from whittaker.localring import get_ring, ring_make
from whittaker.groups import GroupSpec, enumerate_group
from whittaker.whittaker_verify import (induced_dim, induced_norm,
                                        predicted_dim_sum,
                                        predicted_regular_count, NonDegenChar)
from whittaker.chartab import (character_table, classify_regular, decompose_induced,
                               restriction_norm, special_regular_scan)
from whittaker.regular import iota
from oracles import verify_checks

Z4 = ring_make("mixed", 2, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
Z9 = ring_make("mixed", 3, 1, 2)
F2T2 = ring_make("equal", 2, 1, 2)
F3T2 = ring_make("equal", 3, 1, 2)

_cts = {}
_tables = {}


def _table(spec):
    if spec.key() not in _tables:
        _tables[spec.key()] = enumerate_group(spec)
    return _tables[spec.key()]


def _ct(spec):
    if spec.key() not in _cts:
        _cts[spec.key()] = character_table(_table(spec))
    return _cts[spec.key()]


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS  {detail}")


def test_criterion_01_gl2_z4_every_unit():
    t0 = time.perf_counter()
    spec = GroupSpec("GL", 2, Z4)
    for a in get_ring(Z4).unit_codes():
        assert induced_dim(spec) == 24
        assert induced_norm(spec, [a]) == [8]
        assert predicted_regular_count(spec, a) == 8
        assert predicted_dim_sum(spec) == 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"GL2(Z/4) a in {{1,3}}: dim 24, norm 8 ({elapsed:.3f}s)")


def test_criterion_02_gl2_z9():
    t0 = time.perf_counter()
    spec = GroupSpec("GL", 2, Z9)
    assert induced_norm(spec, [1]) == [54] == [24 + 18 + 12]
    assert induced_dim(spec) == 432
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"GL2(Z/9) a=1: norm 54, dim 432 ({elapsed:.3f}s)")


def test_criterion_03_gl2_z8_odd_level():
    t0 = time.perf_counter()
    spec = GroupSpec("GL", 2, Z8)
    assert predicted_regular_count(spec, 1) == 32
    assert predicted_dim_sum(spec) == 192 == induced_dim(spec)
    assert induced_norm(spec, [1]) == [32]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"GL2(Z/8) odd level: count 32, dim 192, norm 32 ({elapsed:.3f}s)")


def test_criterion_04_sl2_z9_every_unit():
    t0 = time.perf_counter()
    checks = verify_checks("SL", 2, "mixed:3^2", "all")
    for a in get_ring(Z9).unit_codes():
        assert checks[f"whittaker-norm-equals-regular-count[a={a}]"].computed == 12
        dim = checks[f"dimension-sum-equals-induced-dim[a={a}]"]
        assert dim.computed == 72 == dim.predicted
        flagged = checks[f"sl2-printed-index-identity[a={a}]"]
        assert flagged.informational and not flagged.passed
        assert flagged.predicted == 8 and flagged.computed == 72
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"SL2(Z/9) all 6 units: norm 12, dim 72, printed index flagged "
               f"({elapsed:.3f}s)")


def test_criterion_05_character_table_cross_checks():
    t0 = time.perf_counter()
    jobs = [
        (GroupSpec("GL", 2, Z4), 96, (1, 3), 8),
        (GroupSpec("SL", 2, Z9), 648, tuple(get_ring(Z9).unit_codes()), 12),
        (GroupSpec("GL", 2, Z9), 3888, tuple(get_ring(Z9).unit_codes()), 54),
    ]
    for spec, order, units, constituents in jobs:
        ct = _ct(spec)
        assert len(ct.table) == order
        ct.verify()  # completeness and row orthogonality (column follows), exact
        for a in units:
            m = decompose_induced(ct, NonDegenChar(spec, a))
            assert m.max() <= 1
            assert int(m.sum()) == constituents
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(5, f"exact tables 96/648/3888, orthogonality + multiplicity-free, "
               f"constituents 8/12/54 ({elapsed:.1f}s)")


def test_criterion_06_regular_classification_matches_constituents():
    expected = {
        GroupSpec("GL", 2, Z4).key(): {"cuspidal": 3, "split-nss": 4, "split-ss": 1},
        GroupSpec("GL", 2, Z9).key(): {"cuspidal": 24, "split-nss": 18, "split-ss": 12},
    }
    for spec in (GroupSpec("GL", 2, Z4), GroupSpec("GL", 2, Z9)):
        ct = _ct(spec)
        flags = classify_regular(ct)
        regs = {f.index for f in flags if f.regular}
        counts = Counter(f.label for f in flags if f.regular)
        assert counts == expected[spec.key()]
        for a in get_ring(spec.ring).unit_codes():
            m = decompose_induced(ct, NonDegenChar(spec, a))
            assert set(np.flatnonzero(m).tolist()) == regs
    _report(6, "constituents = regular set for every unit; type counts match")


def test_criterion_07_multiplicity_free_at_p_dividing_n():
    for desc in (Z4, F2T2):
        spec = GroupSpec("SL", 2, desc)
        ct = _ct(spec)
        for a in get_ring(desc).unit_codes():
            m = decompose_induced(ct, NonDegenChar(spec, a))
            assert m.max() <= 1
    _report(7, "SL2(Z/4) and SL2(F2[t]/t^2): all multiplicities <= 1")


def test_criterion_08_branching():
    t0 = time.perf_counter()
    ct = _ct(GroupSpec("GL", 2, Z9))
    flags = [f for f in classify_regular(ct) if f.regular]
    assert len(flags) == 54
    want = {"cuspidal": 1, "split-nss": 2, "split-ss": 1}
    norms = restriction_norm(ct, [f.index for f in flags]).tolist()
    for f, nrm in zip(flags, norms):
        assert nrm == iota(f.tau, 2) == want[f.label]
        assert nrm <= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(8, f"54 restriction norms = iota: 1/2/1 by type ({elapsed:.1f}s)")


def test_criterion_09_special_regular_scan():
    ct = _ct(GroupSpec("SL", 2, Z9))
    recs = special_regular_scan(ct)
    units = get_ring(Z9).unit_codes()
    squares = sorted({(u * u) % 9 for u in units})
    nonsquares = sorted(set(units) - set(squares))
    always = [r for r in recs if r.all_units]
    assert Counter(r.label for r in always) == {"cuspidal": 4, "split-ss": 2}
    for r in recs:
        if r.label == "split-nss":
            got = sorted(r.units_with_model)
            assert got in (squares, nonsquares)
            assert r.predicted_all_units is False
        else:
            assert r.predicted_all_units is True
    _report(9, "cuspidal+split-ss for all units; split-nss per square class")


def test_criterion_10_lemma_property_suites():
    t0 = time.perf_counter()
    from test_lemma_suites import (EQUIVALENCE_SCALES, INTERSECTION_SCALES,
                                   LIE_SIZE_SCALES, DUALITY_SCALES,
                                   test_duality_bijectivity_level_two,
                                   test_four_way_regularity_equivalence,
                                   test_lie_centralizer_size_for_a_regular,
                                   test_phi_x_lift_independence_exhaustive_small,
                                   test_unipotent_centralizer_intersection_trivial)

    for n, desc in EQUIVALENCE_SCALES:
        test_four_way_regularity_equivalence(n, desc)
    for fam, n, desc in LIE_SIZE_SCALES:
        test_lie_centralizer_size_for_a_regular(fam, n, desc)
    for n, desc in INTERSECTION_SCALES:
        test_unipotent_centralizer_intersection_trivial(n, desc)
    for fam, fdesc in DUALITY_SCALES:
        test_duality_bijectivity_level_two(fam, fdesc)
    test_phi_x_lift_independence_exhaustive_small()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, f"equivalence/centralizer/intersection/duality suites "
                f"({elapsed:.1f}s)")


def test_criterion_11_equal_characteristic_replication():
    spec_gl = GroupSpec("GL", 2, F2T2)
    for a in get_ring(F2T2).unit_codes():
        assert induced_norm(spec_gl, [a]) == [8]
        assert predicted_regular_count(spec_gl, a) == 8
        assert induced_dim(spec_gl) == 24 == predicted_dim_sum(spec_gl)
    checks = verify_checks("SL", 2, "equal:3^2", "all")
    for a in get_ring(F3T2).unit_codes():
        assert checks[f"whittaker-norm-equals-regular-count[a={a}]"].computed == 12
        assert checks[f"dimension-sum-equals-induced-dim[a={a}]"].computed == 72
    _report(11, "equal characteristic: 8/24 over F2[t]/t^2, 12/72 over F3[t]/t^2")


def test_note_n3_property_based_transversal():
    t0 = time.perf_counter()
    gl = GroupSpec("GL", 3, Z4)
    assert induced_dim(gl) == 1344 == predicted_dim_sum(gl)
    assert induced_norm(gl, [1]) == [32] == [predicted_regular_count(gl, 1)]
    sl = GroupSpec("SL", 3, Z4)
    assert induced_dim(sl) == 672 == predicted_dim_sum(sl)
    assert induced_norm(sl, [1]) == [16] == [predicted_regular_count(sl, 1)]
    gl_eq = GroupSpec("GL", 3, F2T2)
    assert induced_dim(gl_eq) == 1344 == predicted_dim_sum(gl_eq)
    assert induced_norm(gl_eq, [1]) == [32] == [predicted_regular_count(gl_eq, 1)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _report("n3", f"GL3/SL3(Z/4), GL3(F2[t]/t^2): 32=32 @ 1344, 16=16 @ 672, "
                  f"32=32 @ 1344 ({elapsed:.1f}s)")

import functools
import inspect
import itertools
import json
import types

import numpy as np
import pytest

from whittaker import whittaker_verify
from whittaker.cli import main
from whittaker.cyclotomic import IntegralityError
from whittaker.localring import get_ring, ring_make
from whittaker.linalg import mat_inv_batch, mat_mul
from whittaker.groups import (GroupSpec, coset_representatives, enumerate_group,
                              unipotent_matrices)
from whittaker.regular import a_regular, a_regular_coeff_tuples
from whittaker.whittaker_verify import (NonDegenChar, induced_dim, induced_norm, mackey_terms,
                                        phi_x_exponents, predicted_dim_sum,
                                        predicted_regular_count, predictions_supported)
from oracles import (centralizer, induced_norm_by_loop, induced_norm_by_unit, solve_count,
                     verify_checks)

Z4 = ring_make("mixed", 2, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
Z9 = ring_make("mixed", 3, 1, 2)
F3 = ring_make("mixed", 3, 1, 1)
F2T2 = ring_make("equal", 2, 1, 2)
F3T2 = ring_make("equal", 3, 1, 2)
F4T2 = ring_make("equal", 2, 2, 2)
F5T2 = ring_make("equal", 5, 1, 2)


def _stack(*mats):
    return np.array(mats, dtype=np.int64)


# -- theta ------------------------------------------------------------------


def test_theta_identity():
    th = NonDegenChar(GroupSpec("GL", 2, Z9), 1)
    assert th.m == 9
    assert th.exponents_on(_stack(np.eye(2))).tolist() == [0]


def test_theta_superdiagonal_example():
    th = NonDegenChar(GroupSpec("GL", 2, Z9), 1)
    assert th.exponents_on(_stack([[1, 3], [0, 1]])).tolist() == [3]  # zeta_9^3


def test_theta_ignores_entries_off_the_superdiagonal():
    th = NonDegenChar(GroupSpec("GL", 3, Z4), 3)
    us = _stack(*([[1, 1, x13], [0, 1, 2], [0, 0, 1]] for x13 in range(4)))
    assert th.exponents_on(us).tolist() == [1] * 4  # 3*1 + 2 = 1 mod 4


def test_theta_rejects_non_unit_twist():
    with pytest.raises(ValueError):
        NonDegenChar(GroupSpec("GL", 2, Z9), 3)


def test_theta_multiplicative_on_random_pairs():
    rng = np.random.default_rng(19)
    for spec in (GroupSpec("GL", 2, Z9), GroupSpec("GL", 3, Z4),
                 GroupSpec("SL", 2, F3T2)):
        ring = get_ring(spec.ring)
        umats = unipotent_matrices(spec, 0)
        th = NonDegenChar(spec, ring.unit_codes()[-1])
        i, j = rng.integers(0, len(umats), size=(2, 1000 // 3 + 1))
        prod = mat_mul(ring, umats[i], umats[j])
        assert np.array_equal(th.exponents_on(prod),
                              (th.exponents_on(umats[i]) + th.exponents_on(umats[j])) % th.m)


# -- phi_x ------------------------------------------------------------------


def test_phi_x_zero_is_trivial():
    # y = [[4, 0], [0, 1]] and [[1, 3], [6, 1]] in K^1 of GL2(Z/9): y' = (y - I)/3
    levels = _stack([[1, 0], [0, 0]], [[0, 1], [2, 0]])
    assert phi_x_exponents(get_ring(Z9), 1, _stack(np.zeros((2, 2))), levels).tolist() == [[0, 0]]


def test_phi_x_trace_example():
    # l = 2, i = 1, x = E11 over F3, y = I + 3 E11 -> zeta_9^3
    expo = phi_x_exponents(get_ring(Z9), 1, _stack([[1, 0], [0, 0]]), _stack([[1, 0], [0, 0]]))
    assert expo.tolist() == [[3]]


def test_phi_x_rejects_low_level():
    zero = _stack(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        phi_x_exponents(get_ring(Z8), 1, zero, zero)


def test_phi_x_independent_of_lift():
    rng = np.random.default_rng(23)
    for desc in (Z9, Z8, F3T2):
        ring = get_ring(desc)
        ell = ring.ell
        i = (ell + 1) // 2
        sub = ring.subring(ell - i)
        levels = rng.integers(0, ring.size, size=(10, 2, 2))
        for _ in range(10):
            x = rng.integers(0, sub.size, size=(2, 2))
            # x itself, then 50 lifts x + pi^(l-i) bump
            bumps = rng.integers(0, ring.q**i, size=(50, 2, 2))
            lifts = np.concatenate([x[None], (x + bumps * ring.q ** (ell - i)) % ring.size])
            expo = phi_x_exponents(ring, i, lifts, levels)
            assert (expo == expo[0]).all()


def test_phi_x_separates_points_gl2():
    # distinct x give distinct characters of K^1 (exhaustive at l = 2, q = 3)
    levels = np.array(list(itertools.product(range(3), repeat=4))).reshape(-1, 2, 2)
    tables = phi_x_exponents(get_ring(Z9), 1, levels, levels)
    assert len({tuple(row) for row in tables.tolist()}) == 81


# -- induced dimension and norm ----------------------------------------------


def test_induced_dim_examples():
    assert induced_dim(GroupSpec("GL", 2, Z4)) == 24
    assert induced_dim(GroupSpec("GL", 2, Z9)) == 432
    spec = GroupSpec("SL", 2, Z9)
    table = enumerate_group(spec)
    assert induced_dim(spec, table) == 72  # closed form and table division


def _norm_oracle_sum_of_centralizers(spec, a):
    """Independent oracle: sum of table-filtered centralizer orders over the
    a-regular classes of g(o_m), times q^d for odd l."""
    ring = get_ring(spec.ring)
    m = ring.ell // 2
    sub = ring.subring(m)
    spec_m = GroupSpec(spec.family, spec.n, sub.desc)
    table_m = enumerate_group(spec_m)
    a_m = ring.project_code(a, m)
    total = 0
    for coeffs in a_regular_coeff_tuples(spec, sub):
        x = a_regular(sub.desc, spec.n, a_m, [int(c) for c in coeffs])
        total += len(centralizer(table_m, x))
    if ring.ell % 2 == 1:
        total *= ring.q ** spec.reg_centralizer_dim
    return total


def test_induced_norm_gl2_z4():
    spec = GroupSpec("GL", 2, Z4)
    oracle = _norm_oracle_sum_of_centralizers(spec, 1)
    assert oracle == 3 + 1 + 2 + 2 == 8
    assert induced_norm(spec, [1]) == [8]


def test_induced_norm_gl2_z9():
    spec = GroupSpec("GL", 2, Z9)
    oracle = _norm_oracle_sum_of_centralizers(spec, 1)
    assert oracle == 3 * 8 + 3 * 4 + 3 * 6 == 54
    assert induced_norm(spec, [1]) == [54]


def test_induced_norm_sl2_z9():
    spec = GroupSpec("SL", 2, Z9)
    oracle = _norm_oracle_sum_of_centralizers(spec, 1)
    assert oracle == 6 + 2 + 4 == 12
    assert induced_norm(spec, [1]) == [12]


def test_induced_norm_odd_level():
    spec = GroupSpec("GL", 2, Z8)
    assert induced_norm(spec, [1]) == [32]
    assert predicted_regular_count(spec, 1) == 32
    assert predicted_dim_sum(spec) == 192 == induced_dim(spec)


def test_norm_constant_on_torus_twist_classes():
    # GL: all units give the same norm; SL: constant on cosets mod squares
    for spec, expected in ((GroupSpec("GL", 2, Z4), 8),
                           (GroupSpec("GL", 2, Z9), 54)):
        ring = get_ring(spec.ring)
        units = ring.unit_codes()
        assert induced_norm(spec, units) == [expected] * len(units)
    ring = get_ring(Z9)
    norms = dict(zip(ring.unit_codes(),
                     induced_norm(GroupSpec("SL", 2, Z9), ring.unit_codes())))
    squares = {(u * u) % 9 for u in ring.unit_codes()}
    assert len({norms[a] for a in squares}) == 1
    assert len({norms[a] for a in set(ring.unit_codes()) - squares}) == 1


@pytest.mark.parametrize("spec", [
    GroupSpec("GL", 2, Z4), GroupSpec("GL", 2, Z9), GroupSpec("SL", 2, Z9),
    GroupSpec("SL", 2, Z8), GroupSpec("GL", 2, F2T2), GroupSpec("SL", 3, Z4),
], ids=str)
def test_induced_norm_over_g_mod_zu_matches_per_unit_oracle(spec):
    # one pass over U for every unit, summed over G/ZU and scaled by |Z|,
    # against one pass per unit over a G/U transversal read off the table
    units = get_ring(spec.ring).unit_codes()
    assert induced_norm(spec, units) == [induced_norm_by_unit(spec, a) for a in units]


@pytest.mark.parametrize("spec", [
    GroupSpec("GL", 1, Z9), GroupSpec("SL", 1, Z9),
    *(GroupSpec("GL", 2, ring) for ring in (Z8, ring_make("mixed", 5, 1, 2), F3T2, F4T2,
                                             ring_make("equal", 2, 1, 3))),
    GroupSpec("SL", 2, ring_make("mixed", 3, 1, 3)), GroupSpec("SL", 2, F5T2),
    *(GroupSpec(family, 3, ring) for family in ("GL", "SL") for ring in (Z4, F2T2)),
], ids=str)
def test_induced_norm_matches_the_loop_over_u(spec):
    # Mackey over o_l-modules against the Frobenius double sum over G/ZU and U
    units = get_ring(spec.ring).unit_codes()
    assert induced_norm(spec, units) == induced_norm_by_loop(spec, units)


def test_induced_norm_gl3_z8(capsys):
    # [G : ZU] = 21,504 cosets, the first n = 3 verdict at l = 3
    code = main(["verify", "--group", "GL3", "--ring", "mixed:2^3", "--a", "1", "--no-cache",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    got = {c["claim"]: c["computed"] for c in report["checks"]}
    assert got["induced-norm-positive-and-bounded"] == 256


def _mackey_oracle(ring, r, r_inv, units):
    """|ker C_r| and, for each unit a, whether L_r vanishes on ker C_r, for
    one representative r: the scalar Smith oracle on C_r, and L_r applied to
    the spanning set of the kernel it returns."""
    n = len(r)
    coords = list(zip(*np.triu_indices(n, 1)))
    C = np.array([[ring.mul(int(r[a, i]), int(r_inv[j, b])) for i, j in coords]
                  for a, b in zip(*np.tril_indices(n))], dtype=np.int64)
    count, basis = solve_count(ring, C)

    def dot(x, y):
        return functools.reduce(ring.add, (ring.mul(int(s), int(t)) for s, t in zip(x, y)), 0)

    flags = []
    for a in units:
        # L_r N = lambda_a(r N r^-1 - N), lambda_a(N) = a N_01 + N_12 + ...
        L = [dot([a] + [1] * (n - 2),
                 [ring.sub(ring.mul(int(r[k, i]), int(r_inv[j, k + 1])), int((i, j) == (k, k + 1)))
                  for k in range(n - 1)])
             for i, j in coords]
        flags.append(all(dot(L, b) == 0 for b in basis))
    return count, flags


def _mackey_mismatches(spec, terms=mackey_terms) -> int:
    """The representatives r of G/ZU at which `terms` disagrees with the
    scalar oracle, at every unit."""
    ring = get_ring(spec.ring)
    reps = coset_representatives(spec)
    units = ring.unit_codes()
    sum_v, passed = terms(ring, reps, units)
    bad = 0
    for r, r_inv, v, flags in zip(reps, mat_inv_batch(ring, reps), sum_v, passed):
        bad += _mackey_oracle(ring, r, r_inv, units) != (ring.q ** int(v), flags.tolist())
    return bad


MACKEY_PINNED = [GroupSpec("GL", 2, Z9), GroupSpec("GL", 2, F4T2), GroupSpec("SL", 2, F5T2),
                 GroupSpec("SL", 3, Z4)]


@pytest.mark.parametrize("spec", MACKEY_PINNED, ids=str)
def test_mackey_terms_match_the_smith_oracle_on_every_coset(spec):
    assert _mackey_mismatches(spec) == 0


def _mutant_verify(old: str, new: str) -> types.ModuleType:
    """whittaker_verify with one piece of its source replaced, as a new module."""
    source = inspect.getsource(whittaker_verify)
    assert source.count(old) == 1
    module = types.ModuleType("whittaker.mutant_verify")
    module.__package__ = "whittaker"
    exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    return module


def _norm_or_fault(norm, spec, units):
    try:
        return norm(spec, units)
    except IntegralityError:
        return "IntegralityError"


def test_a_dropped_column_operation_breaks_the_oracles():
    mutant = _mutant_verify(
        "M[:, :, t + 1:] = ring.v_sub(M[:, :, t + 1:], ring.v_mul(f[:, None], M[:, :, t, None]))",
        "pass")
    spec = GroupSpec("SL", 3, Z4)  # n = 2 has one coordinate, so no column operation
    assert _mackey_mismatches(spec, mutant.mackey_terms) > 0
    units = get_ring(spec.ring).unit_codes()
    assert _norm_or_fault(mutant.induced_norm, spec, units) != induced_norm_by_loop(spec, units)


def test_a_patched_valuation_vector_breaks_the_oracles(monkeypatch):
    # pi read as a unit: a pivot pi divides out nothing and clears nothing
    spec = GroupSpec("GL", 2, Z9)
    ring = get_ring(spec.ring)
    patched = ring.valuations.copy()
    patched[ring.q] = 0
    monkeypatch.setitem(ring.__dict__, "valuations", patched)
    assert _mackey_mismatches(spec) > 0
    units = ring.unit_codes()
    assert _norm_or_fault(induced_norm, spec, units) != induced_norm_by_loop(spec, units)


def test_norm_positive_and_bounded_by_dim():
    for spec in (GroupSpec("GL", 2, Z4), GroupSpec("SL", 2, Z4),
                 GroupSpec("SL", 2, F2T2)):
        [n] = induced_norm(spec, [1])
        assert 1 <= n <= induced_dim(spec)


# -- predictions --------------------------------------------------------------


def test_predicted_counts_worked_examples():
    assert predicted_regular_count(GroupSpec("GL", 2, Z4), 1) == 8
    assert predicted_regular_count(GroupSpec("GL", 2, Z8), 1) == 32
    assert predicted_regular_count(GroupSpec("GL", 2, Z9), 1) == 54


def test_predicted_dim_sums_worked_examples():
    assert predicted_dim_sum(GroupSpec("GL", 2, Z4)) == 24
    assert predicted_dim_sum(GroupSpec("GL", 2, Z8)) == 192
    assert predicted_dim_sum(GroupSpec("SL", 2, Z9)) == 72


def test_predictions_refuse_bad_sl_characteristic():
    # (p, 2) = (p, n) = 1 is the one gate of the predictions for SL
    assert predictions_supported(GroupSpec("GL", 2, Z4))
    assert predictions_supported(GroupSpec("SL", 2, Z9))
    assert not predictions_supported(GroupSpec("SL", 2, Z4))  # p = 2
    assert not predictions_supported(GroupSpec("SL", 3, F3))  # p = n
    for n, ring in ((2, "mixed:2^2"), (3, "mixed:3^1")):
        checks = verify_checks("SL", n, ring)
        assert [c.claim for c in checks.values()] == [
            "induced-norm-positive-and-bounded", "predictions-skipped-sl-bad-characteristic",
            *(["sl2-printed-index-identity"] if n == 2 else [])]
        note = checks["predictions-skipped-sl-bad-characteristic[a=1]"]
        assert note.informational and note.predicted is None and note.computed is None


def test_verify_reports():
    checks = verify_checks("GL", 2, "mixed:2^2")
    norm = checks["induced-norm-positive-and-bounded[a=1]"]
    assert (norm.predicted, norm.computed) == ("1..24", 8)
    count = checks["whittaker-norm-equals-regular-count[a=1]"]
    assert (count.predicted, count.computed) == (8, 8)
    dim = checks["dimension-sum-equals-induced-dim[a=1]"]
    assert (dim.predicted, dim.computed) == (24, 24)

    checks = verify_checks("SL", 2, "mixed:3^2")
    note = checks["sl2-printed-index-identity[a=1]"]
    assert note.informational and not note.passed
    assert note.predicted == 8 and note.computed == 72

    checks = verify_checks("SL", 2, "mixed:2^2")
    assert "whittaker-norm-equals-regular-count[a=1]" not in checks


def test_equal_characteristic_replication():
    assert induced_norm(GroupSpec("GL", 2, F2T2), [1]) == [8]
    assert induced_dim(GroupSpec("GL", 2, F2T2)) == 24
    assert induced_norm(GroupSpec("SL", 2, F3T2), [1]) == [12]
    assert induced_dim(GroupSpec("SL", 2, F3T2)) == 72

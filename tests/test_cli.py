import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from whittaker.cli import (JobConfig, build_parser, config_from_args,
                           gl2_formula_row, main, parse_group, sl2_formula_row)
from whittaker.reporting import (EXIT_CAP, EXIT_INTERNAL, EXIT_USAGE, REPORT_SCHEMA,
                                 ReportEnvelope)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_group():
    assert parse_group("GL2") == ("GL", 2)
    assert parse_group("sl3") == ("SL", 3)
    with pytest.raises(ValueError):
        parse_group("Sp4")


def test_config_round_trip():
    args = build_parser().parse_args(
        ["verify", "--group", "SL2", "--ring", "mixed:3^2", "--a", "all",
         "--threads", "2", "--no-cache"])
    cfg = config_from_args(args)
    assert JobConfig(**cfg.to_dict()) == cfg


def test_formula_rows():
    counts, dims = gl2_formula_row(3, 2)
    assert (counts["cuspidal"], dims["cuspidal"]) == (24, 6)
    assert (counts["split-nss"], dims["split-nss"]) == (18, 8)
    assert (counts["split-ss"], dims["split-ss"]) == (12, 12)
    counts, dims = gl2_formula_row(2, 2)
    assert (counts["cuspidal"], dims["cuspidal"]) == (3, 2)
    assert (counts["split-nss"], dims["split-nss"]) == (4, 3)
    assert (counts["split-ss"], dims["split-ss"]) == (1, 6)
    counts, dims = sl2_formula_row(3, 2)
    assert (counts["cuspidal"], dims["cuspidal"]) == (4, 6)
    assert (counts["split-nss"], dims["split-nss"]) == (12, 4)
    assert (counts["split-ss"], dims["split-ss"]) == (2, 12)
    assert sl2_formula_row(2, 2) is None


def test_verify_gl2_z4_all_units(capsys, tmp_path):
    code, out = run_cli(
        ["verify", "--group", "GL2", "--ring", "mixed:2^2", "--a", "all",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("whittaker-norm-equals-regular-count") == 2
    assert "FAIL" not in out


def test_verify_sl2_z9(capsys, tmp_path):
    code, out = run_cli(
        ["verify", "--group", "SL2", "--ring", "mixed:3^2", "--a", "1",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "computed=12" in out and "computed=72" in out
    # the printed-index discrepancy is flagged as a note, not a failure
    assert "[note] sl2-printed-index-identity" in out


def test_verify_sl2_z4_runs_without_predictions(capsys, tmp_path):
    code, out = run_cli(
        ["verify", "--group", "SL2", "--ring", "mixed:2^2", "--a", "1",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "predictions-skipped-sl-bad-characteristic" in out


def test_json_report_validates_against_schema(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run_cli(
        ["verify", "--group", "GL2", "--ring", "equal:2^2", "--a", "1",
         "--no-cache", "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep == json.loads(out_file.read_text())
    assert rep["schema"] == "report/v1"
    assert rep["config"]["ring"] == "equal:2^2"


def test_reports_byte_identical_on_warm_cache(capsys, tmp_path):
    args = ["chartab", "--group", "SL2", "--ring", "mixed:3^1",
            "--cache-dir", str(tmp_path), "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_tables_subcommand_q3(capsys, tmp_path):
    code, out = run_cli(
        ["gl2-sl2-tables", "--ring", "mixed:3^2", "--cache-dir", str(tmp_path)],
        capsys)
    assert code == 0
    assert "gl2-dimension-sum-identity: predicted=432 computed=432" in out
    assert "sl2-dimension-sum-identity: predicted=96 computed=96" in out
    assert "[note] sl2-printed-index-identity: predicted=8 computed=72" in out


def test_tables_subcommand_q2(capsys, tmp_path):
    code, out = run_cli(
        ["gl2-sl2-tables", "--ring", "mixed:2^2", "--cache-dir", str(tmp_path)],
        capsys)
    assert code == 0
    assert "gl2-dimension-sum-identity: predicted=24 computed=24" in out
    assert "sl2-formula-row-not-applicable" in out


def test_branching_subcommand(capsys, tmp_path):
    code, out = run_cli(
        ["branching", "--group", "GL2", "--ring", "mixed:3^2",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    for frag in ("branching-iota-cuspidal: predicted=[1] computed=[1]",
                 "branching-iota-split-nss: predicted=[2] computed=[2]",
                 "branching-iota-split-ss: predicted=[1] computed=[1]"):
        assert frag in out


def test_branching_p_equals_n_reports_without_iota(capsys, tmp_path):
    code, out = run_cli(
        ["branching", "--group", "GL2", "--ring", "mixed:2^2",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "branching-iota" not in out
    assert "branching-norms-cuspidal" in out


def test_branching_reads_and_writes_no_sl_table(capsys, tmp_path):
    # the SL class profile is read off the GL table: only GL files are cached
    code, _ = run_cli(["branching", "--group", "GL2", "--ring", "mixed:3^2",
                       "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert not list(tmp_path.rglob("SL*"))
    assert list(tmp_path.rglob("GL2*"))


def test_branching_with_a_wrong_det_exits_internal(monkeypatch, capsys):
    # one class representative's det read wrong: the det-1 classes no longer
    # hold |SL| elements
    from whittaker import chartab

    real = chartab.mat_det_batch

    def one_wrong(ring, A):
        dets = real(ring, A).copy()
        dets[1] = 2 if dets[1] == 1 else 1
        return dets

    monkeypatch.setattr(chartab, "mat_det_batch", one_wrong)
    assert main(["branching", "--group", "GL2", "--ring", "mixed:3^2", "--no-cache"]) \
        == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal fault: AssertionError: the det-1 classes of GL2(mixed:3^2) hold " in err
    assert "not |SL| = 648" in err
    assert len(err.splitlines()) == 1


def test_classes_subcommand(capsys):
    code, out = run_cli(
        ["classes", "--group", "SL2", "--ring", "mixed:3^1", "--no-cache",
         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["class-count"]["computed"] == 7
    assert rep["provenance"]["class_sizes"] == [1, 1, 4, 4, 4, 4, 6]


def test_classes_bounded_by_the_table_cap_alone(capsys):
    # SL2(Z/49): |G| = 115,248, past 100,000 and under TABLE_CAP; only
    # --table-cap bounds the class work
    code, out = run_cli(
        ["classes", "--group", "SL2", "--ring", "mixed:7^2", "--no-cache",
         "--format", "json"], capsys)
    assert code == 0
    sizes = json.loads(out)["provenance"]["class_sizes"]
    assert len(sizes) == 81 and sum(sizes) == 115_248


def test_chartab_subcommand(capsys, tmp_path):
    code, out = run_cli(
        ["chartab", "--group", "SL2", "--ring", "mixed:3^1",
         "--cache-dir", str(tmp_path), "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["provenance"]["degrees"] == [1, 1, 1, 2, 2, 2, 3]


def test_chartab_gl4_f2_has_the_degrees_of_a8(capsys):
    # GL4(F2) is isomorphic to A8, whose 14 irreducible degrees are known
    code, out = run_cli(["chartab", "--group", "GL4", "--ring", "mixed:2^1",
                         "--no-cache", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["provenance"]["degrees"] == [1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45,
                                            56, 64, 70]


@pytest.mark.parametrize("command", ["verify", "classes"])
def test_cached_group_table_breaking_the_table_rule_exits_internal(command, capsys, tmp_path):
    # a repeated row written back through the cache's own writer: the file
    # passes the integrity rule, the table rule on load does not
    from whittaker.cache import load_group_table, save_group_table
    from whittaker.groups import GroupSpec
    from whittaker.localring import parse_ring

    args = [command, "--group", "GL2", "--ring", "mixed:2^2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    table = load_group_table(GroupSpec("GL", 2, parse_ring("mixed:2^2")), tmp_path)
    table.elems[5] = table.elems[6]
    save_group_table(table, tmp_path)
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert ("internal fault: AssertionError: group table of GL2(mixed:2^2): the keys after "
            "the identity are not distinct and strictly increasing") in err
    assert len(err.splitlines()) == 1


def test_cap_exceeded_exit_code(capsys):
    code = main(["chartab", "--group", "GL2", "--ring", "mixed:3^2",
                 "--no-cache", "--chartab-cap", "100"])
    assert code == EXIT_CAP


@pytest.mark.parametrize("args", [
    ["chartab", "--group", "SL2", "--ring", "mixed:3^2"],
    ["branching", "--group", "GL2", "--ring", "mixed:3^2"],
])
def test_chartab_cap_refuses_before_the_class_sweep(args, monkeypatch, capsys):
    from whittaker import chartab

    def no_sweep(table):
        raise AssertionError("the class sweep ran")

    monkeypatch.setattr(chartab, "conjugacy_classes", no_sweep)
    assert main([*args, "--no-cache", "--chartab-cap", "100"]) == EXIT_CAP
    assert "beyond character-table cap 100" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classes", "chartab"])
def test_generators_of_a_proper_subgroup_exit_internal(command, monkeypatch, capsys):
    # unipotent candidates generate U only: the closure assertion fires
    from whittaker import chartab
    from whittaker.groups import unipotent_subgroup

    monkeypatch.setattr(chartab, "generator_candidates",
                        lambda table: unipotent_subgroup(table)[1:])
    assert main([command, "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal fault: AssertionError: the generator candidates of GL2(mixed:2^2) span " \
        "a proper subgroup of order 4" in err
    assert len(err.splitlines()) == 1


def test_patched_valuation_of_pi_in_the_norm_exits_internal(monkeypatch, capsys):
    # the valuation vector reads pi as a unit: a pivot pi clears nothing, and
    # |Z| times the Mackey sum over G/ZU is no longer divisible by |U|
    from whittaker.localring import get_ring, parse_ring

    ring = get_ring(parse_ring("mixed:2^2"))
    patched = ring.valuations.copy()
    patched[ring.q] = 0
    monkeypatch.setitem(ring.__dict__, "valuations", patched)
    code = main(["verify", "--group", "SL3", "--ring", "mixed:2^2", "--no-cache"])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal arithmetic fault: Mackey sums" in err and "|U| = 64" in err


def test_repeated_coset_representative_exits_internal(monkeypatch, capsys):
    # one coset of G/ZU listed twice: |R| |Z| |U| = |G| no longer holds
    from whittaker import groups
    from whittaker.localring import parse_ring

    original = groups._echelon_forms

    def repeated(*args):
        forms = original(*args)
        return np.concatenate([forms, forms[:1]])

    monkeypatch.setattr(groups, "_echelon_forms", repeated)
    spec = groups.GroupSpec("GL", 2, parse_ring("mixed:3^2"))
    with pytest.raises(AssertionError, match="73 coset representatives, closed-form index 72"):
        groups.coset_representatives(spec)
    code = main(["verify", "--group", "GL2", "--ring", "mixed:3^2", "--no-cache"])
    assert code == EXIT_INTERNAL
    assert "73 coset representatives" in capsys.readouterr().err


def test_swapped_power_classes_in_the_lift_exit_internal(monkeypatch, capsys):
    # class 1's identity and first power trade places: the DFT over its
    # powers then gives multiplicities mod r that exceed the degree, and the
    # lift refuses them before they are cast to the values' narrow dtype
    from whittaker import chartab

    original = chartab.class_data

    def swapped(table, class_of):
        cd = original(table, class_of)
        cd.powers[1, [0, 1]] = cd.powers[1, [1, 0]]
        return cd

    monkeypatch.setattr(chartab, "class_data", swapped)
    assert main(["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("internal fault: AssertionError: a lifted multiplicity at element order 2 "
            "exceeds its row's degree") in captured.err


def test_lift_value_above_its_degree_exits_internal(monkeypatch, capsys):
    # the lift's DFT taken at zeta + 1 mod r, which is no root of unity: the
    # multiplicities mod r come out above the degrees, and the lift refuses
    # them before the cast to the narrow dtype, which keeps a value only
    # modulo 256
    from whittaker import chartab

    original = chartab.root_of_unity
    monkeypatch.setattr(chartab, "root_of_unity", lambda m, r: (original(m, r) + 1) % r)
    assert main(["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"internal fault: AssertionError: a lifted multiplicity at element "
                        r"order \d+ exceeds its row's degree\n", captured.err)


def test_class_matrix_with_a_wrong_size_ratio_exits_internal(monkeypatch, capsys):
    # every M_j[i, 1] read as h_i c / (h_1 / 2): one class size ratio wrong,
    # and the restricted action of the first class split on is then no
    # longer diagonalizable
    from whittaker import chartab

    original = chartab.class_matrix

    def wrong_ratio(cd, j, r, rows):
        M = original(cd, j, r, rows)
        M[:, 1] = 2 * M[:, 1] % r
        return M

    monkeypatch.setattr(chartab, "class_matrix", wrong_ratio)
    assert main(["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal fault: AssertionError: class matrix failed to act semisimply\n"


def test_central_split_dropping_a_cycle_exits_internal(monkeypatch, capsys):
    # the rows of the cycle with pivot 2 are lost from every eigenspace of the
    # closed-form central split: the split ends in k - 1 lines
    from whittaker import chartab

    original = chartab.central_eigen_rows

    def dropped(cd, z, r):
        return [(C[p != 2], p[p != 2]) for C, p in original(cd, z, r)]

    monkeypatch.setattr(chartab, "central_eigen_rows", dropped)
    assert main(["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal fault: AssertionError: class matrices did not separate "
                            "all characters into k = 14 lines\n")


def test_gl1_branching_where_p_to_the_l_does_not_divide_e(capsys):
    # GL1(Z/9) has exponent 6: phi_x on K^1 takes cube roots of unity only
    code, out = run_cli(["branching", "--group", "GL1", "--ring", "mixed:3^2", "--no-cache",
                         "--format", "json"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["branching-iota-(1,1)x1"]["computed"] == [1]
    assert checks["branching-regular-count"]["computed"] == 6


def test_merged_adjoint_orbits_exit_internal(monkeypatch, capsys):
    # the orbit of x = I joins the orbit of 0 (see test_chartab): the GL_2(Z/9)
    # characters over phi_I lose their support
    from whittaker import chartab

    original = chartab.adjoint_orbits

    def merged(spec):
        labels = original(spec).copy()
        labels[labels == labels[1 + 3**3]] = 0
        return labels

    monkeypatch.setattr(chartab, "adjoint_orbits", merged)
    assert main(["gl2-sl2-tables", "--ring", "mixed:3^2", "--no-cache"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty support" in captured.err


NO_MASKED_ARRAYS = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from whittaker.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--group", "GL2", "--ring", "mixed:3^2", "--all-units",
                   "--no-cache"]),
             main(["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_verify_and_chartab_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 14 ms to import; a bare np.unique(x) pulls it in
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(SRC)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] False"


COLD_THEN_WARM = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from whittaker.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([command, "--group", "GL2", "--ring", "mixed:2^2", "--cache-dir", "cache"])
             for command in ("chartab", "branching")]
print(codes, "numpy.ma" in sys.modules)
"""


def test_cold_chartab_then_branching_do_not_import_numpy_ma(tmp_path):
    # the split and the lift of a cold table, its cache write, and the load,
    # verify and classification that branching makes of it
    done = subprocess.run([sys.executable, "-c", COLD_THEN_WARM, str(SRC)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] False"
    assert list((tmp_path / "cache" / "chartab").glob("GL2_mixed_2_2_*.ct"))


def _cached_gl2_z4(tmp_path):
    # the GL2(Z/4) character table an earlier run left in the cache
    from whittaker.cache import load_char_table, load_group_table
    from whittaker.groups import GroupSpec
    from whittaker.localring import parse_ring

    table = load_group_table(GroupSpec("GL", 2, parse_ring("mixed:2^2")), tmp_path)
    return load_char_table(table, tmp_path)


def _rewrite_gl2_z4_values(tmp_path, fault):
    # a fault in the values of the cached GL2(Z/4) table, written back through
    # the cache's own writer, so the file passes the integrity rule and only
    # the checks on the values can see it; the loaded values are the file's
    # read-only buffer, so the fault edits a copy
    from whittaker.cache import save_char_table

    ct = _cached_gl2_z4(tmp_path)
    ct.rows = ct.rows.copy()
    fault(ct)
    save_char_table(ct, tmp_path)


def _move_multiplicity(ct, row, cls, shift):
    # one multiplicity of chi_row at class cls moved from its first exponent u
    # to u + shift: the vector keeps its sign and its sum, so the table still
    # passes CharTable
    u = int(np.flatnonzero(ct.rows[row, cls])[0])
    ct.rows[row, cls, u] -= 1
    ct.rows[row, cls, (u + shift) % ct.e] += 1


GL2_Z4_SUBCOMMANDS = (["chartab", "--group", "GL2"], ["branching", "--group", "GL2"],
                      ["gl2-sl2-tables"])


def test_corrupt_cached_character_value_exits_internal(capsys, tmp_path):
    # zeta_e - 1 added to one cached value at a class of the congruence kernel
    # K^1: the classification sum over the kernel would no longer be rational,
    # and the power map on the classes of K^1 refuses the value before any
    # sum is taken
    from whittaker.groups import congruence_subgroup

    args = ["branching", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0

    def move(ct):
        kernel_classes = ct.cd.class_of[congruence_subgroup(ct.table, 1)]
        _move_multiplicity(ct, -1, int(kernel_classes[kernel_classes > 0][0]), 1)

    _rewrite_gl2_z4_values(tmp_path, move)
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    assert re.fullmatch(r"internal fault: AssertionError: the values break the power map "
                        r"g -> g\^(5|7)\n", capsys.readouterr().err)


def test_cached_table_failing_reverify_exits_internal(capsys, tmp_path):
    # 1 added to one cached identity-class value, the degree: the values at
    # the other classes no longer sum to it, and the checks of every load
    # raise an AssertionError, a fault (exit 3), not a mismatch (exit 1)
    def bump(ct):
        ct.rows[-1, 0, 0] += 1

    cache = ["--ring", "mixed:2^2", "--cache-dir", str(tmp_path)]
    assert main(["chartab", "--group", "GL2", *cache]) == 0
    _rewrite_gl2_z4_values(tmp_path, bump)
    capsys.readouterr()
    for args in GL2_Z4_SUBCOMMANDS:
        assert main([*args, *cache]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert ("internal fault: AssertionError: eigenvalue multiplicities do not sum "
                "to degree") in err
        assert len(err.splitlines()) == 1


def test_cached_value_moved_by_galois_exits_internal(capsys, tmp_path):
    # sigma_5 (zeta_12 -> zeta_12^5) applied to the one vector of the cached
    # GL2(Z/4) values that it changes first: sign and sums hold, the row set
    # is no longer Galois-stable, and the power map at a unit sees it
    def conjugate(ct):
        t, i = next((t, i) for t in range(ct.k) for i in range(1, ct.k)
                    if not np.array_equal(ct.rows[t, i, 5 * np.arange(ct.e) % ct.e],
                                          ct.rows[t, i]))
        moved = np.zeros(ct.e, dtype=np.int64)
        moved[5 * np.arange(ct.e) % ct.e] = ct.rows[t, i]
        ct.rows[t, i] = moved

    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _rewrite_gl2_z4_values(tmp_path, conjugate)
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert re.fullmatch(r"internal fault: AssertionError: the values break the power map "
                        r"g -> g\^(5|7)\n", err)


def test_too_few_verify_primes_exit_internal(monkeypatch, capsys):
    # one prime = 1 mod 12 whose product cannot exceed 2 B = 2 |G| (d_max^2 + 1)
    from whittaker import chartab

    monkeypatch.setattr(chartab, "verify_primes", lambda e, bound: [13])
    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache"]
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal fault: AssertionError: the primes [13] break the bounds "
                          "prod r' > 2 B = 7104")
    assert len(err.splitlines()) == 1


def test_too_few_primes_for_a_class_sum_exit_internal(monkeypatch, capsys, tmp_path):
    # branching verifies no loaded table, so with one prime = 1 mod 12 the
    # first class sum (the classification over K^1) refuses the bound
    # 2 L d = 2 |K^1| d_max
    from whittaker import chartab

    args = ["branching", "--group", "GL2", "--ring", "mixed:2^2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(chartab, "verify_primes", lambda e, bound: [13])
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal fault: AssertionError: the primes [13] break the bounds "
                          "2 L d = 192")
    assert len(err.splitlines()) == 1


def test_cached_value_off_the_identity_class_exits_internal(capsys, tmp_path):
    # one cached multiplicity at a class other than the identity moved by
    # half a turn, from 1 to -1: sign, sums and rationality hold, and the row
    # relation alone, which re-verify checks, must catch it
    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _rewrite_gl2_z4_values(tmp_path, lambda ct: _move_multiplicity(ct, -1, 1, ct.e // 2))
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal fault: AssertionError: row orthogonality fails" in err
    assert len(err.splitlines()) == 1


def test_cached_degrees_swap_exits_internal(capsys, tmp_path):
    # the identity-class vectors of two rows of distinct degrees swapped: the
    # sum of squares, divisibility and the identity class still hold, and the
    # values at the other classes no longer sum to the degrees
    def swap(ct):
        d = ct.degrees.tolist()
        j = next(j for j, v in enumerate(d) if v != d[0])
        ct.rows[[0, j], 0] = ct.rows[[j, 0], 0]

    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _rewrite_gl2_z4_values(tmp_path, swap)
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal fault: AssertionError: eigenvalue multiplicities do not sum to degree" in err
    assert len(err.splitlines()) == 1


def _write_gl2_z4_values(tmp_path, ct, rows, meta):
    # ct's classes, the values `rows` and the metadata `meta` of an older
    # writer, in a file that passes the integrity rule
    from whittaker.cache import chartab_cache_key
    from oracles import write_with_metadata

    write_with_metadata(chartab_cache_key(ct.table.spec), tmp_path, meta,
                        {"class_of": ct.cd.class_of.astype(np.int8), "rows": rows.astype(np.int8)})


@pytest.mark.parametrize("fault", ["row-negated", "exponent-doubled"])
def test_cached_table_breaking_an_invariant_exits_internal_everywhere(fault, capsys, tmp_path):
    # files that a loader trusting stored e, r and degrees accepted: a row
    # negated together with its degree (reported as degree -6), and the values
    # embedded in Z[zeta_2e] with e and r to match (reported as e = 24,
    # r = 73); every subcommand that loads the table must refuse both
    from whittaker.chartab import dixon_prime

    cache = ["--ring", "mixed:2^2", "--cache-dir", str(tmp_path)]
    assert main(["chartab", "--group", "GL2", *cache]) == 0
    ct = _cached_gl2_z4(tmp_path)
    rows, degrees = ct.rows.copy(), ct.degrees.tolist()
    e = ct.e
    if fault == "row-negated":
        rows[-1] *= -1
        degrees[-1] *= -1
        message = "a multiplicity lies outside 0..|G|"
    else:
        rows = np.zeros((ct.k, ct.k, 2 * e), dtype=np.int64)
        rows[..., ::2] = ct.rows
        e *= 2
        message = "the values have shape (14, 14, 24), not (k, k, e)"
    _write_gl2_z4_values(tmp_path, ct, rows, {"e": e, "r": dixon_prime(e, 96), "degrees": degrees})
    capsys.readouterr()
    for args in GL2_Z4_SUBCOMMANDS:
        assert main([*args, *cache]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert len(captured.err.splitlines()) == 1


def test_stale_dixon_prime_in_the_metadata_is_ignored(capsys, tmp_path):
    # e, r and degrees are derived on load: an old file's metadata keys, a
    # wrong prime among them, change nothing
    from whittaker.chartab import dixon_prime

    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    warm = capsys.readouterr().out
    ct = _cached_gl2_z4(tmp_path)
    _write_gl2_z4_values(tmp_path, ct, ct.rows,
                         {"e": ct.e, "r": 9973, "degrees": ct.degrees.tolist()})
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == warm and err == ""
    assert json.loads(out)["provenance"]["dixon"]["GL2(mixed:2^2)"] == {
        "e": 12, "r": dixon_prime(12, 96)}


def _rewrite_gl2_z9(tmp_path, fault):
    # a fault in the cached GL2(Z/9) table written back through the cache's
    # own writer, so the file passes the integrity rule
    from whittaker.cache import load_char_table, load_group_table, save_char_table
    from whittaker.groups import GroupSpec
    from whittaker.localring import parse_ring

    table = load_group_table(GroupSpec("GL", 2, parse_ring("mixed:3^2")), tmp_path)
    ct = load_char_table(table, tmp_path)
    ct.rows = ct.rows.copy()  # the loaded values are the file's read-only buffer
    fault(ct)
    save_char_table(ct, tmp_path)


def test_cached_classes_swapped_exit_internal(capsys, tmp_path):
    # two classes of equal size and element order swapped in class_of: every
    # subcommand that loads the table derives its class data from class_of
    # and refuses a numbering out of order of the smallest ids
    def swap(cd):
        c1, c2 = next((i, j) for i in range(cd.k) for j in range(i + 1, cd.k)
                      if cd.sizes[i] == cd.sizes[j] and cd.orders[i] == cd.orders[j])
        in_c1, in_c2 = cd.class_of == c1, cd.class_of == c2
        cd.class_of[in_c1], cd.class_of[in_c2] = c2, c1

    cache = ["--cache-dir", str(tmp_path)]
    assert main(["chartab", "--group", "GL2", "--ring", "mixed:3^2", *cache]) == 0
    _rewrite_gl2_z9(tmp_path, lambda ct: swap(ct.cd))
    capsys.readouterr()
    for args in (["chartab", "--group", "GL2"], ["branching", "--group", "GL2"],
                 ["gl2-sl2-tables"]):
        assert main([*args, "--ring", "mixed:3^2", *cache]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert ("internal fault: AssertionError: the classes of GL2(mixed:3^2) are not "
                "numbered in order of their smallest id") in err


def test_cached_element_moved_between_classes_exits_internal(capsys, tmp_path):
    # the largest id of the largest class moved to the next non-identity
    # class: the numbering stays in order, the derived class sizes change,
    # and re-verify's power map, which reads them, no longer permutes the
    # classes with their sizes
    def move(cd):
        big = int(cd.sizes.argmax())
        moved = int(np.flatnonzero(cd.class_of == big)[-1])
        target = 2 if big == 1 else 1
        assert cd.reps[target] < moved
        cd.class_of[moved] = target

    args = ["chartab", "--group", "GL2", "--ring", "mixed:3^2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _rewrite_gl2_z9(tmp_path, lambda ct: move(ct.cd))
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    assert capsys.readouterr().err == ("internal fault: AssertionError: g -> g^5 does not "
                                       "permute the classes with their sizes\n")


def test_cached_columns_swapped_exit_internal(capsys, tmp_path):
    # the values of classes 48 and 51 of GL2(Z/9) swapped: both have size 72
    # and order 9, so the row relation holds, and the power map must see it
    def swap(ct):
        assert ct.cd.sizes[[48, 51]].tolist() == [72, 72]
        assert ct.cd.orders[[48, 51]].tolist() == [9, 9]
        ct.rows[:, [48, 51]] = ct.rows[:, [51, 48]]

    args = ["chartab", "--group", "GL2", "--ring", "mixed:3^2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _rewrite_gl2_z9(tmp_path, swap)
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal fault: AssertionError: the values break the power map")
    assert len(err.splitlines()) == 1


def test_unwritable_out_file_exits_internal(monkeypatch, capsys, tmp_path):
    # a path that passes the up-front check, and whose write still fails
    # after the run
    def refuse(path, data):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["verify", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache",
                 "--out", str(tmp_path / "report.json")]) == EXIT_INTERNAL
    assert "internal fault: OSError: cannot write" in capsys.readouterr().err


def _split(raw):
    head, _, body = raw.partition(b"\n")
    meta, _, arrays = body.partition(b"\n")
    return json.loads(head), json.loads(meta), arrays


def _join(header, meta, arrays):
    return b"\n".join([json.dumps(header, sort_keys=True).encode(),
                       json.dumps(meta, sort_keys=True).encode(), arrays])


def _edit_meta(raw):
    # same length, so only the digest can catch it: the shape of the last
    # array reversed, the group table's elements or the character values
    header, meta, arrays = _split(raw)
    meta["arrays"][-1][2].reverse()
    return _join(header, meta, arrays)


def _foreign_key(raw):
    header, meta, arrays = _split(raw)
    header["key"] = header["key"].replace("mixed:2^2", "mixed:3^2")
    return _join(header, meta, arrays)


def _pre_digest(raw):
    header, meta, arrays = _split(raw)
    return _join({"key": header["key"]}, meta, arrays)


CACHE_FAULTS = {
    "truncated": (lambda raw: raw[:len(raw) // 2], "header says"),
    "byte-flipped": (lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]), "sha256 mismatch"),
    "metadata-edited": (_edit_meta, "sha256 mismatch"),
    "foreign-key": (_foreign_key, "foreign key"),
    "pre-digest": (_pre_digest, "no sha256"),
    "empty": (lambda raw: b"", "undecodable"),
}


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
@pytest.mark.parametrize("pattern", ["tables/*.grp", "chartab/*.ct"])
def test_corrupt_cache_file_is_rebuilt(pattern, fault, capsys, tmp_path):
    args = ["gl2-sl2-tables", "--ring", "mixed:2^2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    (path,) = tmp_path.glob(pattern)
    corrupt, reason = CACHE_FAULTS[fault]
    path.write_bytes(corrupt(path.read_bytes()))
    _assert_rebuilt(args, cold, path, reason, capsys)


def _assert_rebuilt(args, cold, path, reason, capsys):
    # the run rebuilds the file with one line that names it and the reason,
    # its report equals the cold one, and the next run reads the new file
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == cold
    (line,) = [ln for ln in err.splitlines() if ln.startswith("cache: rebuilding")]
    assert str(path) in line and reason in line
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == cold and "cache:" not in err


@pytest.mark.parametrize("pattern, name, shift", [
    ("chartab/*.ct", "rows", 0.25),
    ("chartab/*.ct", "class_of", 0.5),
    ("tables/*.grp", "elems", 0.5),
])
def test_non_integer_cached_array_is_rebuilt(pattern, name, shift, capsys, tmp_path):
    # one array stored as float64 with a fraction added, in a file that passes
    # the digest: a cast to int64 would give back the genuine values, so the
    # file is refused as undecodable and rebuilt, not truncated and used
    from whittaker.cache import _read
    from oracles import write_with_metadata

    args = ["gl2-sl2-tables", "--ring", "mixed:2^2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    (path,) = tmp_path.glob(pattern)
    key = json.loads(path.read_bytes().partition(b"\n")[0])["key"]
    arrays = dict(_read(key, tmp_path)[1])
    arrays[name] = arrays[name].astype(np.float64) + shift
    write_with_metadata(key, tmp_path, {}, arrays)
    _assert_rebuilt(args, cold, path, f"undecodable: {name} is stored as <f8", capsys)


def test_mismatch_gives_exit_one():
    env = ReportEnvelope(tool_version="x", config={})
    env.add("demo", "demo-claim", 1, 2)
    assert not env.passed and env.exit_code == 1
    env2 = ReportEnvelope(tool_version="x", config={})
    env2.add("demo", "demo-claim", 1, 2, informational=True)
    assert env2.passed and env2.exit_code == 0


def test_verify_mismatch_exits_one(monkeypatch, capsys):
    # a predicted count one too high is a falsification result: exit 1, no stderr
    from whittaker import cli

    true_count = cli.predicted_regular_count
    monkeypatch.setattr(cli, "predicted_regular_count", lambda spec, a: true_count(spec, a) + 1)
    assert main(["verify", "--group", "GL2", "--ring", "mixed:2^2", "--a", "1",
                 "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] whittaker-norm-equals-regular-count[a=1]: predicted=9 computed=8" \
        "   <-- mismatch" in out
    assert "result: FAIL" in out and err == ""


def test_branching_mismatch_exits_one(monkeypatch, capsys):
    from whittaker import cli

    true_iota = cli.iota
    monkeypatch.setattr(cli, "iota", lambda tau, m: true_iota(tau, m) + 1)
    assert main(["branching", "--group", "GL2", "--ring", "mixed:3^2", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] branching-iota-split-nss: predicted=[3] computed=[2]   <-- mismatch" in out
    assert "result: FAIL" in out and err == ""


@pytest.mark.parametrize("args", [
    ["verify", "--group", "GL2", "--ring", "mixed:2^2"],
    ["gl2-sl2-tables", "--ring", "mixed:2^2"],
    ["branching", "--group", "GL2", "--ring", "mixed:2^2"],
    ["chartab", "--group", "GL2", "--ring", "mixed:2^1"],
    ["classes", "--group", "GL2", "--ring", "mixed:2^1"],
], ids=lambda args: args[0])
def test_timings_gated(args, capsys):
    args = [*args, "--no-cache", "--format", "json"]
    _, out = run_cli(args, capsys)
    assert json.loads(out)["timings"] == {}
    _, out2 = run_cli(args + ["--timings"], capsys)
    timings = json.loads(out2)["timings"]
    assert list(timings) == [args[0]] and isinstance(timings[args[0]], float)


def test_all_units_alias(capsys, tmp_path):
    code, out = run_cli(
        ["verify", "--group", "GL2", "--ring", "mixed:2^2", "--all-units",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("whittaker-norm-equals-regular-count") == 2


def test_cache_dir_env_default(monkeypatch, tmp_path):
    from whittaker.cache import default_cache_dir

    monkeypatch.setenv("WHITTAKER_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"


def test_config_rejects_nonpositive_caps():
    with pytest.raises(ValueError):
        JobConfig(subcommand="verify", table_cap=0)


@pytest.mark.parametrize("args", [
    ["--ring", "mixed:4^2"],
    ["--ring", "mixed:3^2", "--a", "3"],
    ["--ring", "mixed:3^2", "--a", "10"],
    ["--group", "Sp4"],
    ["--threads", "0"],
    ["--threads", "two"],
])
def test_bad_input_exits_usage(args, capsys):
    try:
        code = main(["verify", "--no-cache", *args])
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args, env", [
    (["--out", "{tmp}/missing/report.txt"], None),
    (["--out", "{tmp}"], None),
    (["--out", "{tmp}/link"], None),
    (["--cache-dir", "{tmp}/file"], None),
    (["--cache-dir", "{tmp}/file/cache"], None),
    ([], "{tmp}/file"),
], ids=["out-in-missing-dir", "out-is-dir", "out-links-into-missing-dir",
        "cache-dir-is-file", "cache-dir-below-file", "env-cache-dir-is-file"])
def test_bad_output_path_exits_usage_before_any_work(args, env, monkeypatch, capsys, tmp_path):
    (tmp_path / "file").write_text("")
    (tmp_path / "link").symlink_to(tmp_path / "missing-dir" / "report.json")
    if env:
        monkeypatch.setenv("WHITTAKER_CACHE_DIR", env.format(tmp=tmp_path))
    code = main(["verify", "--group", "GL2", "--ring", "mixed:2^2",
                 *(arg.format(tmp=tmp_path) for arg in args)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link"]


@pytest.mark.parametrize("args", [[], ["tables"], ["--group", "GL2"]])
def test_missing_or_unknown_subcommand_exits_usage(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--no-cache"])
    assert exc.value.code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_coset_cap_exceeded_exits_cap(capsys):
    # [GL3(Z/27) : ZU] = 221,079,456 / 18 = 12,282,192: refused before the
    # transversal is built
    assert main(["verify", "--group", "GL3", "--ring", "mixed:3^3", "--no-cache"]) == EXIT_CAP
    assert "coset cap" in capsys.readouterr().err


@pytest.mark.parametrize("cap, code", [(100, 0), (71, EXIT_CAP)])
def test_coset_cap_bounds_the_index_of_zu(cap, code, monkeypatch, capsys):
    # GL2(Z/9): [G : ZU] = 72 < 100 < 432 = [G : U]
    from whittaker import groups

    monkeypatch.setattr(groups, "COSET_CAP", cap)
    assert main(["verify", "--group", "GL2", "--ring", "mixed:3^2", "--all-units",
                 "--no-cache"]) == code


def test_chartab_verifies_once_cold_and_once_warm(monkeypatch, capsys, tmp_path):
    from whittaker.chartab import CharTable

    calls = []
    original = CharTable.verify

    def counted(self):
        calls.append(self.loaded)
        return original(self)

    monkeypatch.setattr(CharTable, "verify", counted)
    args = ["chartab", "--group", "SL2", "--ring", "mixed:3^1", "--cache-dir", str(tmp_path)]
    assert main(args) == 0 and calls == [False]
    assert main(args) == 0 and calls == [False, True]


@pytest.mark.parametrize("args", [
    ["verify", "--group", "GL2", "--ring", "mixed:3^1", "--a", "1"],
    ["branching", "--group", "GL2", "--ring", "mixed:3^1"],
    ["gl2-sl2-tables", "--ring", "mixed:3^1"],
])
def test_level_one_where_level_two_is_needed_exits_usage(args, capsys):
    assert main([*args, "--no-cache"]) == EXIT_USAGE
    assert "needs l >= 2" in capsys.readouterr().err


def test_level_one_verify_without_predictions_passes(capsys):
    # SL2 over F_2 skips the predictions (p = 2), so l = 1 is accepted
    code, out = run_cli(["verify", "--group", "SL2", "--ring", "mixed:2^1", "--no-cache",
                         "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


def test_ring_above_the_table_gate_exits_cap(capsys):
    assert main(["classes", "--group", "GL1", "--ring", "equal:2^13", "--no-cache"]) == EXIT_CAP
    assert "element-table gate" in capsys.readouterr().err


# 1 GiB of address space: the CLI fits in it, while a unit list or a phi
# vector of 3^20 elements does not, so a regression fails fast
LOW_MEMORY_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from whittaker.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("unit", [["--all-units"], ["--a", "1"]], ids=["all-units", "a-1"])
def test_mixed_ring_above_the_table_gate_exits_cap(unit, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", LOW_MEMORY_CLI, str(SRC), "verify", "--group", "GL2",
         "--ring", "mixed:3^20", *unit, "--no-cache"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert done.returncode == EXIT_CAP, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cap exceeded: ")
    assert "element-table gate" in lines[0] and "Traceback" not in done.stderr

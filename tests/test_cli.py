import json

import jsonschema
import pytest

from whittaker.cli import (JobConfig, build_parser, config_from_args,
                           gl2_formula_row, main, parse_group, sl2_formula_row)
from whittaker.reporting import (EXIT_CAP, EXIT_INTERNAL, EXIT_USAGE, REPORT_SCHEMA,
                                 ReportEnvelope)
from whittaker.whittaker_verify import NonDegenChar


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
    assert JobConfig.from_dict(cfg.to_dict()) == cfg


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


def test_classes_subcommand(capsys):
    code, out = run_cli(
        ["classes", "--group", "SL2", "--ring", "mixed:3^1", "--no-cache",
         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["class-count"]["computed"] == 7
    assert rep["provenance"]["class_sizes"] == [1, 1, 4, 4, 4, 4, 6]


def test_chartab_subcommand(capsys, tmp_path):
    code, out = run_cli(
        ["chartab", "--group", "SL2", "--ring", "mixed:3^1",
         "--cache-dir", str(tmp_path), "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["provenance"]["degrees"] == [1, 1, 1, 2, 2, 2, 3]


def test_cap_exceeded_exit_code(capsys):
    code = main(["chartab", "--group", "GL2", "--ring", "mixed:3^2",
                 "--no-cache", "--chartab-cap", "100"])
    assert code == EXIT_CAP


def test_off_by_one_theta_exponent_in_the_norm_exits_internal(monkeypatch, capsys):
    # theta_a on the identity of U shifted from zeta^0 to zeta^1: the
    # Frobenius double sum is no longer rational
    original = NonDegenChar.exponents_on
    shifted = []

    def off_by_one(self, batch):
        out = original(self, batch)
        if not shifted:  # the first call evaluates theta on U itself
            shifted.append(True)
            out = out.copy()
            out[0] += 1
        return out

    monkeypatch.setattr(NonDegenChar, "exponents_on", off_by_one)
    code = main(["verify", "--group", "GL2", "--ring", "mixed:3^2", "--no-cache"])
    assert shifted and code == EXIT_INTERNAL
    assert "internal arithmetic fault" in capsys.readouterr().err


def _inject_character_value(tmp_path, index):
    # a fault written back through the cache's own writer, so the file
    # passes the integrity rule and only the checks on the values can see it
    from whittaker.cache import load_char_table, load_group_table, save_char_table
    from whittaker.groups import GroupSpec
    from whittaker.localring import parse_ring

    table = load_group_table(GroupSpec("GL", 2, parse_ring("mixed:2^2")), tmp_path)
    ct = load_char_table(table, tmp_path)
    ct.rows[index] += 1
    save_char_table(ct, tmp_path)


def test_corrupt_cached_character_value_exits_internal(capsys, tmp_path):
    # zeta_e added to one cached identity-class value: the classification
    # sum over the congruence kernel is no longer rational
    args = ["branching", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _inject_character_value(tmp_path, (-1, 0, 1))
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    assert "not rational" in capsys.readouterr().err


def test_cached_table_failing_reverify_exits_internal(capsys, tmp_path):
    # 1 added to one cached identity-class value: re-verify on load raises
    # an AssertionError, a fault (exit 3), not a mismatch (exit 1)
    args = ["chartab", "--group", "GL2", "--ring", "mixed:2^2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    _inject_character_value(tmp_path, (-1, 0, 0))
    capsys.readouterr()
    assert main(args) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal fault: AssertionError: row orthogonality fails" in err
    assert len(err.splitlines()) == 1


def test_unwritable_out_file_exits_internal(capsys, tmp_path):
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["verify", "--group", "GL2", "--ring", "mixed:2^2", "--no-cache",
                 "--out", str(out)]) == EXIT_INTERNAL
    assert "internal fault: FileNotFoundError" in capsys.readouterr().err


def _split(raw):
    head, _, body = raw.partition(b"\n")
    meta, _, arrays = body.partition(b"\n")
    return json.loads(head), json.loads(meta), arrays


def _join(header, meta, arrays):
    return b"\n".join([json.dumps(header, sort_keys=True).encode(),
                       json.dumps(meta, sort_keys=True).encode(), arrays])


def _edit_meta(raw):
    # same length, so only the digest can catch it: the shape of the group
    # table reversed, or two distinct character degrees swapped (the sum of
    # squares is unchanged)
    header, meta, arrays = _split(raw)
    if "degrees" in meta:
        d = meta["degrees"]
        j = next(j for j, v in enumerate(d) if v != d[0])
        d[0], d[j] = d[j], d[0]
    else:
        meta["arrays"][0][2].reverse()
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
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == cold
    (line,) = [ln for ln in err.splitlines() if ln.startswith("cache: rebuilding")]
    assert str(path) in line and reason in line
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == cold and "cache:" not in err


def test_mismatch_gives_exit_one():
    env = ReportEnvelope(tool_version="x", config={})
    env.add("demo", "demo-claim", 1, 2)
    assert not env.passed and env.exit_code == 1
    env2 = ReportEnvelope(tool_version="x", config={})
    env2.add("demo", "demo-claim", 1, 2, informational=True)
    assert env2.passed and env2.exit_code == 0


def test_timings_gated(capsys, tmp_path):
    args = ["classes", "--group", "GL2", "--ring", "mixed:2^1", "--no-cache",
            "--format", "json"]
    _, out = run_cli(args, capsys)
    assert json.loads(out)["timings"] == {}
    _, out2 = run_cli(args + ["--timings"], capsys)
    assert "classes" in json.loads(out2)["timings"]


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


def test_coset_cap_exceeded_exits_cap(capsys):
    # [GL3(Z/27) : U] = 221,079,456: refused before the transversal is built
    assert main(["verify", "--group", "GL3", "--ring", "mixed:3^3", "--no-cache"]) == EXIT_CAP
    assert "coset cap" in capsys.readouterr().err


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

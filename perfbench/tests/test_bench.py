"""Self-test of the benchmark harness, on the sub-second `smoke` workload.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests

Each test runs the benchmark command in a copy of the checkout, so nothing is
written to the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_KEY = "verify --group GL2 --ring mixed:2^2 --all-units"


def make_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for d in [*SPEC["paths"], *(["src"] if with_src else [])]:
        shutil.copytree(ROOT / d, dest / d,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return dest


def bench(checkout: Path, seed: int = 1, trace: int = 0, workload: str = "smoke"):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)


def parse(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return make_checkout(tmp_path_factory.mktemp("checkout"))


def test_smoke_emits_every_end_to_end_metric(checkout):
    lines, res = parse(bench(checkout))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines)
    assert "failed_ratio 0 1" in lines


def test_traced_smoke_emits_every_layer_metric_with_seed_free_counts(checkout):
    metrics, jobs = {}, {}
    for seed in (1, 2):
        lines, res = parse(bench(checkout, seed=seed, trace=1))
        assert res["correct"]
        assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        for m in SPEC["per_layer"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
        metrics[seed] = {k: v["value"] for k, v in res["metrics"].items()}
        jobs[seed] = next(line for line in lines if line.startswith("jobs "))
    assert jobs[1] != jobs[2], "the seeds should pick different units"
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: metrics[1][k] for k in counts} == {k: metrics[2][k] for k in counts}
    assert metrics[1]["whittaker_verify.induced_norm.conjugations"] > 0
    assert metrics[1]["cli.verify.s"] > metrics[1]["whittaker_verify.induced_norm.s"] > 0


def test_gate_fires_on_a_wrong_expected_report(tmp_path):
    checkout = make_checkout(tmp_path)
    path = checkout / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    check = next(c for c in expected[SMOKE_KEY]["checks"]
                 if c["name"].startswith("whittaker-norm-equals-regular-count"))
    check["computed"] += 1
    path.write_text(json.dumps(expected))
    lines, res = parse(bench(checkout))
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    ratio = next(line for line in lines if line.startswith("failed_ratio "))
    assert float(ratio.split()[1]) > 0
    assert f"FAILED {SMOKE_KEY}: report differs from the expected one" in lines


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench(make_checkout(tmp_path, with_src=False), workload="verify-norm")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import Tracer, layer_metrics

    tracer = Tracer(Path("unused"))
    tracer.names.update({"a", "b", "c"})
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0]]
    got = layer_metrics(tracer)
    assert got["a.s"] == 10.0  # the nested `a` is not counted twice
    assert got["a.self_s"] == 5.0 + 2.0
    assert got["b.s"] == got["b.self_s"] == 3.0
    assert got["c.s"] == got["c.self_s"] == 0.0

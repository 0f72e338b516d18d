"""Every job of the benchmark's timed workloads, replayed in-process against
its pinned report in perfbench/expected.json, cold and then warm.

The benchmark's correctness gate compares the same reports (without the
`config` echo and the `timings`) with the same two functions of
perfbench/child.py; here a changed report fails the test suite first.
perfbench/ is only read: its modules run from source through runpy, which
writes no bytecode cache next to them.
"""

import json
import runpy
from pathlib import Path

import pytest

from whittaker import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
CHILD = runpy.run_path(str(PERFBENCH / "child.py"))
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", ["verify-norm", "tables-cold", "tables-warm"])
def test_workload_reports_match_the_pinned_ones_cold_and_warm(name, tmp_path):
    jobs = WORKLOADS[name].all_jobs()
    failures = []
    for state in ("cold", "warm"):  # the first pass fills the cache the second reads
        for argv in jobs:
            key = " ".join(argv)
            code, rendered, error = CHILD["run_job"](cli, argv, tmp_path)
            reason = CHILD["check"](code, rendered, error, EXPECTED.get(key))
            if reason:
                failures.append(f"{state} {key}: {reason}")
    assert jobs and not failures

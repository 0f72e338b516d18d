"""Record the expected report of every job the benchmark can run.

Usage, from the root of a checkout: python3 perfbench/record_expected.py

Runs every seeded variant of every workload's jobs once, in one fresh child
per workload against an empty cache, and writes `perfbench/expected.json`:
job (argument list joined by spaces) -> its `report/v1` JSON without
`config` and `timings`.  A job is recorded only if it exits 0 with
`pass: true`.  Re-record only when a change to the program is meant to
change a report.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, WORK, run_child
from workloads import WORKLOADS


def main() -> int:
    expected: dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        jobs = [j for j in workload.all_jobs() if " ".join(j) not in expected]
        cache_dir = WORK / "record" / name
        result = run_child({"jobs": jobs, "cache_dir": str(cache_dir), "record": True})
        shutil.rmtree(cache_dir)
        for job in result["jobs"]:
            report = job["report"]
            if job["exit_code"] != 0 or not report or report.get("pass") is not True:
                print(f"not recorded: {job['job']}: {job['failure']}", file=sys.stderr)
                return 1
            expected[job["job"]] = report
        print(f"{name}: {len(jobs)} jobs recorded")
    out = BENCH_DIR / "expected.json"
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

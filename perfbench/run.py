"""Benchmark of the `whittaker` CLI: the time from a subcommand to its verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-norm --seed 1 --seconds 40 --trace 0

Each pass over a workload's job list runs in a fresh child process
(`child.py`), one child at a time, with BLAS/OpenMP threads pinned to 1.
Passes repeat, at least three times, while the next one would likely end
within `--seconds`, and each job's time is its median over the passes.
With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json;
with `--trace 1` traced and untraced passes alternate and the result holds
the per-layer metrics.  Every job's report is checked against
`expected.json`.  The last line of standard output is the JSON result; a
full record goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
# set-up-only children: a few before the passes, then one after each round
# of passes until the run holds this many set-up samples, passes included
SETUP_PROBES, SETUP_SAMPLES = 4, 20
# Passes per run, at least, so that a job's median is of three readings.  A
# traced run needs one traced/untraced pair, as its per-layer metrics carry no
# bound.
MIN_PASSES, MIN_TRACED_ROUNDS = 3, 1
CHILD_TIMEOUT_S = 170
RUN_LIMIT_S = 140       # no pass starts if it would likely end after this


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("WHITTAKER_CACHE_DIR", None)
    return env


def run_child(task: dict) -> dict:
    """Run one child to completion; it is killed and reaped on timeout."""
    task = {**task, "root": str(ROOT), "spawned_at": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(task)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Hash of the program's sources and of the workload definitions."""
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), BENCH_DIR / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_template(name: str, jobs: list[list[str]]) -> tuple[Path, list[dict]]:
    """The cache a warm workload copies: filled once per source tree by running
    the workload's own jobs against an empty directory.  Returns the template
    and the job records of the build (empty when it already existed)."""
    template = WORK / "warm" / f"{name}-{source_digest()}"
    if template.is_dir():
        return template, []
    building = template.with_name(template.name + ".building")
    result = run_child({"jobs": jobs, "cache_dir": str(building)})
    if not any(j["failure"] for j in result["jobs"]):
        building.rename(template)
    return template, result["jobs"]


def run_environment(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_whittaker_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "whittaker").glob("*.py")),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def pass_wall(p: dict) -> float:
    return sum(j["wall_s"] for j in p["jobs"] if not j["failure"])


def per_job_median_sum(passes: list[dict], field: str) -> float:
    """Sum over the jobs of each job's median time across passes; a failed
    job contributes no timing.  The host's speed drifts by 10-50 % from
    second to second and minute to minute, and some runs catch moments when
    it is faster than in others, so a job's fastest or lower-quartile reading
    moves more from run to run than its median over some twenty passes."""
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            if not j["failure"]:
                by_job.setdefault(j["job"], []).append(j[field])
    return sum(statistics.median(v) for v in by_job.values())


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    jobs = workload.jobs(seed)
    cache_dir = WORK / "run" / name
    records = []  # every job record that counts as attempted
    template = None
    if workload.warm:
        template, built = warm_template(name, jobs)
        records += built
    base = {"jobs": jobs, "cache_dir": str(cache_dir),
            "template": str(template) if template else None}

    def probe_setup() -> float:
        return run_child({**base, "setup_only": True})["setup_s"]

    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    passes: list[tuple[bool, dict]] = []
    start = time.monotonic()
    longest = 0.0
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_PASSES
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            task = {**base, "trace": traced,
                    "spans_out": str(WORK / "trace" / f"{name}.spans.json")}
            try:
                result = run_child(task)
            except (ChildFailed, subprocess.TimeoutExpired) as exc:
                print(f"perfbench: pass failed: {exc}", file=sys.stderr)
                result = {"jobs": [{"job": " ".join(j), "wall_s": 0.0, "cpu_s": 0.0,
                                    "failure": "child failed"} for j in jobs]}
            passes.append((traced, result))
            records += result["jobs"]
            setups += [result["setup_s"]] if "setup_s" in result else []
        if len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup())
        now = time.monotonic()
        longest = max(longest, now - round_start)
        # no round starts that would likely end after --seconds, or, short of
        # the minimum number of rounds, after RUN_LIMIT_S
        limit = seconds if len(passes) // len(kinds) >= min_rounds else RUN_LIMIT_S
        if now - start + longest > limit:
            break

    plain = [p for traced, p in passes if not traced]
    metrics = {
        "wall_s": per_job_median_sum(plain, "wall_s"),
        "cpu_s": per_job_median_sum(plain, "cpu_s"),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain if "peak_rss_mb" in p),
    }
    traced = [p for is_traced, p in passes if is_traced]
    if traced:
        names = {k for p in traced for k in p.get("layers", {})}
        metrics.update({k: median(p.get("layers", {}).get(k, 0) for p in traced)
                        for k in names})
        untraced_wall = median(pass_wall(p) for p in plain)
        metrics["trace.overhead_ratio"] = (
            median(pass_wall(p) for p in traced) / untraced_wall - 1 if untraced_wall else 0.0)
    failed = sum(1 for r in records if r["failure"])
    metrics["failed_ratio"] = failed / len(records)
    numpy_version = next((p["numpy"] for _, p in passes if "numpy" in p), "unknown")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": [" ".join(j) for j in jobs],
        "env": run_environment(numpy_version),
        "passes": [{"traced": t, **p} for t, p in passes],
        "setup_samples_s": setups,
        "attempted": len(records), "failed": failed,
        "failures": sorted({f"{r['job']}: {r['failure']}" for r in records if r["failure"]}),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, on which subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "whittaker" / "cli.py").is_file():
        print(f"perfbench: no whittaker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = record["metrics"]
    # failed_ratio is reported here and as attempted/failed: it is 0 on a
    # healthy run, so BENCHMARK.json does not gate it as a metric
    units = {m["name"]: m["unit"] for m in wanted} | {"failed_ratio": "1"}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={len(record['passes'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("jobs " + json.dumps(record["jobs"]))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py '<json task>'

The task names the checkout root, the jobs, the run's cache directory, the
warm-cache template to copy (or none), whether to trace, and the parent's
`time.monotonic()` just before it started this process.  The child imports
`whittaker`, prepares the cache directory, then runs each job through
`whittaker.cli` (`build_parser`, `config_from_args`, `run`) and renders its
report as `--format json` would.  Each job is checked against its expected
report in `expected.json`.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def prepare_cache(cache_dir: Path, template: str | None) -> None:
    shutil.rmtree(cache_dir, ignore_errors=True)
    if template:
        shutil.copytree(template, cache_dir)
    else:
        cache_dir.mkdir(parents=True)


def comparable(report: dict) -> dict:
    """The report without the per-run `config` echo and the `timings`."""
    return {k: v for k, v in report.items() if k not in ("config", "timings")}


def run_job(cli, argv: list[str], cache_dir: Path) -> tuple[int | None, str, str]:
    """Run one job as the CLI would; returns (exit code, rendered JSON, error)."""
    from whittaker.groups import CapExceeded
    from whittaker.reporting import EXIT_CAP, EXIT_INTERNAL
    from whittaker.whittaker_verify import IntegralityError

    full = [*argv, "--threads", "1", "--cache-dir", str(cache_dir), "--format", "json"]
    try:
        env = cli.run(cli.config_from_args(cli.build_parser().parse_args(full)))
        return env.exit_code, env.to_json(), ""
    except CapExceeded as exc:
        return EXIT_CAP, "", f"cap exceeded: {exc}"
    except IntegralityError as exc:
        return EXIT_INTERNAL, "", f"internal arithmetic fault: {exc}"
    except Exception:  # a crash is a failed job, not a crashed benchmark
        return None, "", traceback.format_exc(limit=3)


def check(code, rendered: str, error: str, expected: dict | None) -> str:
    """Empty when the job passed the gate, else the reason it failed."""
    if code != 0:
        return f"exit code {code}: {error.strip()[-300:]}"
    report = json.loads(rendered)
    if report.get("pass") is not True:
        return "report says pass: false"
    if expected is None:
        return "no expected report recorded for this job"
    if comparable(report) != expected:
        return "report differs from the expected one"
    return ""


def main(task: dict) -> dict:
    root = Path(task["root"])
    sys.path.insert(0, str(root / "src"))
    from whittaker import cli

    cache_dir = Path(task["cache_dir"])
    prepare_cache(cache_dir, task.get("template"))
    out: dict = {"setup_s": time.monotonic() - task["spawned_at"]}
    if task.get("setup_only"):
        return out

    tracer = None
    if task.get("trace"):
        import spans

        tracer = spans.Tracer(cache_dir)
        spans.install(tracer)
    expected_path = Path(__file__).with_name("expected.json")
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    jobs = []
    for argv in task["jobs"]:
        key = " ".join(argv)
        t0, c0 = time.perf_counter(), time.process_time()
        code, rendered, error = run_job(cli, argv, cache_dir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        reason = check(code, rendered, error, expected.get(key))
        jobs.append({"job": key, "exit_code": code, "wall_s": wall, "cpu_s": cpu,
                     "failure": reason})
        if task.get("record"):
            jobs[-1]["report"] = comparable(json.loads(rendered)) if rendered else None
    out["jobs"] = jobs
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from spans import layer_metrics

        out["layers"] = layer_metrics(tracer)
        if task.get("spans_out"):
            tracer.write_spans(Path(task["spans_out"]))
    import numpy

    out["numpy"] = numpy.__version__
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

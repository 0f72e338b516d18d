"""The benchmark binds every name it uses in `whittaker`.

`perfbench/spans.install` looks functions, methods and classes up by name,
and `perfbench/child.py` imports the exceptions and exit codes it maps a
job's failure to; a name that is renamed or deleted in `src/` must fail
here, not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import Tracer, install
install(Tracer(Path(sys.argv[3])))
"""


def test_tracer_install_binds_every_name(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_benchmark_child_imports_resolve():
    from whittaker.groups import CapExceeded
    from whittaker.reporting import EXIT_CAP, EXIT_INTERNAL
    from whittaker.whittaker_verify import IntegralityError

    assert issubclass(CapExceeded, Exception) and issubclass(IntegralityError, ArithmeticError)
    assert (EXIT_CAP, EXIT_INTERNAL) == (2, 3)

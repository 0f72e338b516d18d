"""Mutation audit of the checks in whittaker's source: is each one shown to fire?

Each `raise` of AssertionError, IntegralityError, NonRationalError,
ArithmeticError or OverflowError in the named files is replaced by `pass`,
one at a time, in a copy of the tree, and the default test suite (tier-1,
the slow tier deselected) runs on the copy with -x.  The mutant is killed
when some test fails, and survives when the suite still passes: then no test
makes that check fire.  CapExceeded, ValueError and TypeError sites are not
mutated.  Every survivor must be listed in ALLOWED with the reason no test
can reach it; the script prints one table row per site and exits 1 when a
survivor is not listed.

pytest does not collect this file (its name does not match test_*.py).  Run
it from the repository root:

    python tests/mutation_audit.py src/whittaker/chartab.py src/whittaker/cyclotomic.py

The mutants are made in a copy of the tree in a temporary directory, which
is removed on exit; the tree itself is never edited.  --tree audits another
checkout, for an older commit that has no copy of this script (for example
one unpacked by `git archive`).  Each mutant costs one suite run up to its
first failure; a survivor costs a whole one.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MUTATED = {"AssertionError", "IntegralityError", "NonRationalError", "ArithmeticError",
           "OverflowError"}
TIMEOUT = 900  # seconds per suite run; a mutant that hangs the suite counts as killed

# file:scope#n (the n-th mutated raise in that function or method) -> why no
# test can make it fire
ALLOWED = {
    "chartab.py:restriction_multiplicities#1":
        "theta_a takes p^l-th roots of unity (p-th over F_q[t]) and U holds "
        "I + E_12, of that order, or U is trivial (GL1); phi_x takes p-th roots "
        "on K^(l-1), which holds elements of order p: so the values lie in "
        "Q(zeta_e) by construction",
    "chartab.py:classify_regular#3":
        "a character restricted to the abelian normal K^(l-1) is a multiple of "
        "one G-orbit sum of characters phi_x (Clifford), and the type is an orbit "
        "invariant; a table wrong enough to spread one character over orbits of "
        "different types fails class_sums or the empty-support check first",
    "whittaker_verify.py:induced_dim#1":
        "spec.order() and unipotent_order are closed forms: |G| has the factor "
        "q^((l-1) d_g + n(n-1)/2), d_g = dim g >= n(n-1)/2, so |U| = q^(l n(n-1)/2) "
        "divides it for every family, n and ring",
    "whittaker_verify.py:induced_dim#2":
        "GroupTable asserts |G| rows and unipotent_subgroup asserts |U| ids, so the "
        "table's quotient is the closed-form one; the table argument stays because "
        "loading it puts the group key into the verify reports' cache_keys",
    "cyclotomic.py:_poly_divexact#1":
        "cyclotomic_poly divides x^m - 1 by Phi_d for d | m, d < m, which divide it "
        "exactly over Z",
    "cyclotomic.py:_poly_divexact#2": "as _poly_divexact#1",
    "cyclotomic.py:reduction_matrix#1":
        "the entries of x^j mod Phi_m stay far below 2^31 for every m the tests "
        "reach (m <= a few hundred)",
    "cyclotomic.py:root_of_unity#1":
        "r = 1 mod m makes F_r^x cyclic of order divisible by m, so some "
        "x = 2 .. r - 1 gives an element of order m; callers pass such r only",
}


def _name(exc: ast.expr | None) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def sites(path: Path) -> list[tuple[str, ast.Raise]]:
    """(key, node) of every mutated raise in the file, in source order."""
    found: list[tuple[str, ast.Raise]] = []
    counts: dict[str, int] = {}

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and _name(child.exc) in MUTATED:
                where = scope or "<module>"
                counts[where] = counts.get(where, 0) + 1
                found.append((f"{path.name}:{where}#{counts[where]}", child))
            walk(child, scope)

    walk(ast.parse(path.read_text()), "")
    return sorted(found, key=lambda site: site[1].lineno)


def mutate(source: str, node: ast.Raise) -> str:
    """The source with the raise statement replaced by `pass`; the lines it
    spanned stay, blank, so every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    lines[first] = (lines[first][:node.col_offset] + "pass"
                    + lines[last][node.end_col_offset:])
    for i in range(first + 1, last + 1):
        lines[i] = "\n"
    return "".join(lines)


def run_suite(root: Path) -> bool:
    """Whether tier-1 passes in the copy at root, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the tree")
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout to audit, for a commit without this script "
                             "(default: this repository)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as scratch:
        return audit(Path(args.tree), Path(scratch) / "tree", args.files)


def audit(tree: Path, copy: Path, files: list[str]) -> int:
    """Copy tree to copy, mutate each site of files there and print the table."""
    shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(
        ".git", ".perfbench", "__pycache__", ".pytest_cache"))
    if not run_suite(copy):
        print(f"the unmutated suite fails on {tree}", file=sys.stderr)
        return 2

    print("| site | line | check | result |\n|---|---|---|---|")
    unlisted, seen = [], set()
    for name in files:
        path = copy / name
        source = path.read_text()
        for key, node in sites(path):
            seen.add(key)
            path.write_text(mutate(source, node))
            start = time.perf_counter()
            try:
                killed = not run_suite(copy)
            finally:
                path.write_text(source)
            if killed:
                result = "killed"
            elif key in ALLOWED:
                result = "survived (allowed)"
            else:
                result = "SURVIVED"
                unlisted.append(key)
            head = " ".join(ast.get_source_segment(source, node).split())[:60]
            print(f"| `{key}` | {node.lineno} | `{head}` | {result} "
                  f"({time.perf_counter() - start:.0f} s) |", flush=True)
    audited = {name.rsplit("/", 1)[-1] for name in files}
    stale = [key for key in ALLOWED if key.split(":")[0] in audited and key not in seen]
    if stale:
        print(f"\nallow-list entries that match no site: {', '.join(stale)}")
    if unlisted:
        print(f"\nsurvivors not in the allow-list: {', '.join(unlisted)}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())

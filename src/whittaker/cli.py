"""Command-line driver: verification jobs with machine-readable reports.

Subcommands
-----------
verify          norm/dimension verdict for Ind_U^G(theta_a) at one group
gl2-sl2-tables  the six n = 2 count/dimension formulas and their identities
branching       GL -> SL restriction norms against the iota prediction
chartab         build, cache and summarize an exact character table
classes         build and summarize the conjugacy classes

Exit codes: 0 all checks pass, 1 a predicted/computed mismatch, 2 a size
cap was exceeded (the element-table gate of a ring among them), 3 an
internal fault (an exactness check failed, such as a cached table that
fails re-verification, or any other unexpected exception; one line on
stderr), 4 a usage error (a bad flag, group, ring or unit, an --out file
in a missing directory, a cache directory that is or lies below a file, or
l = 1 for a subcommand that needs l >= 2, rejected before any work).  A
mismatch is a result (the tool exists to falsify), not a crash.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .localring import CONWAY_POLYS, get_ring, parse_ring
from .groups import CapExceeded, GroupSpec, TABLE_CAP, unipotent_order
from .cyclotomic import IntegralityError
from .whittaker_verify import (induced_dim, induced_norm, predicted_dim_sum,
                               predicted_regular_count, predictions_supported,
                               sl2_printed_index)
from .chartab import CHARTAB_CAP, classify_regular, conjugacy_classes, restriction_norm
from .regular import iota
from .cache import (cached_char_table, cached_group_table, cached_irreducibles,
                    chartab_cache_key, default_cache_dir, group_cache_key)
from .reporting import EXIT_CAP, EXIT_INTERNAL, EXIT_USAGE, ReportEnvelope


@dataclass
class JobConfig:
    subcommand: str
    ring: str = "mixed:3^2"
    family: str = "GL"
    n: int = 2
    a_select: str = "1"
    table_cap: int = TABLE_CAP
    chartab_cap: int = CHARTAB_CAP
    cache_dir: str = ""
    no_cache: bool = False
    out: str = ""
    fmt: str = "text"
    timings: bool = False

    def __post_init__(self):
        if min(self.table_cap, self.chartab_cap) < 1:
            raise ValueError("caps must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    def group_spec(self) -> GroupSpec:
        return GroupSpec(self.family, self.n, parse_ring(self.ring))

    def cache_path(self) -> Path | None:
        if self.no_cache:
            return None
        return Path(self.cache_dir) if self.cache_dir else default_cache_dir()

    def selected_units(self, ring) -> list[int]:
        if self.a_select == "all":
            return ring.unit_codes()
        code = int(self.a_select)
        if not (0 <= code < ring.size and ring.is_unit(code)):
            raise ValueError(f"--a {code} is not a unit of {ring.desc.key()}")
        return [code]


def _envelope(cfg: JobConfig) -> ReportEnvelope:
    env = ReportEnvelope(tool_version=__version__, config=cfg.to_dict())
    desc = parse_ring(cfg.ring)
    env.provenance["ring"] = {
        "key": desc.key(),
        "modulus_polynomial": list(CONWAY_POLYS.get((desc.p, desc.f), (0, 1))),
    }
    env.provenance["cache_keys"] = []
    return env


def _maybe_table(spec: GroupSpec, cfg: JobConfig, env: ReportEnvelope):
    if spec.order() > cfg.table_cap:
        return None
    table = cached_group_table(spec, cfg.cache_path(), cfg.table_cap)
    env.provenance["cache_keys"].append(group_cache_key(spec))
    return table


def _chartab(spec: GroupSpec, cfg: JobConfig, env: ReportEnvelope):
    table = cached_group_table(spec, cfg.cache_path(), cfg.table_cap)
    ct = cached_char_table(table, cfg.cache_path(), cfg.chartab_cap)
    # classification reads the types of the monic polynomials of degree n
    cached_irreducibles(spec.ring.q, spec.n)
    env.provenance["cache_keys"].extend([group_cache_key(spec), chartab_cache_key(spec)])
    env.provenance.setdefault("dixon", {})[spec.key()] = {"e": ct.e, "r": ct.r}
    return ct


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: JobConfig) -> ReportEnvelope:
    """At each selected unit a: norm = regular count and dim = dimension sum
    = index, with one induced_norm call for all the units.  For SL with
    p | 2n the predictions are skipped (a note in the report)."""
    env = _envelope(cfg)
    spec = cfg.group_spec()
    ring = get_ring(spec.ring)
    units = cfg.selected_units(ring)

    def add(a, claim, *values, **flags):
        env.add(f"{claim}[a={a}]", claim, *values, **flags)

    dim = induced_dim(spec, _maybe_table(spec, cfg, env))
    supported = predictions_supported(spec)
    pdim = predicted_dim_sum(spec) if supported else None
    for a, norm in zip(units, induced_norm(spec, units)):
        add(a, "induced-norm-positive-and-bounded", f"1..{dim}", norm, 1 <= norm <= dim)
        if supported:
            add(a, "whittaker-norm-equals-regular-count",
                predicted_regular_count(spec, a), norm)
            add(a, "dimension-sum-equals-induced-dim", pdim, dim)
        else:
            add(a, "predictions-skipped-sl-bad-characteristic", None, None, True,
                informational=True)
        if spec.family == "SL" and spec.n == 2:
            printed = sl2_printed_index(ring.q, ring.ell)
            add(a, "sl2-printed-index-identity", printed, dim, printed == dim,
                informational=True)
    return env


# ---------------------------------------------------------------------------
# gl2-sl2-tables

TYPE_LABELS = ("cuspidal", "split-nss", "split-ss")


def gl2_formula_row(q: int, ell: int) -> tuple[dict, dict]:
    counts = {
        "cuspidal": (q - 1) * (q * q - 1) * q ** (2 * ell - 3) // 2,
        "split-nss": (q - 1) * q ** (2 * ell - 2),
        "split-ss": q ** (2 * ell - 3) * (q - 1) ** 3 // 2,
    }
    dims = {
        "cuspidal": q ** (ell - 1) * (q - 1),
        "split-nss": (q * q - 1) * q ** (ell - 2),
        "split-ss": q ** (ell - 1) * (q + 1),
    }
    return counts, dims


def sl2_formula_row(q: int, ell: int) -> tuple[dict, dict] | None:
    if q % 2 == 0:
        return None  # the sl_2 table assumes odd residue characteristic
    counts = {
        "cuspidal": (q * q - 1) * q ** (ell - 2) // 2,
        "split-nss": 4 * q ** (ell - 1),
        "split-ss": q ** (ell - 2) * (q - 1) ** 2 // 2,
    }
    dims = {
        "cuspidal": q ** (ell - 1) * (q - 1),
        "split-nss": (q * q - 1) * q ** (ell - 2) // 2,
        "split-ss": q ** (ell - 1) * (q + 1),
    }
    return counts, dims


def _classified_profile(ct) -> tuple[Counter, dict]:
    flags = classify_regular(ct)
    regs = [f for f in flags if f.regular]
    counts = Counter(f.label for f in regs)
    dims: dict[str, set] = {}
    for f in regs:
        dims.setdefault(f.label, set()).add(f.degree)
    return counts, dims


def cmd_tables(cfg: JobConfig) -> ReportEnvelope:
    env = _envelope(cfg)
    desc = parse_ring(cfg.ring)
    q, ell = desc.q, desc.ell

    gl_counts, gl_dims = gl2_formula_row(q, ell)
    gl_spec = GroupSpec("GL", 2, desc)
    gl_index = gl_spec.order() // unipotent_order(2, desc)
    gl_sum = sum(gl_counts[t] * gl_dims[t] for t in TYPE_LABELS)
    env.add("gl2-dimension-sum-identity", "gl2-regular-dimension-sum",
            (q * q - 1) * (q - 1) * q ** (3 * ell - 3), gl_sum)
    env.add("gl2-sum-equals-index", "gl2-regular-dimension-sum", gl_index, gl_sum)

    sl_row = sl2_formula_row(q, ell)
    sl_spec = GroupSpec("SL", 2, desc)
    sl_index = sl_spec.order() // unipotent_order(2, desc)
    if sl_row is not None:
        sl_counts, sl_dims = sl_row
        sl_sum = sum(sl_counts[t] * sl_dims[t] for t in TYPE_LABELS)
        env.add("sl2-dimension-sum-identity", "sl2-regular-dimension-sum",
                (q * q - 1) * (q + 1) * q ** (2 * ell - 3), sl_sum)
        env.add("sl2-sum-exceeds-index", "sl2-induced-is-proper-subset",
                True, sl_sum > sl_index)
    else:
        env.add("sl2-formula-row-not-applicable", "sl2-table-assumes-odd-q",
                None, None, True, informational=True)
    env.add("sl2-printed-index-identity", "sl2-printed-index-identity",
            sl2_printed_index(q, ell), sl_index,
            sl2_printed_index(q, ell) == sl_index, informational=True)

    # cross-check each cell against the character-table classification
    for family, spec, row in (("gl", gl_spec, (gl_counts, gl_dims)),
                              ("sl", sl_spec, sl_row)):
        if row is None:
            continue
        counts, dims = row
        if spec.order() > cfg.chartab_cap or spec.order() > cfg.table_cap:
            env.add(f"{family}2-chartab-crosscheck-skipped", "cap-exceeded-downgrade",
                    None, f"|G| = {spec.order()}", True, informational=True)
            continue
        ct = _chartab(spec, cfg, env)
        got_counts, got_dims = _classified_profile(ct)
        for t in TYPE_LABELS:
            env.add(f"{family}2-count-{t}", f"{family}2-regular-count-{t}",
                    counts[t], got_counts.get(t, 0))
            env.add(f"{family}2-dim-{t}", f"{family}2-regular-dimension-{t}",
                    [dims[t]], sorted(got_dims.get(t, set())),
                    got_dims.get(t, set()) == {dims[t]})
    return env


# ---------------------------------------------------------------------------
# branching


def cmd_branching(cfg: JobConfig) -> ReportEnvelope:
    env = _envelope(cfg)
    desc = parse_ring(cfg.ring)
    n = cfg.n
    sl_spec = GroupSpec("SL", n, desc)
    ct = _chartab(GroupSpec("GL", n, desc), cfg, env)
    regs = [f for f in classify_regular(ct) if f.regular]
    by_label: dict[str, list] = {}
    for f in regs:
        by_label.setdefault(f.label, []).append(f)
    # one restriction_norm block per label keeps each (T, C, e) summand small
    norms = {label: restriction_norm(ct, [f.index for f in fs]).tolist()
             for label, fs in by_label.items()}
    top = max(max(got) for got in norms.values())
    env.add("branching-norm-at-most-n", "restriction-constituent-bound",
            f"<= {n}", top, top <= n)
    assert_iota = predictions_supported(sl_spec)
    for label, fs in sorted(by_label.items()):
        got = set(norms[label])
        tau = fs[0].tau
        if assert_iota:
            env.add(f"branching-iota-{label}", "restriction-norm-equals-iota",
                    [iota(tau, desc.q - 1)], sorted(got),
                    got == {iota(tau, desc.q - 1)})
        else:
            env.add(f"branching-norms-{label}", "restriction-norms-observed",
                    None, sorted(got), True, informational=True)
    env.add("branching-regular-count", "gl-regular-count", len(regs), len(regs))
    return env


# ---------------------------------------------------------------------------
# chartab / classes


def cmd_chartab(cfg: JobConfig) -> ReportEnvelope:
    env = _envelope(cfg)
    spec = cfg.group_spec()
    ct = _chartab(spec, cfg, env)
    if ct.loaded:  # a table built in this run was verified as it was built
        ct.verify()
    env.add("class-count", "conjugacy-class-count", ct.k, ct.k)
    env.add("sum-degree-squares", "character-completeness",
            len(ct.table), int(np.sum(ct.degrees**2)))
    env.add("orthogonality-exact", "character-orthogonality", True, True)
    env.provenance["degrees"] = sorted(int(d) for d in ct.degrees)
    return env


def cmd_classes(cfg: JobConfig) -> ReportEnvelope:
    env = _envelope(cfg)
    spec = cfg.group_spec()
    table = cached_group_table(spec, cfg.cache_path(), cfg.table_cap)
    env.provenance["cache_keys"].append(group_cache_key(spec))
    cd = conjugacy_classes(table)
    env.add("class-partition", "class-sizes-sum-to-order",
            len(table), int(cd.sizes.sum()))
    env.add("class-count", "conjugacy-class-count", cd.k, cd.k)
    env.provenance["class_sizes"] = sorted(int(s) for s in cd.sizes)
    return env


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "verify": cmd_verify,
    "gl2-sl2-tables": cmd_tables,
    "branching": cmd_branching,
    "chartab": cmd_chartab,
    "classes": cmd_classes,
}


class _Parser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):  # a usage error, not argparse's 2 (the cap code)
        super().exit(status and EXIT_USAGE, message)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: they all take the same options."""
    parser = _Parser(
        prog="whittaker",
        description="Exact verification of Whittaker-model multiplicity, "
                    "counting and branching identities over finite local rings.",
    )
    parser.add_argument("subcommand", choices=tuple(COMMANDS))
    parser.add_argument("--group", default="GL2",
                        help="group family and rank, e.g. GL2, SL3")
    parser.add_argument("--ring", default="mixed:3^2",
                        help="ring descriptor: mixed:p^l or equal:q^l")
    parser.add_argument("--a", dest="a_select", default="1",
                        help="unit twist code, or 'all'")
    parser.add_argument("--all-units", dest="a_select", action="store_const",
                        const="all", help="shorthand for --a all")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: kept so that existing command lines still parse")
    parser.add_argument("--table-cap", type=int, default=TABLE_CAP)
    parser.add_argument("--chartab-cap", type=int, default=CHARTAB_CAP)
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--out", default="", help="also write the report to a file")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    parser.add_argument("--timings", action="store_true",
                        help="record wall times (breaks byte-level determinism)")
    return parser


def parse_group(text: str) -> tuple[str, int]:
    fam = text[:2].upper()
    if fam not in ("GL", "SL") or not text[2:].isdigit():
        raise ValueError(f"bad group {text!r}, expected e.g. GL2 or SL3")
    return fam, int(text[2:])


def config_from_args(args: argparse.Namespace) -> JobConfig:
    """ValueError on a bad group, ring, unit, count or path, before any work."""
    family, n = parse_group(args.group)
    if args.threads < 1:
        raise ValueError("--threads must be positive")
    cfg = JobConfig(
        subcommand=args.subcommand,
        ring=args.ring,
        family=family,
        n=n,
        a_select=args.a_select,
        table_cap=args.table_cap,
        chartab_cap=args.chartab_cap,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        out=args.out,
        fmt=args.fmt,
        timings=args.timings,
    )
    spec = cfg.group_spec()
    cfg.selected_units(get_ring(spec.ring))
    out = Path(cfg.out).resolve()  # through any link, to the file written
    if cfg.out and (out.is_dir() or not out.parent.is_dir()):
        raise ValueError(f"--out {cfg.out} is not a file in an existing directory")
    cache = cfg.cache_path()  # made on the first write, below its nearest existing ancestor
    base = cache and next(p for p in (cache, *cache.parents) if p.exists())
    if base and not base.is_dir():
        raise ValueError(f"cache directory {cache}: {base} is not a directory")
    # the regular classification and the verify predictions need l >= 2
    needs_level_two = cfg.subcommand in ("gl2-sl2-tables", "branching") or (
        cfg.subcommand == "verify" and predictions_supported(spec))
    if spec.ring.ell == 1 and needs_level_two:
        raise ValueError(f"{cfg.subcommand} on {spec.key()} needs l >= 2")
    return cfg


def run(cfg: JobConfig) -> ReportEnvelope:
    """Run one subcommand; under --timings, its wall time is the one entry
    of the report's timings, keyed by the subcommand."""
    t0 = time.perf_counter()
    env = COMMANDS[cfg.subcommand](cfg)
    if cfg.timings:
        env.timings[cfg.subcommand] = time.perf_counter() - t0
    return env


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:  # --all-units lists the units of a ring above the gate
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    try:
        env = run(cfg)
        rendered = env.to_text() if cfg.fmt == "text" else env.to_json()
        sys.stdout.write(rendered)
        if cfg.out:
            Path(cfg.out).write_text(rendered)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except IntegralityError as exc:
        print(f"internal arithmetic fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash must not read as a mismatch (exit 1)
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return env.exit_code


if __name__ == "__main__":
    sys.exit(main())

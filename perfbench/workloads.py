"""The benchmark's workloads: fixed lists of `whittaker` CLI jobs.

A job is the argument list of one CLI call, without `--threads` and
`--cache-dir`, which the child process appends.  A workload's jobs run one at
a time (a closed loop) in one fresh interpreter per pass.  A `warm` workload
runs against a copy of a cache that its own job list filled once; the others
start from an empty cache directory.  The seed picks the twist units of the
seeded `verify` jobs and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def unit_codes(q: int, ell: int) -> list[int]:
    """Codes of the units of a local ring of length `ell` with residue field
    size `q`: the codes that are nonzero mod q (the ring's own rule)."""
    return [a for a in range(q ** ell) if a % q]


def _verify(group: str, ring: str, a: int | None = None) -> list[str]:
    unit = ["--all-units"] if a is None else ["--a", str(a)]
    return ["verify", "--group", group, "--ring", ring, *unit]


# Each workload's pass takes about 1.5-2 s here, so a 40 s run holds twenty
# passes and a job's median over them is steady on a shared host.
COLD_TABLE_JOBS = [
    # group build, class sweep, class matrices, Dixon-Schneider, verify and
    # cache writes for GL2(Z/8); branching then reads the table back
    ["chartab", "--group", "GL2", "--ring", "mixed:2^3"],
    ["branching", "--group", "GL2", "--ring", "mixed:2^3"],
    # odd q: the cap skips the GL2(Z/9) cross-check and builds SL2(Z/9)
    ["gl2-sl2-tables", "--ring", "mixed:3^2", "--chartab-cap", "1000"],
    # odd level: formula rows and the cap downgrade of both cross-checks
    ["gl2-sl2-tables", "--ring", "mixed:3^3", "--chartab-cap", "1000"],
]

# (group, ring, residue field size) of the verify jobs at one seeded unit:
# GL2(Z/25) is above TABLE_CAP, so streamed; SL3(Z/4) is tabulated, n = 3;
# SL2(F5[t]/t^2) is equal-characteristic arithmetic
SEEDED_VERIFY = [("GL2", "mixed:5^2", 5), ("SL3", "mixed:2^2", 2), ("SL2", "equal:5^2", 5)]


def _verify_norm(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        *(_verify(group, ring, rng.choice(unit_codes(q, 2)))
          for group, ring, q in SEEDED_VERIFY),
        _verify("GL2", "mixed:3^2"),  # the paper's 54/432 verdict
        _verify("GL2", "mixed:2^3"),  # odd level, 32/192
    ]


def _tables_warm(seed: int) -> list[list[str]]:
    return [
        ["gl2-sl2-tables", "--ring", "mixed:3^2"],
        ["branching", "--group", "GL2", "--ring", "mixed:3^2"],
        # the SL2(Z/27) table at odd level, loaded from the warm cache
        ["gl2-sl2-tables", "--ring", "mixed:3^3"],
        ["branching", "--group", "GL2", "--ring", "equal:3^2"],
        # the exact orthogonality check on a loaded table
        ["chartab", "--group", "GL2", "--ring", "mixed:2^3"],
    ]


def _smoke(seed: int) -> list[list[str]]:
    a = random.Random(seed).choice(unit_codes(3, 2))
    return [_verify("GL2", "mixed:2^2"), _verify("GL2", "mixed:3^2", a)]


@dataclass(frozen=True)
class Workload:
    warm: bool
    jobs: Callable[[int], list[list[str]]]
    # every seeded variant of the job list, for recording expected reports
    all_jobs: Callable[[], list[list[str]]]


WORKLOADS = {
    "verify-norm": Workload(
        warm=True,
        jobs=_verify_norm,
        all_jobs=lambda: [
            *(_verify(group, ring, a)
              for group, ring, q in SEEDED_VERIFY for a in unit_codes(q, 2)),
            *(j for j in _verify_norm(0) if "--a" not in j),
        ],
    ),
    "tables-cold": Workload(warm=False, jobs=lambda seed: list(COLD_TABLE_JOBS),
                            all_jobs=lambda: list(COLD_TABLE_JOBS)),
    "tables-warm": Workload(warm=True, jobs=_tables_warm,
                            all_jobs=lambda: _tables_warm(0)),
    # a sub-second workload for the self-test; not listed in BENCHMARK.json
    "smoke": Workload(
        warm=False,
        jobs=_smoke,
        all_jobs=lambda: [_verify("GL2", "mixed:2^2"),
                          *(_verify("GL2", "mixed:3^2", a) for a in unit_codes(3, 2))],
    ),
}

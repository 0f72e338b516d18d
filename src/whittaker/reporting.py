"""Report envelopes: the machine- and human-readable verification records.

Every command produces one envelope: tool version, an echo of the parsed
configuration, a flat list of check records (each naming the claim it
verifies, the predicted and computed values, and a pass flag), optional
timings, and cache/ring provenance.  Envelopes serialize to stable JSON
(sorted keys) so repeat runs with a warm cache are byte-identical; wall
times are only filled in when explicitly requested.  The JSON schema of
an envelope is the packaged file report-v1.schema.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REPORT_SCHEMA_ID = "report/v1"

SCHEMA_PATH = Path(__file__).with_name("report-v1.schema.json")


def __getattr__(name: str):
    # REPORT_SCHEMA is read from the packaged file on access, so importing
    # this module opens no file
    if name == "REPORT_SCHEMA":
        return json.loads(SCHEMA_PATH.read_text())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 4


@dataclass
class CheckEntry:
    name: str
    claim: str
    predicted: object
    computed: object
    passed: bool
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "predicted": self.predicted,
            "computed": self.computed,
            "pass": self.passed,
            "informational": self.informational,
        }


@dataclass
class ReportEnvelope:
    tool_version: str
    config: dict
    checks: list[CheckEntry] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add(self, name: str, claim: str, predicted, computed,
            passed: bool | None = None, informational: bool = False) -> CheckEntry:
        if passed is None:
            passed = predicted == computed
        entry = CheckEntry(name, claim, predicted, computed, passed, informational)
        self.checks.append(entry)
        return entry

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    @property
    def exit_code(self) -> int:
        return EXIT_PASS if self.passed else EXIT_MISMATCH

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA_ID,
            "tool": {"name": "whittaker", "version": self.tool_version},
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "timings": self.timings,
            "provenance": self.provenance,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str) + "\n"

    def to_text(self) -> str:
        lines = [f"whittaker {REPORT_SCHEMA_ID} (tool {self.tool_version})"]
        cfg = json.dumps(self.config, sort_keys=True, default=str)
        lines.append(f"config: {cfg}")
        for c in self.checks:
            tag = "note" if c.informational else ("PASS" if c.passed else "FAIL")
            lines.append(
                f"[{tag}] {c.name}: predicted={c.predicted} computed={c.computed}"
                + ("" if c.passed else "   <-- mismatch")
            )
        for key, val in sorted(self.timings.items()):
            lines.append(f"time {key}: {val:.3f}s" if isinstance(val, float)
                         else f"time {key}: {val}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

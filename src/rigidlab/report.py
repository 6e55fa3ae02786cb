"""Check-report schema: typed entries, verdict logic, deterministic JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CheckEntry", "Report", "SCHEMA"]

SCHEMA = "rigidlab-report/1"

KINDS = ("identity", "inequality", "kernel", "condition")
VERDICTS = ("pass", "fail", "skip", "indeterminate")


@dataclass
class CheckEntry:
    """One verified statement: a named residual or value against its
    tolerance, tagged with the module it came from and the mathematical
    claim it checks."""

    name: str
    kind: str
    value: float
    tolerance: Optional[float]
    verdict: str
    module: str
    claim: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "indeterminate" and self.kind != "kernel":
            raise ValueError("'indeterminate' is reserved for kernel checks")

    @classmethod
    def residual(cls, name, value, tolerance, module, claim, kind="identity",
                 skip=False, **metadata):
        if skip:
            verdict = "skip"
        else:
            verdict = "pass" if float(value) <= float(tolerance) else "fail"
        return cls(name=name, kind=kind, value=float(value),
                   tolerance=float(tolerance), verdict=verdict,
                   module=module, claim=claim, metadata=dict(metadata))

    @classmethod
    def condition(cls, name, ok, value, module, claim, skip=False,
                  **metadata):
        verdict = "skip" if skip else "pass" if ok else "fail"
        return cls(name=name, kind="condition", value=float(value),
                   tolerance=None, verdict=verdict,
                   module=module, claim=claim, metadata=dict(metadata))

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "value": _num(self.value),
            "tolerance": None if self.tolerance is None else _num(self.tolerance),
            "verdict": self.verdict,
            "module": self.module,
            "claim": self.claim,
            "metadata": {k: _num(v) for k, v in sorted(self.metadata.items())},
        }


def _num(v):
    if isinstance(v, float):
        if v != v:
            return "nan"
        if v in (float("inf"), float("-inf")):
            return repr(v)
        return v
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_num(x) for x in v]
    return float(v)


@dataclass
class Report:
    command: str
    seed: int
    inputs: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def add(self, entry):
        self.entries.append(entry)
        return entry

    def summary(self):
        out = {v: 0 for v in VERDICTS}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    def exit_code(self):
        s = self.summary()
        if s["fail"]:
            return 2
        if s["indeterminate"]:
            return 3
        return 0

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "inputs": {k: _num(v) for k, v in sorted(self.inputs.items())},
            "checks": [e.to_dict() for e in self.entries],
            "summary": self.summary(),
        }

    def to_json(self):
        """Canonical JSON: sorted keys, fixed separators, repr floats;
        byte-stable across runs with identical inputs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

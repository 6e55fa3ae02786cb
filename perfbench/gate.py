"""Correctness gate: compare one case execution with the outcome its
workload generator expects by construction.

An outcome is what the worker observed::

    {"exit": 0, "error": None, "sha256": "...",
     "checks": [{"name": ..., "kind": ..., "verdict": ...}, ...],
     "kernel": {"verdict": "certified-rigid", "dimension": 6},
     "route": "dense"}

``route`` is only known in a traced run and ``kernel`` only for
``flex-kernel``.  The gate never compares floats: residuals are turned into
verdicts by the program (or by the worker for library calls), and the gate
checks verdicts, exit codes and kernel dimensions.  Report hashes are
recorded elsewhere and never count as a failure.
"""

from __future__ import annotations

__all__ = ["mismatches"]


def mismatches(expect, outcome):
    """List of human-readable mismatches; empty means the case passed."""
    if outcome.get("error"):
        return [f"raised: {outcome['error']}"]
    found = []
    if "exit" in expect and outcome.get("exit") != expect["exit"]:
        found.append(f"exit {outcome.get('exit')} != {expect['exit']}")

    verdicts = {c["name"]: c for c in outcome.get("checks", [])}
    listed = expect.get("checks", {})
    for name, want in listed.items():
        got = verdicts.get(name, {}).get("verdict")
        if got != want:
            found.append(f"check {name}: {got} != {want}")
    if expect.get("identities") == "pass":
        for name, check in verdicts.items():
            if (check.get("kind") == "identity" and name not in listed
                    and check.get("verdict") != "pass"):
                found.append(f"identity {name}: {check.get('verdict')}")

    if "kernel" in expect:
        got = outcome.get("kernel") or {}
        for key in ("verdict", "dimension"):
            if got.get(key) != expect["kernel"][key]:
                found.append(f"kernel {key}: {got.get(key)} != "
                             f"{expect['kernel'][key]}")
    route = outcome.get("route")
    if "route" in expect and route is not None and route != expect["route"]:
        found.append(f"route {route} != {expect['route']}")
    return found

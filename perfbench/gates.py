"""Correctness gates: every workload process must pass its gate, or it counts
as failed toward the benchmark's error rate.

Each gate returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from chemoflux.diagnostics import read_csv, weak_class_check
from chemoflux.grid import load_field
from chemoflux.ledger import build_ledger

from workloads import GATE_LIMITS


def guard_failures(limits: dict, guards: dict) -> list[str]:
    """Per-step invariants of the run against the workload's limits."""
    return [f"{key} {guards[key]:.3e} exceeds {limit:.0e}"
            for key, limit in limits.items()
            if not guards[key] <= limit]


def record_failures(records, params) -> list[str]:
    """The CSV record stream: nonnegative n and c, weak-class structure."""
    failures = [f"negative {name} {getattr(r, name):.3e} at t={r.t}"
                for r in records for name in ("min_n", "min_c")
                if not getattr(r, name) >= 0.0]
    rep = weak_class_check(records, params)
    failures.extend(f"weak class check: {f}" for f in rep.failures)
    return failures


def snapshot_failures(out_dir: Path, state) -> list[str]:
    """The last snapshot round reads back bit-identical to the final state."""
    tags = sorted(p.stem[2:] for p in out_dir.glob("n_*.f64"))
    if not tags:
        return ["no snapshot written"]
    tag = tags[-1]
    spec = state.n.domain
    fields = {"n": state.n.data, "c": state.c.data, "p": state.p.data}
    fields.update((f"u{d}", state.u.data[d]) for d in range(spec.dim))
    failures = []
    for name, want in fields.items():
        got = load_field(out_dir / f"{name}_{tag}", spec)[0].data
        if not np.array_equal(got, want):
            failures.append(f"snapshot {name}_{tag} does not round-trip")
    return failures


def solver_failures(workload: str, result, csv_path: Path) -> list[str]:
    """Gate of a solver workload, given the RunResult of its process."""
    failures = guard_failures(GATE_LIMITS[workload], result.guards)
    records, _ = read_csv(csv_path)
    failures += record_failures(records, result.params)
    if workload == "sampled2d":
        failures += snapshot_failures(csv_path.parent, result.state)
    return failures


def ledger_failures(stdout: str) -> list[str]:
    """Every catalog entry reports PASS in the scan output."""
    ids = [e.id for e in build_ledger()]
    verdicts = {}
    for line in stdout.splitlines():
        words = line.split()
        if words and words[0] in ids:
            verdicts[words[0]] = words[-1]
    return [f"ledger entry {i}: {verdicts.get(i, 'missing')}"
            for i in ids if verdicts.get(i) != "PASS"]

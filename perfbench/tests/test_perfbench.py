"""Tests of the benchmark itself: seeding, gates, and the declared metrics.

    python3 -m pytest perfbench/tests

The solver workloads are shortened here (t_final cut) so that each worker
process takes about a second; the code paths are the benchmark's own.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibration
import gates
import run
import spans
from chemoflux.diagnostics import DiagnosticsRecord
from chemoflux.model import DomainSpec, SimParams
from workloads import GATE_LIMITS, solver_config

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


@pytest.fixture
def short_runs(monkeypatch):
    """Solver configs cut to a few steps."""
    def short_config(workload, seed):
        cfg = solver_config(workload, seed)
        cfg["params"]["t_final"] = cfg["output"]["sample_interval"] * 4 \
            if workload == "sampled2d" else 0.002
        return cfg
    monkeypatch.setattr(run, "solver_config", short_config)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# seeding

def test_same_seed_same_csv_and_other_seed_differs(short_runs):
    a = run.launch("periodic3d", 7, False, "test-seed-a", 120)
    b = run.launch("periodic3d", 7, False, "test-seed-b", 120)
    c = run.launch("periodic3d", 8, False, "test-seed-c", 120)
    for p in (a, b, c):
        assert p["failures"] == []
    assert a["csv_sha256"] == b["csv_sha256"]
    assert a["csv_sha256"] != c["csv_sha256"]


def test_seed_only_feeds_the_perturbation():
    one, two = solver_config("walled3d", 1), solver_config("walled3d", 2)
    assert one["initial"].pop("perturb") != two["initial"].pop("perturb")
    assert one == two


# ---------------------------------------------------------------------------
# gates

def _record(**changes) -> DiagnosticsRecord:
    values = {name: 1.0 for name in DiagnosticsRecord.__dataclass_fields__}
    values.update(t=0.0, min_n=0.0, min_c=0.0)
    values.update(changes)
    return DiagnosticsRecord(**values)


def _params() -> SimParams:
    return SimParams(domain=DomainSpec(1, "periodic", (1.0,), (8,)),
                     alpha=0.5, tau=0, rho=0.01, t_final=1.0)


def test_broken_guards_fail_the_gate():
    good = {"mass_drift": 0.0, "max_div_residual": 1e-15,
            "max_c_increase": 0.0}
    assert gates.guard_failures(GATE_LIMITS["periodic3d"], good) == []
    for key, bad in (("mass_drift", 1e-9), ("max_div_residual", 1e-6),
                     ("max_c_increase", 1e-3), ("mass_drift", float("nan"))):
        failures = gates.guard_failures(GATE_LIMITS["periodic3d"],
                                        {**good, key: bad})
        assert len(failures) == 1 and key in failures[0]


def test_broken_records_fail_the_gate():
    records = [_record(), _record(t=0.1)]
    assert gates.record_failures(records, _params()) == []
    assert gates.record_failures([_record(), _record(t=0.1, min_n=-1e-3)],
                                 _params())
    assert gates.record_failures([_record(), _record(t=0.1, mass=2.0)],
                                 _params())


def test_ledger_gate_needs_every_entry_to_pass():
    from chemoflux.ledger import build_ledger
    ids = [e.id for e in build_ledger()]
    good = "\n".join(f"{i:32s} interior 10 failures 0  PASS" for i in ids)
    assert gates.ledger_failures(good) == []
    broken = good.replace(f"{ids[3]:32s} interior 10 failures 0  PASS",
                          f"{ids[3]:32s} interior 10 failures 2  FAIL")
    assert gates.ledger_failures(broken) == [f"ledger entry {ids[3]}: FAIL"]
    assert gates.ledger_failures("\n".join(good.splitlines()[1:]))


def test_failed_process_counts_toward_error_rate(short_runs, monkeypatch, capsys):
    def broken_config(workload, seed):
        cfg = solver_config(workload, seed)
        cfg["params"]["alpha"] = -1.0          # chemoflux rejects: exit 2
        return cfg
    monkeypatch.setattr(run, "solver_config", broken_config)
    assert run.main(["--workload", "walled3d", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    out = _last_json(capsys.readouterr().out)
    assert out["correct"] is False
    assert out["attempted"] == out["failed"] == 1


def test_differing_csv_counts_as_failure():
    ref = {"run_id": "a", "csv_sha256": "0" * 64, "failures": []}
    same = {"run_id": "b", "csv_sha256": "0" * 64, "failures": []}
    other = {"run_id": "c", "csv_sha256": "1" * 64, "failures": []}
    run.check_same_csv(ref, [same, other])
    assert same["failures"] == [] and len(other["failures"]) == 1


# ---------------------------------------------------------------------------
# metrics

def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_declared(short_runs, capsys, trace, kind):
    assert run.main(["--workload", "sampled2d", "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    out = _last_json(capsys.readouterr().out)
    assert out["correct"] is True and out["failed"] == 0
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    assert emitted == _declared(kind)


def test_ledger_end_to_end_metrics_are_declared():
    proc = {"t_spawn": 0.0, "setup_marks": [0.5], "marks": [0.6, 0.7, 0.9],
            "t_end": 1.0, "rss_kb": 2048,
            "calibration": [calibration.REFERENCE_S["exact"]]}
    values = run.end_to_end("ledger-scan", [proc])
    assert set(run.END_TO_END_UNITS) == set(_declared("end_to_end"))
    assert set(values) == set(run.END_TO_END_UNITS) | set(run.INFORMATIONAL_UNITS)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["run_s"] == pytest.approx(0.5)


def test_times_are_scaled_to_the_reference_speed():
    ref = calibration.REFERENCE_S["numeric"]

    def proc(spawn, ready, end, gauge):
        return {"t_spawn": spawn, "marks": [ready, ready + 1.0], "t_end": end,
                "rss_kb": 1024, "calibration": gauge}
    # half, full and quarter speed; a preempted piece (50x) is clipped
    procs = [proc(0.0, 1.0, 5.0, [2 * ref, 2 * ref, 2 * ref]),
             proc(10.0, 10.5, 13.5, [ref, ref, 50 * ref, ref, ref, ref]),
             proc(20.0, 22.0, 30.0, [4 * ref])]
    values = run.end_to_end("periodic3d", procs)
    assert values["measured_setup_s"] == 1.0 and values["measured_run_s"] == 4.0
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["run_s"] == pytest.approx(2.0)
    assert values["ms_per_step"] == pytest.approx(1000.0)
    assert calibration.mean_piece(procs[1]["calibration"]) == pytest.approx(
        8 * ref / 6)


def test_differing_step_count_counts_as_failure():
    ref = {"run_id": "a", "marks": [1, 2], "failures": []}
    fewer = {"run_id": "b", "marks": [1], "failures": []}
    run.check_same_steps(ref, [fewer])
    assert len(fewer["failures"]) == 1


def test_every_per_layer_metric_names_what_it_moves():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    e2e = set(_declared("end_to_end"))
    assert set(LAYERS["per_layer"]) == set(_declared("per_layer"))
    for name, entry in LAYERS["per_layer"].items():
        for metric, workload in entry["moves"] + entry["unchanged"]:
            assert metric in e2e and workload in workloads, name


def test_self_time_excludes_wrapped_children(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    monkeypatch.setattr(spans, "clock", lambda: next(ticks))
    tracer = spans.Tracer("t")
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    summary = spans.summarize(tracer.dump())
    assert summary["inner"]["calls"] == 2 and summary["inner"]["s"] == 2.0
    assert summary["outer"]["s"] == 10.0 and summary["outer"]["self_s"] == 8.0

"""chemoflux benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is periodic3d, walled3d, sampled2d, ledger-scan, or all (each in turn,
each with its own result line).  Run from the root of a checkout.  The
workload's input is generated from the seed, and the workload process
(perfbench/worker.py, one FFT worker, one BLAS thread) is started again and
again, one at a time, on that same input until the seconds are used.  Each
process must pass its correctness gate, and all of them must write the same
diagnostics CSV (checked by sha256); a process that does not counts as
failed.

--trace 0 reports the end-to-end metrics, medians over the processes scaled
to a reference machine speed by a calibration kernel (see end_to_end), and
prints the times as measured, the step-interval percentiles and the error
rate.
--trace 1 runs pairs of an untraced and a traced process on the same input
and reports the per-layer metrics of the traced ones, medians over the
pairs, with the tracing overhead; a traced process must write the untraced
one's CSV bytes.

The last line of standard output (of each workload's block) is one JSON
object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import calibration
from spans import clock, summarize
from workloads import WORKLOADS, is_solver, solver_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PROCESS_TIMEOUT_S = 150.0
# Single-threaded numerics: the benchmark measures one FFT worker and keeps
# BLAS from competing for the two cores.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# Successive workload processes are pinned to these CPUs in turn, each with
# the calibration gauge on its CPU (see end_to_end).  On a shared host each
# CPU has slow spells of its own, little correlated between the two CPUs
# here, so taking turns spreads the repeats over both.
CPUS = sorted(os.sched_getaffinity(0))

# The eleven ledger entries with a p-window, timed one by one.
P_WINDOW_ENTRIES = (
    "moser-high-windows", "moser-high-gn-interp", "moser-high-interp-window",
    "moser-window", "moser-window-gn-theta1", "moser-window-gn-theta2",
    "moser-window-gn-theta3", "moser-window-gn-theta4",
    "moser-window-gn-theta5", "moser-low-r1-range", "moser-low-p0-tail",
)

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "ms_per_step": "ms", "peak_rss_mb": "MB",
}
# Printed, not gated: the times as measured, before scaling to the reference
# speed (see end_to_end), and the step-interval percentiles.  Both follow the
# machine's slow spells: run-to-run spreads (IQR/median over 10 seeds) of
# 0.07-0.24 for measured_run_s and up to 0.41 for the percentiles, against
# 0.03-0.06 for run_s.
INFORMATIONAL_UNITS = {"measured_setup_s": "s", "measured_run_s": "s",
                       "calibration_ms": "ms", "iter_ms_p50": "ms",
                       "iter_ms_p95": "ms"}


# ---------------------------------------------------------------------------
# one workload process

def gauge_kernel(workload: str) -> str:
    """The calibration kernel that gauges a workload's CPU."""
    return "numeric" if is_solver(workload) else "exact"


def _run_gauged(cmd: list[str], stderr_path: Path, timeout: float,
                cpu: int | None, piece) -> tuple[int, list[float]]:
    """Run `cmd` (pinned to `cpu` if given) to its end; meanwhile, every
    calibration.INTERVAL_S, time one `piece()` on the same CPU.  Returns the
    exit code and the piece times."""
    own = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})      # the child inherits it
    samples: list[float] = []
    try:
        with open(stderr_path, "w", encoding="utf-8") as err:
            child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=err, env={**os.environ, **CHILD_ENV})
            try:
                deadline = clock() + timeout
                while True:
                    try:
                        child.wait(timeout=calibration.INTERVAL_S)
                        break
                    except subprocess.TimeoutExpired:
                        if clock() > deadline:
                            raise
                    samples.append(piece())
            finally:
                if child.poll() is None:
                    child.kill()
                child.wait()
        if not samples:                     # a very short process
            samples.append(piece())
    finally:
        os.sched_setaffinity(0, own)
    return child.returncode, samples


def launch(workload: str, seed: int, trace: bool, run_id: str,
           timeout: float, cpu: int | None = None) -> dict:
    """Start one worker (pinned to `cpu` if given), wait for it, and collect
    what it reported and the calibration pieces timed meanwhile."""
    run_dir = WORK / run_id
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--out", str(run_dir), "--trace", str(int(trace)),
           "--run-id", run_id]
    if is_solver(workload):
        config = run_dir / "config.json"
        config.write_text(json.dumps(solver_config(workload, seed)),
                          encoding="utf-8")
        cmd += ["--config", str(config)]
    proc = {"run_id": run_id, "trace": trace, "failures": []}
    try:
        proc["t_spawn"] = clock()
        rc, proc["calibration"] = _run_gauged(
            cmd, run_dir / "stderr.txt", timeout, cpu,
            calibration.PIECES[gauge_kernel(workload)])
        result_path = run_dir / "result.json"
        if rc != 0 or not result_path.exists():
            tail = (run_dir / "stderr.txt").read_text(
                encoding="utf-8", errors="replace").strip().splitlines()[-5:]
            proc["failures"].append(
                f"worker exited with {rc}: " + " | ".join(tail))
            return proc
        proc.update(json.loads(result_path.read_text(encoding="utf-8")))
        if trace:
            proc["summary"] = summarize(json.loads(
                (run_dir / "spans.json").read_text(encoding="utf-8")))
    except subprocess.TimeoutExpired:
        proc["failures"].append(f"worker timed out after {timeout:.0f}s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc


def check_same_csv(reference: dict, procs: list[dict]) -> None:
    """Same input, same bytes: mark processes whose CSV differs as failed."""
    want = reference.get("csv_sha256")
    for proc in procs:
        if proc.get("csv_sha256") != want:
            proc["failures"].append(
                f"CSV sha256 {proc.get('csv_sha256')} differs from "
                f"{reference['run_id']}'s {want}")


def check_same_steps(reference: dict, procs: list[dict]) -> None:
    """Same input, same steps: mark processes whose step count differs."""
    want = len(reference.get("marks", ()))
    for proc in procs:
        if len(proc.get("marks", ())) != want:
            proc["failures"].append(
                f"{len(proc.get('marks', ()))} steps, not "
                f"{reference['run_id']}'s {want}")


# ---------------------------------------------------------------------------
# metrics

def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) cuts it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _intervals(workload: str, proc: dict) -> list[float]:
    """A process's step intervals in ms: solver, from one `step` entry to
    the next; ledger, one catalog entry's scan, closed by the next entry or
    by the return of main."""
    if is_solver(workload):
        points = proc["marks"]
    else:
        points = proc["marks"] + [proc["t_end"]]
    return [1e3 * (b - a) for a, b in zip(points, points[1:])]


def end_to_end(workload: str, procs: list[dict]) -> dict:
    """setup_s, run_s, ms_per_step and peak_rss_mb over the processes, the
    times behind them as measured, and percentiles of the step intervals.

    A process's set-up runs from its spawn to the first `step` entry (ledger:
    until the catalog is built), and its run from there to the return of
    main.  The machine is shared, and each CPU's speed swings by up to 2x in
    spells of seconds to hours.  So each process's times are scaled by the
    calibration kernel's REFERENCE_S over the mean time of its pieces timed
    on the process's CPU while it ran (see calibration), and setup_s and run_s
    are the medians of the scaled times over the processes: seconds at the
    reference speed.  ms_per_step is run_s over the number of steps.  The
    medians of the times as measured are printed beside them.

    Solver step-interval percentiles pool the intervals of every process (a
    few hundred or more).  The ledger scan's 22 entries are a fixed set of
    very different sizes, so their percentiles are taken per process and
    then the median, which keeps them independent of the number of
    processes.
    """
    reference = calibration.REFERENCE_S[gauge_kernel(workload)]
    setups, runs, scales = [], [], []
    for p in procs:
        ready = p["marks"][0] if is_solver(workload) else p["setup_marks"][0]
        setups.append(ready - p["t_spawn"])
        runs.append(p["t_end"] - ready)
        scales.append(reference / calibration.mean_piece(p["calibration"]))
    run_s = statistics.median(r * k for r, k in zip(runs, scales))
    values = {"setup_s": statistics.median(s * k for s, k in zip(setups, scales)),
              "run_s": run_s,
              "ms_per_step": 1e3 * run_s / len(procs[0]["marks"]),
              "peak_rss_mb": statistics.median(p["rss_kb"] for p in procs) / 1024.0,
              "measured_setup_s": statistics.median(setups),
              "measured_run_s": statistics.median(runs),
              "calibration_ms": 1e3 * statistics.median(
                  calibration.mean_piece(p["calibration"]) for p in procs)}
    steps = [_intervals(workload, p) for p in procs]
    if is_solver(workload):
        pooled = [dt for s in steps for dt in s]
        values["iter_ms_p50"] = _quantile(pooled, 50)
        values["iter_ms_p95"] = _quantile(pooled, 95)
    else:
        values["iter_ms_p50"] = statistics.median(_quantile(s, 50) for s in steps)
        values["iter_ms_p95"] = statistics.median(_quantile(s, 95) for s in steps)
    return values


def per_layer(proc: dict, untraced: dict) -> dict:
    """The per-layer metrics of one traced process (and its untraced pair)."""
    s = proc["summary"]

    def get(name, field="s"):
        return s.get(name, {}).get(field, 0)

    steps = get("solver.step", "calls")

    def per_step(value):
        return value / steps if steps else 0.0

    def per_call(name, field="s"):
        calls = get(name, "calls")
        return get(name, field) / calls if calls else 0.0

    diff = "grid.diff_central"
    record = "diagnostics.compute_record"
    dissipation = "diagnostics.dissipation_functional"
    main_s = get("cli.main")
    record_io_s = (get(record)
                   + get("diagnostics.write_csv") + get("grid.save_field"))
    wall = proc["t_end"] - proc["t_spawn"]
    base_wall = untraced["t_end"] - untraced["t_spawn"]
    m = {
        "solver.step.self_ms_per_step": ("ms", 1e3 * per_step(get("solver.step", "self_s"))),
        "grid.shifted.calls_per_step": ("count", per_step(get("grid.shifted", "calls"))),
        "grid.shifted.ms_per_step": ("ms", 1e3 * per_step(get("grid.shifted"))),
        "grid.shifted.mb_per_step": ("MB", 1e-6 * per_step(get("grid.shifted", "bytes"))),
        "solver.fft.calls_per_step": ("count", per_step(get("solver.fft", "calls"))),
        "solver.fft.ms_per_step": ("ms", 1e3 * per_step(get("solver.fft"))),
        "grid.diff_central.calls_per_step": ("count", per_step(get(diff, "calls"))),
        "grid.diff_central.self_ms_per_step": ("ms", 1e3 * per_step(get(diff, "self_s"))),
        "solver.project.ms": ("ms", 1e3 * get("solver.project")),
        "solver.stable_dt.ms_per_step": ("ms", 1e3 * per_step(get("solver.stable_dt"))),
        "solver.run.self_ms_per_step": ("ms", 1e3 * per_step(get("solver.run", "self_s"))),
        "grid.divergence.ms_per_step": ("ms", 1e3 * per_step(get("grid.divergence"))),
        "diagnostics.compute_record.calls": ("count", get(record, "calls")),
        "diagnostics.compute_record.ms_per_call": ("ms", 1e3 * per_call(record)),
        "diagnostics.compute_record.self_ms_per_call": ("ms", 1e3 * per_call(record, "self_s")),
        "diagnostics.dissipation_functional.ms_per_call": ("ms", 1e3 * per_call(dissipation)),
        "diagnostics.write_csv.ms": ("ms", 1e3 * get("diagnostics.write_csv")),
        "diagnostics.csv_bytes": ("B", proc.get("csv_bytes", 0)),
        "grid.lp_norm.ms_per_step": ("ms", 1e3 * per_step(get("grid.lp_norm"))),
        "grid.save_field.calls": ("count", get("grid.save_field", "calls")),
        "grid.save_field.ms": ("ms", 1e3 * get("grid.save_field")),
        "grid.save_field.mb": ("MB", 1e-6 * get("grid.save_field", "bytes")),
        "mollify.mollify_values.ms": ("ms", 1e3 * get("mollify.mollify_values")),
        "solver.build_initial.ms": ("ms", 1e3 * get("solver.build_initial")),
        "cli.main.self_ms": ("ms", 1e3 * get("cli.main", "self_s")),
        "ledger.check_entry.calls": ("count", get("ledger.check_entry", "calls")),
        "ledger.check_entry.us_per_call": ("us", 1e6 * per_call("ledger.check_entry")),
        "ledger.scan_region.self_s": ("s", get("ledger.scan_region", "self_s")),
        "ledger.scaling_check.s": ("s", get("ledger.scaling_check")),
    }
    for entry in P_WINDOW_ENTRIES:
        m[f"ledger.scan.{entry}.s"] = ("s", get(f"ledger.scan_region[{entry}]"))
    m["ledger.check_entry.pct"] = (
        "%", 100.0 * get("ledger.check_entry") / main_s if main_s else 0.0)
    m["trace.record_io_pct"] = (
        "%", 100.0 * record_io_s / main_s if main_s else 0.0)
    m["trace.overhead_pct"] = ("%", 100.0 * (wall / base_wall - 1.0))
    return m


# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its metrics, and return the result line."""
    start = clock()
    untraced: list[dict] = []
    traced: list[dict] = []

    def timeout():
        return max(30.0, PROCESS_TIMEOUT_S - (clock() - start))

    while not untraced or clock() < start + seconds:
        # unique per invocation, so runs sharing a checkout do not collide
        run_id = f"{workload}-{seed}-{os.getpid()}-{len(untraced)}"
        cpu = CPUS[len(untraced) % len(CPUS)]
        untraced.append(launch(workload, seed, False, run_id, timeout(), cpu))
        if trace:
            traced.append(launch(workload, seed, True, run_id + "-traced",
                                 timeout(), cpu))
    if is_solver(workload):
        check_same_csv(untraced[0], untraced[1:] + traced)
    check_same_steps(untraced[0], untraced[1:])

    procs = untraced + traced
    failed = [p for p in procs if p["failures"]]
    for p in failed:
        for msg in p["failures"]:
            print(f"FAILED {p['run_id']}: {msg}")
    ok = [p for p in (traced if trace else untraced) if not p["failures"]]

    metrics, info = {}, {}
    if trace:
        rows = [per_layer(t, u) for t, u in zip(traced, untraced)
                if not t["failures"] and not u["failures"]]
        for name, (unit, _) in (rows[0].items() if rows else ()):
            metrics[name] = {"value": statistics.median(r[name][1] for r in rows),
                             "unit": unit}
    elif ok:
        values = end_to_end(workload, ok)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        info = {name: {"value": values[name], "unit": unit}
                for name, unit in INFORMATIONAL_UNITS.items()}

    print(f"workload {workload}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}  processes {len(procs)}  "
          f"steps timed {sum(len(p.get('marks', ())) for p in untraced)}  "
          f"nproc {os.cpu_count()}  fft workers 1")
    if ok and "csv_sha256" in ok[0]:
        print(f"csv_sha256 {ok[0]['csv_sha256']}  (informational)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, m in info.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}  (informational)")
    print(f"{'error_rate':48s} {len(failed) / len(procs):.6g} "
          f"({len(failed)}/{len(procs)})")
    return {"correct": not failed and bool(metrics), "attempted": len(procs),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "chemoflux" / "__init__.py").is_file():
        print(f"error: no chemoflux sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C: _run_gauged kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = bench(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    finally:
        try:
            WORK.rmdir()            # each run directory is already gone
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

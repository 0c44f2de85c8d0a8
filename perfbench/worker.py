"""One workload process: run the chemoflux command line once and report.

    python3 perfbench/worker.py --workload NAME --out DIR --trace 0|1
        --run-id ID [--config CONFIG]

Imports chemoflux from the `src/` of the checkout this file sits in, runs
`chemoflux.cli.main` with the workload's arguments (its printed output goes to
DIR/stdout.txt), checks the outputs against the workload's gate, and writes
DIR/result.json.  Untraced, the only timing probe is one clock read at each
step entry: `solver.step`, or for the ledger scan `ledger.scan_region` (one
step per catalog entry) plus one read when the catalog is built.  Traced,
every function in spans.LAYERS is wrapped and the spans go to DIR/spans.json
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path

from spans import Tracer, clock, rebind
from workloads import cli_args, is_solver

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--config", default=None)
    return ap.parse_args(argv)


def _probe_entries(fn, marks: list):
    def probed(*args, **kwargs):
        marks.append(clock())
        return fn(*args, **kwargs)
    return probed


def _probe_return(fn, marks: list):
    def probed(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(clock())
        return result
    return probed


def _capture(fn, results: list):
    def capturing(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result
    return capturing


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    import chemoflux.cli as cli
    import chemoflux.ledger as ledger
    import chemoflux.solver as solver
    import gates
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"chemoflux was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3

    solver_run = is_solver(args.workload)
    tracer = Tracer(args.run_id) if args.trace else None
    marks: list[float] = []       # step entries
    setup_marks: list[float] = []  # ledger only: build_ledger returned
    runs: list = []
    if tracer is not None:
        tracer.install()
    else:
        step_fn = solver.step if solver_run else ledger.scan_region
        rebind(step_fn, _probe_entries(step_fn, marks))
        if not solver_run:
            rebind(ledger.build_ledger,
                   _probe_return(ledger.build_ledger, setup_marks))
    rebind(solver.run, _capture(solver.run, runs))

    out: Path = args.out
    with open(out / "stdout.txt", "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        rc = cli.main(cli_args(args.workload, args.config, str(out / "run")))
    t_end = clock()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = [] if rc == 0 else [f"chemoflux exited with {rc}"]
    result = {"rc": rc, "t_end": t_end, "rss_kb": rss_kb, "marks": marks,
              "setup_marks": setup_marks}
    if solver_run:
        csv_path = out / "run" / "diagnostics.csv"
        if rc == 0:
            failures += gates.solver_failures(args.workload, runs[0], csv_path)
            data = csv_path.read_bytes()
            result["csv_sha256"] = hashlib.sha256(data).hexdigest()
            result["csv_bytes"] = len(data)
    else:
        failures += gates.ledger_failures(
            (out / "stdout.txt").read_text(encoding="utf-8"))
    result["failures"] = failures
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.dump()),
                                        encoding="utf-8")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

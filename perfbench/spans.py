"""Spans recorded from outside the program, and the self times they give.

The traced mode wraps the public functions of each chemoflux module.  A
wrapper is installed on every module attribute that is bound to the
original function, so calls made through `from .grid import shifted` style
imports are caught as well as calls through the defining module.  Spans stay
in memory (name, start, end, parent span, plus computed output bytes and an
optional tag) and are written out once, when the workload process ends.
"""

from __future__ import annotations

import sys
import time
import types

# The layers: chemoflux module -> the public functions traced in it.
LAYERS = {
    "cli": ("main",),
    "solver": ("run", "step", "stable_dt", "project", "build_initial"),
    "grid": ("shifted", "diff_central", "divergence", "lp_norm", "save_field"),
    "diagnostics": ("compute_record", "dissipation_functional", "write_csv"),
    "mollify": ("mollify_values",),
    "ledger": ("build_ledger", "scan_region", "check_entry", "scaling_check"),
}
# scipy.fft calls made by the solver, counted together as one span name.
FFT_SPAN = "solver.fft"
_FFT_CALLS = ("rfftn", "irfftn")

# CLOCK_MONOTONIC on Linux: comparable across the processes of one run.
clock = time.monotonic


def rebind(original, replacement) -> None:
    """Point every chemoflux module attribute bound to `original` at
    `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "chemoflux" and not name.startswith("chemoflux."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder for one workload process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one row per span: [name index, start, end, parent row, bytes, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, nbytes=None, tag=None):
        """`fn` recorded as span `name`; `nbytes(args, result)` and
        `tag(args)` optionally annotate the span."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = self._name_index[name]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            row = [index, 0.0, 0.0, stack[-1] if stack else -1, 0,
                   tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if nbytes is not None:
                row[4] = nbytes(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the imported chemoflux modules."""
        special = {
            ("grid", "shifted"): dict(nbytes=lambda args, out: out.nbytes),
            ("grid", "save_field"): dict(nbytes=lambda args, out: args[0].data.nbytes),
            ("ledger", "scan_region"): dict(tag=lambda args: args[0].id),
        }
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"chemoflux.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                rebind(original, self.wrap(f"{module_name}.{fn_name}", original,
                                           **special.get((module_name, fn_name), {})))
        solver = sys.modules["chemoflux.solver"]
        fft = solver.sfft
        proxy = types.SimpleNamespace(set_workers=fft.set_workers)
        for call in _FFT_CALLS:
            setattr(proxy, call, self.wrap(FFT_SPAN, getattr(fft, call)))
        solver.sfft = proxy

    def dump(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "spans": self.spans}


def summarize(dump: dict) -> dict:
    """Per span name: calls, inclusive and self seconds, and bytes; tagged
    spans are also summed under `name[tag]`.

    A span's self time is its duration minus the durations of its direct
    children, so a parent's time excludes its wrapped children.
    """
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for index, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for row, (index, start, end, _, nbytes, tag) in enumerate(spans):
        duration = end - start
        keys = [names[index]]
        if tag is not None:
            keys.append(f"{names[index]}[{tag}]")
        for key in keys:
            entry = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "bytes": 0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[row]
            entry["bytes"] += nbytes
    return out

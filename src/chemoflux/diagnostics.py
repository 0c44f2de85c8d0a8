"""Per-sample functionals of the state, the energy/dissipation bookkeeping,
and the CSV record stream.

The monitored energy is

    E = int n (|log n| + 2<x>) + ||n||_{1+alpha}^{1+alpha}
        + ||grad c||_2^2 + (M+2)/2 ||u||_2^2,      <x> = sqrt(1 + |x|^2)

with the weighted-moment term dropped in neumann mode (the box is fixed and
walls make the moment uninformative; the entropy term then uses int n|log n|
alone).  The companion dissipation functional is

    D = ||grad n^{(1+alpha)/2}||_2^2 + ||grad n^{(1+2alpha)/2}||_2^2
        + ||lap c||_2^2 + ||grad u||_2^2

and `d_accum` carries its trapezoidal time integral along the record stream.

Entropy convention: 0*log 0 = 0, and any cell below 1e-300 is treated as
exactly 0 to keep log() off the denormal floor.  Negative cell values are a
caller error and are rejected.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields as dc_fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .grid import (ScalarField, VectorField, divergence, gradient, integrate,
                   laplacian, lp_norm, mesh)
from .model import ChiKappaModel, DomainSpec, SimParams

ENTROPY_FLOOR = 1e-300
ENERGY_CEILING = 100.0  # class checks: sup E <= ENERGY_CEILING * max(E(0), 1)
LINF_FACTOR = 2.0       # bounded class check: sup max_n <= LINF_FACTOR * max_n(0)


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    entropy: float
    abs_entropy: float
    moment: float          # nan in neumann mode
    n_l1: float
    n_l1a: float           # L^{1+alpha}
    n_l2: float
    n_l12a: float          # L^{1+2alpha}
    n_linf: float
    grad_c_l2: float
    u_l2: float
    e_m: float
    d: float
    d_accum: float
    min_n: float
    min_c: float
    max_c: float
    max_n: float
    div_residual: float


CSV_COLUMNS = tuple(f.name for f in dc_fields(DiagnosticsRecord))


@lru_cache(maxsize=64)
def radial_weight(spec: DomainSpec):
    """<x> = sqrt(1+|x|^2) at cell centers (broadcast to full shape)."""
    r2 = sum(X * X for X in mesh(spec))
    return np.sqrt(1.0 + r2)


def entropies(f: ScalarField) -> tuple[float, float]:
    """(int n log n, int n |log n|) from one logarithm per cell: for n >= 0
    the second integrand is |n log n|, exactly."""
    n = f.data
    if np.min(n) < 0:
        raise ValueError("entropy is undefined for negative cell values")
    xlogx = np.where(n > ENTROPY_FLOOR, n * np.log(np.maximum(n, ENTROPY_FLOOR)), 0.0)
    vol = f.domain.cell_volume
    return float(np.sum(xlogx)) * vol, float(np.sum(np.abs(xlogx))) * vol


def weighted_moment(f: ScalarField) -> float:
    """int n <x>, the confinement moment of the energy functional."""
    return float(np.sum(f.data * radial_weight(f.domain))) * f.domain.cell_volume


def dissipation_functional(state, params: SimParams) -> float:
    spec = params.domain
    n = state.n.data
    d = 0.0
    for s in ((1.0 + params.alpha) / 2.0, (1.0 + 2.0 * params.alpha) / 2.0):
        gp = lp_norm(gradient(ScalarField(spec, np.power(n, s))), 2)
        d += gp * gp
    lc = lp_norm(laplacian(state.c), 2)
    d += lc * lc
    for comp in range(spec.dim):
        gu = lp_norm(gradient(ScalarField(spec, state.u.data[comp]), ghost="zero"), 2)
        d += gu * gu
    return d


def compute_record(state, params: SimParams,
                   prev: DiagnosticsRecord | None = None) -> DiagnosticsRecord:
    """Evaluate every monitored functional at the current state.

    `prev` feeds the trapezoidal accumulator for int D dt; pass the previous
    record (or None at t=0).
    """
    spec = params.domain
    n, c, u = state.n, state.c, state.u
    ent, a_ent = entropies(n)
    mom = float("nan") if spec.mode == "neumann" else weighted_moment(n)
    n_l1 = lp_norm(n, 1)
    n_l1a = lp_norm(n, 1.0 + params.alpha)
    n_l2 = lp_norm(n, 2)
    n_l12a = lp_norm(n, 1.0 + 2.0 * params.alpha)
    n_linf = lp_norm(n, np.inf)
    gc = lp_norm(gradient(c), 2)
    ul2 = lp_norm(u, 2)
    e_m = (a_ent + 2.0 * (0.0 if spec.mode == "neumann" else mom)
           + n_l1a ** (1.0 + params.alpha) + gc * gc
           + 0.5 * (params.em_weight + 2.0) * ul2 * ul2)
    d = dissipation_functional(state, params)
    if prev is None:
        d_accum = 0.0
    else:
        d_accum = prev.d_accum + 0.5 * (prev.d + d) * (state.t - prev.t)
    return DiagnosticsRecord(
        t=state.t,
        mass=integrate(n),
        entropy=ent,
        abs_entropy=a_ent,
        moment=mom,
        n_l1=n_l1, n_l1a=n_l1a, n_l2=n_l2, n_l12a=n_l12a, n_linf=n_linf,
        grad_c_l2=gc,
        u_l2=ul2,
        e_m=e_m,
        d=d,
        d_accum=d_accum,
        min_n=float(np.min(n.data)),
        min_c=float(np.min(c.data)),
        max_c=float(np.max(c.data)),
        max_n=float(np.max(n.data)),
        div_residual=lp_norm(divergence(u), np.inf),
    )


def format_records(records, warnings=()) -> str:
    """CSV text: optional '#' warning lines, one header row, %.17g cells."""
    buf = io.StringIO()
    for w in warnings:
        buf.write(f"# warning: {w}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(["%.17g" % getattr(rec, col) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(records, path, warnings=()) -> Path:
    path = Path(path)
    path.write_text(format_records(records, warnings), encoding="utf-8", newline="\n")
    return path


def read_csv(path) -> tuple[list[DiagnosticsRecord], list[str]]:
    """Inverse of write_csv (used by the class checks and tests)."""
    warnings = []
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                text = line[1:].strip()
                if text.startswith("warning:"):
                    text = text[len("warning:"):].strip()
                warnings.append(text)
                continue
            rows.append(line)
    reader = csv.reader(rows)
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    records = [DiagnosticsRecord(*[float(v) for v in row]) for row in reader]
    return records, warnings


@dataclass
class ClassCheckReport:
    passed: bool
    failures: list[str]
    warnings: list[str]


def weak_class_check(records, params: SimParams) -> ClassCheckReport:
    """Verify the weak-regime a priori structure against a record stream:
    mass conserved to a relative 1e-12 in either boundary mode, every
    recorded functional finite (bar the moment in neumann mode, which is
    nan there), and energy bounded by ENERGY_CEILING * max(E(0), 1).
    """
    failures, warns = [], []
    if not records:
        return ClassCheckReport(False, ["empty record stream"], warns)
    m0 = records[0].mass
    drift = max(abs(r.mass - m0) for r in records) / max(abs(m0), 1e-300)
    if drift > 1e-12:
        failures.append(f"mass drift {drift:.3e} exceeds 1e-12")
    for col in CSV_COLUMNS:
        if col == "moment" and params.domain.mode == "neumann":
            continue
        bad = next((r.t for r in records if not math.isfinite(getattr(r, col))),
                   None)
        if bad is not None:
            failures.append(f"{col} not finite at t={bad}")
    cap = ENERGY_CEILING * max(records[0].e_m, 1.0)
    worst = max(r.e_m for r in records)
    if worst > cap:
        failures.append(f"energy sup {worst:.6g} exceeds ceiling {cap:.6g}")
    return ClassCheckReport(not failures, failures, warns)


def bounded_class_check(records, params: SimParams) -> ClassCheckReport:
    """weak_class_check plus uniform L^inf control of n.

    The bounded regime's theory is stated for the tau = 0 fluid; with tau = 1
    the check still runs but carries a warning.
    """
    rep = weak_class_check(records, params)
    failures, warns = list(rep.failures), list(rep.warnings)
    if params.tau == 1:
        warns.append("bounded-regime check applied to tau=1 dynamics; "
                     "the uniform bound is only backed by tau=0 analysis")
    if records:
        cap = LINF_FACTOR * records[0].max_n
        worst = max(r.max_n for r in records)
        if worst > cap:
            failures.append(f"max_n sup {worst:.6g} exceeds {LINF_FACTOR} * initial "
                            f"({cap:.6g})")
    return ClassCheckReport(not failures, failures, warns)

"""Command-line front end.

Subcommands: `run` integrates a JSON-configured problem and writes the
diagnostics stream, `classify` reports which structural assumption cases a
configuration satisfies, `ledger` evaluates or lattice-scans the exact
exponent catalog, and `oracle` drives the independent convergence studies.

Exit codes: 0 success, 1 runtime or verification failure, 2 configuration or
usage problems.  Configuration errors are collected and reported together,
one line each, rather than stopping at the first.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .ledger import build_ledger, check_entry, get_entry, scan_region
from .model import (ChiKappaModel, ConfigError, DomainSpec, SimParams,
                    classify_assumption)
from .mollify import mollify_values
from .solver import (INITIAL_SCHEMA, SolverError, build_initial, run,
                     set_threads)

_SECTIONS = {
    "domain": ("dim", "mode", "lengths", "resolution"),
    "params": ("alpha", "tau", "rho", "t_final", "phi_gradient", "em_weight",
               "cfl_safety", "dt_max", "max_steps"),
    "model": ("chi_offset", "chi_slope", "kappa_coeff", "kappa_power"),
    "initial": tuple(INITIAL_SCHEMA),
    "output": ("out_dir", "csv", "sample_interval", "snapshot_every"),
    "oracle": None,                     # validated against the study signature
}
_DOMAIN_REQUIRED = ("dim", "mode", "lengths", "resolution")
_PARAMS_REQUIRED = ("alpha", "tau", "rho", "t_final")


def _real(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _path(x) -> bool:
    return type(x) is str and x != ""


def _per_axis(x, dim) -> bool:
    return type(x) is list and (dim is None or len(x) == dim)


# value kinds of INITIAL_SCHEMA: (description, test of a value on `dim` axes;
# dim is None when the domain is invalid, and then any axis count passes)
_VALUE_KINDS = {
    "real": ("a finite number", lambda x, dim: _real(x)),
    "nonneg": ("a finite number >= 0", lambda x, dim: _real(x) and x >= 0),
    "positive": ("a finite number > 0", lambda x, dim: _real(x) and x > 0),
    "fraction": ("a number in [0, 1]", lambda x, dim: _real(x) and 0 <= x <= 1),
    "count": ("an integer >= 0", lambda x, dim: type(x) is int and x >= 0),
    "path": ("a nonempty string", lambda x, dim: _path(x)),
    "point": ("a list of one finite number per axis",
              lambda x, dim: _per_axis(x, dim) and all(map(_real, x))),
    "paths": ("a list of one nonempty string per axis",
              lambda x, dim: _per_axis(x, dim) and all(map(_path, x))),
}
_CASE_ORDER = {"i": 0, "ii": 1, "iii": 2}


class UsageError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def _load_json(path: str) -> dict:
    p = Path(path)
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError([f"cannot read config {path}: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise UsageError([f"config {path} is not valid JSON: {exc}"]) from None
    if not isinstance(cfg, dict):
        raise UsageError([f"config {path} must hold a JSON object at top level"])
    return cfg


def _section_problems(cfg: dict) -> list[str]:
    problems = []
    for key in cfg:
        if key not in _SECTIONS:
            problems.append(f"{key}: unknown section "
                            f"(expected one of {', '.join(sorted(_SECTIONS))})")
    for name, keys in _SECTIONS.items():
        if name not in cfg:
            continue
        section = cfg[name]
        if not isinstance(section, dict):
            problems.append(f"{name}: must be a JSON object")
            continue
        if keys is None:
            continue
        for key in section:
            if key not in keys:
                problems.append(f"{name}.{key}: unknown key "
                                f"(expected one of {', '.join(keys)})")
    return problems


def _section(cfg: dict, name: str) -> dict | None:
    """A copy of section `name`, {} when absent; None when it is not a JSON
    object, which `_section_problems` has already reported."""
    section = cfg.get(name, {})
    return dict(section) if isinstance(section, dict) else None


def _initial_problems(init_cfg: dict, dim: int | None) -> list[str]:
    """Every way the `initial` section departs from INITIAL_SCHEMA."""
    problems = []
    for name, (default, types) in INITIAL_SCHEMA.items():
        if name not in init_cfg:
            continue
        field, where = init_cfg[name], f"initial.{name}"
        if not isinstance(field, dict):
            problems.append(f"{where}: must be a JSON object")
            continue
        typed = default is not None
        kind = field.get("type", default) if typed else None
        # tuple membership compares by ==, so an unhashable kind is no error
        if kind not in tuple(types):
            problems.append(f"{where}.type: unknown type {kind!r} "
                            f"(expected one of {', '.join(types)})")
            continue
        required, optional = types[kind]
        keys = {**required, **optional}
        suffix = f" for type {kind!r}" if typed else ""
        for key, value in field.items():
            if typed and key == "type":
                continue
            if key not in keys:
                names = (["type"] if typed else []) + list(keys)
                problems.append(f"{where}.{key}: unknown key{suffix} "
                                f"(expected one of {', '.join(names)})")
                continue
            what, ok = _VALUE_KINDS[keys[key]]
            if not ok(value, dim):
                problems.append(f"{where}.{key}: must be {what}, got {value!r}")
        problems.extend(f"{where}.{key}: required key missing{suffix}"
                        for key in required if key not in field)
    return problems


def _build_problem(cfg: dict):
    """(domain, params, model, problems); any failed piece comes back None.

    Scalar parameter checks still run when the domain is invalid (against a
    placeholder box), so one pass reports everything; only the checks that
    genuinely need the real domain (phi_gradient arity) are skipped then.
    """
    problems = _section_problems(cfg)
    dom_cfg = _section(cfg, "domain")
    par_cfg = _section(cfg, "params")
    mod_cfg = _section(cfg, "model")
    if dom_cfg is not None:
        problems.extend(f"domain.{key}: required key missing"
                        for key in _DOMAIN_REQUIRED if key not in dom_cfg)
    if par_cfg is not None:
        problems.extend(f"params.{key}: required key missing"
                        for key in _PARAMS_REQUIRED if key not in par_cfg)

    domain = None
    if dom_cfg is not None and all(key in dom_cfg for key in _DOMAIN_REQUIRED):
        # config convenience: a bare number for lengths/resolution means
        # "the same on every axis"
        if isinstance(dom_cfg.get("dim"), int):
            for key in ("lengths", "resolution"):
                if isinstance(dom_cfg.get(key), (int, float)):
                    dom_cfg[key] = (dom_cfg[key],) * dom_cfg["dim"]
        try:
            domain = DomainSpec(**dom_cfg)
        except ConfigError as exc:
            problems.extend(f"domain: {p}" for p in exc.problems)
        except (TypeError, ValueError) as exc:
            problems.append(f"domain: {exc}")

    problems.extend(_initial_problems(_section(cfg, "initial") or {},
                                      None if domain is None else domain.dim))
    out_cfg = _section(cfg, "output") or {}
    out_dir = out_cfg.get("out_dir")
    if out_dir is not None and type(out_dir) is not str:
        problems.append(f"output.out_dir: must be a string, got {out_dir!r}")
    csv = out_cfg.get("csv", "diagnostics.csv")
    if type(csv) is not str or not csv:
        problems.append(f"output.csv: must be a nonempty file name, got {csv!r}")
    interval = out_cfg.get("sample_interval", 1.0)
    if type(interval) not in (int, float) or not 0.0 < interval < math.inf:
        problems.append("output.sample_interval: must be a positive number, "
                        f"got {interval!r}")
    every = out_cfg.get("snapshot_every", 0)
    if type(every) is not int or every < 0:
        problems.append("output.snapshot_every: must be a nonnegative integer, "
                        f"got {every!r}")

    params = None
    if par_cfg is not None and all(key in par_cfg for key in _PARAMS_REQUIRED):
        check_cfg = dict(par_cfg)
        check_domain = domain
        if check_domain is None:
            check_domain = DomainSpec(1, "periodic", (1.0,), (8,))
            check_cfg.pop("phi_gradient", None)
        try:
            params = SimParams(domain=check_domain, **check_cfg)
        except ConfigError as exc:
            problems.extend(f"params: {p}" for p in exc.problems)
        except (TypeError, ValueError) as exc:
            problems.append(f"params: {exc}")
        if domain is None:
            params = None

    model = None
    if mod_cfg is not None:
        try:
            model = ChiKappaModel(**mod_cfg)
        except ConfigError as exc:
            problems.extend(f"model: {p}" for p in exc.problems)
        except (TypeError, ValueError) as exc:
            problems.append(f"model: {exc}")
    return domain, params, model, problems


def _require(cfg: dict):
    domain, params, model, problems = _build_problem(cfg)
    if problems:
        raise UsageError(problems)
    return domain, params, model


def _fmt_cases(cases) -> str:
    return "{" + ",".join(sorted(cases, key=_CASE_ORDER.get)) + "}"


def _fmt_witnesses(witnesses: dict) -> str:
    if not witnesses:
        return "none"
    return "  ".join(f"{k}={v:g}" for k, v in sorted(witnesses.items()))


def _print_classification(model, params, c_max: float) -> None:
    cls = classify_assumption(model, params, c_max)
    print(f"c_max:         {c_max:g}")
    print(f"weak cases:    {_fmt_cases(cls.weak_cases)}")
    print(f"bounded cases: {_fmt_cases(cls.bounded_cases)}")
    print(f"witnesses:     {_fmt_witnesses(cls.witnesses)}")
    if not cls.weak_cases and not cls.bounded_cases:
        print("note: no structural assumption case is satisfied; "
              "no a priori bound backs this configuration")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args) -> int:
    cfg = _load_json(args.config)
    domain, params, model = _require(cfg)
    output = dict(cfg.get("output", {}))
    if args.out is not None:
        output["out_dir"] = args.out
    t0 = time.perf_counter()
    try:
        result = run(params, model, cfg.get("initial", {}), output)
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0

    _print_classification(model, params, result.records[0].max_c)
    for w in result.warnings:
        print(f"warning: {w}")
    g = result.guards
    first, last = result.records[0], result.records[-1]
    print(f"steps:         {int(g['steps'])}  (wall {wall:.1f}s, "
          f"{len(result.records)} samples)")
    print(f"final t:       {last.t:.9g}")
    print(f"mass:          {first.mass:.17g}  relative drift {g['mass_drift']:.3e}")
    print(f"energy:        initial {first.e_m:.9g}  "
          f"sup {max(r.e_m for r in result.records):.9g}")
    print(f"dissipation:   integral {last.d_accum:.9g}")
    print(f"div residual:  {g['max_div_residual']:.3e}")
    if result.csv_path is not None:
        print(f"csv:           {result.csv_path}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load_json(args.config)
    domain, params, model = _require(cfg)
    try:
        _, c0, _ = build_initial(domain, cfg.get("initial", {}))
    except (ValueError, OSError, KeyError) as exc:
        raise UsageError([f"initial: {exc}"]) from None
    c_max = float(np.max(mollify_values(c0, domain, params.rho)))
    _print_classification(model, params, c_max)
    return 0


def _alpha_window(entry) -> str:
    lo = "(" if entry.alpha_lo_strict else "["
    hi_val = "inf" if entry.alpha_hi is None else str(entry.alpha_hi)
    hi = ")" if entry.alpha_hi is None or entry.alpha_hi_strict else "]"
    return f"{lo}{entry.alpha_lo}, {hi_val}{hi}"


def _cmd_ledger(args) -> int:
    catalog = build_ledger()
    if args.entry is not None:
        try:
            entries = [get_entry(args.entry, catalog)]
        except KeyError:
            known = ", ".join(e.id for e in catalog)
            raise UsageError([f"unknown entry {args.entry!r}; known: {known}"]) \
                from None
    else:
        entries = list(catalog)

    rc = 0
    acted = False
    if args.scan is not None:
        acted = True
        for entry in entries:
            rep = scan_region(entry, args.scan)
            status = "PASS" if rep.passed else "FAIL"
            print(f"{entry.id:32s} interior {rep.interior_points:6d} "
                  f"failures {len(rep.interior_failures):3d}  "
                  f"collar {rep.collar_inapplicable}/{rep.collar_points}  "
                  f"scaling {'ok ' if rep.scaling_ok else 'BAD'}  {status}")
            if args.entry is not None:
                for name, (lo, hi) in sorted(rep.value_ranges.items()):
                    print(f"    {name}: range [{lo}, {hi}]")
            if not rep.passed:
                rc = 1

    if args.alpha is not None:
        acted = True
        for entry in entries:
            if entry.uses_p and args.p is None:
                if args.entry is not None:
                    raise UsageError(
                        [f"entry {entry.id!r} needs --p (its window depends "
                         "on the integrability index)"])
                print(f"{entry.id:32s} needs --p; skipped")
                continue
            res = check_entry(entry, args.alpha, args.p if entry.uses_p else None)
            head = f"alpha={args.alpha}" + (f" p={args.p}" if entry.uses_p else "")
            print(f"{entry.id:32s} {head}  {res.status}")
            if args.entry is not None or res.status == "fail":
                for o in res.outcomes:
                    mark = ("undefined" if o.ok is None
                            else "ok" if o.ok else "VIOLATED")
                    extra = f"  ({o.note})" if o.note else ""
                    print(f"    {o.name} = {o.value}  {mark}{extra}")
            if res.status == "fail":
                rc = 1

    if not acted:
        for entry in catalog:
            pw = "  p-window" if entry.uses_p else ""
            print(f"{entry.id:32s} alpha in {_alpha_window(entry):14s} "
                  f"checks {len(entry.checks):2d}  scalings {len(entry.scalings)}{pw}")
            print(f"    {entry.title}")
    return rc


def _cmd_oracle(args) -> int:
    from . import oracle as orc

    studies = {
        "uniform": (orc.uniform_consumption_study, "dt", True),
        "barenblatt": (orc.barenblatt_convergence, "N", False),
        "manufactured": (orc.manufactured_convergence, "N", False),
    }
    fn, key_name, key_decreasing = studies[args.study]
    kwargs = {}
    if args.config is not None:
        cfg = _load_json(args.config)
        problems = [p for p in _section_problems(cfg) if p.startswith("oracle")]
        kwargs = _section(cfg, "oracle") or {}
        allowed = set(inspect.signature(fn).parameters)
        problems += [f"oracle.{k}: unknown key for study {args.study!r} "
                     f"(expected one of {', '.join(sorted(allowed))})"
                     for k in sorted(set(kwargs) - allowed)]
        if problems:
            raise UsageError(problems)

    rows = fn(**kwargs)
    print(f"{args.study} study ({len(rows)} runs)")
    prev = None
    orders = []
    for key, err in rows:
        line = f"  {key_name}={key:<12g} error={err:.6e}"
        if prev is not None and err > 0.0 and prev[1] > 0.0:
            if key_decreasing:
                order = math.log(prev[1] / err) / math.log(prev[0] / key)
            else:
                order = math.log(prev[1] / err) / math.log(key / prev[0])
            orders.append(order)
            line += f"  order={order:.2f}"
        print(line)
        prev = (key, err)
    if orders:
        print(f"  mean observed order: {sum(orders) / len(orders):.2f}")
    return 0


# ---------------------------------------------------------------------------

def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational (use forms like 1/3 or 0.25)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemoflux",
        description="Finite-volume simulator and exact-arithmetic verification "
                    "suite for chemotaxis-fluid systems with degenerate diffusion")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="FFT worker count (default: CHEMOFLUX_THREADS or 1; results are "
             "bit-identical for any value)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem")
    p_run.add_argument("config", help="JSON configuration file")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides output.out_dir)")
    p_run.set_defaults(fn=_cmd_run)

    p_cls = sub.add_parser(
        "classify", help="report the structural assumption cases a "
                         "configuration satisfies")
    p_cls.add_argument("config", help="JSON configuration file")
    p_cls.set_defaults(fn=_cmd_classify)

    p_led = sub.add_parser(
        "ledger", help="evaluate or scan the exact exponent catalog")
    p_led.add_argument("--entry", default=None, help="restrict to one entry id")
    p_led.add_argument("--alpha", type=_fraction_arg, default=None,
                       help="evaluate at this exact rational diffusion exponent")
    p_led.add_argument("--p", type=_fraction_arg, default=None,
                       help="exact rational integrability index (entries with "
                            "a p-window)")
    p_led.add_argument("--scan", type=int, default=None, metavar="DENSITY",
                       help="lattice-scan regions at this density")
    p_led.set_defaults(fn=_cmd_ledger)

    p_orc = sub.add_parser(
        "oracle", help="run an independent reference-solution study")
    p_orc.add_argument("study", choices=("uniform", "barenblatt", "manufactured"))
    p_orc.add_argument("config", nargs="?", default=None,
                       help="optional JSON file; its 'oracle' section feeds "
                            "the study keyword arguments")
    p_orc.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("CHEMOFLUX_THREADS", "1") or "1")
    set_threads(threads)
    try:
        return args.fn(args)
    except UsageError as exc:
        for line in exc.problems:
            print(f"config problem: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

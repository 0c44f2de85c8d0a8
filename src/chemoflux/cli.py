"""Command-line front end.

Subcommands: `run` integrates a JSON-configured problem and writes the
diagnostics stream, `classify` reports which structural assumption cases a
configuration satisfies (it checks the configuration and builds nothing, so
it loads no numpy), `ledger` evaluates or lattice-scans the exact exponent
catalog, and `oracle` drives the independent convergence studies.

Exit codes: 0 success, 1 runtime or verification failure (under `run`, also an
unreadable snapshot file) or a standard output closed by its reader, 2
configuration or usage problems, including (under `run`) initial data that
are bad only once built.  `main` alone maps a failure to its exit code (a
subcommand at most relabels a ConfigError): every problem of a ConfigError is
listed, one line each; a `model.SolverError`, an `OSError`, a `MemoryError`
or another `ValueError` is one `error: …` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .ledger import build_ledger, check_entry, get_entry, scan_region
from .model import (FIELD_SCHEMAS, INITIAL_SCHEMA, OUTPUT_SCHEMA, ChiKappaModel,
                    ConfigError, DomainSpec, SimParams, SolverError,
                    check_section, classify_assumption, schema_problems)


# per section: a schema entry (see INITIAL_SCHEMA), whose keys may take entries
# (`initial`), or None for any JSON object (`oracle`: its study's table)
_SECTIONS = {
    "domain": FIELD_SCHEMAS[DomainSpec],
    "params": FIELD_SCHEMAS[SimParams],
    "model": FIELD_SCHEMAS[ChiKappaModel],
    "initial": (None, {None: ({}, INITIAL_SCHEMA)}),
    "output": (None, {None: ({}, OUTPUT_SCHEMA)}),
    "oracle": None,
}


def _load_json(path: str) -> dict:
    p = Path(path)
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from None
    if not isinstance(cfg, dict):
        raise ConfigError([f"config {path} must hold a JSON object at top level"])
    return cfg


def _build(name: str, cls, kwargs: dict, problems: list, **extra):
    """cls(**kwargs, **extra), or None with its ConfigError listed."""
    try:
        return cls(**kwargs, **extra)
    except ConfigError as exc:
        problems.extend(f"{name}: {p}" for p in exc.problems)
        return None


def _unknown_sections(cfg: dict) -> list[str]:
    return [f"{key}: unknown section (expected one of {', '.join(sorted(_SECTIONS))})"
            for key in cfg if key not in _SECTIONS]


def _require(cfg: dict):
    """(params, model) built from `cfg`, or ConfigError listing every problem.

    Each section is checked against its schema, which decides every value
    on its own, and a dataclass is built only from a section that passes,
    for the rules across fields; `params` also needs a built domain.
    """
    problems = _unknown_sections(cfg)

    def section(name, dim=None):
        value = cfg.get(name, {})
        found = schema_problems(name, value, _SECTIONS[name], dim)
        problems.extend(found)
        return None if found else dict(value)

    domain = None
    dom_cfg = section("domain")
    if dom_cfg is not None:
        domain = _build("domain", DomainSpec, dom_cfg, problems)
    par_cfg = section("params")
    if par_cfg is not None and domain is not None:
        params = _build("params", SimParams, par_cfg, problems, domain=domain)
    mod_cfg = section("model")
    if mod_cfg is not None:
        model = _build("model", ChiKappaModel, mod_cfg, problems)
    for name in ("initial", "output", "oracle"):
        section(name, None if domain is None else domain.dim)
    if problems:        # every section or build that failed listed one
        raise ConfigError(problems)
    return params, model


def _fmt_cases(cases) -> str:
    return "{" + ",".join(sorted(cases)) + "}"


def _fmt_witnesses(witnesses: dict) -> str:
    if not witnesses:
        return "none"
    return "  ".join(f"{k}={v:g}" for k, v in sorted(witnesses.items()))


def _print_classification(model, params):
    """Print the case table of the configuration; return its cases."""
    cls = classify_assumption(model, params)
    print(f"weak cases:    {_fmt_cases(cls.weak_cases)}")
    print(f"bounded cases: {_fmt_cases(cls.bounded_cases)}")
    print(f"witnesses:     {_fmt_witnesses(cls.witnesses)}")
    return cls


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args) -> int:
    from .solver import run

    cfg = _load_json(args.config)
    params, model = _require(cfg)
    output = dict(cfg.get("output", {}))
    if args.out is not None:
        output["out_dir"] = args.out
    t0 = time.perf_counter()
    try:
        result = run(params, model, cfg.get("initial", {}), output)
    except ConfigError as exc:
        # run checks its output before it builds the initial data
        raise ConfigError([p if p.startswith("output.") else f"initial: {p}"
                           for p in exc.problems]) from None
    wall = time.perf_counter() - t0

    _print_classification(model, params)
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
    params, model = _require(_load_json(args.config))
    cls = _print_classification(model, params)
    if not cls.weak_cases and not cls.bounded_cases:
        print("note: no structural assumption case is satisfied; "
              "no a priori bound backs this configuration")
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
            raise ConfigError([f"unknown entry {args.entry!r}; known: {known}"]) \
                from None
    else:
        entries = list(catalog)
    if args.p is not None and args.alpha is None:
        raise ConfigError(["--p needs --alpha (it is the integrability index of "
                           "a point evaluation)"])
    if args.p is not None and args.entry is not None and not entries[0].uses_p:
        raise ConfigError([f"entry {args.entry!r} takes no --p (its window does "
                           "not depend on the integrability index)"])

    rc = 0
    acted = False
    if args.scan is not None:
        acted = True
        for entry in entries:
            rep = scan_region(entry, args.scan)
            status = "PASS" if rep.passed else "FAIL"
            print(f"{entry.id:32s} interior {rep.interior_points:6d} "
                  f"failures {len(rep.interior_failures):3d}  "
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
                    raise ConfigError(
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
        for entry in entries:
            pw = "  p-window" if entry.uses_p else ""
            print(f"{entry.id:32s} alpha in {_alpha_window(entry):14s} "
                  f"checks {len(entry.checks):2d}  scalings {len(entry.scalings)}{pw}")
            print(f"    {entry.title}")
    return rc


def _cmd_oracle(args) -> int:
    from . import oracle as orc

    fn, keywords, key_name = {
        "uniform": (orc.uniform_consumption_study, orc.UNIFORM_KEYWORDS, "dt"),
        "barenblatt": (orc.barenblatt_convergence, orc.BARENBLATT_KEYWORDS, "N"),
        "manufactured": (orc.manufactured_convergence, orc.MANUFACTURED_KEYWORDS, "N"),
    }[args.study]
    kwargs = {}
    if args.config is not None:
        cfg = _load_json(args.config)
        kwargs = cfg.get("oracle", {})
        problems = _unknown_sections(cfg)
        if problems:
            raise ConfigError(problems)
        check_section("oracle", kwargs, keywords)

    rows = fn(**kwargs)     # a study labels its own refusals
    print(f"{args.study} study ({len(rows)} runs)")
    prev, orders = None, []
    for key, err in rows:
        line = f"  {key_name}={key:<12g} error={err:.6e}"
        h = key if key_name == "dt" else 1.0 / key
        if prev is not None and err > 0.0 and prev[1] > 0.0:
            order = math.log(prev[1] / err) / math.log(prev[0] / h)
            orders.append(order)
            line += f"  order={order:.2f}"
        print(line)
        prev = (h, err)
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


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemoflux",
        description="Finite-volume simulator and exact-arithmetic verification "
                    "suite for chemotaxis-fluid systems with degenerate diffusion")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--threads", type=_positive_int_arg, default=1,
        help="FFT worker count (default 1; results are bit-identical for any "
             "value)")
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
    p_led.add_argument("--scan", type=_positive_int_arg, default=None,
                       metavar="DENSITY",
                       help="lattice-scan regions at this density (>= 1)")
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
    if args.command in ("run", "oracle"):   # the commands that run an FFT
        from .solver import set_threads
        set_threads(args.threads)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"config problem: {line}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at devnull so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SolverError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

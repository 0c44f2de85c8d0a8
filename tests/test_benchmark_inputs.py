"""What the benchmark in `perfbench/` relies on in the package: the traced
layer functions, the FFT module's names, each workload's command line and
config, and the guards its gates read.  A change that broke one of these
would fail every benchmark run; these tests fail first.  The benchmark's
modules are loaded by path, as plain data, without importing its runner."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from chemoflux import cli, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
SOLVER_WORKLOADS = [w for w in workloads.WORKLOADS if workloads.is_solver(w)]


def test_every_traced_function_exists():
    for module_name, functions in spans.LAYERS.items():
        module = importlib.import_module(f"chemoflux.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_fft_module_has_the_traced_names():
    for name in (*spans._FFT_CALLS, "set_workers"):
        assert callable(getattr(solver.sfft, name)), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_line_parses(workload):
    args = cli._parser().parse_args(
        workloads.cli_args(workload, "config.json", "out"))
    assert args.threads == 1
    assert args.fn is (cli._cmd_run if workloads.is_solver(workload)
                       else cli._cmd_ledger)


@pytest.mark.parametrize("workload", SOLVER_WORKLOADS)
def test_config_passes_the_checker_and_runs_with_the_gated_guards(workload):
    for seed in (0, 2**31 - 1):
        cli._require(workloads.solver_config(workload, seed))
    cfg = workloads.solver_config(workload, 41)
    params, model = cli._require(cfg)
    res = solver.run(dataclasses.replace(params, max_steps=1), model,
                     cfg["initial"], cfg["output"])
    assert res.guards["steps"] == 1
    assert set(workloads.GATE_LIMITS[workload]) <= set(res.guards)

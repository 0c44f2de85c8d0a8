"""The package's layering: lazy exports, the layers and the `classify`
command that load no numerical library, a walled run that loads no scipy,
and a runtime that loads no sympy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chemoflux as cf

_CHILD = """
import contextlib, io, sys
import chemoflux, chemoflux.model, chemoflux.ledger, chemoflux.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert chemoflux.cli.main(["ledger", "--scan", "2"]) == 0
    assert chemoflux.cli.main(["classify", CONFIG]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy", "sympy")))
"""


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this chemoflux."""
    src = str(Path(cf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def _write_config(tmp_path, mode: str) -> str:
    """An 8^3 box in `mode` with rho = 2.4h, so the mollifier sums."""
    cfg = {"domain": {"dim": 3, "mode": mode, "lengths": 2.0, "resolution": 8},
           "params": {"alpha": 0.5, "tau": 1, "rho": 0.6, "t_final": 0.01,
                      "max_steps": 3},
           "initial": {"n": {"type": "gaussian", "sigma": 0.4, "mass": 1.0},
                       "c": {"type": "constant", "value": 1.0},
                       "u": {"type": "vortex", "amplitude": 0.2}},
           "output": {"sample_interval": 0.005}}
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_exact_layers_load_no_numerical_library(tmp_path):
    # classify checks the whole config, initial data included, by schema
    config = _write_config(tmp_path, "periodic")
    out = _run_child(_CHILD.replace("CONFIG", repr(config)))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _scipy_modules(child_output: str) -> list:
    return json.loads(child_output.splitlines()[-1])


_SCIPY_OF = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_solver_and_oracle_import_no_scipy():
    out = _run_child("import chemoflux.solver, chemoflux.oracle" + _SCIPY_OF)
    assert out.returncode == 0, out.stderr
    assert _scipy_modules(out.stdout) == []


def _run_cli_child(tmp_path, mode: str) -> list:
    """`chemoflux --threads 2 run` on `_write_config`'s box in `mode`; the
    scipy modules the run loaded."""
    path = _write_config(tmp_path, mode)
    args = ["--threads", "2", "run", path, "--out", str(tmp_path / mode)]
    out = _run_child("import contextlib, io, chemoflux.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    assert chemoflux.cli.main({args!r}) == 0\n"
                     + _SCIPY_OF)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / mode / "diagnostics.csv").exists()
    return _scipy_modules(out.stdout)


def test_walled_run_loads_no_scipy(tmp_path):
    # the walled solves are numpy eigenbases and the mollifier a numpy sum
    assert _run_cli_child(tmp_path, "neumann") == []


def test_periodic_run_loads_scipy_fft_only(tmp_path):
    # scipy.fft's own import loads part of scipy.special (its fftlog), so
    # the pin is: nothing beyond what `import scipy.fft` alone loads
    fft_alone = _run_child("import scipy.fft" + _SCIPY_OF)
    assert fft_alone.returncode == 0, fft_alone.stderr
    loaded = _run_cli_child(tmp_path, "periodic")
    assert "scipy.fft" in loaded
    assert not [m for m in loaded if m.startswith("scipy.ndimage")]
    assert set(loaded) <= set(_scipy_modules(fft_alone.stdout))


_MANUFACTURED_CHILD = """
import sys
from chemoflux.oracle import manufactured_convergence, manufactured_problem
manufactured_problem(16).sources(0.05)
manufactured_convergence((16,))
print("sympy" in sys.modules)
"""


def test_manufactured_problem_loads_no_sympy():
    # the forcings are closed-form numpy; sympy is a test-only reference
    out = _run_child(_MANUFACTURED_CHILD)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_every_public_name_resolves():
    for name in cf.__all__:
        getattr(cf, name)
    assert cf.run is cf.solver.run
    assert cf.oracle.barenblatt_convergence
    with pytest.raises(AttributeError):
        cf.no_such_name

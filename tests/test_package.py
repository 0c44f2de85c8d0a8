"""The package's layering: lazy exports, the layers that load no
numerical library, and a runtime that loads no sympy."""

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
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy", "sympy")))
"""


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this chemoflux."""
    src = str(Path(cf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_exact_layers_load_no_numerical_library():
    out = _run_child(_CHILD)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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

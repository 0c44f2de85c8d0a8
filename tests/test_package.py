"""The package's layering: lazy exports, and the layers that load no
numerical library."""

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


def test_exact_layers_load_no_numerical_library():
    src = str(Path(cf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_every_public_name_resolves():
    for name in cf.__all__:
        getattr(cf, name)
    assert cf.run is cf.solver.run
    assert cf.oracle.barenblatt_convergence
    with pytest.raises(AttributeError):
        cf.no_such_name

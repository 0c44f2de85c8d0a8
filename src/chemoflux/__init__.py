"""Simulator and verification suite for chemotaxis-fluid dynamics with
degenerate cell diffusion.

The package couples a positivity-preserving finite-volume integrator for the
cell/chemical/fluid system with three independent verification layers: closed
form and manufactured reference solutions (`oracle`), per-run structural
invariant checks (`diagnostics`), and an exact rational-arithmetic catalog of
the interpolation-exponent bookkeeping behind the monitored functionals
(`ledger`).

Importing the package loads no submodule: each public name below is imported
from its module on first use (PEP 562), so `chemoflux.ledger` and
`chemoflux.model` run without numpy or scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; every module also resolves as an
# attribute of the package
_EXPORTS = {
    "model": ("AssumptionCase", "ChiKappaModel", "ConfigError", "DomainSpec",
              "SimParams", "SolverError", "classify_assumption"),
    "grid": ("ScalarField", "VectorField", "cell_centers", "diff_central",
             "divergence", "gradient", "integrate", "laplacian", "load_field",
             "lp_norm", "mesh", "save_field"),
    "mollify": ("mollify_values",),
    "diagnostics": ("DiagnosticsRecord", "bounded_class_check",
                    "compute_record", "dissipation_functional", "read_csv",
                    "weak_class_check", "write_csv"),
    "solver": ("FieldState", "RunResult", "build_initial", "project", "run",
               "set_threads", "stable_dt", "step"),
    "ledger": ("CatalogError", "LedgerEntry", "build_ledger", "check_entry",
               "get_entry", "scan_region", "scaling_check"),
}
_MODULES = ("oracle",)      # public as modules only: cf.oracle.<study>
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_MODULES, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS or name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

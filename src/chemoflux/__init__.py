"""Simulator and verification suite for chemotaxis-fluid dynamics with
degenerate cell diffusion.

The package couples a positivity-preserving finite-volume integrator for the
cell/chemical/fluid system with three independent verification layers: closed
form and manufactured reference solutions (`oracle`), per-run structural
invariant checks (`diagnostics`), and an exact rational-arithmetic catalog of
the interpolation-exponent bookkeeping behind the monitored functionals
(`ledger`).
"""

from .model import (AssumptionCase, ChiKappaModel, ConfigError, DomainSpec,
                    SimParams, classify_assumption)
from .grid import (ScalarField, VectorField, cell_centers, diff_central,
                   divergence, gradient, integrate, laplacian, load_field,
                   lp_norm, mesh, save_field)
from .mollify import mollify_values
from .diagnostics import (DiagnosticsRecord, bounded_class_check,
                          compute_record, dissipation_functional, read_csv,
                          weak_class_check, write_csv)
from .solver import (FieldState, RunResult, SolverError, build_initial,
                     project, run, set_threads, stable_dt, step)
from .ledger import (CatalogError, LedgerEntry, build_ledger, check_entry,
                     get_entry, scan_region, scaling_check)
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "AssumptionCase", "ChiKappaModel", "ConfigError", "DomainSpec",
    "SimParams", "classify_assumption",
    "ScalarField", "VectorField", "cell_centers", "diff_central",
    "divergence", "gradient", "integrate", "laplacian", "load_field",
    "lp_norm", "mesh", "save_field",
    "mollify_values",
    "DiagnosticsRecord", "bounded_class_check", "compute_record",
    "dissipation_functional", "read_csv",
    "weak_class_check", "write_csv",
    "FieldState", "RunResult", "SolverError", "build_initial", "project",
    "run", "set_threads", "stable_dt", "step",
    "CatalogError", "LedgerEntry", "build_ledger", "check_entry", "get_entry",
    "scan_region", "scaling_check",
    "oracle", "__version__",
]

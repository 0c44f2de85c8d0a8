"""The benchmark workloads: the inputs each one generates from its seed.

Every solver workload enters through the command line the way a user does,
`chemoflux --threads 1 run CONFIG --out DIR`, and the seed only feeds
`initial.perturb.seed` of the generated config.  `ledger-scan` runs
`chemoflux ledger --scan 60` over the whole catalog; it has no random input,
so its seed is accepted and unused.  Density 60 (a full scan in about 4 s)
rather than the release criterion's 100 (about 12 s) gives a run five or
more scans to take the median of, like the solver workloads; the code per
lattice point is the same.

This module is plain data and standard library only: run.py imports it
without importing chemoflux.
"""

from __future__ import annotations

import copy

# Criterion 10's physics: Gaussian cell bump, uniform chemical, swirl.
_BUMP = {"n": {"type": "gaussian", "sigma": 0.45, "mass": 1.0},
         "c": {"type": "constant", "value": 1.0},
         "u": {"type": "vortex", "amplitude": 0.3}}
PERTURB_AMPLITUDE = 0.05

_SOLVER_CONFIGS = {
    # 32^3 periodic, tau=1: spectral solves, roll-based stencils, sparse
    # sampling (a record every ~75 steps).  Diagnostics are a small share.
    "periodic3d": {
        "domain": {"dim": 3, "mode": "periodic", "lengths": 2.0,
                   "resolution": 32},
        "params": {"alpha": 0.5, "tau": 1, "rho": 0.01, "t_final": 0.1,
                   "phi_gradient": [0.0, 0.0, -0.3]},
        "model": {"chi_offset": 1.0, "chi_slope": 0.0,
                  "kappa_coeff": 1.0, "kappa_power": 1.0},
        "initial": _BUMP,
        "output": {"sample_interval": 0.02, "csv": "diagnostics.csv"},
    },
    # 32^3 walled box, tau=1: matrix-free CG for every implicit solve and the
    # projection, concatenate-based ghosts, no FFT.  rho = 0.15 >= 2h, so the
    # mollifier does work at set-up.  Records are rare (~2% of the steps).
    "walled3d": {
        "domain": {"dim": 3, "mode": "neumann", "lengths": 2.0,
                   "resolution": 32},
        "params": {"alpha": 0.5, "tau": 1, "rho": 0.15, "t_final": 0.01,
                   "phi_gradient": [0.0, 0.0, -0.3]},
        "model": {"chi_offset": 1.0, "chi_slope": 0.0,
                  "kappa_coeff": 1.0, "kappa_power": 1.0},
        "initial": _BUMP,
        "output": {"sample_interval": 0.005, "csv": "diagnostics.csv"},
    },
    # 128^2 periodic, tau=0, c-dependent sensitivity and quadratic
    # consumption.  The sample interval is about two natural steps, so the
    # sample clamp limits dt and a record follows about every second step:
    # recording and snapshot I/O are a large share of the run.  A snapshot
    # every 20th record keeps snapshot steps (2.5%) clear of the p95 step
    # interval, which would otherwise sit on snapshot write latency (its
    # spread here is several times the compute's).
    "sampled2d": {
        "domain": {"dim": 2, "mode": "periodic", "lengths": 2.0,
                   "resolution": 128},
        "params": {"alpha": 0.5, "tau": 0, "rho": 0.01, "t_final": 0.0175,
                   "phi_gradient": [0.0, -0.3]},
        "model": {"chi_offset": 1.0, "chi_slope": 0.5,
                  "kappa_coeff": 1.0, "kappa_power": 2.0},
        "initial": {"n": {"type": "gaussian", "sigma": 0.45, "mass": 1.0},
                    "c": {"type": "gaussian", "base": 0.5, "amplitude": 0.5,
                          "sigma": 0.6},
                    "u": {"type": "vortex", "amplitude": 0.3}},
        "output": {"sample_interval": 3.5e-5, "csv": "diagnostics.csv",
                   "snapshot_every": 20},
    },
}

LEDGER_DENSITY = 60
WORKLOADS = tuple(_SOLVER_CONFIGS) + ("ledger-scan",)

# Correctness gates of the solver workloads: per-step guard limits of the
# run.  The walled box uses criterion 7's bounds (its projection is a CG
# solve at tolerance 1e-9).
GATE_LIMITS = {
    "periodic3d": {"mass_drift": 1e-12, "max_div_residual": 1e-10,
                   "max_c_increase": 1e-10},
    "walled3d": {"mass_drift": 1e-10, "max_div_residual": 1e-8},
    "sampled2d": {"mass_drift": 1e-12, "max_div_residual": 1e-10,
                  "max_c_increase": 1e-10},
}


def is_solver(workload: str) -> bool:
    return workload in _SOLVER_CONFIGS


def solver_config(workload: str, seed: int) -> dict:
    """The run config of a solver workload for this seed."""
    cfg = copy.deepcopy(_SOLVER_CONFIGS[workload])
    cfg["initial"]["perturb"] = {"amplitude": PERTURB_AMPLITUDE,
                                 "seed": int(seed)}
    return cfg


def cli_args(workload: str, config_path: str | None, out_dir: str) -> list[str]:
    """The chemoflux command line of one workload process."""
    if is_solver(workload):
        return ["--threads", "1", "run", config_path, "--out", out_dir]
    return ["--threads", "1", "ledger", "--scan", str(LEDGER_DENSITY)]

"""Problem definition: domain, simulation parameters, and the chi/kappa model.

The continuous system being discretized is a chemotaxis-consumption model with
degenerate (porous-medium type) cell diffusion, coupled to an incompressible
fluid:

    n_t + u.grad n = div(grad (n+rho)^(1+alpha)) - div(chi(c) n grad c)
    c_t + u.grad c = lap c - kappa(c) n
    u_t + tau (u.grad) u + grad p = lap u - n grad phi,   div u = 0

with chi(c) = chi_offset + chi_slope*c and kappa(c) = kappa_coeff*c^kappa_power.
`classify_assumption` reports which structural hypotheses of the underlying
well-posedness theory the parameter choice satisfies, in two flavors: the weak
(global weak solution) regime and the bounded (uniform-in-time L^inf) regime.
Its alpha thresholds are `ledger.ALPHA_CASE_I` and `ledger.ALPHA_CASES_II_III`,
the same numbers the exponent catalog's regions start and end at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .ledger import ALPHA_CASE_I, ALPHA_CASES_II_III

VALID_MODES = ("periodic", "neumann")

# Config fields carry their JSON value kind (cli._VALUE_KINDS) in metadata.


class ConfigError(ValueError):
    """A parameter container was constructed with invalid values.

    ``problems`` holds one human-readable message per violated constraint so a
    caller can report all of them at once.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box, cell-centered uniform grid, one boundary mode.

    ``periodic`` wraps every field; ``neumann`` mirrors scalar fields at the
    walls (zero normal derivative) and zero-extends velocity (no-slip).  The
    fluid subproblem is not meaningful in one dimension, so neumann mode
    requires dim >= 2.
    """

    dim: int = field(metadata={"kind": "int"})
    mode: str = field(metadata={"kind": "text"})
    lengths: tuple[float, ...] = field(metadata={"kind": "per-axis real"})
    resolution: tuple[int, ...] = field(metadata={"kind": "per-axis int"})

    def __post_init__(self):
        problems = []
        if self.dim not in (1, 2, 3):
            problems.append(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.mode not in VALID_MODES:
            problems.append(f"mode must be one of {VALID_MODES}, got {self.mode!r}")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        # 8.5 must not run as 8: a resolution entry is an integer or a problem
        integral = all(isinstance(N, Integral) for N in self.resolution)
        object.__setattr__(self, "resolution", tuple(
            int(N) if integral else N for N in self.resolution))
        if self.dim in (1, 2, 3):
            if len(self.lengths) != self.dim:
                problems.append(f"lengths must have {self.dim} entries, got {len(self.lengths)}")
            if len(self.resolution) != self.dim:
                problems.append(f"resolution must have {self.dim} entries, got {len(self.resolution)}")
        if any(not (L > 0) or not np.isfinite(L) for L in self.lengths):
            problems.append(f"lengths must be positive and finite, got {self.lengths}")
        elif (integral and min(self.resolution, default=8) >= 8
              and not 0 < self.cell_volume < np.inf):
            problems.append(f"lengths {self.lengths} give a cell volume of "
                            f"{self.cell_volume:g}; it must be positive and finite")
        if not integral:
            problems.append(f"resolution entries must be integers, got {self.resolution}")
        elif any(N < 8 for N in self.resolution):
            problems.append(f"resolution must be >= 8 along every axis, got {self.resolution}")
        if self.mode == "neumann" and self.dim == 1:
            problems.append("neumann mode requires dim >= 2 (no-slip fluid walls)")
        if problems:
            raise ConfigError(problems)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.resolution))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v


@dataclass(frozen=True)
class SimParams:
    """Scalar parameters of one simulation.

    alpha        diffusion nonlinearity exponent (> 0); cell diffusion is
                 laplacian of (n+rho)^(1+alpha)
    tau          1 keeps the fluid's self-advection, 0 drops it (inertia-free)
    rho          regularization strength: diffusion floor and mollifier radius
    em_weight    the M in the (M+2)/2 kinetic-energy weight of the functional
    phi_gradient constant gravitational/potential gradient, one entry per axis
    t_final      simulation end time
    cfl_safety   fraction of the stability limit actually taken as dt
    dt_max       optional hard cap on dt (used by the temporal-order studies)
    max_steps    optional hard cap on step count
    """

    alpha: float = field(metadata={"kind": "real"})
    tau: int = field(metadata={"kind": "int"})
    rho: float = field(metadata={"kind": "real"})
    t_final: float = field(metadata={"kind": "real"})
    domain: DomainSpec
    phi_gradient: tuple[float, ...] = field(default=(), metadata={"kind": "reals"})
    em_weight: float = field(default=1.0, metadata={"kind": "real"})
    cfl_safety: float = field(default=0.4, metadata={"kind": "real"})
    dt_max: float | None = field(default=None, metadata={"kind": "real"})
    max_steps: int | None = field(default=None, metadata={"kind": "int"})

    def __post_init__(self):
        problems = []
        if not (self.alpha > 0) or not np.isfinite(self.alpha):
            problems.append(f"alpha must be > 0, got {self.alpha}")
        if self.tau not in (0, 1):
            problems.append(f"tau must be 0 or 1, got {self.tau}")
        if not (0 < self.rho < 1):
            problems.append(f"rho must lie in (0, 1), got {self.rho}")
        if not (self.em_weight > 0):
            problems.append(f"em_weight must be > 0, got {self.em_weight}")
        if not (self.t_final > 0):
            problems.append(f"t_final must be > 0, got {self.t_final}")
        if not (0 < self.cfl_safety <= 1):
            problems.append(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.dt_max is not None and not (self.dt_max > 0):
            problems.append(f"dt_max must be > 0 when given, got {self.dt_max}")
        if self.max_steps is not None and self.max_steps < 1:
            problems.append(f"max_steps must be >= 1 when given, got {self.max_steps}")
        grad = tuple(float(g) for g in self.phi_gradient)
        if not grad:
            grad = (0.0,) * self.domain.dim
        object.__setattr__(self, "phi_gradient", grad)
        if len(grad) != self.domain.dim:
            problems.append(
                f"phi_gradient must have {self.domain.dim} entries, got {len(grad)}")
        elif any(not np.isfinite(g) for g in grad):
            problems.append(f"phi_gradient entries must be finite, got {grad}")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class ChiKappaModel:
    """Affine sensitivity chi(c) = chi_offset + chi_slope*c and power-law
    consumption kappa(c) = kappa_coeff * c^kappa_power.

    kappa_power >= 1 keeps kappa(0) = 0 and kappa' bounded near 0.  A fully
    degenerate sensitivity (chi identically 0) is rejected; the chemotaxis
    term would vanish and the model silently collapse to a different system.
    """

    chi_offset: float = field(default=1.0, metadata={"kind": "real"})
    chi_slope: float = field(default=0.0, metadata={"kind": "real"})
    kappa_coeff: float = field(default=1.0, metadata={"kind": "real"})
    kappa_power: float = field(default=1.0, metadata={"kind": "real"})

    def __post_init__(self):
        problems = []
        if self.chi_offset < 0:
            problems.append(f"chi_offset must be >= 0, got {self.chi_offset}")
        if self.chi_slope < 0:
            problems.append(f"chi_slope must be >= 0, got {self.chi_slope}")
        if self.kappa_coeff < 0:
            problems.append(f"kappa_coeff must be >= 0, got {self.kappa_coeff}")
        if self.kappa_power < 1:
            problems.append(f"kappa_power must be >= 1, got {self.kappa_power}")
        if not (self.chi_offset + self.chi_slope > 0):
            problems.append("chi_offset + chi_slope must be > 0 (chi not identically 0)")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class AssumptionCase:
    """Which structural cases hold, per regime, plus strictness witnesses.

    ``weak_cases`` / ``bounded_cases`` are subsets of {"i", "ii", "iii"}.
    ``witnesses`` maps "chi0" / "kappa0" to the positive lower bounds on chi'
    and kappa' whenever the corresponding case is active in either regime.
    """

    weak_cases: frozenset[str]
    bounded_cases: frozenset[str]
    witnesses: dict[str, float] = field(default_factory=dict)


def classify_assumption(model: ChiKappaModel, params: SimParams) -> AssumptionCase:
    """Classify (model, alpha) against the structural hypotheses.

    Weak regime:    (i) alpha > 1/6;  (ii) inf chi' > 0;  (iii) inf kappa' > 0.
    Bounded regime: the weak cases when alpha > 1/8, none otherwise; so
                    (i) alpha > 1/6;  (ii) alpha > 1/8 and inf chi' > 0;
                    (iii) alpha > 1/8 and inf kappa' > 0.

    chi' is the constant chi_slope, and kappa'(c) =
    kappa_coeff*kappa_power*c^(kappa_power-1) is nondecreasing for
    kappa_power >= 1, so both infima over any concentration range [0, max c]
    sit at c = 0 and do not depend on max c: inf kappa' is kappa_coeff for
    kappa_power == 1 and exactly 0 for any kappa_power > 1.
    """
    chi0 = model.chi_slope
    kappa0 = model.kappa_coeff if model.kappa_power == 1.0 else 0.0
    weak = set()
    if params.alpha > ALPHA_CASE_I:
        weak.add("i")
    if chi0 > 0:
        weak.add("ii")
    if kappa0 > 0:
        weak.add("iii")
    bounded = weak if params.alpha > ALPHA_CASES_II_III else set()

    witnesses = {}
    if "ii" in weak:
        witnesses["chi0"] = chi0
    if "iii" in weak:
        witnesses["kappa0"] = kappa0
    return AssumptionCase(frozenset(weak), frozenset(bounded), witnesses)

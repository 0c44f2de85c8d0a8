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

The module also holds the config format and its one checker: each dataclass
field names its value kind, type and range (`FIELD_SCHEMAS`), and its
`__post_init__` adds only the rules across fields; `INITIAL_SCHEMA` and
`OUTPUT_SCHEMA` describe the sections no dataclass holds, and
`schema_problems` checks any of them (a dataclass's own fields, the CLI's
sections, `run`'s initial and output, an oracle study's keywords) against
`VALUE_KINDS`.  It imports only the standard library and `ledger`, so no
check loads numpy, and the CLI names both exceptions, `ConfigError` and
`SolverError`, without loading the solver.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real

from .ledger import ALPHA_CASE_I, ALPHA_CASES_II_III

VALID_MODES = ("periodic", "neumann")


class ConfigError(ValueError):
    """A parameter container was constructed with invalid values.

    ``problems`` holds one human-readable message per violated constraint so a
    caller can report all of them at once.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SolverError(RuntimeError):
    """A run broke down: an unstable or non-finite step, or a collapsed dt."""


def _kind_problems(config) -> tuple[list[str], set[str]]:
    """Every way the fields of dataclass `config` depart from the kinds in
    FIELD_SCHEMAS, and the names of the fields that do."""
    values = {f.name: getattr(config, f.name) for f in fields(config)
              if "kind" in f.metadata}
    problems = schema_problems("", values, FIELD_SCHEMAS[type(config)])
    # with no `where`, each problem reads "<field>: ..."
    return problems, {p.split(":")[0] for p in problems}


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box, cell-centered uniform grid, one boundary mode.

    ``periodic`` wraps every field; ``neumann`` mirrors scalar fields at the
    walls (zero normal derivative) and zero-extends velocity (no-slip).  The
    fluid subproblem is not meaningful in one dimension, so neumann mode
    requires dim >= 2.
    """

    dim: int = field(metadata={"kind": "dim"})
    mode: str = field(metadata={"kind": "mode"})
    lengths: tuple[float, ...] = field(metadata={"kind": "per-axis positive"})
    resolution: tuple[int, ...] = field(metadata={"kind": "per-axis grid size"})

    def __post_init__(self):
        problems, wrong = _kind_problems(self)
        dim = None if "dim" in wrong else self.dim
        # a bare number is the same on every axis; a numpy scalar becomes a
        # builtin number, as snapshot metadata holds the box as JSON
        for name, number in (("lengths", float), ("resolution", int)):
            if name not in wrong:
                value = getattr(self, name)
                if not isinstance(value, (list, tuple)):
                    value = (value,) * (dim or 1)
                object.__setattr__(self, name, tuple(map(number, value)))
                if dim is not None and len(value) != dim:
                    problems.append(f"{name} must have {dim} entries, got {len(value)}")
        if (not wrong & {"lengths", "resolution"}
                and not 0 < self.cell_volume < math.inf):
            problems.append(f"lengths {self.lengths} give a cell volume of "
                            f"{self.cell_volume:g}; it must be positive and finite")
        if "mode" not in wrong and self.mode == "neumann" and dim == 1:
            problems.append("neumann mode requires dim >= 2 (no-slip fluid walls)")
        if problems:
            raise ConfigError(problems)

    # computed once per box: the fields are frozen, and a cached value lives
    # outside them, so == and hash are unchanged
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.resolution))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @cached_property
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
                 (at most the shortest box length)
    em_weight    the M in the (M+2)/2 kinetic-energy weight of the functional
    phi_gradient constant gravitational/potential gradient, one entry per axis
    t_final      simulation end time
    cfl_safety   fraction of the stability limit actually taken as dt
    dt_max       optional hard cap on dt (used by the temporal-order studies)
    max_steps    optional hard cap on step count
    """

    alpha: float = field(metadata={"kind": "positive"})
    tau: int = field(metadata={"kind": "switch"})
    rho: float = field(metadata={"kind": "open fraction"})
    t_final: float = field(metadata={"kind": "positive"})
    domain: DomainSpec
    phi_gradient: tuple[float, ...] = field(default=(), metadata={"kind": "reals"})
    em_weight: float = field(default=1.0, metadata={"kind": "positive"})
    cfl_safety: float = field(default=0.4, metadata={"kind": "step fraction"})
    dt_max: float | None = field(default=None, metadata={"kind": "positive"})
    max_steps: int | None = field(default=None, metadata={"kind": "positive count"})

    def __post_init__(self):
        problems, wrong = _kind_problems(self)
        if not isinstance(self.domain, DomainSpec):
            problems.append(f"domain must be a DomainSpec, got {self.domain!r}")
        elif "phi_gradient" not in wrong:
            grad = tuple(self.phi_gradient) or (0.0,) * self.domain.dim
            object.__setattr__(self, "phi_gradient", grad)
            if len(grad) != self.domain.dim:
                problems.append(
                    f"phi_gradient must have {self.domain.dim} entries, got {len(grad)}")
        # the mollifier reaches ceil(rho/h) cells each way, at most N here
        if (isinstance(self.domain, DomainSpec) and "rho" not in wrong
                and self.rho > min(self.domain.lengths)):
            problems.append(f"rho must be at most the shortest box length "
                            f"{min(self.domain.lengths):g}, got {self.rho!r}")
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

    chi_offset: float = field(default=1.0, metadata={"kind": "nonneg"})
    chi_slope: float = field(default=0.0, metadata={"kind": "nonneg"})
    kappa_coeff: float = field(default=1.0, metadata={"kind": "nonneg"})
    kappa_power: float = field(default=1.0, metadata={"kind": "power"})

    def __post_init__(self):
        problems, wrong = _kind_problems(self)
        if (not wrong & {"chi_offset", "chi_slope"}
                and not (self.chi_offset + self.chi_slope > 0)):
            problems.append("chi_offset + chi_slope must be > 0 (chi not identically 0)")
        if problems:
            raise ConfigError(problems)


def _fields(cls):
    """The fields of dataclass `cls` that name a kind, as an untyped schema
    entry: required keys have no default, and a key whose default is None
    also takes null (kind "...?")."""
    required, optional = {}, {}
    for f in fields(cls):
        if "kind" in f.metadata:
            kind = f.metadata["kind"] + ("?" if f.default is None else "")
            (required if f.default is MISSING else optional)[f.name] = kind
    return None, {None: (required, optional)}


# Each config dataclass's fields as a schema entry: its __post_init__ checks
# itself against it, and the CLI checks the dataclass's section against it.
# Every field but SimParams.domain names a kind.
FIELD_SCHEMAS = {cls: _fields(cls) for cls in (DomainSpec, SimParams, ChiKappaModel)}


# The JSON schema of the `initial` section.  Per field: the type taken when
# "type" is absent and, per type, its (required, optional) keys, each with
# the kind of value it takes; `perturb` has no types.  `schema_problems`
# checks configs against this table, and `solver.build_initial` builds them.
INITIAL_SCHEMA = {
    "n": ("constant", {"constant": ({"value": "nonneg"}, {}),
                       "gaussian": ({"sigma": "positive"},
                                    {"mass": "nonneg", "center": "point"}),
                       "snapshot": ({"path": "path"}, {})}),
    "c": ("constant", {"constant": ({"value": "nonneg"}, {}),
                       "gaussian": ({"amplitude": "real", "sigma": "positive"},
                                    {"base": "nonneg", "center": "point"}),
                       "snapshot": ({"path": "path"}, {})}),
    "u": ("zero", {"zero": ({}, {}), "vortex": ({}, {"amplitude": "real"}),
                   "snapshot": ({"paths": "paths"}, {})}),
    "perturb": (None, {None: ({}, {"amplitude": "fraction", "seed": "count"})}),
}
OUTPUT_SCHEMA = {"out_dir": "text", "csv": "path", "sample_interval": "positive",
                 "snapshot_every": "count"}


def _real(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def _positive(x) -> bool:
    return _real(x) and x > 0


def _int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _grid_size(x) -> bool:
    return _int(x) and x >= 8


def _path(x) -> bool:
    return isinstance(x, (str, os.PathLike)) and x != ""


def _list_of(test, x, dim=None) -> bool:
    return (isinstance(x, (list, tuple)) and (dim is None or len(x) == dim)
            and all(map(test, x)))


def _distinct(test, x) -> bool:
    return _list_of(test, x) and 0 < len(x) == len(set(x))


# value kinds of every config key: (description, test of a value on `dim`
# axes; None: any axis count).  A kind states a value's whole rule, its type
# and then its range, so one test decides each value.  A test takes a Python
# caller's form of a JSON value too (a tuple, a numpy scalar, a path object);
# a bool is never a number.
VALUE_KINDS = {
    "real": ("a finite number", lambda x, dim: _real(x)),
    "nonneg": ("a finite number >= 0", lambda x, dim: _real(x) and x >= 0),
    "positive": ("a finite number > 0", lambda x, dim: _positive(x)),
    "power": ("a finite number >= 1", lambda x, dim: _real(x) and x >= 1),
    "fraction": ("a number in [0, 1]", lambda x, dim: _real(x) and 0 <= x <= 1),
    "open fraction": ("a number in (0, 1)", lambda x, dim: _real(x) and 0 < x < 1),
    "step fraction": ("a number in (0, 1]", lambda x, dim: _real(x) and 0 < x <= 1),
    "switch": ("0 or 1", lambda x, dim: _int(x) and x in (0, 1)),
    "dim": ("1, 2 or 3", lambda x, dim: _int(x) and x in (1, 2, 3)),
    "count": ("an integer >= 0", lambda x, dim: _int(x) and x >= 0),
    "positive count": ("an integer >= 1", lambda x, dim: _int(x) and x >= 1),
    "mode": (" or ".join(map(repr, VALID_MODES)),
             lambda x, dim: isinstance(x, str) and x in VALID_MODES),
    "text": ("a string", lambda x, dim: isinstance(x, (str, os.PathLike))),
    "path": ("a nonempty string", lambda x, dim: _path(x)),
    "reals": ("a list of finite numbers", lambda x, dim: _list_of(_real, x)),
    "per-axis positive": ("a finite number > 0 or a list of them",
                          lambda x, dim: _positive(x) or _list_of(_positive, x)),
    "per-axis grid size": ("an integer >= 8 or a list of them",
                           lambda x, dim: _grid_size(x) or _list_of(_grid_size, x)),
    "point": ("a list of one finite number per axis",
              lambda x, dim: _list_of(_real, x, dim)),
    "paths": ("a list of one nonempty string per axis",
              lambda x, dim: _list_of(_path, x, dim)),
    "distinct positives": ("a nonempty list of distinct finite numbers > 0",
                           lambda x, dim: _distinct(_positive, x)),
    "grid sizes": ("a nonempty list of distinct integers >= 8",
                   lambda x, dim: _distinct(_grid_size, x)),
}


def schema_problems(where: str, value, schema, dim: int | None = None) -> list[str]:
    """Every way `value`, found at `where`, departs from `schema`.  With
    `where` empty (a dataclass's own fields), a problem names just its key."""
    if not isinstance(value, dict):
        return [f"{where}: must be a JSON object"]
    if schema is None:
        return []
    at = f"{where}." if where else ""
    default, types = schema
    typed = default is not None
    kind = value.get("type", default) if typed else None
    # tuple membership compares by ==, so an unhashable kind is no error
    if kind not in tuple(types):
        return [f"{at}type: unknown type {kind!r} "
                f"(expected one of {', '.join(types)})"]
    required, optional = types[kind]
    keys = {**required, **optional}
    suffix = f" for type {kind!r}" if typed else ""
    problems = []
    for key, item in value.items():
        if typed and key == "type":
            continue
        takes = keys.get(key)
        if takes is None:
            names = (["type"] if typed else []) + list(keys)
            problems.append(f"{at}{key}: unknown key{suffix} "
                            f"(expected one of {', '.join(names)})")
        elif isinstance(takes, tuple):
            problems += schema_problems(f"{at}{key}", item, takes, dim)
        elif not (item is None and takes.endswith("?")):
            what, ok = VALUE_KINDS[takes.rstrip("?")]
            if not ok(item, dim):
                problems.append(f"{at}{key}: must be {what}, got {item!r}")
    problems.extend(f"{at}{key}: required key missing{suffix}"
                    for key in required if key not in value)
    return problems


def check_section(where: str, value, keys: dict, dim: int | None = None) -> None:
    """Raise ConfigError listing every problem of `value`, a section on `dim`
    axes whose keys are all optional and take the kinds or entries in `keys`."""
    problems = schema_problems(where, value, (None, {None: ({}, keys)}), dim)
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

"""Cell-centered finite-difference grid: fields, operators, quadrature, IO.

All fields live at cell centers of a uniform grid on an origin-centered box,
x_i = -L/2 + (i+1/2)h per axis.  Stencils are 2nd-order central differences.
Boundary closure is by ghost cells.  Every stencil reads its neighbours
through `shifted`, which joins the interior cells to one ghost cell per
line.  The ghost is

  periodic  the cell at the opposite end of the line (wrap-around)
  neumann   the wall cell itself, "mirror" (so the normal derivative vanishes
            at the wall), for scalar quantities; 0, "zero", for velocity
            components (no-slip walls); the negated wall cell, "odd", for
            quantities antisymmetric at a wall, such as the normal component
            of a scalar's gradient

`laplacian` is defined literally as divergence(gradient(.)), which makes the
operator-compatibility identity exact by construction; the price is a wider
(+-2h) stencil, still 2nd order.  The compact 5/7-point stencil is used only
inside the implicit solves (see solver), where its M-matrix sign structure is
what preserves positivity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .model import ConfigError, DomainSpec

__all__ = [
    "ScalarField", "VectorField", "shifted", "diff_central", "gradient",
    "divergence", "laplacian", "integrate", "lp_norm", "cell_centers", "mesh",
    "save_field", "load_field",
]


@dataclass
class ScalarField:
    domain: DomainSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != self.domain.shape:
            raise ValueError(
                f"field shape {self.data.shape} does not match domain {self.domain.shape}")


@dataclass
class VectorField:
    """Component-stacked vector field, data shape (dim,) + grid shape."""

    domain: DomainSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        want = (self.domain.dim,) + self.domain.shape
        if self.data.shape != want:
            raise ValueError(f"vector field shape {self.data.shape}, expected {want}")


def shifted(values: np.ndarray, spec: DomainSpec, axis: int, offset: int,
            ghost: str = "mirror") -> np.ndarray:
    """values[i+offset] along `axis` (offset +-1), one ghost cell at the end.

    The result is the interior slab joined to a one-cell ghost slab: the
    opposite end's cell in periodic boxes; at walls the wall cell itself
    ("mirror"), 0 ("zero") or the negated wall cell ("odd").  `axis` indexes
    grid axes; pass arrays whose trailing dims are the grid (leading
    component axes are fine, the axis is counted from the end).
    """
    if ghost not in ("mirror", "zero", "odd"):
        raise ValueError(f"unknown ghost mode {ghost!r}")
    if offset not in (1, -1):
        raise ValueError(f"offset must be +-1, got {offset}")
    lead = (slice(None),) * (values.ndim - spec.dim + axis)
    periodic = spec.mode == "periodic"
    # the ghost comes from the first cell when it wraps past the last one,
    # or when it mirrors the first one
    first = (offset == 1) == periodic
    edge = values[lead + (slice(0, 1) if first else slice(-1, None),)]
    if not periodic and ghost != "mirror":
        edge = -edge if ghost == "odd" else np.zeros_like(edge)
    body = values[lead + (slice(1, None) if offset == 1 else slice(None, -1),)]
    return np.concatenate((body, edge) if offset == 1 else (edge, body),
                          axis=len(lead))


def _summed(terms):
    """The builtin sum(terms), accumulated in place into the first term, which
    the caller must own.  Like sum, it starts from 0, which turns a -0.0
    first term into +0.0."""
    terms = iter(terms)
    total = next(terms)
    total += 0
    for term in terms:
        total += term
    return total


def diff_central(values: np.ndarray, spec: DomainSpec, axis: int,
                 ghost: str = "mirror") -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2h along one axis, on raw arrays."""
    out = shifted(values, spec, axis, 1, ghost)
    out -= shifted(values, spec, axis, -1, ghost)
    # an integer difference divides into a new float array
    return np.divide(out, 2.0 * spec.spacing[axis],
                     out=out if out.dtype.kind in "fc" else None)


def gradient(f: ScalarField, ghost: str = "mirror") -> VectorField:
    """Central-difference gradient; mirror ghosts by default (scalar fields)."""
    comps = [diff_central(f.data, f.domain, d, ghost) for d in range(f.domain.dim)]
    return VectorField(f.domain, np.stack(comps))


def divergence(v: VectorField, ghost: str = "zero") -> ScalarField:
    """Central-difference divergence; zero ghosts by default (velocity)."""
    spec = v.domain
    return ScalarField(spec, _summed(diff_central(v.data[d], spec, d, ghost)
                                     for d in range(spec.dim)))


def laplacian(f: ScalarField) -> ScalarField:
    # Literal composition, so operator compatibility is exact by construction.
    # The outer stage extends the gradient with odd ghosts: a scalar obeying
    # the wall mirror has an odd normal gradient there, and any even ghost
    # choice would cost an O(1) wall error.
    return divergence(gradient(f), ghost="odd")


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral over the box (exact for cell-center samples)."""
    return float(np.sum(f.data)) * f.domain.cell_volume


def lp_norm(f: ScalarField | VectorField, p: float) -> float:
    """L^p norm; vector fields use the pointwise Euclidean magnitude.

    p = inf returns max |f|; any other p not >= 1 (p < 1, -inf or nan) is
    rejected (not a norm).
    """
    if isinstance(f, VectorField):
        mag = np.sqrt(np.sum(f.data * f.data, axis=0))
    else:
        mag = np.abs(f.data)
    if p == np.inf:
        return float(np.max(mag))
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    vol = f.domain.cell_volume
    return float(np.sum(mag ** p) * vol) ** (1.0 / p)


@lru_cache(maxsize=64)
def cell_centers(spec: DomainSpec) -> tuple[np.ndarray, ...]:
    """Per-axis 1D arrays of cell-center coordinates."""
    out = []
    for L, N, h in zip(spec.lengths, spec.resolution, spec.spacing):
        out.append(-0.5 * L + (np.arange(N) + 0.5) * h)
    return tuple(out)


@lru_cache(maxsize=64)
def mesh(spec: DomainSpec) -> tuple[np.ndarray, ...]:
    """Broadcastable (sparse meshgrid) coordinate arrays."""
    return tuple(np.meshgrid(*cell_centers(spec), indexing="ij", sparse=True))


# ---------------------------------------------------------------------------
# snapshot IO: raw little-endian float64 (C order) + JSON sidecar

def _paths(path) -> tuple[Path, Path]:
    base = Path(path)
    if base.suffix in (".f64", ".json"):
        base = base.with_suffix("")
    return base.with_suffix(".f64"), base.with_suffix(".json")


def save_field(f: ScalarField, path, name: str, time: float) -> Path:
    raw, side = _paths(path)
    raw.write_bytes(np.ascontiguousarray(f.data, dtype="<f8").tobytes())
    meta = {
        "field": name,
        "time": float(time),
        "dim": f.domain.dim,
        "mode": f.domain.mode,
        "resolution": list(f.domain.resolution),
        "lengths": list(f.domain.lengths),
    }
    side.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return raw


def load_field(path, domain: DomainSpec) -> tuple[ScalarField, dict]:
    """Read a snapshot back, validating its grid against `domain`.

    Raises ConfigError for a sidecar that is not a JSON object holding
    `resolution` and `lengths` or that differs from `domain`, and for a raw
    file without one value per cell; OSError for a file it cannot read.
    """
    raw, side = _paths(path)
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"snapshot sidecar {side} is not valid JSON: {exc}"]) from None
    if not isinstance(meta, dict) or not {"resolution", "lengths"} <= meta.keys():
        raise ConfigError([f"snapshot sidecar {side} must be a JSON object "
                           "holding resolution and lengths"])
    for key in ("resolution", "lengths"):
        if meta[key] != list(getattr(domain, key)):
            raise ConfigError([f"snapshot {key} {meta[key]} does not match "
                               f"domain {getattr(domain, key)}"])
    data = raw.read_bytes()
    if len(data) != 8 * int(np.prod(domain.shape)):
        raise ConfigError([f"snapshot {raw} holds {len(data)} bytes, not 8 per "
                           f"cell of resolution {domain.resolution}"])
    values = np.frombuffer(data, dtype="<f8").reshape(domain.shape)
    return ScalarField(domain, values.copy()), meta

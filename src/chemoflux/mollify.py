"""Compactly supported smoothing of initial data.

The kernel is the classical radial bump exp(-1/(1-(r/rho)^2)) truncated at
r = rho, sampled at cell-center offsets and normalized so the discrete weights
sum to exactly 1.  Because the weights are a convex combination, mollification
preserves positivity and never amplifies the max; in periodic mode the discrete
mass is preserved to roundoff.  In neumann mode part of the stencil hangs past
the wall, so each output cell is renormalized by the sum of the weights that
actually landed inside the box (this keeps constants exact and positivity
intact, at the price of exact mass conservation near walls).

A radius below two grid spacings cannot be resolved and degenerates to the
identity by design.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve

from .model import DomainSpec


@lru_cache(maxsize=64)
def _kernel(spec: DomainSpec, rho: float) -> np.ndarray | None:
    """Normalized bump weights on the offset lattice, or None for identity."""
    h = spec.spacing
    if rho < 2.0 * min(h):
        return None
    axes_sq = []
    for d in range(spec.dim):
        K = int(np.ceil(rho / h[d]))
        offs = np.arange(-K, K + 1) * h[d]
        axes_sq.append(offs * offs)
    grids = np.meshgrid(*axes_sq, indexing="ij")
    r_sq = sum(grids)
    ratio = r_sq / (rho * rho)
    w = np.zeros_like(ratio)
    inside = ratio < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - ratio[inside]))
    total = w.sum()
    if total <= 0:
        return None
    return w / total


@lru_cache(maxsize=64)
def _wall_weight(spec: DomainSpec, rho: float) -> np.ndarray:
    # Sum of in-box kernel weights per cell; equals 1 away from walls.
    kern = _kernel(spec, rho)
    ones = np.ones(spec.shape)
    return convolve(ones, kern, mode="constant", cval=0.0)


def mollify_values(values: np.ndarray, spec: DomainSpec, rho: float) -> np.ndarray:
    if not (np.isfinite(rho) and rho >= 0.0):
        raise ValueError("smoothing radius must be finite and nonnegative")
    kern = _kernel(spec, rho)
    if kern is None:
        return values.copy()
    if spec.mode == "periodic":
        return convolve(values, kern, mode="wrap")
    out = convolve(values, kern, mode="constant", cval=0.0)
    return out / _wall_weight(spec, rho)

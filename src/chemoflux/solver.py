"""Time integration of the coupled cell/chemical/fluid system.

One step advances, in order:

  1. cells n: explicit conservative update.  Per axis, the right-face flux is
       F = w_face * upwind(n) - (g_R - g_L)/h,   g = (n+rho)^(1+alpha),
     with w_face = chi(c_face) * central dc/dx + face-averaged u.  The update
     telescopes, so mass is conserved to roundoff; under the stable_dt bound
     the update is a convex combination, so nonnegativity is preserved.
  2. chemical c: explicit upwind advection by u, then the linearly implicit
     consumption factor c <- c/(1 + dt n kappa_coeff c^{m-1}), then implicit
     diffusion with the compact stencil.  Every substep obeys the discrete
     max principle, so min c >= 0 and max c is non-increasing.
  3. fluid u: explicit buoyancy -n grad(phi) (plus upwind self-advection when
     tau = 1), implicit viscosity, then projection to discrete divergence-free.

`run` computes the face drift w of each state once and hands it to both
`stable_dt` and `step`; either called without it computes it itself, with
the same bits.  The upwind side of every advection term is picked before the
multiply, from one mask u_e > 0 per axis.

`step` and `project` return fresh arrays.  Neither writes into the input
state, the arrays of the `faces` given to `step` (`step` empties that list),
the arrays `sources` returns or the cached solve table.  The step computes
each expression in place in the temporaries it made itself (a `shifted`
slab, a ufunc or FFT result), with the same operands in the same order as
the plain expression, so the bits are the plain expression's; it keeps no
buffer between calls.

The implicit solves and the projection are one cached table per box,
`_solves(spec)`, with `helmholtz` and `fluid`; `step` and `project` call it
whatever the boundary mode.  A periodic table solves spectrally with the
exact symbols of the difference stencils (sin(kh)/h for the central gradient,
2(cos(kh)-1)/h^2 for the compact laplacian), so the projected velocity is
divergence-free to machine precision.  Its pressure is kept as its
spectrum and transformed on the first read of `p.data` (only snapshots read
it).  A walled table uses fast diagonalization: each walled operator is a
Kronecker sum of 1D matrices, so a dense eigendecomposition per axis solves
it exactly, and the projected velocity is discrete divergence-free to
roundoff as well.

`build_initial` checks an `initial` config section against
`model.INITIAL_SCHEMA` and builds the fields it describes, and `run` drives
the steps, the records and the output an `output` section
(`model.OUTPUT_SCHEMA`) asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib import import_module
from pathlib import Path
from types import ModuleType

import numpy as np

from .diagnostics import DiagnosticsRecord, compute_record, write_csv
from .grid import (ScalarField, VectorField, diff_central, divergence, integrate,
                   mesh, save_field, load_field, lp_norm, shifted, _summed)
from .mollify import mollify_values
from .model import (INITIAL_SCHEMA, OUTPUT_SCHEMA, ChiKappaModel, ConfigError,
                    DomainSpec, SimParams, SolverError, check_section,
                    classify_assumption)

NEG_TOL = -1e-13          # below this, the cell update is declared unstable
_workers = 1


class _ImportedOnFirstUse(ModuleType):
    """A module imported on the first read of one of its names."""

    def __getattr__(self, name):
        value = getattr(import_module(self.__name__), name)
        setattr(self, name, value)
        return value


# scipy.fft loads on the first periodic solve, so a walled run loads no scipy.
# Every FFT goes through this module attribute: tests and tracers swap it.
sfft = _ImportedOnFirstUse("scipy.fft")


def set_threads(k: int) -> None:
    """FFT worker count (results are bit-identical for any k; default 1).
    ConfigError unless k is an integer >= 1."""
    global _workers
    check_section("", {"threads": k}, {"threads": "positive count"})
    _workers = int(k)


@dataclass
class FieldState:
    """The fields at time t.  In periodic boxes that the solver made, p holds
    its spectrum until `p.data` is first read."""

    t: float
    n: ScalarField
    c: ScalarField
    u: VectorField
    p: ScalarField


class _SpectralPressure(ScalarField):
    """A periodic pressure kept as its rfftn spectrum: `data` is the inverse
    transform, made on the first read and then kept."""

    def __init__(self, domain: DomainSpec, spectrum: np.ndarray):
        self.domain = domain
        self._spectrum = spectrum
        self._data = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = sfft.irfftn(self._spectrum, s=self.domain.shape,
                                     workers=_workers)
            self._spectrum = None
        return self._data


# ---------------------------------------------------------------------------
# direct solves: one table per box

class _PeriodicSolves:
    """Spectral solves, exact in the stencil symbols on the rfftn layout:
    the per-axis gradient symbols `sins`, their square sum `s_sq`, and the
    compact laplacian symbol `lam`."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        dim, shape = spec.dim, spec.shape
        sins, lam = [], None
        for d in range(dim):
            N, h = shape[d], spec.spacing[d]
            if d == dim - 1:
                k = np.arange(N // 2 + 1, dtype=float)
            else:
                k = np.fft.fftfreq(N, 1.0 / N)
            theta = 2.0 * np.pi * k / N
            newshape = [1] * dim
            newshape[d] = -1
            s = (np.sin(theta) / h).reshape(newshape)
            # sin(pi) rounds to ~2e-16, not 0; the Nyquist column must be an
            # exact symbol zero or the projector divides by its square
            s[np.abs(2.0 * k.reshape(newshape)) % N == 0] = 0.0
            l = ((2.0 * np.cos(theta) - 2.0) / (h * h)).reshape(newshape)
            sins.append(s)
            lam = l if lam is None else lam + l
        s_sq = sins[0] * sins[0]
        for s in sins[1:]:
            s_sq = s_sq + s * s
        self.sins, self.s_sq, self.lam = tuple(sins), s_sq, lam

    def helmholtz(self, values: np.ndarray, dt: float) -> np.ndarray:
        vh = sfft.rfftn(values, workers=_workers)
        vh /= _one_minus(dt, self.lam)
        return sfft.irfftn(vh, s=self.spec.shape, workers=_workers)

    def fluid(self, v, dt: float):
        """Viscosity and projection are both diagonal in Fourier space, so
        fusing them is exactly the sequential composition; p is kept as its
        spectrum."""
        vh = [sfft.rfftn(comp, workers=_workers) for comp in v]
        if dt > 0.0:
            visc = _one_minus(dt, self.lam)
            for x in vh:
                x /= visc
        div_h = _summed(s * x for s, x in zip(self.sins, vh))
        np.multiply(1j, div_h, out=div_h)
        ph = np.zeros_like(div_h)
        np.divide(div_h, -self.s_sq, out=ph, where=self.s_sq > 0)
        u = []
        for s, x in zip(self.sins, vh):
            np.subtract(x, np.multiply(1j * s, ph), out=x)
            u.append(sfft.irfftn(x, s=self.spec.shape, workers=_workers))
        return np.stack(u), _SpectralPressure(self.spec, ph)


def _one_minus(dt: float, eig: np.ndarray) -> np.ndarray:
    """1 - dt*eig, the symbol of I - dt*L, in one fresh array."""
    out = np.multiply(dt, eig)
    return np.subtract(1.0, out, out=out)


def _separable(x: np.ndarray, mats) -> np.ndarray:
    """Contract axis d of x with mats[d], y_j = sum_i x_i m_ij, on every axis.
    Stacked matmuls, not tensordot: its one large product is split across
    BLAS threads, which stall when the other cores are busy."""
    for m in mats:
        x = np.moveaxis(x, 0, -1) @ m
    return x


class _WalledSolves:
    """Fast diagonalization (Lynch, Rice & Thomas 1964).  `bases[key]` holds
    the per-axis eigenvectors and the summed eigenvalues of three walled
    operators, each a Kronecker sum of 1D matrices: "mirror" and "zero" (the
    compact laplacian with that ghost kind) and "proj" (-sum_d T_d T_d, with
    T_d the zero-ghost central difference)."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        vecs = {"mirror": [], "zero": [], "proj": []}
        eigs = {key: [] for key in vecs}
        for N, h in zip(spec.shape, spec.spacing):
            zero = (np.eye(N, k=1) - 2.0 * np.eye(N) + np.eye(N, k=-1)) / (h * h)
            mirror = zero.copy()
            mirror[0, 0] = mirror[-1, -1] = -1.0 / (h * h)
            t = (np.eye(N, k=1) - np.eye(N, k=-1)) / (2.0 * h)
            for key, mat in (("mirror", mirror), ("zero", zero), ("proj", -t @ t)):
                w, q = np.linalg.eigh(mat)
                if key == "proj" and N % 2:
                    # an odd-sized antisymmetric T_d is singular; its kernel
                    # eigenvalue comes out as roundoff and must be an exact zero
                    w[0] = 0.0
                vecs[key].append(q)
                eigs[key].append(w)
        self.bases = {key: (tuple(vecs[key]), reduce(np.add.outer, eigs[key]))
                      for key in vecs}

    def _inverse(self, values: np.ndarray, dt: float, ghost: str) -> np.ndarray:
        # (I - dt*lap_compact)^{-1} with `ghost` walls, exact in the eigenbasis
        vecs, eig = self.bases[ghost]
        vh = _separable(values, vecs)
        vh /= _one_minus(dt, eig)
        return _separable(vh, [q.T for q in vecs])

    def helmholtz(self, values: np.ndarray, dt: float) -> np.ndarray:
        return self._inverse(values, dt, "mirror")

    def fluid(self, v, dt: float):
        """Viscosity with zero walls, then a correction of v by a discrete
        gradient so the zero-ghost divergence vanishes.

        Solves (-sum_d T_d T_d) lam = div0 v, then u = v + T lam, so div0 u = 0
        to roundoff.  When every axis is odd, each T_d is singular and the
        operator has a one-dimensional kernel; div0 v is orthogonal to it, so the
        pseudo-inverse (zero on that mode) still solves exactly.
        """
        spec = self.spec
        if dt > 0.0:
            v = [self._inverse(comp, dt, "zero") for comp in v]
        vecs, eig = self.bases["proj"]
        bh = _separable(divergence(VectorField(spec, v)).data, vecs)
        lam_h = np.zeros_like(bh)
        np.divide(bh, eig, out=lam_h, where=eig > 0.0)
        lam = _separable(lam_h, [q.T for q in vecs])
        u = np.stack(v)
        for d in range(spec.dim):
            u[d] += diff_central(lam, spec, d, "zero")
        lam -= float(np.mean(lam))
        return u, ScalarField(spec, np.negative(lam, out=lam))


@lru_cache(maxsize=32)
def _solves(spec: DomainSpec):
    """The box's direct solves, built on first use; the only place a solve
    reads the boundary mode.  `helmholtz(values, dt)` is (I - dt*lap_compact)^-1
    with mirror walls; `fluid(v, dt)` does implicit viscosity (skipped for
    dt=0), then projection, of the components v, and returns (stacked u, p)."""
    return (_PeriodicSolves if spec.mode == "periodic" else _WalledSolves)(spec)


def project(v: VectorField):
    """Discrete Leray projection: returns (u, p) with u discrete
    divergence-free and integrate(p) = 0."""
    u, p = _solves(v.domain).fluid(v.data, 0.0)
    return VectorField(v.domain, u), p


# ---------------------------------------------------------------------------
# stability bound

def _face_drift(state: FieldState, params: SimParams,
                model: ChiKappaModel) -> list[np.ndarray]:
    """Drift w = chi(c_face) dc/dx + face-averaged u on the right faces of
    each axis (mirror ghosts for c, zero ghosts for u).

    A constant chi (chi_slope 0) skips the face average: chi_offset + 0 * x
    is chi_offset for finite x, since ChiKappaModel then holds chi_offset > 0
    (never -0.0, where -0.0 + 0.0 * x would give +0.0).
    """
    spec = params.domain
    c, u = state.c.data, state.u.data
    faces = []
    for d in range(spec.dim):
        c_r = shifted(c, spec, d, 1, "mirror")
        u_r = shifted(u[d], spec, d, 1, "zero")
        if model.chi_slope == 0.0:
            chi_face = model.chi_offset
        else:
            chi_face = np.add(c, c_r)
            np.multiply(model.chi_slope * 0.5, chi_face, out=chi_face)
            np.add(model.chi_offset, chi_face, out=chi_face)
        # w = chi_face * (c_r - c) / h + 0.5 * (u + u_r), built in c_r
        np.subtract(c_r, c, out=c_r)
        np.multiply(chi_face, c_r, out=c_r)
        c_r /= spec.spacing[d]
        np.add(u[d], u_r, out=u_r)
        np.multiply(0.5, u_r, out=u_r)
        c_r += u_r
        faces.append(c_r)
    return faces


def stable_dt(state: FieldState, params: SimParams, model: ChiKappaModel,
              faces: list | None = None) -> float:
    """cfl_safety times the positivity/max-principle step bound.

    Diffusion: 1/(2 (1+alpha) (max n + rho)^alpha sum_d h_d^-2), the explicit
    bound for the degenerate flux with slope g' <= (1+alpha)(max n+rho)^alpha
    (reduces to h^2/(2 dim (1+alpha)(max n+rho)^alpha) on uniform grids).
    Transport: 1/sum_d(max(|w_d|, |u_d|)/h_d) with w = chi(c) grad c + u; the
    raw |u_d| enters because the c and u updates advect by u alone and w can
    cancel below it.  `faces` is the state's face drift per axis, computed
    here when not given.
    """
    spec = params.domain
    n, u = state.n.data, state.u.data
    alpha = params.alpha
    inv_h2 = sum(1.0 / h ** 2 for h in spec.spacing)
    with np.errstate(over="ignore"):    # inf: the bound is 0, which `run` refuses
        slope = float((np.max(n) + params.rho) ** alpha)
    diff_limit = 1.0 / (2.0 * (1.0 + alpha) * slope * inv_h2)
    if faces is None:
        faces = _face_drift(state, params, model)
    speed = 0.0
    for d in range(spec.dim):
        w = np.abs(faces[d])
        speed += max(float(np.max(w)), float(np.max(np.abs(u[d])))) / spec.spacing[d]
    limit = diff_limit if speed == 0.0 else min(diff_limit, 1.0 / speed)
    return params.cfl_safety * limit


# ---------------------------------------------------------------------------
# one step

def _upwind(q: np.ndarray, a: np.ndarray, up: np.ndarray, spec: DomainSpec,
            d: int, ghost: str) -> np.ndarray:
    """a dq/dx along axis d, differenced on the upwind side of a (up is
    a > 0): the forward difference, overwritten by the backward one where
    up, then scaled in place."""
    dq = shifted(q, spec, d, 1, ghost)
    dq -= q
    back = shifted(q, spec, d, -1, ghost)
    np.copyto(dq, np.subtract(q, back, out=back), where=up)
    np.multiply(a, dq, out=dq)
    dq /= spec.spacing[d]
    return dq


def _flux_difference(n: np.ndarray, g: np.ndarray, w: np.ndarray,
                     spec: DomainSpec, d: int) -> np.ndarray:
    """(F - F_left)/h along axis d, with the right-face cell flux
    F = w * n_up - (g_r - g)/h, n_up the n of the face's upwind cell (the
    right one, or this one where w > 0)."""
    h = spec.spacing[d]
    f = shifted(n, spec, d, 1, "mirror")
    np.copyto(f, n, where=w > 0.0)
    np.multiply(w, f, out=f)
    g_r = shifted(g, spec, d, 1, "mirror")
    g_r -= g
    g_r /= h
    f -= g_r
    if spec.mode == "neumann":    # no flux through the right wall
        f[(slice(None),) * d + (slice(-1, None),)] = 0.0
    f_l = shifted(f, spec, d, -1, "zero")
    np.subtract(f, f_l, out=f_l)
    f_l /= h
    return f_l


def step(state: FieldState, params: SimParams, model: ChiKappaModel, dt: float,
         sources=None, work: dict | None = None,
         faces: list | None = None) -> FieldState:
    """Advance the state by dt.

    `sources` is an optional callable t -> (s_n, s_c, s_u) of forcing arrays
    (used by the manufactured-solution studies); `work` is an optional dict
    that receives the pre-clip minima of n and c.  `faces` is the state's
    face drift per axis, computed here when not given; the list is emptied
    once the cell flux is done, so its arrays are freed before the fluid
    solve.
    """
    spec = params.domain
    dim = spec.dim
    n, c, u = state.n.data, state.c.data, state.u.data
    alpha, rho, tau = params.alpha, params.rho, params.tau
    if sources is not None:
        s_n, s_c, s_u = sources(state.t)

    # --- 1. cells: conservative flux update
    if faces is None:
        faces = _face_drift(state, params, model)
    g = np.add(n, rho)
    np.power(g, 1.0 + alpha, out=g)
    flux_div = _summed(_flux_difference(n, g, faces[d], spec, d)
                       for d in range(dim))
    faces.clear()
    np.multiply(dt, flux_div, out=flux_div)
    n_new = np.subtract(n, flux_div, out=flux_div)
    if sources is not None:
        n_new += dt * s_n
    min_n_raw = float(np.min(n_new))
    if min_n_raw < NEG_TOL:
        raise SolverError(
            f"cell density dropped to {min_n_raw:.3e} at t={state.t + dt:.6g}; "
            "the step is unstable (check cfl_safety / dt_max)")
    np.maximum(n_new, 0.0, out=n_new)

    # --- 2. chemical: upwind advection, implicit consumption, diffusion
    # (`_summed`, like sum, starts from 0, which turns a -0.0 first term into
    # +0.0; summing from the first term would change signed zeros)
    up = [u[d] > 0.0 for d in range(dim)]
    c1 = _summed(_upwind(c, u[d], up[d], spec, d, "mirror") for d in range(dim))
    np.multiply(dt, c1, out=c1)
    np.subtract(c, c1, out=c1)
    if model.kappa_coeff > 0.0:
        rate = np.multiply(model.kappa_coeff, n)
        if model.kappa_power != 1.0:
            power = np.maximum(c1, 0.0)
            rate *= np.power(power, model.kappa_power - 1.0, out=power)
        # c1 / (1 + dt * rate)
        np.multiply(dt, rate, out=rate)
        np.add(1.0, rate, out=rate)
        c1 /= rate
    c_new = _solves(spec).helmholtz(c1, dt)
    if sources is not None:
        c_new += dt * s_c
    min_c_raw = float(np.min(c_new))
    np.maximum(c_new, 0.0, out=c_new)

    # --- 3. fluid: forcing, (self-advection), viscosity, projection
    v = []
    for d in range(dim):
        comp = np.multiply(dt * params.phi_gradient[d], n)
        np.subtract(u[d], comp, out=comp)
        if tau == 1:
            adv = _summed(_upwind(u[d], u[e], up[e], spec, e, "zero")
                          for e in range(dim))
            np.multiply(dt, adv, out=adv)
            comp -= adv
        if sources is not None:
            comp += dt * s_u[d]
        v.append(comp)
    u_new, p_new = _solves(spec).fluid(v, dt)
    # np.maximum keeps NaN, so the clipped n and c still show a bad step
    for name, values in (("cell density", n_new), ("chemical", c_new),
                         ("velocity", u_new)):
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite {name} at t={state.t + dt:.6g}")

    if work is not None:
        work.update(min_n_raw=min_n_raw, min_c_raw=min_c_raw)
    return FieldState(state.t + dt, ScalarField(spec, n_new),
                      ScalarField(spec, c_new), VectorField(spec, u_new), p_new)


# ---------------------------------------------------------------------------
# initial data

def _gaussian(spec: DomainSpec, sigma: float, center) -> np.ndarray:
    """Separable Gaussian bump; periodic boxes sum the +-1 axis images so the
    profile stays smooth across the seam (further images are below roundoff
    for any sigma << L)."""
    if not sigma * sigma > 0:
        raise ConfigError([f"gaussian sigma {sigma} squares to 0"])
    xs = mesh(spec)
    out = np.ones(spec.shape)
    inv = 1.0 / (2.0 * sigma * sigma)
    for d, X in enumerate(xs):
        dx = X - center[d]
        axis = np.exp(-dx * dx * inv)
        if spec.mode == "periodic":
            L = spec.lengths[d]
            axis = axis + np.exp(-(dx - L) ** 2 * inv) + np.exp(-(dx + L) ** 2 * inv)
        out = out * axis
    return out


def _vortex(spec: DomainSpec, amplitude: float) -> np.ndarray:
    """Smooth divergence-compatible swirl in the first two axes."""
    if spec.dim == 1:
        return np.zeros((1,) + spec.shape)
    xs = mesh(spec)
    out = np.zeros((spec.dim,) + spec.shape)
    if spec.mode == "periodic":
        kx = 2.0 * np.pi / spec.lengths[0]
        ky = 2.0 * np.pi / spec.lengths[1]
        sx = np.sin(kx * (xs[0] + 0.5 * spec.lengths[0]))
        cx = np.cos(kx * (xs[0] + 0.5 * spec.lengths[0]))
        sy = np.sin(ky * (xs[1] + 0.5 * spec.lengths[1]))
        cy = np.cos(ky * (xs[1] + 0.5 * spec.lengths[1]))
        out[0] = amplitude * sx * cy
        out[1] = -amplitude * cx * sy
    else:
        # stream function A sin^2(pi x~) sin^2(pi y~) vanishes with its
        # tangential derivative at the walls (no-slip compatible)
        tx = np.pi * (xs[0] + 0.5 * spec.lengths[0]) / spec.lengths[0]
        ty = np.pi * (xs[1] + 0.5 * spec.lengths[1]) / spec.lengths[1]
        out[0] = (amplitude * np.sin(tx) ** 2
                  * 2.0 * np.sin(ty) * np.cos(ty) * np.pi / spec.lengths[1])
        out[1] = (-amplitude * 2.0 * np.sin(tx) * np.cos(tx) * np.pi / spec.lengths[0]
                  * np.sin(ty) ** 2)
    return out


def build_initial(spec: DomainSpec, initial: dict):
    """Construct (n, c, u) arrays from the `initial` config section (see
    model.INITIAL_SCHEMA).  `perturb` multiplies n by 1 + amplitude
    * U(-1, 1), before a gaussian n is normalized to its mass.

    Raises, before anything is built, one ConfigError listing every way
    `initial` departs from the schema on this box; then ConfigError for
    data bad only once built: a gaussian sigma that squares to 0 or n
    without mass, non-finite data, negative n or c, and a snapshot
    `load_field` rejects; OSError for a snapshot it cannot read.
    """
    check_section("initial", initial, INITIAL_SCHEMA, spec.dim)
    cfg_n = initial.get("n", {"type": "constant", "value": 1.0})
    cfg_c = initial.get("c", {"type": "constant", "value": 1.0})
    cfg_u = initial.get("u", {"type": "zero"})

    kind = cfg_n.get("type", INITIAL_SCHEMA["n"][0])
    if kind == "gaussian":
        n = _gaussian(spec, cfg_n["sigma"], cfg_n.get("center", (0.0,) * spec.dim))
    elif kind == "constant":
        n = np.full(spec.shape, cfg_n["value"], dtype=float)
    else:
        n = load_field(cfg_n["path"], spec)[0].data

    perturb = initial.get("perturb", {})
    if perturb.get("amplitude", 0.0) > 0.0:
        rng = np.random.default_rng(perturb.get("seed", 0))
        n = n * (1.0 + perturb["amplitude"] * (2.0 * rng.random(spec.shape) - 1.0))
    if kind == "gaussian":
        total = float(np.sum(n)) * spec.cell_volume
        if not total > 0:
            raise ConfigError([f"initial n: a gaussian of sigma {cfg_n['sigma']} "
                               "has no mass on this grid"])
        n = n * (cfg_n.get("mass", 1.0) / total)

    kind = cfg_c.get("type", INITIAL_SCHEMA["c"][0])
    if kind == "constant":
        c = np.full(spec.shape, cfg_c["value"], dtype=float)
    elif kind == "gaussian":
        c = (cfg_c.get("base", 0.0)
             + cfg_c["amplitude"]
             * _gaussian(spec, cfg_c["sigma"], cfg_c.get("center", (0.0,) * spec.dim)))
    else:
        c = load_field(cfg_c["path"], spec)[0].data

    kind = cfg_u.get("type", INITIAL_SCHEMA["u"][0])
    if kind == "zero":
        u = np.zeros((spec.dim,) + spec.shape)
    elif kind == "vortex":
        u = _vortex(spec, cfg_u.get("amplitude", 1.0))
    else:
        u = np.stack([load_field(p, spec)[0].data for p in cfg_u["paths"]])
    return _checked_data(spec, (n, c, u))


def _as_array(values) -> np.ndarray | None:
    """`values` as an array, or None for a ragged nested list, which has no
    shape."""
    try:
        return np.asarray(values)
    except ValueError:
        return None


def _checked_data(spec: DomainSpec, data: tuple) -> tuple:
    """`data`, (n, c, u), as float arrays; ConfigError unless they have the
    box's shapes, hold integers or floats (a bool is never a number) and are
    finite, with n and c nonnegative."""
    shapes = (spec.shape, spec.shape, (spec.dim,) + spec.shape)
    data = tuple(map(_as_array, data))
    got = tuple("ragged" if f is None else f.shape for f in data)
    if got != shapes:
        raise ConfigError([f"initial: the (n, c, u) arrays must have shapes "
                           f"{shapes}, got {got}"])
    if any(f.dtype.kind not in "iuf" for f in data):
        raise ConfigError(["initial: the (n, c, u) arrays must hold integers or "
                           f"floats, got {tuple(str(f.dtype) for f in data)}"])
    data = tuple(np.asarray(f, dtype=float) for f in data)
    if not all(np.all(np.isfinite(f)) for f in data):
        raise ConfigError(["initial n, c and u must be finite"])
    if np.min(data[0]) < 0 or np.min(data[1]) < 0:
        raise ConfigError(["initial n and c must be nonnegative"])
    return data


def initial_state(params: SimParams, initial: dict | tuple) -> FieldState:
    """The t = 0 state: the initial data (an `initial` section for
    `build_initial`, or an (n, c, u) tuple of arrays of the box's shapes)
    mollified at radius rho, with the velocity projected.  Raises what
    `build_initial` raises."""
    spec = params.domain
    if isinstance(initial, tuple):
        n0, c0, u0 = _checked_data(spec, initial)
    else:
        n0, c0, u0 = build_initial(spec, initial)
    n0 = mollify_values(n0, spec, params.rho)
    c0 = mollify_values(c0, spec, params.rho)
    u0 = np.stack([mollify_values(u0[d], spec, params.rho) for d in range(spec.dim)])
    return FieldState(0.0, ScalarField(spec, n0), ScalarField(spec, c0),
                      *project(VectorField(spec, u0)))


# ---------------------------------------------------------------------------
# full runs

@dataclass
class RunResult:
    params: SimParams
    model: ChiKappaModel
    records: list[DiagnosticsRecord]
    state: FieldState
    warnings: list[str]
    guards: dict[str, float]
    csv_path: Path | None = None


def run(params: SimParams, model: ChiKappaModel, initial: dict | tuple,
        output: dict | None = None) -> RunResult:
    """Mollify and project the initial data (an `initial` config section or
    an (n, c, u) tuple of arrays: see `initial_state`), advance adaptively
    to t_final (or max_steps), record diagnostics at the sample cadence and
    the final state, and optionally write the CSV stream and field snapshots
    (of every `snapshot_every`-th record and of the final state).

    The `guards` dict tracks per-step (not just per-sample) invariants:
    max_div_residual, mass_drift, max_c_increase, min_n_raw, min_c_raw, steps.
    Raises ConfigError, before building the initial data, for an `output`
    off model.OUTPUT_SCHEMA or a sample_interval (given, or the default
    t_final/50) not above the time tolerance 1e-12 max(t_final, 1), where
    sample times stop advancing.
    """
    output = dict(output or {})
    check_section("output", output, OUTPUT_SCHEMA)
    sample_interval = output.get("sample_interval", params.t_final / 50.0)
    eps = 1e-12 * max(params.t_final, 1.0)
    if not eps < sample_interval < np.inf:
        got = (sample_interval if "sample_interval" in output else
               f"the default t_final/50 = {sample_interval}; raise params.t_final "
               "or set output.sample_interval")
        raise ConfigError([f"output.sample_interval: must be finite and > "
                           f"{eps:g}, got {got}"])
    out = output.get("out_dir")
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
    snapshot_every = output.get("snapshot_every", 0) if out is not None else 0

    state = initial_state(params, initial)
    warnings = []
    cls = classify_assumption(model, params)
    if not cls.weak_cases and not cls.bounded_cases:
        warnings.append("no structural assumption case is satisfied; "
                        "no a priori bound backs this run")

    guards = {"max_div_residual": 0.0, "mass_drift": 0.0, "max_c_increase": 0.0,
              "min_n_raw": np.inf, "min_c_raw": np.inf, "steps": 0}
    work = {"min_n_raw": float(np.min(state.n.data)),
            "min_c_raw": float(np.min(state.c.data))}
    mass0 = integrate(state.n)
    prev_max_c = np.inf           # no increase is counted at t = 0
    records: list[DiagnosticsRecord] = []
    next_sample = 0.0
    # an overflowing state stops the run at `step`'s finiteness check, and a
    # record value that overflows is written as inf; numpy need not warn too
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mass = integrate(state.n)
            guards["mass_drift"] = max(guards["mass_drift"],
                                       abs(mass - mass0) / max(abs(mass0), 1e-300))
            guards["min_n_raw"] = min(guards["min_n_raw"], work["min_n_raw"])
            guards["min_c_raw"] = min(guards["min_c_raw"], work["min_c_raw"])
            max_c = float(np.max(state.c.data))
            guards["max_c_increase"] = max(guards["max_c_increase"], max_c - prev_max_c)
            prev_max_c = max_c
            div_res = lp_norm(divergence(state.u), np.inf)
            guards["max_div_residual"] = max(guards["max_div_residual"], div_res)

            done = state.t >= params.t_final - eps or guards["steps"] == params.max_steps
            if state.t >= next_sample - eps or done:
                records.append(compute_record(state, params,
                                              prev=records[-1] if records else None))
                while next_sample <= state.t + eps:
                    next_sample += sample_interval
                idx = len(records) - 1
                if snapshot_every and (idx % snapshot_every == 0 or done):
                    _write_snapshots(out, state, idx)
            if done:
                break
            faces = _face_drift(state, params, model)
            dt = min(stable_dt(state, params, model, faces),
                     params.dt_max or np.inf,
                     params.t_final - state.t, next_sample - state.t)
            if dt <= 0.0:
                raise SolverError(f"stability bound collapsed to dt={dt} at t={state.t}")
            state = step(state, params, model, dt, work=work, faces=faces)
            guards["steps"] += 1

    csv_path = None
    if out is not None:
        csv_path = write_csv(records, out / output.get("csv", "diagnostics.csv"),
                             warnings)
    return RunResult(params, model, records, state, warnings, guards, csv_path)


def _write_snapshots(out: Path, state: FieldState, idx: int) -> None:
    """One snapshot round: n, c, p and each velocity component u0, u1, ..."""
    spec = state.n.domain
    fields = {"n": state.n.data, "c": state.c.data, "p": state.p.data,
              **{f"u{d}": state.u.data[d] for d in range(spec.dim)}}
    for name, values in fields.items():
        save_field(ScalarField(spec, values), out / f"{name}_{idx:05d}", name,
                   state.t)

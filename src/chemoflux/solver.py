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

Periodic boxes do the implicit solves and the projection spectrally with the
exact symbols of the difference stencils (sin(kh)/h for the central gradient,
2(cos(kh)-1)/h^2 for the compact laplacian), so the projected velocity is
divergence-free to machine precision.  Neumann boxes use fast
diagonalization: each walled operator is a Kronecker sum of 1D matrices, so a
dense eigendecomposition per axis solves it exactly, and the projected
velocity is discrete divergence-free to roundoff as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .diagnostics import DiagnosticsRecord, compute_record, write_csv
from .grid import (ScalarField, VectorField, diff_central, divergence, integrate,
                   mesh, save_field, load_field, lp_norm, shifted)
from .mollify import mollify_values
from .model import (ChiKappaModel, ConfigError, DomainSpec, SimParams,
                    classify_assumption)

NEG_TOL = -1e-13          # below this, the cell update is declared unstable
_workers = 1


def set_threads(k: int) -> None:
    """FFT worker count (results are identical for any k; default 1)."""
    global _workers
    _workers = max(1, int(k))


class SolverError(RuntimeError):
    pass


@dataclass
class FieldState:
    t: float
    n: ScalarField
    c: ScalarField
    u: VectorField
    p: ScalarField


# ---------------------------------------------------------------------------
# spectral tables (periodic mode)

@lru_cache(maxsize=32)
def _tables(spec: DomainSpec):
    """Per-axis gradient symbols s_d, their square sum, and the compact
    laplacian symbol, on the rfftn layout."""
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
    return tuple(sins), s_sq, lam


def _helmholtz_periodic(values: np.ndarray, spec: DomainSpec, dt: float) -> np.ndarray:
    # (I - dt*lap_compact)^{-1}, exact in the stencil symbol
    _, _, lam = _tables(spec)
    vh = sfft.rfftn(values, workers=_workers)
    vh /= (1.0 - dt * lam)
    return sfft.irfftn(vh, s=spec.shape, workers=_workers)


def _fluid_spectral(v, spec: DomainSpec, dt: float):
    """Implicit viscosity (skipped for dt=0) fused with projection.

    Both stages are diagonal in Fourier space, so fusing them is exactly the
    sequential composition.  Returns (u components, p).
    """
    sins, s_sq, lam = _tables(spec)
    vh = [sfft.rfftn(comp, workers=_workers) for comp in v]
    if dt > 0.0:
        visc = 1.0 - dt * lam
        vh = [x / visc for x in vh]
    div_h = (1j) * sum(s * x for s, x in zip(sins, vh))
    ph = np.zeros_like(div_h)
    np.divide(div_h, -s_sq, out=ph, where=s_sq > 0)
    u = [sfft.irfftn(x - 1j * s * ph, s=spec.shape, workers=_workers)
         for s, x in zip(sins, vh)]
    p = sfft.irfftn(ph, s=spec.shape, workers=_workers)
    return u, p


# ---------------------------------------------------------------------------
# fast diagonalization (neumann mode)

@lru_cache(maxsize=32)
def _wall_tables(spec: DomainSpec):
    """Per-axis eigenvectors and the summed eigenvalues of the three walled
    operators, each a Kronecker sum of 1D matrices: "mirror" and "zero" (the
    compact laplacian with that ghost kind) and "proj" (-sum_d T_d T_d, with
    T_d the zero-ghost central difference)."""
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
    return {key: (tuple(vecs[key]), reduce(np.add.outer, eigs[key]))
            for key in vecs}


def _separable(x: np.ndarray, mats) -> np.ndarray:
    """Contract axis d of x with mats[d], y_j = sum_i x_i m_ij, on every axis.
    Stacked matmuls, not tensordot: its one large product is split across
    BLAS threads, which stall when the other cores are busy."""
    for m in mats:
        x = np.moveaxis(x, 0, -1) @ m
    return x


def _helmholtz_walled(values: np.ndarray, spec: DomainSpec, dt: float,
                      ghost: str) -> np.ndarray:
    # (I - dt*lap_compact)^{-1} with `ghost` walls, exact in the eigenbasis
    vecs, eig = _wall_tables(spec)[ghost]
    vh = _separable(values, vecs) / (1.0 - dt * eig)
    return _separable(vh, [q.T for q in vecs])


def _project_walled(v, spec: DomainSpec):
    """Correct v by a discrete gradient so the zero-ghost divergence vanishes.

    Solves (-sum_d T_d T_d) lam = div0 v, then u = v + T lam, so div0 u = 0
    to roundoff.  When every axis is odd, each T_d is singular and the
    operator has a one-dimensional kernel; div0 v is orthogonal to it, so the
    pseudo-inverse (zero on that mode) still solves exactly.
    """
    vecs, eig = _wall_tables(spec)["proj"]
    bh = _separable(divergence(VectorField(spec, v)).data, vecs)
    lam_h = np.zeros_like(bh)
    np.divide(bh, eig, out=lam_h, where=eig > 0.0)
    lam = _separable(lam_h, [q.T for q in vecs])
    u = [v[d] + diff_central(lam, spec, d, "zero") for d in range(spec.dim)]
    p = -(lam - float(np.mean(lam)))
    return u, p


def _fluid_solve(v, spec: DomainSpec, dt: float):
    """Implicit viscosity (skipped for dt=0), then projection, of the
    components v; returns the stacked u and p."""
    if spec.mode == "periodic":
        u, p = _fluid_spectral(v, spec, dt)
    else:
        if dt > 0.0:
            v = [_helmholtz_walled(comp, spec, dt, "zero") for comp in v]
        u, p = _project_walled(v, spec)
    return np.stack(u), p


def project(v: VectorField):
    """Discrete Leray projection: returns (u, p) with u discrete
    divergence-free and integrate(p) = 0."""
    u, p = _fluid_solve(v.data, v.domain, 0.0)
    return VectorField(v.domain, u), ScalarField(v.domain, p)


# ---------------------------------------------------------------------------
# stability bound

def _face_velocity(c: np.ndarray, u: np.ndarray, spec: DomainSpec,
                   model: ChiKappaModel, d: int) -> np.ndarray:
    """Drift w = chi(c_face) dc/dx + face-averaged u on the right faces of
    axis d (mirror ghosts for c, zero ghosts for u)."""
    c_r = shifted(c, spec, d, 1, "mirror")
    u_r = shifted(u[d], spec, d, 1, "zero")
    chi_face = model.chi_offset + model.chi_slope * 0.5 * (c + c_r)
    return chi_face * (c_r - c) / spec.spacing[d] + 0.5 * (u[d] + u_r)


def stable_dt(state: FieldState, params: SimParams, model: ChiKappaModel) -> float:
    """cfl_safety times the positivity/max-principle step bound.

    Diffusion: 1/(2 (1+alpha) (max n + rho)^alpha sum_d h_d^-2), the explicit
    bound for the degenerate flux with slope g' <= (1+alpha)(max n+rho)^alpha
    (reduces to h^2/(2 dim (1+alpha)(max n+rho)^alpha) on uniform grids).
    Transport: 1/sum_d(max(|w_d|, |u_d|)/h_d) with w = chi(c) grad c + u; the
    raw |u_d| enters because the c and u updates advect by u alone and w can
    cancel below it.
    """
    spec = params.domain
    n, c, u = state.n.data, state.c.data, state.u.data
    alpha = params.alpha
    inv_h2 = sum(1.0 / h ** 2 for h in spec.spacing)
    diff_limit = 1.0 / (2.0 * (1.0 + alpha)
                        * (float(np.max(n)) + params.rho) ** alpha * inv_h2)
    speed = 0.0
    for d in range(spec.dim):
        w = np.abs(_face_velocity(c, u, spec, model, d))
        speed += max(float(np.max(w)), float(np.max(np.abs(u[d])))) / spec.spacing[d]
    limit = diff_limit if speed == 0.0 else min(diff_limit, 1.0 / speed)
    return params.cfl_safety * limit


# ---------------------------------------------------------------------------
# one step

def _upwind(q: np.ndarray, a: np.ndarray, spec: DomainSpec, d: int,
            ghost: str) -> np.ndarray:
    """a dq/dx along axis d, differenced on the upwind side of a."""
    q_r = shifted(q, spec, d, 1, ghost)
    q_l = shifted(q, spec, d, -1, ghost)
    return np.where(a > 0.0, a * (q - q_l), a * (q_r - q)) / spec.spacing[d]


def step(state: FieldState, params: SimParams, model: ChiKappaModel, dt: float,
         sources=None, work: dict | None = None) -> FieldState:
    """Advance the state by dt.

    `sources` is an optional callable t -> (s_n, s_c, s_u) of forcing arrays
    (used by the manufactured-solution studies); `work` is an optional dict
    that receives the pre-clip minima of n and c.
    """
    spec = params.domain
    dim = spec.dim
    h = spec.spacing
    n, c, u = state.n.data, state.c.data, state.u.data
    alpha, rho, tau = params.alpha, params.rho, params.tau
    neumann = spec.mode == "neumann"
    if sources is not None:
        s_n, s_c, s_u = sources(state.t)

    # --- 1. cells: conservative flux update
    g = np.power(n + rho, 1.0 + alpha)
    flux_div = np.zeros(spec.shape)
    for d in range(dim):
        n_r = shifted(n, spec, d, 1, "mirror")
        g_r = shifted(g, spec, d, 1, "mirror")
        w = _face_velocity(c, u, spec, model, d)
        f = np.where(w > 0.0, w * n, w * n_r) - (g_r - g) / h[d]
        if neumann:                   # no flux through the right wall
            f[(slice(None),) * d + (slice(-1, None),)] = 0.0
        flux_div += (f - shifted(f, spec, d, -1, "zero")) / h[d]
    n_new = n - dt * flux_div
    if sources is not None:
        n_new = n_new + dt * s_n
    min_n_raw = float(np.min(n_new))
    if min_n_raw < NEG_TOL:
        raise SolverError(
            f"cell density dropped to {min_n_raw:.3e} at t={state.t + dt:.6g}; "
            "the step is unstable (check cfl_safety / dt_max)")
    n_new = np.maximum(n_new, 0.0)

    # --- 2. chemical: upwind advection, implicit consumption, diffusion
    c1 = c - dt * sum(_upwind(c, u[d], spec, d, "mirror") for d in range(dim))
    if model.kappa_coeff > 0.0:
        if model.kappa_power == 1.0:
            rate = model.kappa_coeff * n
        else:
            rate = model.kappa_coeff * n * np.power(np.maximum(c1, 0.0),
                                                    model.kappa_power - 1.0)
        c1 = c1 / (1.0 + dt * rate)
    c2 = (_helmholtz_walled(c1, spec, dt, "mirror") if neumann
          else _helmholtz_periodic(c1, spec, dt))
    if sources is not None:
        c2 = c2 + dt * s_c
    min_c_raw = float(np.min(c2))
    c_new = np.maximum(c2, 0.0)

    # --- 3. fluid: forcing, (self-advection), viscosity, projection
    v = []
    for d in range(dim):
        comp = u[d] - dt * params.phi_gradient[d] * n
        if tau == 1:
            comp = comp - dt * sum(_upwind(u[d], u[e], spec, e, "zero")
                                   for e in range(dim))
        if sources is not None:
            comp = comp + dt * s_u[d]
        v.append(comp)
    u_new, p_new = _fluid_solve(v, spec, dt)
    # np.maximum keeps NaN, so the clipped n and c still show a bad step
    for name, values in (("cell density", n_new), ("chemical", c_new),
                         ("velocity", u_new)):
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite {name} at t={state.t + dt:.6g}")

    if work is not None:
        work.update(min_n_raw=min_n_raw, min_c_raw=min_c_raw)
    return FieldState(state.t + dt, ScalarField(spec, n_new),
                      ScalarField(spec, c_new), VectorField(spec, u_new),
                      ScalarField(spec, p_new))


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


# The JSON schema of the `initial` section.  Per field: the type taken when
# "type" is absent and, per type, its (required, optional) keys, each with
# the kind of value it takes; `perturb` has no types.  The CLI checks configs
# against this table and OUTPUT_SCHEMA.
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
OUTPUT_SCHEMA = (None, {None: ({}, {"out_dir": "text", "csv": "path",
                                    "sample_interval": "positive",
                                    "snapshot_every": "count"})})


def build_initial(spec: DomainSpec, initial: dict):
    """Construct (n, c, u) arrays from the `initial` config section (see
    INITIAL_SCHEMA; n may also be {"type": "array", "values"}, a programmatic
    route outside the JSON schema).  `perturb` multiplies n by 1 + amplitude
    * U(-1, 1), before a gaussian n is normalized to its mass.

    Raises ConfigError for data bad only once built: a gaussian sigma that
    squares to 0 or n without mass, non-finite data, negative n or c, and a
    snapshot `load_field` rejects; OSError for a snapshot it cannot read.
    """
    cfg_n = initial.get("n", {"type": "constant", "value": 1.0})
    cfg_c = initial.get("c", {"type": "constant", "value": 1.0})
    cfg_u = initial.get("u", {"type": "zero"})
    center = tuple(cfg_n.get("center", (0.0,) * spec.dim))

    kind = cfg_n.get("type", INITIAL_SCHEMA["n"][0])
    if kind == "gaussian":
        n = _gaussian(spec, float(cfg_n["sigma"]), center)
    elif kind == "constant":
        n = np.full(spec.shape, float(cfg_n["value"]))
    elif kind == "snapshot":
        n = load_field(cfg_n["path"], spec)[0].data
    elif kind == "array":
        # programmatic route (oracle studies); not part of the JSON schema
        n = np.array(cfg_n["values"], dtype=float).reshape(spec.shape)
    else:
        raise ValueError(f"unknown initial n type {kind!r}")

    perturb = initial.get("perturb")
    if perturb and float(perturb.get("amplitude", 0.0)) > 0.0:
        rng = np.random.default_rng(int(perturb.get("seed", 0)))
        n = n * (1.0 + float(perturb["amplitude"]) * (2.0 * rng.random(spec.shape) - 1.0))
    if kind == "gaussian":
        total = float(np.sum(n)) * spec.cell_volume
        if not total > 0:
            raise ConfigError([f"initial n: a gaussian of sigma {cfg_n['sigma']} "
                               "has no mass on this grid"])
        n = n * (float(cfg_n.get("mass", 1.0)) / total)

    kind = cfg_c.get("type", INITIAL_SCHEMA["c"][0])
    if kind == "constant":
        c = np.full(spec.shape, float(cfg_c["value"]))
    elif kind == "gaussian":
        c = (float(cfg_c.get("base", 0.0))
             + float(cfg_c["amplitude"])
             * _gaussian(spec, float(cfg_c["sigma"]),
                         tuple(cfg_c.get("center", (0.0,) * spec.dim))))
    elif kind == "snapshot":
        c = load_field(cfg_c["path"], spec)[0].data
    else:
        raise ValueError(f"unknown initial c type {kind!r}")

    kind = cfg_u.get("type", INITIAL_SCHEMA["u"][0])
    if kind == "zero":
        u = np.zeros((spec.dim,) + spec.shape)
    elif kind == "vortex":
        u = _vortex(spec, float(cfg_u.get("amplitude", 1.0)))
    elif kind == "snapshot":
        u = np.stack([load_field(p, spec)[0].data for p in cfg_u["paths"]])
    else:
        raise ValueError(f"unknown initial u type {kind!r}")

    if not all(np.all(np.isfinite(f)) for f in (n, c, u)):
        raise ConfigError(["initial n, c and u must be finite"])
    if np.min(n) < 0 or np.min(c) < 0:
        raise ConfigError(["initial n and c must be nonnegative"])
    return n, c, u


def initial_state(params: SimParams, initial: dict) -> FieldState:
    """The t = 0 state: `build_initial`'s data mollified at radius rho, with
    the velocity projected.  Raises what `build_initial` raises."""
    spec = params.domain
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


def run(params: SimParams, model: ChiKappaModel, initial: dict,
        output: dict | None = None) -> RunResult:
    """Mollify and project the initial data, advance adaptively to t_final
    (or max_steps), record diagnostics at the sample cadence and the final
    state, and optionally write the CSV stream and field snapshots (of every
    `snapshot_every`-th record and of the final state).

    The `guards` dict tracks per-step (not just per-sample) invariants:
    max_div_residual, mass_drift, max_c_increase, min_n_raw, min_c_raw, steps.
    """
    output = dict(output or {})
    out = output.get("out_dir")
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
    sample_interval = float(output.get("sample_interval", params.t_final / 50.0))
    snapshot_every = int(output.get("snapshot_every", 0)) if out is not None else 0

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
    eps = 1e-12 * max(params.t_final, 1.0)
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
            dt = min(stable_dt(state, params, model), params.dt_max or np.inf,
                     params.t_final - state.t, next_sample - state.t)
            if dt <= 0.0:
                raise SolverError(f"stability bound collapsed to dt={dt} at t={state.t}")
            state = step(state, params, model, dt, work=work)
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

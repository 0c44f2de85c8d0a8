"""Independent reference solutions used to cross-check the solver.

Three routes, none of which touch the discrete operators under test:

* uniform-state consumption: with spatially uniform data the PDE system
  collapses to dc/dt = -kappa(c) n, solved in closed form for every
  kappa_power;
* the radial self-similar source solution of the porous-medium subproblem,
  normalized to prescribed mass through the Beta-integral closed form;
* a manufactured solution with sympy-derived forcings, turning the full
  coupled stepper into a convergence study against known smooth fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn

from .grid import ScalarField, cell_centers, lp_norm, mesh
from .model import ChiKappaModel, DomainSpec, SimParams

__all__ = [
    "uniform_state_ode", "barenblatt", "ManufacturedProblem",
    "manufactured_problem",
    "uniform_consumption_study", "barenblatt_convergence",
    "manufactured_convergence",
]


def uniform_state_ode(model: ChiKappaModel, n_bar: float, c0: float, t):
    """c(t) for dc/dt = -kappa_coeff n_bar c^m, c(0) = c0 (n stays n_bar).

    m = 1 decays exponentially; every m > 1 decays algebraically,
    c(t) = c0 (1 + (m-1) k c0^(m-1) t)^(-1/(m-1)) with k = kappa_coeff n_bar,
    a form that stays finite at c0 = 0.
    """
    t = np.asarray(t, dtype=float)
    k = model.kappa_coeff * n_bar
    m = model.kappa_power
    if m == 1.0:
        out = c0 * np.exp(-k * t)
    else:
        out = c0 * (1.0 + (m - 1.0) * k * c0 ** (m - 1.0) * t) ** (-1.0 / (m - 1.0))
    return out if np.ndim(out) else float(out)


def barenblatt(alpha: float, mass: float, dim: int, t: float, x) -> np.ndarray:
    """Self-similar source solution of n_t = lap n^(1+alpha), mass-normalized.

    x holds coordinates stacked on the first axis (shape (dim,) + grid), or a
    plain array of positions when dim == 1.  Profile:

        n(x,t) = t^{-dim b} (C - k0 |x|^2 t^{-2b})_+^{1/m'},
        m' = alpha,  b = 1/(dim alpha + 2),  k0 = alpha b / (2 (1+alpha)),

    with C fixed by int (C - k0 |y|^2)_+^{1/alpha} dy = mass via the
    Beta-integral identity int_{R^d} (1-|y|^2)_+^e dy
    = pi^{d/2} Gamma(e+1)/Gamma(e+1+d/2).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if dim == 1 and (x.ndim == 0 or x.shape[0] != 1):
        x = x[None, ...]
    if x.shape[0] != dim:
        raise ValueError(f"expected {dim} stacked coordinate arrays, got {x.shape}")
    e = 1.0 / alpha
    b = 1.0 / (dim * alpha + 2.0)
    k0 = alpha * b / (2.0 * (1.0 + alpha))
    j = np.pi ** (dim / 2.0) * gamma_fn(e + 1.0) / gamma_fn(e + 1.0 + dim / 2.0)
    big_c = (mass * k0 ** (dim / 2.0) / j) ** (1.0 / (e + dim / 2.0))
    r2 = np.sum(x * x, axis=0)
    core = np.maximum(big_c - k0 * r2 * t ** (-2.0 * b), 0.0)
    return t ** (-dim * b) * np.power(core, e)


# ---------------------------------------------------------------------------
# manufactured solution

@dataclass
class ManufacturedProblem:
    """Exact fields and matching forcings on a square periodic 2D box."""

    params: SimParams
    model: ChiKappaModel
    fields: Callable[[float], tuple]    # t -> (n, c, u)
    sources: Callable[[float], tuple]   # t -> (s_n, s_c, s_u)


def manufactured_problem(resolution: int = 32, alpha: float = 0.5,
                         tau: int = 1, rho: float = 0.05,
                         t_final: float = 0.1) -> ManufacturedProblem:
    """Build the standard manufactured problem at one resolution.

    The exact velocity is the swirl A(-cos x sin y, sin x cos y) g(t); on a
    square grid its central-difference divergence vanishes identically (the
    sinc factors of the two axes cancel), so the projection step is exercised
    without fighting the exact solution.  Amplitudes are kept small so the
    first-order upwind truncation stays subordinate to the second-order bulk.
    """
    import sympy as sp

    two_pi = 2.0 * np.pi
    spec = DomainSpec(2, "periodic", (two_pi, two_pi), (resolution, resolution))
    model = ChiKappaModel(chi_offset=0.05, chi_slope=0.02,
                          kappa_coeff=0.3, kappa_power=1.0)
    params = SimParams(alpha=alpha, tau=tau, rho=rho, t_final=t_final,
                       domain=spec, cfl_safety=0.4)

    x, y, t = sp.symbols("x y t")
    amp = sp.Rational(1, 50)
    n_e = 1 + sp.Rational(3, 10) * sp.sin(x) * sp.cos(y) * sp.cos(t)
    c_e = 1 + sp.Rational(1, 5) * sp.cos(x) * sp.sin(y) * sp.cos(t)
    g_t = 1 + sp.sin(t) / 2
    u1_e = -amp * sp.cos(x) * sp.sin(y) * g_t
    u2_e = amp * sp.sin(x) * sp.cos(y) * g_t
    chi_e = sp.Rational(1, 20) + sp.Rational(1, 50) * c_e

    def lap(f):
        return sp.diff(f, x, 2) + sp.diff(f, y, 2)

    adv_n = u1_e * sp.diff(n_e, x) + u2_e * sp.diff(n_e, y)
    s_n = (sp.diff(n_e, t) + adv_n - lap((n_e + rho) ** (1 + alpha))
           + sp.diff(chi_e * n_e * sp.diff(c_e, x), x)
           + sp.diff(chi_e * n_e * sp.diff(c_e, y), y))
    s_c = (sp.diff(c_e, t) + u1_e * sp.diff(c_e, x) + u2_e * sp.diff(c_e, y)
           - lap(c_e) + sp.Rational(3, 10) * c_e * n_e)
    conv1 = u1_e * sp.diff(u1_e, x) + u2_e * sp.diff(u1_e, y)
    conv2 = u1_e * sp.diff(u2_e, x) + u2_e * sp.diff(u2_e, y)
    s_u1 = sp.diff(u1_e, t) + tau * conv1 - lap(u1_e)
    s_u2 = sp.diff(u2_e, t) + tau * conv2 - lap(u2_e)

    lam = [sp.lambdify((x, y, t), f, modules="numpy")
           for f in (n_e, c_e, u1_e, u2_e, s_n, s_c, s_u1, s_u2)]
    xs, ys = mesh(spec)
    shape = spec.shape

    def _eval(fn, tv):
        return np.broadcast_to(np.asarray(fn(xs, ys, tv), dtype=float), shape).copy()

    def fields(tv: float):
        n = _eval(lam[0], tv)
        c = _eval(lam[1], tv)
        u = np.stack([_eval(lam[2], tv), _eval(lam[3], tv)])
        return n, c, u

    def sources(tv: float):
        sn = _eval(lam[4], tv)
        sc = _eval(lam[5], tv)
        su = np.stack([_eval(lam[6], tv), _eval(lam[7], tv)])
        return sn, sc, su

    return ManufacturedProblem(params, model, fields, sources)


# ---------------------------------------------------------------------------
# study drivers (these DO run the solver; the closed forms above do not)

def _resolutions(values) -> list[int]:
    """A study's grid sizes, all checked before the first run: 8.5 must not
    run as 8."""
    values = list(values)
    if not values:
        raise ValueError("resolutions must not be empty")
    if not all(isinstance(N, Integral) for N in values):
        raise ValueError(f"resolutions must be integers, got {values}")
    return [int(N) for N in values]


def uniform_consumption_study(dts=(4e-3, 2e-3, 1e-3), n_bar: float = 0.5,
                              c0: float = 1.0, kappa_coeff: float = 1.0,
                              t_final: float = 0.5, kappa_power: float = 1.0):
    """Run the full stepper on uniform data for each dt; return
    [(dt, relative error vs the closed form)].  kappa_power m != 1 takes the
    step's c^(m-1) consumption branch.  An empty dts or a c0 <= 0 (whose
    closed form 0 the relative error cannot divide by) raises ValueError."""
    from .solver import run

    dts = list(dts)
    if not dts:
        raise ValueError("dts must not be empty")
    if not c0 > 0:
        raise ValueError(f"c0 must be > 0, got {c0!r}")
    spec = DomainSpec(1, "periodic", (2.0,), (8,))
    model = ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                          kappa_coeff=kappa_coeff, kappa_power=kappa_power)
    exact = uniform_state_ode(model, n_bar, c0, t_final)
    out = []
    for dt in dts:
        params = SimParams(alpha=0.5, tau=0, rho=0.5, t_final=t_final,
                           domain=spec, cfl_safety=1.0, dt_max=float(dt))
        initial = {"n": {"type": "constant", "value": n_bar},
                   "c": {"type": "constant", "value": c0},
                   "u": {"type": "zero"}}
        res = run(params, model, initial,
                  output={"sample_interval": t_final})
        c_num = float(np.mean(res.state.c.data))
        out.append((float(dt), abs(c_num - exact) / abs(exact)))
    return out


def barenblatt_convergence(resolutions=(64, 128, 256), alpha: float = 0.5,
                           length: float = 6.0, t0: float = 0.25,
                           t_run: float = 0.25, rho: float = 1e-6,
                           mass: float = 1.0):
    """L1 errors of the degenerate-diffusion front against the exact
    self-similar solution, one entry per resolution.  A t0 or mass <= 0
    (no source solution) raises ValueError."""
    from .solver import run

    for name, value in (("t0", t0), ("mass", mass)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    out = []
    for N in _resolutions(resolutions):
        spec = DomainSpec(1, "periodic", (length,), (N,))
        params = SimParams(alpha=alpha, tau=0, rho=rho, t_final=t_run,
                           domain=spec, cfl_safety=0.4)
        model = ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                              kappa_coeff=0.0, kappa_power=1.0)
        xs = cell_centers(spec)[0]
        n0 = barenblatt(alpha, mass, 1, t0, xs)
        initial = {"n": {"type": "array", "values": n0},
                   "c": {"type": "constant", "value": 0.0},
                   "u": {"type": "zero"}}
        res = run(params, model, initial, output={"sample_interval": t_run})
        exact = barenblatt(alpha, mass, 1, t0 + t_run, xs)
        err = float(np.sum(np.abs(res.state.n.data - exact))) * spec.spacing[0]
        out.append((N, err))
    return out


def manufactured_convergence(resolutions=(16, 32), alpha: float = 0.5,
                             t_end: float = 0.1, dt_factor: float = 0.1):
    """March the stepper with the manufactured forcings; return
    [(N, L2 error of n at t_end)].  dt scales with h^2 so the first-order
    time error rides below the second-order spatial measurement.  A row
    whose dt exceeds the explicit stability bound (`stable_dt` at
    cfl_safety 1 on its initial state, about 0.1435 h^2) raises ValueError
    before its first step."""
    from .solver import FieldState, stable_dt, step
    from .grid import VectorField

    if not dt_factor > 0:
        raise ValueError(f"dt_factor must be > 0, got {dt_factor!r}")
    out = []
    for N in _resolutions(resolutions):
        mp = manufactured_problem(N, alpha=alpha, t_final=t_end)
        spec = mp.params.domain
        h = spec.spacing[0]
        n_steps = max(1, int(np.ceil(t_end / (dt_factor * h * h))))
        dt = t_end / n_steps
        n0, c0, u0 = mp.fields(0.0)
        state = FieldState(0.0, ScalarField(spec, n0), ScalarField(spec, c0),
                           VectorField(spec, u0),
                           ScalarField(spec, np.zeros(spec.shape)))
        bound = stable_dt(state, replace(mp.params, cfl_safety=1.0), mp.model)
        if dt > bound:
            raise ValueError(f"N={N}: dt={dt:.6g} exceeds the stability bound "
                             f"{bound:.6g} (dt_factor {dt_factor:g})")
        for _ in range(n_steps):
            state = step(state, mp.params, mp.model, dt, sources=mp.sources)
        n_exact = mp.fields(state.t)[0]
        err = lp_norm(ScalarField(spec, state.n.data - n_exact), 2)
        out.append((N, err))
    return out

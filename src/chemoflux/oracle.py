"""Independent reference solutions used to cross-check the solver.

Three routes, none of which touch the discrete operators under test:

* uniform-state consumption: with spatially uniform data the PDE system
  collapses to dc/dt = -kappa(c) n, solved in closed form for every
  kappa_power;
* the radial self-similar source solution of the porous-medium subproblem,
  normalized to prescribed mass through the Beta-integral closed form;
* a manufactured solution whose exact fields and forcings are closed-form
  numpy, turning the full coupled stepper into a convergence study against
  known smooth fields.

A study checks its keywords against its table, as the CLI does (see
`model.check_section`), builds every row before its first run, and labels
its own refusals (`oracle.<key>: …`, or `oracle: …` naming no key); any
other failure of a row, such as a run that breaks down, is raised as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .grid import ScalarField, VectorField, cell_centers, lp_norm, mesh
from .model import (ChiKappaModel, ConfigError, DomainSpec, SimParams,
                    check_section)

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
    = pi^{d/2} Gamma(e+1)/Gamma(e+1+d/2).  An alpha small enough that those
    Gammas overflow is refused as a ConfigError under `oracle.alpha`.
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
    try:
        j = (math.pi ** (dim / 2.0) * math.gamma(e + 1.0)
             / math.gamma(e + 1.0 + dim / 2.0))
    except OverflowError:
        raise ConfigError([f"oracle.alpha: alpha {alpha} is too small: "
                           "Gamma(1/alpha + 1) overflows"]) from None
    # numpy scalar powers: past the float range they give inf, not OverflowError
    big_c = np.float64(mass * k0 ** (dim / 2.0) / j) ** (1.0 / (e + dim / 2.0))
    r2 = np.sum(x * x, axis=0)
    core = np.maximum(big_c - k0 * r2 * np.float64(t) ** (-2.0 * b), 0.0)
    return np.float64(t) ** (-dim * b) * np.power(core, e)


# ---------------------------------------------------------------------------
# manufactured solution

class _Exact(NamedTuple):
    val: np.ndarray
    grad: np.ndarray
    lap: np.ndarray
    dt: np.ndarray


def _exact(const: float, modes, x, t: float) -> _Exact:
    """Value, gradient (axis first), laplacian and time derivative, in closed
    form, of const + sum of amp T(t) prod_d f_d(x_d) over `modes`.  A mode is
    (amp, T, dT, axes): a time factor T with its derivative dT, and one "sin"
    or "cos" of unit wavenumber per axis of the coordinate arrays x (as from
    `grid.mesh`), so each mode's laplacian is -dim times itself."""
    shape = np.broadcast_shapes(*(a.shape for a in x))
    val, lap, dt = np.full(shape, float(const)), np.zeros(shape), np.zeros(shape)
    grad = np.zeros((len(x),) + shape)
    for amp, T, dT, axes in modes:
        f = [np.sin(a) if s == "sin" else np.cos(a) for a, s in zip(x, axes)]
        df = [np.cos(a) if s == "sin" else -np.sin(a) for a, s in zip(x, axes)]
        prod = amp * math.prod(f)
        val += T(t) * prod
        lap -= len(x) * T(t) * prod
        dt += dT(t) * prod
        for d in range(len(x)):
            grad[d] += amp * T(t) * math.prod(f[:d] + [df[d]] + f[d + 1:])
    return _Exact(val, grad, lap, dt)


@dataclass
class ManufacturedProblem:
    """Exact fields and matching forcings on a square periodic 2D box."""

    params: SimParams
    model: ChiKappaModel
    fields: Callable[[float], tuple]    # t -> (n, c, u)
    sources: Callable[[float], tuple]   # t -> (s_n, s_c, s_u)


def manufactured_problem(resolution: int = 32, alpha: float = 0.5,
                         tau: int = 1, t_final: float = 0.1) -> ManufacturedProblem:
    """Build the standard manufactured problem at one resolution.

    The exact velocity is the swirl A(-cos x sin y, sin x cos y) g(t); on a
    square grid its central-difference divergence vanishes identically (the
    sinc factors of the two axes cancel), so the projection step is exercised
    without fighting the exact solution.  Amplitudes are kept small so the
    first-order upwind truncation stays subordinate to the second-order bulk.
    The forcings are the PDE's residual on the exact fields, by the chain and
    product rules with g = (n+rho)^(1+alpha), reading every constant from
    `model` and `params`.
    """
    two_pi = 2.0 * np.pi
    spec = DomainSpec(2, "periodic", (two_pi, two_pi), (resolution, resolution))
    model = ChiKappaModel(chi_offset=0.05, chi_slope=0.02,
                          kappa_coeff=0.3, kappa_power=1.0)
    params = SimParams(alpha=alpha, tau=tau, rho=0.05, t_final=t_final,
                       domain=spec, cfl_safety=0.4)
    x = mesh(spec)
    cos_t = (np.cos, lambda t: -np.sin(t))
    swirl_t = (lambda t: 1.0 + np.sin(t) / 2.0, lambda t: np.cos(t) / 2.0)

    def exact(t: float):
        n = _exact(1.0, [(0.3, *cos_t, ("sin", "cos"))], x, t)
        c = _exact(1.0, [(0.2, *cos_t, ("cos", "sin"))], x, t)
        u = [_exact(0.0, [(-0.02, *swirl_t, ("cos", "sin"))], x, t),
             _exact(0.0, [(0.02, *swirl_t, ("sin", "cos"))], x, t)]
        return n, c, u

    def fields(t: float):
        n, c, u = exact(t)
        return n.val, c.val, np.stack([ud.val for ud in u])

    def sources(t: float):
        n, c, u = exact(t)
        a, nr = params.alpha, n.val + params.rho

        def adv(f):
            return sum(ud.val * f.grad[d] for d, ud in enumerate(u))
        chi = model.chi_offset + model.chi_slope * c.val
        s_n = (n.dt + adv(n)
               - ((1 + a) * a * nr ** (a - 1) * np.sum(n.grad ** 2, axis=0)
                  + (1 + a) * nr ** a * n.lap)
               + model.chi_slope * n.val * np.sum(c.grad ** 2, axis=0)
               + chi * (np.sum(n.grad * c.grad, axis=0) + n.val * c.lap))
        s_c = (c.dt + adv(c) - c.lap
               + model.kappa_coeff * c.val ** model.kappa_power * n.val)
        s_u = np.stack([ud.dt + params.tau * adv(ud) - ud.lap for ud in u])
        return s_n, s_c, s_u

    return ManufacturedProblem(params, model, fields, sources)


# ---------------------------------------------------------------------------
# study drivers (these DO run the solver; the closed forms above do not)

def _run_row(params: SimParams, model: ChiKappaModel, initial, key: str):
    """`run` to params.t_final, sampled at its ends.  A t_final `run` refuses
    as a sample interval is labelled the study's `key`, the rest `oracle`."""
    from .solver import run

    try:
        return run(params, model, initial, output={"sample_interval": params.t_final})
    except ConfigError as exc:
        interval = "output.sample_interval:"
        raise ConfigError([f"oracle.{key}:{p[len(interval):]}" if p.startswith(interval)
                           else f"oracle: {p}" for p in exc.problems]) from None


# each study's keywords with their kinds (model.VALUE_KINDS); a keyword a
# study passes on to a dataclass field takes that field's kind
UNIFORM_KEYWORDS = {"dts": "distinct positives", "n_bar": "positive",
                    "c0": "positive", "kappa_coeff": "positive",
                    "t_final": "positive", "kappa_power": "power"}
BARENBLATT_KEYWORDS = {"resolutions": "grid sizes", "alpha": "positive",
                       "length": "positive", "t0": "positive",
                       "t_run": "positive", "rho": "open fraction",
                       "mass": "positive"}
MANUFACTURED_KEYWORDS = {"resolutions": "grid sizes", "alpha": "positive",
                         "t_end": "positive", "dt_factor": "positive"}


def uniform_consumption_study(dts=(4e-3, 2e-3, 1e-3), n_bar: float = 0.5,
                              c0: float = 1.0, kappa_coeff: float = 1.0,
                              t_final: float = 0.5, kappa_power: float = 1.0):
    """Run the full stepper on uniform data for each dt; return
    [(dt, relative error vs the closed form)].  kappa_power m != 1 takes the
    step's c^(m-1) consumption branch.  c0 > 0: the error is relative to
    the closed form; n_bar, kappa_coeff > 0: else nothing is consumed."""
    check_section("oracle", locals(), UNIFORM_KEYWORDS)
    spec = DomainSpec(1, "periodic", (2.0,), (8,))
    model = ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                          kappa_coeff=kappa_coeff, kappa_power=kappa_power)
    rows = [(dt, SimParams(alpha=0.5, tau=0, rho=0.5, t_final=t_final,
                           domain=spec, cfl_safety=1.0, dt_max=dt))
            for dt in map(float, dts)]
    exact = uniform_state_ode(model, n_bar, c0, t_final)
    initial = {"n": {"type": "constant", "value": n_bar},
               "c": {"type": "constant", "value": c0},
               "u": {"type": "zero"}}
    out = []
    for dt, params in rows:
        res = _run_row(params, model, initial, "t_final")
        c_num = float(np.mean(res.state.c.data))
        out.append((dt, abs(c_num - exact) / abs(exact)))
    return out


def barenblatt_convergence(resolutions=(64, 128, 256), alpha: float = 0.5,
                           length: float = 6.0, t0: float = 0.25,
                           t_run: float = 0.25, rho: float = 1e-6,
                           mass: float = 1.0):
    """L1 errors of the degenerate-diffusion front against the exact
    self-similar solution, one entry per resolution.  t0, mass > 0: else
    there is no source solution."""
    check_section("oracle", locals(), BARENBLATT_KEYWORDS)
    if not all(length / N > 0.0 for N in resolutions):
        raise ConfigError([f"oracle.length: must give a cell width length/N "
                           f"> 0 at every resolution, got {length!r}"])

    model = ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                          kappa_coeff=0.0, kappa_power=1.0)
    try:    # each key is of its kind: only the rule on rho and length is left
        rows = [SimParams(alpha=alpha, tau=0, rho=rho, t_final=t_run,
                          domain=DomainSpec(1, "periodic", (length,), (N,)),
                          cfl_safety=0.4) for N in resolutions]
    except ConfigError as exc:
        raise ConfigError([f"oracle.rho: {p}" for p in exc.problems]) from None
    out = []
    for params in rows:
        spec = params.domain
        xs = cell_centers(spec)[0]
        with np.errstate(over="ignore", invalid="ignore"):   # run refuses inf/nan
            initial = (barenblatt(alpha, mass, 1, t0, xs), np.zeros(spec.shape),
                       np.zeros((1,) + spec.shape))
        res = _run_row(params, model, initial, "t_run")
        exact = barenblatt(alpha, mass, 1, t0 + t_run, xs)
        err = float(np.sum(np.abs(res.state.n.data - exact))) * spec.spacing[0]
        out.append((spec.resolution[0], err))
    return out


def manufactured_convergence(resolutions=(16, 32), alpha: float = 0.5,
                             t_end: float = 0.1, dt_factor: float = 0.1):
    """March the stepper with the manufactured forcings; return
    [(N, L2 error of n at t_end)].  dt scales with h^2 so the first-order
    time error rides below the second-order spatial measurement.  A row
    whose dt exceeds the explicit stability bound (`stable_dt` at
    cfl_safety 1 on its initial state, about 0.1435 h^2) is refused under
    `oracle.dt_factor` before the first step of any row."""
    check_section("oracle", locals(), MANUFACTURED_KEYWORDS)
    from .solver import FieldState, stable_dt, step

    rows = []
    for N in resolutions:
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
            raise ConfigError([f"oracle.dt_factor: N={N}: dt={dt:.6g} exceeds the "
                               f"stability bound {bound:.6g} (dt_factor {dt_factor:g})"])
        rows.append((spec, mp, state, n_steps, dt))
    out = []
    for spec, mp, state, n_steps, dt in rows:
        for _ in range(n_steps):
            state = step(state, mp.params, mp.model, dt, sources=mp.sources)
        n_exact = mp.fields(state.t)[0]
        err = lp_norm(ScalarField(spec, state.n.data - n_exact), 2)
        out.append((spec.resolution[0], err))
    return out

"""Reference-solution tests.

The expectations here come from closed forms worked out independently of the
implementation: exponential and algebraic decay laws for spatially uniform
consumption, the explicit self-similar profile of the degenerate diffusion
limit (for alpha = 1/2, mass 1, one dimension its normalization constant is
C = (sqrt(15)/16)^(2/5) and the t = 1 peak height is C^2), and the implicit
Euler error formula for the consumption stage.
"""

import math

import numpy as np
import pytest

import chemoflux as cf
from chemoflux.oracle import (barenblatt, barenblatt_convergence,
                              manufactured_convergence, manufactured_problem,
                              uniform_consumption_study, uniform_state_ode)


def discrete_residuals(mp, t: float, delta: float = 1e-5):
    """Second-order finite-difference residual of the PDE on the exact fields.

    Independent check that the symbolic forcings are right: residual minus
    forcing must shrink as O(h^2) (plus O(delta^2) from the time difference).
    """
    spec = mp.params.domain
    rho, alpha, tau = mp.params.rho, mp.params.alpha, mp.params.tau
    n0, c0, u0 = mp.fields(t)
    n_p, c_p, u_p = mp.fields(t + delta)
    n_m, c_m, u_m = mp.fields(t - delta)

    def ddt(fp, fm):
        return (fp - fm) / (2.0 * delta)

    sf = lambda a: cf.ScalarField(spec, a)
    grad_n = cf.gradient(sf(n0)).data
    grad_c = cf.gradient(sf(c0)).data
    model = mp.model
    chi = model.chi_offset + model.chi_slope * c0
    flux = cf.VectorField(spec, np.stack([chi * n0 * grad_c[d] for d in range(2)]))
    r_n = (ddt(n_p, n_m)
           + sum(u0[d] * grad_n[d] for d in range(2))
           - cf.laplacian(sf(np.power(n0 + rho, 1.0 + alpha))).data
           + cf.divergence(flux).data)
    r_c = (ddt(c_p, c_m)
           + sum(u0[d] * grad_c[d] for d in range(2))
           - cf.laplacian(sf(c0)).data
           + model.kappa_coeff * np.power(c0, model.kappa_power) * n0)
    r_u = []
    for d in range(2):
        grad_ud = cf.gradient(sf(u0[d]), ghost="zero").data
        conv = sum(u0[e] * grad_ud[e] for e in range(2))
        r_u.append(ddt(u_p[d], u_m[d]) + tau * conv - cf.laplacian(sf(u0[d])).data)
    return r_n, r_c, np.stack(r_u)


class TestUniformStateOde:

    def test_linear_consumption_is_exponential(self):
        model = cf.ChiKappaModel(kappa_coeff=2.0, kappa_power=1.0)
        for t in (0.0, 0.1, 1.5):
            expected = 0.8 * math.exp(-2.0 * 0.6 * t)
            assert uniform_state_ode(model, 0.6, 0.8, t) == pytest.approx(
                expected, rel=1e-14)

    def test_quadratic_consumption_is_algebraic(self):
        model = cf.ChiKappaModel(kappa_coeff=0.5, kappa_power=2.0)
        nb, c0 = 0.7, 1.2
        for t in (0.0, 0.4, 3.0):
            expected = c0 / (1.0 + 0.5 * nb * c0 * t)
            assert uniform_state_ode(model, nb, c0, t) == pytest.approx(
                expected, rel=1e-14)

    def test_cubic_consumption_matches_closed_form(self):
        # general power m: c(t) = c0 (1 + (m-1) k nbar c0^{m-1} t)^{-1/(m-1)}
        model = cf.ChiKappaModel(kappa_coeff=0.7, kappa_power=3.0)
        nb, c0, t = 0.6, 1.3, 0.8
        closed = c0 * (1.0 + 2.0 * 0.7 * nb * c0 ** 2 * t) ** -0.5
        assert uniform_state_ode(model, nb, c0, t) == pytest.approx(
            closed, rel=1e-12)

    def test_vector_time_argument(self):
        model = cf.ChiKappaModel(kappa_coeff=1.0, kappa_power=1.0)
        ts = np.array([0.0, 0.2, 0.9])
        out = uniform_state_ode(model, 0.5, 1.0, ts)
        assert out.shape == ts.shape
        np.testing.assert_allclose(out, np.exp(-0.5 * ts), rtol=1e-14)
        assert out[0] == 1.0

    def test_monotone_decay(self):
        model = cf.ChiKappaModel(kappa_coeff=1.0, kappa_power=4.0)
        ts = np.linspace(0.0, 2.0, 9)
        out = uniform_state_ode(model, 1.0, 1.0, ts)
        assert np.all(np.diff(out) < 0)
        assert np.all(out > 0)


class TestSelfSimilarProfile:

    def test_mass_normalization_1d(self):
        h = 40.0 / 4096
        x = (np.arange(4096) + 0.5) * h - 20.0
        n = barenblatt(0.5, 1.0, 1, 1.0, x)
        assert n.sum() * h == pytest.approx(1.0, abs=1e-8)

    def test_mass_normalization_2d(self):
        h = 30.0 / 512
        g = (np.arange(512) + 0.5) * h - 15.0
        X, Y = np.meshgrid(g, g, indexing="ij")
        n = barenblatt(0.8, 2.0, 2, 1.5, np.stack([X, Y]))
        assert n.sum() * h * h == pytest.approx(2.0, abs=1e-5)

    def test_space_time_rescaling_identity(self):
        # n(t, x) = t^{-b} n(1, x t^{-b}) with b = 1/(alpha + 2) in 1D
        b = 1.0 / (0.5 + 2.0)
        xs = np.linspace(-3.0, 3.0, 101)
        t2 = 2.3
        lhs = barenblatt(0.5, 1.0, 1, t2, xs)
        rhs = t2 ** (-b) * barenblatt(0.5, 1.0, 1, 1.0, xs * t2 ** (-b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_peak_height_anchor(self):
        C = (math.sqrt(15.0) / 16.0) ** 0.4
        probe = barenblatt(0.5, 1.0, 1, 1.0, np.array([0.0, 1.0]))
        assert probe[0] == pytest.approx(C * C, rel=1e-14)

    def test_compact_support(self):
        C = (math.sqrt(15.0) / 16.0) ** 0.4
        k0 = 0.5 * 0.4 / 3.0
        edge = math.sqrt(C / k0)
        xs = np.linspace(-6.0, 6.0, 401)
        n = barenblatt(0.5, 1.0, 1, 1.0, xs)
        assert np.all(n[np.abs(xs) > edge * 1.001] == 0.0)
        assert np.all(n[np.abs(xs) < edge * 0.999] > 0.0)

    def test_peak_decays_in_time(self):
        xs = np.array([0.0, 1.0])
        peaks = [barenblatt(0.5, 1.0, 1, t, xs)[0] for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))


class TestManufactured:

    def test_exact_velocity_discretely_divergence_free(self):
        mp = manufactured_problem(resolution=32)
        spec = mp.params.domain
        _, _, u = mp.fields(0.13)
        div = cf.divergence(cf.VectorField(spec, u))
        assert cf.lp_norm(div, np.inf) <= 1e-13

    def test_fields_positive(self):
        mp = manufactured_problem(resolution=24)
        n, c, _ = mp.fields(0.05)
        assert n.min() > 0
        assert c.min() > 0

    def test_forcings_match_independent_residual_at_second_order(self):
        errs = []
        for N in (24, 48):
            mp = manufactured_problem(resolution=N)
            r_n, r_c, r_u = discrete_residuals(mp, t=0.04)
            s_n, s_c, s_u = mp.sources(0.04)
            errs.append((np.max(np.abs(r_n - s_n)),
                         np.max(np.abs(r_c - s_c)),
                         np.max(np.abs(r_u - s_u))))
        for coarse, fine in zip(errs[0], errs[1]):
            assert coarse / fine >= 3.5

    def test_solver_converges_on_manufactured_problem(self):
        rows = manufactured_convergence(resolutions=(16, 32))
        (n1, e1), (n2, e2) = rows
        assert (n1, n2) == (16, 32)
        assert e1 / e2 >= 3.5


class TestStudies:

    def test_uniform_study_is_exactly_implicit_euler(self):
        exact = math.exp(-0.25)
        study = uniform_consumption_study()
        assert [dt for dt, _ in study] == [4e-3, 2e-3, 1e-3]
        for dt, err in study:
            steps = round(0.5 / dt)
            predicted = abs(1.0 / (1.0 + 0.5 * dt) ** steps - exact) / exact
            assert abs(err - predicted) <= 1e-12

    def test_uniform_study_first_order_in_dt(self):
        study = uniform_consumption_study()
        errs = [err for _, err in study]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 0.9 for o in orders)
        assert errs[-1] <= 1e-4

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_power_law_consumption_against_closed_form(self, m):
        # the uniform study's setup with kappa_power m, which takes the
        # step's c^(m-1) consumption branch; at m = 2 its linearly implicit
        # factor c/(1 + dt k nbar c) is the exact flow map
        spec = cf.DomainSpec(1, "periodic", (2.0,), (8,))
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                                 kappa_coeff=1.0, kappa_power=m)
        exact = uniform_state_ode(model, 0.5, 1.0, 0.5)
        initial = {"n": {"type": "constant", "value": 0.5},
                   "c": {"type": "constant", "value": 1.0},
                   "u": {"type": "zero"}}
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            params = cf.SimParams(alpha=0.5, tau=0, rho=0.5, t_final=0.5,
                                  domain=spec, cfl_safety=1.0, dt_max=dt)
            res = cf.run(params, model, initial, output={"sample_interval": 0.5})
            errs.append(abs(float(np.mean(res.state.c.data)) - exact) / exact)
        if m == 2.0:
            assert max(errs) <= 1e-13
        else:
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert all(o >= 0.9 for o in orders), errs

    def test_degenerate_diffusion_l1_convergence(self):
        rows = barenblatt_convergence(resolutions=(32, 64))
        assert rows[0][1] > rows[1][1]
        assert rows[1][1] < 1e-3

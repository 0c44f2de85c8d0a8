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
import sympy as sp

import chemoflux as cf
from chemoflux.oracle import (barenblatt, barenblatt_convergence,
                              manufactured_convergence, manufactured_problem,
                              uniform_consumption_study, uniform_state_ode)


def discrete_residuals(mp, t: float, delta: float = 1e-5):
    """Second-order finite-difference residual of the PDE on the exact fields.

    Independent check that the closed-form forcings are right: residual minus
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


def sympy_reference(mp):
    """The standard manufactured problem derived again in sympy, as t ->
    (n, c, u1, u2, s_n, s_c, s_u1, s_u2) on mp's grid.

    A test-only reference for `manufactured_problem`: its constants are
    typed in here as exact rationals, and sympy differentiates the PDE
    (with the cell flux in divergence form) itself.
    """
    rho, alpha, tau = mp.params.rho, mp.params.alpha, mp.params.tau
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

    lam = sp.lambdify((x, y, t), [n_e, c_e, u1_e, u2_e, s_n, s_c, s_u1, s_u2],
                      modules="numpy")
    xs, ys = cf.mesh(mp.params.domain)
    shape = mp.params.domain.shape
    return lambda tv: [np.broadcast_to(np.asarray(f, dtype=float), shape)
                       for f in lam(xs, ys, tv)]


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

    @pytest.mark.parametrize("alpha", [1.0 / 6.0, 0.25, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_profile_matches_scipy_gamma_normalization(self, alpha, dim):
        # the same closed form with scipy's gamma, as the reference
        from scipy.special import gamma
        g = np.linspace(-3.0, 3.0, 25)
        x = np.stack(np.meshgrid(*[g] * dim, indexing="ij"))
        e, b = 1.0 / alpha, 1.0 / (dim * alpha + 2.0)
        k0 = alpha * b / (2.0 * (1.0 + alpha))
        j = np.pi ** (dim / 2.0) * gamma(e + 1.0) / gamma(e + 1.0 + dim / 2.0)
        big_c = (1.3 * k0 ** (dim / 2.0) / j) ** (1.0 / (e + dim / 2.0))
        core = np.maximum(big_c - k0 * np.sum(x * x, axis=0) * 0.7 ** (-2.0 * b), 0.0)
        ref = 0.7 ** (-dim * b) * np.power(core, e)
        n = barenblatt(alpha, 1.3, dim, 0.7, x)
        np.testing.assert_array_equal(n > 0.0, ref > 0.0)
        assert np.max(np.abs(n - ref)) <= 1e-15 * np.max(ref)

    def test_powers_past_the_float_range_give_inf(self):
        # not OverflowError: a study's run then refuses the non-finite profile
        with np.errstate(over="ignore", invalid="ignore"):
            height = barenblatt(10.0, 1e300, 1, 1.0, np.zeros(2))
            spike = barenblatt(0.006, 1.0, 1, 5e-324, np.array([0.0, 1.0]))
        assert np.isposinf(height[0])
        assert not np.isfinite(spike[0]) and spike[1] == 0.0

    def test_overflowing_normalization_is_a_value_error(self):
        with pytest.raises(cf.ConfigError,
                           match=r"^oracle\.alpha: alpha 0.005 is too small"):
            barenblatt(0.005, 1.0, 1, 1.0, np.zeros(3))


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

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("tau", [0, 1])
    def test_fields_and_forcings_match_sympy_reference(self, N, tau):
        mp = manufactured_problem(resolution=N, tau=tau)
        reference = sympy_reference(mp)
        for t in (0.0, 0.04, 0.1):
            n, c, u = mp.fields(t)
            s_n, s_c, s_u = mp.sources(t)
            ours = [n, c, u[0], u[1], s_n, s_c, s_u[0], s_u[1]]
            for name, got, want in zip(
                    ("n", "c", "u1", "u2", "s_n", "s_c", "s_u1", "s_u2"),
                    ours, reference(t)):
                assert got.shape == want.shape, (name, t)
                scale = np.maximum(1.0, np.abs(want))
                assert np.max(np.abs(got - want) / scale) <= 1e-13, (name, t)

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

    def test_default_study_runs_on_three_grids(self):
        # the default dt_factor keeps every row under the stability bound;
        # at 0.2 the N = 64 row's density went negative
        rows = manufactured_convergence(resolutions=(16, 32, 64))
        errs = [err for _, err in rows]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.9 for o in orders), errs

    @pytest.mark.parametrize("t_end", [0, -1, math.inf, math.nan, "0.1"])
    def test_end_time_not_finite_and_positive_rejected(self, t_end):
        # refused by name before the problem's own t_final check
        with pytest.raises(ValueError,
                           match=r"^oracle\.t_end: must be a finite number > 0"):
            manufactured_convergence(resolutions=(16,), t_end=t_end)


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
        # the uniform study at kappa_power m takes the step's c^(m-1)
        # consumption branch; at m = 2 its linearly implicit factor
        # c/(1 + dt k nbar c) is the exact flow map
        study = uniform_consumption_study(kappa_power=m)
        assert [dt for dt, _ in study] == [4e-3, 2e-3, 1e-3]
        errs = [err for _, err in study]
        if m == 2.0:
            assert max(errs) <= 1e-13
        else:
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert all(o >= 0.9 for o in orders), errs

    def test_degenerate_diffusion_l1_convergence(self):
        rows = barenblatt_convergence(resolutions=(32, 64))
        assert rows[0][1] > rows[1][1]
        assert rows[1][1] < 1e-3

    @pytest.mark.parametrize("study, kwargs, message", [
        (uniform_consumption_study, {"dts": (0.002, -0.001)}, r"^oracle\.dts: "),
        (uniform_consumption_study, {"kappa_power": "x"}, r"^oracle\.kappa_power: "),
        (uniform_consumption_study, {"n_bar": 0}, r"^oracle\.n_bar: "),
        (uniform_consumption_study, {"t_final": -1},
         r"^oracle\.t_final: must be a finite number > 0, got -1$"),
        (barenblatt_convergence, {"resolutions": (64, 4)},
         r"^oracle\.resolutions: must be a nonempty list of distinct integers "
         r">= 8, got \(64, 4\)$"),
        (barenblatt_convergence, {"t_run": 0}, r"^oracle\.t_run: "),
        (barenblatt_convergence, {"length": 0}, r"^oracle\.length: "),
        (barenblatt_convergence, {"t0": "x"}, r"^oracle\.t0: "),
        (manufactured_convergence, {"resolutions": (16, 4)},
         r"^oracle\.resolutions: must be a nonempty list of distinct integers "
         r">= 8, got \(16, 4\)$"),
        (manufactured_convergence, {"alpha": "x"}, r"^oracle\.alpha: "),
        # the N = 16 row is under the stability bound, the N = 32 row above
        (manufactured_convergence, {"resolutions": (16, 32), "dt_factor": 0.155},
         r"^oracle\.dt_factor: N=32: dt=.* exceeds the stability bound"),
    ])
    def test_bad_keyword_refused_before_any_row_runs(self, monkeypatch, study,
                                                     kwargs, message):
        from chemoflux import solver

        def no_run(*args, **kw):
            raise AssertionError("a study row ran before its inputs were checked")
        monkeypatch.setattr(solver, "run", no_run)
        monkeypatch.setattr(solver, "step", no_run)
        with pytest.raises(ValueError, match=message):
            study(**kwargs)

    @pytest.mark.parametrize("study, kwargs, key", [
        (uniform_consumption_study, {"t_final": 1e-300}, "t_final"),
        (barenblatt_convergence, {"t_run": 1e-13, "resolutions": (8,)}, "t_run"),
    ])
    def test_study_time_below_run_tolerance_names_the_study_key(
            self, monkeypatch, study, kwargs, key):
        # run refuses the time as its sample interval; the problem names the
        # study's key, not run's output.sample_interval, and no row steps
        from chemoflux import solver

        def no_step(*args, **kw):
            raise AssertionError("a study row stepped")
        monkeypatch.setattr(solver, "step", no_step)
        with pytest.raises(cf.ConfigError) as exc:
            study(**kwargs)
        assert exc.value.problems == [
            f"oracle.{key}: must be finite and > 1e-12, got {kwargs[key]}"]

    def test_numpy_scalars_and_tuples_accepted(self):
        # what a Python caller passes for a JSON value: tuples, numpy scalars
        rows = uniform_consumption_study(dts=(np.float64(4e-3), 2e-3),
                                         n_bar=np.float64(0.5), t_final=0.25)
        assert [dt for dt, _ in rows] == [4e-3, 2e-3]
        rows = manufactured_convergence(resolutions=(np.int64(16),))
        assert [N for N, _ in rows] == [16] and type(rows[0][0]) is int

"""Integrator tests: stability bound, projection, conservation, positivity,
the implicit consumption identity, run-level determinism, the step's bits
against a plain reference step, and what outside wrappers rely on."""

import math
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as hst

import chemoflux as cf
from chemoflux import solver
from chemoflux.grid import diff_central, shifted
from chemoflux.solver import _separable, _solves


def _spec(mode="periodic", n=16, dim=2, length=2.0):
    return cf.DomainSpec(dim=dim, mode=mode, lengths=(length,) * dim,
                         resolution=(n,) * dim)


def _params(spec, **kw):
    kw.setdefault("alpha", 0.5)
    kw.setdefault("tau", 1)
    kw.setdefault("rho", 0.01)
    kw.setdefault("t_final", 1.0)
    return cf.SimParams(domain=spec, **kw)


def _walled(shape):
    return cf.DomainSpec(dim=len(shape), mode="neumann",
                         lengths=(2.0,) * len(shape), resolution=shape)


# even, all-odd (the projection operator has a kernel), mixed and 3D boxes
WALLED_SHAPES = [(32, 32), (9, 9), (9, 10), (16, 24, 12), (9, 11, 13)]


def _shape_id(shape):
    return "x".join(map(str, shape))


def _state(spec, n, c, u=None, t=0.0, p=None):
    if u is None:
        u = np.zeros((spec.dim,) + spec.shape)
    if p is None:
        p = np.zeros(spec.shape)
    return cf.FieldState(t=t, n=cf.ScalarField(spec, n),
                         c=cf.ScalarField(spec, c),
                         u=cf.VectorField(spec, u),
                         p=cf.ScalarField(spec, p))


MODEL = cf.ChiKappaModel()


class TestStableDt:

    def test_uniform_state_closed_form(self):
        spec = _spec()
        params = _params(spec, cfl_safety=0.4)
        nbar = 0.8
        st = _state(spec, np.full(spec.shape, nbar), np.ones(spec.shape))
        inv_h2 = sum(1.0 / h ** 2 for h in spec.spacing)
        expected = 0.4 / (2.0 * 1.5 * (nbar + params.rho) ** 0.5 * inv_h2)
        assert cf.stable_dt(st, params, MODEL) == pytest.approx(expected,
                                                               rel=1e-14)

    def test_quarters_under_mesh_halving(self):
        n0, c0 = 0.8, 1.0
        dts = []
        for n in (16, 32):
            spec = _spec(n=n)
            st = _state(spec, np.full(spec.shape, n0), np.full(spec.shape, c0))
            dts.append(cf.stable_dt(st, _params(spec), MODEL))
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)

    def test_decreases_with_density(self):
        spec = _spec()
        params = _params(spec)
        lo = _state(spec, np.full(spec.shape, 0.2), np.ones(spec.shape))
        hi = _state(spec, np.full(spec.shape, 5.0), np.ones(spec.shape))
        assert cf.stable_dt(hi, params, MODEL) < cf.stable_dt(lo, params, MODEL)

    def test_transport_limit_engages(self):
        # constant c kills the chemotactic drift; a uniform unit velocity
        # leaves the advective limit cfl * h
        spec = _spec()
        params = _params(spec, rho=1e-4, cfl_safety=1.0)
        u = np.zeros((2,) + spec.shape)
        u[0] = 1.0
        st = _state(spec, np.zeros(spec.shape), np.ones(spec.shape), u)
        h = spec.spacing[0]
        diff = 1.0 / (2.0 * 1.5 * params.rho ** 0.5
                      * sum(1.0 / s ** 2 for s in spec.spacing))
        assert cf.stable_dt(st, params, MODEL) == pytest.approx(
            min(h, diff), rel=1e-12)


class TestProjection:

    def test_periodic_divergence_free_and_decomposed(self):
        spec = _spec(n=32)
        rng = np.random.default_rng(0)
        v = cf.VectorField(spec, rng.standard_normal((2,) + spec.shape))
        u, p = cf.project(v)
        assert cf.lp_norm(cf.divergence(u), np.inf) <= 1e-12
        recon = u.data + cf.gradient(p).data
        np.testing.assert_allclose(recon, v.data, atol=1e-12)
        assert abs(cf.integrate(p)) <= 1e-12

    def test_periodic_annihilates_gradients(self):
        spec = _spec(n=32)
        x, y = cf.mesh(spec)
        phi = cf.ScalarField(spec, np.sin(np.pi * x) * np.cos(2 * np.pi * y))
        u, _ = cf.project(cf.gradient(phi))
        assert cf.lp_norm(u, np.inf) <= 1e-12

    def test_periodic_idempotent(self):
        spec = _spec(n=32)
        rng = np.random.default_rng(3)
        v = cf.VectorField(spec, rng.standard_normal((2,) + spec.shape))
        u1, _ = cf.project(v)
        u2, p2 = cf.project(u1)
        np.testing.assert_allclose(u2.data, u1.data, atol=1e-12)
        assert cf.lp_norm(cf.ScalarField(spec, p2.data), np.inf) <= 1e-12

    @pytest.mark.parametrize("shape", WALLED_SHAPES, ids=_shape_id)
    def test_neumann_residual_and_mean_free_pressure(self, shape):
        spec = _walled(shape)
        rng = np.random.default_rng(5)
        v = cf.VectorField(spec, rng.standard_normal((spec.dim,) + spec.shape))
        u, p = cf.project(v)
        res = cf.lp_norm(cf.divergence(u), np.inf)
        assert res <= 1e-12
        assert abs(cf.integrate(p)) <= 1e-12

    @pytest.mark.parametrize("shape", WALLED_SHAPES, ids=_shape_id)
    def test_neumann_preserves_divergence_free_input(self, shape):
        spec = _walled(shape)
        rng = np.random.default_rng(6)
        v = cf.VectorField(spec, rng.standard_normal((spec.dim,) + spec.shape))
        u1, _ = cf.project(v)
        u2, p2 = cf.project(u1)
        np.testing.assert_allclose(u2.data, u1.data, atol=1e-12)
        # on all-odd boxes this fails unless the kernel mode is dropped
        assert cf.lp_norm(p2, np.inf) <= 1e-12


# walled boxes with both ghost kinds (mirror is `helmholtz`, zero the
# walled table's viscous solve), and periodic boxes, where shifts wrap
_HELMHOLTZ_CASES = ([("neumann", shape, ghost) for ghost in ("mirror", "zero")
                     for shape in [(9, 10), (16, 24, 12)]]
                    + [("periodic", shape, "mirror")
                       for shape in [(9,), (9, 10), (16, 24, 12)]])


class TestHelmholtz:

    @pytest.mark.parametrize("mode,shape,ghost", _HELMHOLTZ_CASES,
                             ids=[f"{m}-{_shape_id(s)}-{g}"
                                  for m, s, g in _HELMHOLTZ_CASES])
    def test_solves_the_compact_stencil(self, mode, shape, ghost):
        # x - dt * L x = b, with L the compact laplacian written out from
        # the ghost-filled shifts
        spec = cf.DomainSpec(len(shape), mode, (2.0,) * len(shape), shape)
        dt = 0.01
        b = np.random.default_rng(7).standard_normal(spec.shape)
        table = _solves(spec)
        x = (table.helmholtz(b, dt) if ghost == "mirror"
             else table._inverse(b, dt, ghost))
        lap = sum((shifted(x, spec, d, 1, ghost) - 2.0 * x
                   + shifted(x, spec, d, -1, ghost)) / spec.spacing[d] ** 2
                  for d in range(spec.dim))
        assert np.max(np.abs(x - dt * lap - b)) <= 1e-12


def _bump_ic(spec, seed=0):
    rng = np.random.default_rng(seed)
    x = cf.mesh(spec)
    r2 = sum(X ** 2 for X in x)
    n = np.exp(-6.0 * r2) + 0.05
    c = 1.0 + 0.1 * np.exp(-4.0 * r2)
    u = 0.1 * rng.standard_normal((spec.dim,) + spec.shape)
    return n, c, u


class TestStepInvariants:

    @pytest.mark.parametrize("mode", ["periodic", "neumann"])
    def test_mass_conserved_over_twenty_steps(self, mode):
        spec = _spec(mode=mode, n=24)
        params = _params(spec)
        n, c, u = _bump_ic(spec)
        uf, _ = cf.project(cf.VectorField(spec, u))
        st = _state(spec, n, c, uf.data)
        m0 = cf.integrate(st.n)
        work = {}
        for _ in range(20):
            dt = cf.stable_dt(st, params, MODEL)
            st = cf.step(st, params, MODEL, dt, work=work)
        drift = abs(cf.integrate(st.n) - m0) / m0
        assert drift <= 1e-13

    def test_positivity_with_adversarial_spike(self):
        spec = _spec(n=24)
        params = _params(spec, rho=0.05)
        n = np.zeros(spec.shape)
        n[5, 7] = 40.0
        c = np.ones(spec.shape)
        c[12, 12] = 3.0
        st = _state(spec, n, c)
        work = {}
        for _ in range(15):
            dt = cf.stable_dt(st, params, MODEL)
            st = cf.step(st, params, MODEL, dt, work=work)
            assert float(st.n.data.min()) >= 0.0
            assert float(st.c.data.min()) >= 0.0
            assert work["min_n_raw"] >= -1e-13

    def test_oversized_step_raises(self):
        spec = _spec(n=24)
        params = _params(spec)
        n = np.zeros(spec.shape)
        n[5, 7] = 40.0
        st = _state(spec, n, np.ones(spec.shape))
        dt = 60.0 * cf.stable_dt(st, params, MODEL)
        with pytest.raises(cf.SolverError):
            for _ in range(30):
                st = cf.step(st, params, MODEL, dt)

    def test_inertia_flag_irrelevant_without_flow(self):
        spec = _spec(n=16)
        n, c, _ = _bump_ic(spec)
        st = _state(spec, n, c)
        out = {}
        for tau in (0, 1):
            params = _params(spec, tau=tau)
            s = cf.step(st, params, MODEL, 1e-3)
            out[tau] = s
        np.testing.assert_array_equal(out[0].n.data, out[1].n.data)
        np.testing.assert_array_equal(out[0].c.data, out[1].c.data)
        np.testing.assert_array_equal(out[0].u.data, out[1].u.data)

    def test_step_does_not_mutate_input(self):
        spec = _spec(n=16)
        n, c, u = _bump_ic(spec)
        st = _state(spec, n, c, u)
        before = (st.n.data.copy(), st.c.data.copy(), st.u.data.copy())
        cf.step(st, params=_params(spec), model=MODEL, dt=1e-3)
        np.testing.assert_array_equal(st.n.data, before[0])
        np.testing.assert_array_equal(st.c.data, before[1])
        np.testing.assert_array_equal(st.u.data, before[2])

    def test_uniform_state_reduces_to_implicit_consumption(self):
        # flat density, flat chemical, no flow: each step divides c by
        # (1 + dt k nbar) and leaves n untouched
        spec = cf.DomainSpec(dim=1, mode="periodic", lengths=(2.0,),
                             resolution=(8,))
        params = _params(spec, rho=0.5, tau=0)
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                                 kappa_coeff=0.8, kappa_power=1.0)
        nbar, c0, dt, steps = 0.5, 1.0, 0.01, 12
        st = _state(spec, np.full(spec.shape, nbar), np.full(spec.shape, c0))
        for _ in range(steps):
            st = cf.step(st, params, model, dt)
        np.testing.assert_array_equal(st.n.data, np.full(spec.shape, nbar))
        expected = c0 / (1.0 + dt * 0.8 * nbar) ** steps
        np.testing.assert_allclose(st.c.data, expected, rtol=1e-12)

    def test_constant_source_grows_mass_linearly(self):
        spec = _spec(n=16)
        params = _params(spec)
        n, c, _ = _bump_ic(spec)
        st = _state(spec, n, c)
        rate = 0.7
        vol = float(np.prod(spec.lengths))
        srcs = lambda t: (np.full(spec.shape, rate),
                          np.zeros(spec.shape),
                          np.zeros((2,) + spec.shape))
        m0 = cf.integrate(st.n)
        dt = 1e-3
        for k in range(5):
            st = cf.step(st, params, MODEL, dt, sources=srcs)
            expected = m0 + (k + 1) * dt * rate * vol
            assert cf.integrate(st.n) == pytest.approx(expected, rel=1e-12)


    def test_non_finite_chemical_raises(self):
        spec = _spec(n=16)
        n, c, _ = _bump_ic(spec)
        st = _state(spec, n, c)
        srcs = lambda t: (np.zeros(spec.shape),
                          np.full(spec.shape, np.nan),
                          np.zeros((2,) + spec.shape))
        with pytest.raises(cf.SolverError, match="non-finite chemical"):
            cf.step(st, _params(spec), MODEL, 1e-3, sources=srcs)


def _reference_step(state, params, model, dt):
    """`step` in its plain form: every stencil read through `shifted`, both
    one-sided upwind products formed before one is picked, chi's face
    average always formed, and the periodic pressure transformed at once."""
    spec = params.domain
    dim, h = spec.dim, spec.spacing
    n, c, u = state.n.data, state.c.data, state.u.data
    neumann = spec.mode == "neumann"

    def face_velocity(d):
        c_r = shifted(c, spec, d, 1, "mirror")
        u_r = shifted(u[d], spec, d, 1, "zero")
        chi_face = model.chi_offset + model.chi_slope * 0.5 * (c + c_r)
        return chi_face * (c_r - c) / h[d] + 0.5 * (u[d] + u_r)

    def upwind(q, a, d, ghost):
        q_r = shifted(q, spec, d, 1, ghost)
        q_l = shifted(q, spec, d, -1, ghost)
        return np.where(a > 0.0, a * (q - q_l), a * (q_r - q)) / h[d]

    g = np.power(n + params.rho, 1.0 + params.alpha)
    flux_div = np.zeros(spec.shape)
    for d in range(dim):
        n_r = shifted(n, spec, d, 1, "mirror")
        g_r = shifted(g, spec, d, 1, "mirror")
        w = face_velocity(d)
        f = np.where(w > 0.0, w * n, w * n_r) - (g_r - g) / h[d]
        if neumann:
            f[(slice(None),) * d + (slice(-1, None),)] = 0.0
        flux_div += (f - shifted(f, spec, d, -1, "zero")) / h[d]
    n_new = np.maximum(n - dt * flux_div, 0.0)

    c1 = c - dt * sum(upwind(c, u[d], d, "mirror") for d in range(dim))
    if model.kappa_coeff > 0.0:
        if model.kappa_power == 1.0:
            rate = model.kappa_coeff * n
        else:
            rate = model.kappa_coeff * n * np.power(np.maximum(c1, 0.0),
                                                    model.kappa_power - 1.0)
        c1 = c1 / (1.0 + dt * rate)
    table = _solves(spec)
    c_new = np.maximum(table.helmholtz(c1, dt), 0.0)

    v = []
    for d in range(dim):
        comp = u[d] - dt * params.phi_gradient[d] * n
        if params.tau == 1:
            comp = comp - dt * sum(upwind(u[d], u[e], e, "zero")
                                   for e in range(dim))
        v.append(comp)
    if neumann:
        # zero-wall viscosity, then v + T lam with -sum_d T_d T_d lam = div v
        v = [table._inverse(x, dt, "zero") for x in v]
        vecs, eig = table.bases["proj"]
        bh = _separable(cf.divergence(cf.VectorField(spec, np.stack(v))).data,
                        vecs)
        lam_h = np.zeros_like(bh)
        np.divide(bh, eig, out=lam_h, where=eig > 0.0)
        lam = _separable(lam_h, [q.T for q in vecs])
        u_new = [v[d] + diff_central(lam, spec, d, "zero") for d in range(dim)]
        p_new = -(lam - float(np.mean(lam)))
    else:
        sins, s_sq = table.sins, table.s_sq
        vh = [sfft.rfftn(x) / (1.0 - dt * table.lam) for x in v]
        div_h = (1j) * sum(s * x for s, x in zip(sins, vh))
        ph = np.zeros_like(div_h)
        np.divide(div_h, -s_sq, out=ph, where=s_sq > 0)
        u_new = [sfft.irfftn(x - 1j * s * ph, s=spec.shape)
                 for s, x in zip(sins, vh)]
        p_new = sfft.irfftn(ph, s=spec.shape)
    return _state(spec, n_new, c_new, np.stack(u_new), state.t + dt, p=p_new)


def _signed_zero_state(spec, seed):
    """A bump state whose velocity holds exact zeros and -0.0 in a quarter
    of the cells each."""
    n, c, u = _bump_ic(spec, seed)
    pick = np.random.default_rng(seed + 1).integers(0, 4, size=u.shape)
    u[pick == 0] = 0.0
    u[pick == 1] = -0.0
    return _state(spec, n, c, u)


def _assert_bits_equal(got, want):
    for name in ("n", "c", "u", "p"):
        a, b = getattr(got, name).data, getattr(want, name).data
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


# odd and mixed sizes in every dimension, walled boxes from dim 2
_BITWISE_BOXES = [(1, "periodic", (9,)), (2, "periodic", (9, 8)),
                  (2, "neumann", (11, 9)), (3, "periodic", (9, 8, 10)),
                  (3, "neumann", (8, 9, 11))]


class TestStepBitwise:
    """`step` must equal the plain reference bit for bit, signed zeros
    included: sharing the drift, picking the upwind side before multiplying,
    the constant-chi face and the lazy pressure only reorder work."""

    @pytest.mark.parametrize("kappa_power", [1.0, 2.0])
    @pytest.mark.parametrize("chi_slope", [0.0, 0.7])
    @pytest.mark.parametrize("tau", [0, 1])
    @pytest.mark.parametrize("dim,mode,shape", _BITWISE_BOXES,
                             ids=[f"{m}-{_shape_id(s)}"
                                  for _, m, s in _BITWISE_BOXES])
    def test_step_matches_reference(self, dim, mode, shape, tau, chi_slope,
                                    kappa_power):
        spec = cf.DomainSpec(dim, mode, (2.0,) * dim, shape)
        params = _params(spec, tau=tau,
                         phi_gradient=(0.0,) * (dim - 1) + (-0.3,))
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=chi_slope,
                                 kappa_coeff=0.8, kappa_power=kappa_power)
        got = want = _signed_zero_state(spec, seed=dim)
        assert np.any(np.signbit(got.u.data) & (got.u.data == 0.0))
        for _ in range(3):
            dt = cf.stable_dt(got, params, model)
            got = cf.step(got, params, model, dt)
            want = _reference_step(want, params, model, dt)
            _assert_bits_equal(got, want)

    def test_run_equals_public_step_loop(self):
        spec = _spec(n=12)
        params = _params(spec, t_final=10.0, max_steps=6)
        model = cf.ChiKappaModel(chi_offset=0.5, chi_slope=0.4)
        initial = {"n": {"type": "gaussian", "sigma": 0.35, "mass": 1.0},
                   "c": {"type": "constant", "value": 1.0},
                   "u": {"type": "vortex", "amplitude": 0.2}}
        res = cf.run(params, model, initial, {"sample_interval": 10.0})
        state = solver.initial_state(params, initial)
        for _ in range(6):
            state = cf.step(state, params, model,
                            cf.stable_dt(state, params, model))
        assert state.t == res.state.t
        _assert_bits_equal(res.state, state)


def _table_arrays(spec):
    """Every array of the box's cached solve table."""
    table = _solves(spec)
    if isinstance(table, solver._PeriodicSolves):
        return [table.lam, table.s_sq, *table.sins]
    return [a for vecs, eig in table.bases.values() for a in (*vecs, eig)]


def _frozen(arrays):
    """The arrays with a copy of their bytes, to check them against later."""
    return [(a, a.tobytes()) for a in arrays]


def _assert_unchanged(frozen):
    for k, (a, before) in enumerate(frozen):
        assert a.tobytes() == before, k


class TestStepWritesOnlyItsOwn:
    """`step` builds its result in arrays it made itself: the input state,
    the `faces` it is given, the `sources` arrays and the cached solve table
    keep their bits, signed zeros included."""

    @pytest.mark.parametrize("sources", [False, True])
    @pytest.mark.parametrize("given_faces", [False, True])
    @pytest.mark.parametrize("kappa_power", [1.0, 2.0])
    @pytest.mark.parametrize("chi_slope", [0.0, 0.3])
    @pytest.mark.parametrize("tau", [0, 1])
    @pytest.mark.parametrize("dim,mode,shape", _BITWISE_BOXES,
                             ids=[f"{m}-{_shape_id(s)}"
                                  for _, m, s in _BITWISE_BOXES])
    def test_step_leaves_what_it_does_not_own(self, dim, mode, shape, tau,
                                              chi_slope, kappa_power,
                                              given_faces, sources):
        spec = cf.DomainSpec(dim, mode, (2.0,) * dim, shape)
        params = _params(spec, tau=tau,
                         phi_gradient=(0.0,) * (dim - 1) + (-0.3,))
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=chi_slope,
                                 kappa_coeff=0.8, kappa_power=kappa_power)
        start = _signed_zero_state(spec, seed=dim)
        u, p = cf.project(start.u)
        state = cf.FieldState(0.0, start.n, start.c, u, p)
        rng = np.random.default_rng(dim)
        forcing = (0.1 * rng.random(shape), 0.1 * rng.random(shape),
                   0.1 * rng.standard_normal((dim,) + shape))
        faces = (solver._face_drift(state, params, model) if given_faces
                 else None)
        watched = _frozen([state.n.data, state.c.data, state.u.data,
                           state.p.data, *(faces or []), forcing[0],
                           forcing[1], forcing[2], *_table_arrays(spec)])
        dt = 0.5 * cf.stable_dt(state, params, model)
        out = cf.step(state, params, model, dt, faces=faces,
                      sources=(lambda t: forcing) if sources else None)
        _assert_unchanged(watched)
        assert all(np.all(np.isfinite(f.data)) for f in (out.n, out.c, out.u))

    @pytest.mark.parametrize("dim,mode,shape", _BITWISE_BOXES,
                             ids=[f"{m}-{_shape_id(s)}"
                                  for _, m, s in _BITWISE_BOXES])
    def test_operators_leave_their_inputs(self, dim, mode, shape):
        spec = cf.DomainSpec(dim, mode, (2.0,) * dim, shape)
        state = _signed_zero_state(spec, seed=dim)
        watched = _frozen([state.u.data, state.n.data, *_table_arrays(spec)])
        cf.project(state.u)
        cf.divergence(state.u)
        cf.divergence(state.u, ghost="odd")
        for d in range(dim):
            for ghost in ("mirror", "zero", "odd"):
                diff_central(state.n.data, spec, d, ghost)
                diff_central(state.u.data, spec, d, ghost)
        _assert_unchanged(watched)


class TestAxisPermutation:
    """The PDE commutes with a relabelling of the box's axes, and so must
    `step`: per-axis spacings, stencil axes and walled eigenbases included."""

    @pytest.mark.parametrize("mode", ["periodic", "neumann"])
    def test_step_commutes_with_an_axis_permutation(self, mode):
        perm = (2, 0, 1)        # axis i of the permuted box is axis perm[i]
        lengths, shape, phi = (1.0, 1.3, 0.8), (12, 10, 9), (0.1, -0.2, 0.3)
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.3)

        def box(order):
            spec = cf.DomainSpec(3, mode, tuple(lengths[a] for a in order),
                                 tuple(shape[a] for a in order))
            return _params(spec, tau=1, phi_gradient=[phi[a] for a in order])

        def permuted(n, c, u):
            return (np.transpose(n, perm), np.transpose(c, perm),
                    np.stack([np.transpose(u[a], perm) for a in perm]))

        params, params_p = box((0, 1, 2)), box(perm)
        rng = np.random.default_rng(3)
        u, p = cf.project(cf.VectorField(params.domain,
                                         0.2 * rng.standard_normal((3,) + shape)))
        state = cf.FieldState(0.0, cf.ScalarField(params.domain, 0.5 + rng.random(shape)),
                              cf.ScalarField(params.domain, 1.0 + rng.random(shape)),
                              u, p)
        state_p = _state(params_p.domain,
                         *permuted(state.n.data, state.c.data, state.u.data))
        dt = 0.5 * cf.stable_dt(state, params, model)
        for _ in range(20):
            state = cf.step(state, params, model, dt)
            state_p = cf.step(state_p, params_p, model, dt)
        for want, got in zip(permuted(state.n.data, state.c.data, state.u.data),
                             (state_p.n.data, state_p.c.data, state_p.u.data)):
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


class TestRunContract:
    """What code wrapping the solver from outside relies on: one call of
    the module-level `step` per step, a periodic run that needs no FFT
    call other than `rfftn` and `irfftn` (its lazy pressure included), a
    walled run that makes no FFT call, and results that do not depend on
    the FFT worker count."""

    def test_run_enters_module_step_once_per_step(self, monkeypatch):
        calls = []
        real_step = solver.step

        def counting_step(*args, **kwargs):
            calls.append(args[3])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(solver, "step", counting_step)
        res = _small_run()
        assert res.guards["steps"] > 0
        assert len(calls) == res.guards["steps"]
        assert sum(calls) == pytest.approx(res.state.t, rel=1e-12)

    def test_periodic_run_needs_only_rfftn_and_irfftn(self, tmp_path,
                                                      monkeypatch):
        stand_in = types.SimpleNamespace(rfftn=sfft.rfftn, irfftn=sfft.irfftn,
                                         set_workers=sfft.set_workers)
        monkeypatch.setattr(solver, "sfft", stand_in)
        spec = _spec(n=12, dim=3)
        res = _small_run(spec=spec, tmp=tmp_path,
                         output={"sample_interval": 0.01, "snapshot_every": 1})
        last = f"{len(res.records) - 1:05d}"
        p, _ = cf.load_field(tmp_path / f"p_{last}", spec)
        np.testing.assert_array_equal(p.data, res.state.p.data)
        assert abs(cf.integrate(res.state.p)) <= 1e-12

    def test_walled_run_makes_no_fft_call(self, tmp_path, monkeypatch):
        stand_in = types.SimpleNamespace(set_workers=sfft.set_workers)
        monkeypatch.setattr(solver, "sfft", stand_in)
        spec = _walled((12, 10))
        res = _small_run(spec=spec, tmp=tmp_path,
                         output={"sample_interval": 0.01, "snapshot_every": 1})
        assert res.guards["steps"] > 0
        assert res.state.t == pytest.approx(0.02, abs=1e-10)
        last = f"{len(res.records) - 1:05d}"
        p, _ = cf.load_field(tmp_path / f"p_{last}", spec)
        np.testing.assert_array_equal(p.data, res.state.p.data)

    @pytest.mark.parametrize("k", [2.5, 0, True, "3"])
    def test_set_threads_takes_only_a_count(self, k):
        # these ran 2, 1, 1 and 3 workers
        before = solver._workers
        with pytest.raises(cf.ConfigError) as exc:
            cf.set_threads(k)
        assert exc.value.problems == [
            f"threads: must be an integer >= 1, got {k!r}"]
        assert solver._workers == before

    def test_fft_worker_count_leaves_results_bitwise(self):
        spec = _spec(n=12, dim=3)
        before = solver._workers
        states = []
        try:
            for k in (1, 2):
                cf.set_threads(k)
                state = _small_run(spec=spec).state
                state.p.data          # the lazy pressure, transformed at k
                states.append(state)
        finally:
            solver._workers = before
        assert states[0].t == states[1].t
        _assert_bits_equal(*states)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _strided(a):
    """A non-contiguous view with a's values."""
    wide = np.zeros(a.shape + (2,), a.dtype)
    wide[..., 1] = a
    return wide[..., 1]


class TestFFTBinding:
    """`solver.sfft` calls scipy's pocketfft binding as `scipy.fft` does,
    so its transforms have `scipy.fft`'s bits."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("view", ["contiguous", "strided"])
    @pytest.mark.parametrize("shape", [(9,), (16, 12), (12, 10, 9), (7, 5, 6)],
                             ids=_shape_id)
    def test_transforms_equal_scipy_fft(self, shape, view, workers):
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        x.flat[::7] = -0.0
        spectrum = sfft.rfftn(x, workers=workers)
        if view == "strided":
            x, spectrum = _strided(x), _strided(spectrum)
        _assert_same_bits(solver.sfft.rfftn(x, workers=workers),
                          sfft.rfftn(x, workers=workers))
        _assert_same_bits(solver.sfft.irfftn(spectrum, s=shape,
                                             workers=workers),
                          sfft.irfftn(spectrum, s=shape, workers=workers))


@hst.composite
def _random_problem(draw):
    """A small random box, model and state: dim 1-3, both boundary modes
    (walls need dim >= 2), 8-13 cells per axis, tau 0 or 1."""
    dim = draw(hst.integers(1, 3))
    mode = draw(hst.sampled_from(["periodic", "neumann"] if dim > 1
                                 else ["periodic"]))
    shape = tuple(draw(hst.lists(hst.integers(8, 13), min_size=dim,
                                 max_size=dim)))
    lengths = tuple(draw(hst.lists(hst.floats(0.5, 4.0), min_size=dim,
                                   max_size=dim)))
    spec = cf.DomainSpec(dim, mode, lengths, shape)
    params = _params(spec, alpha=draw(hst.floats(0.05, 3.0)),
                     tau=draw(hst.sampled_from([0, 1])),
                     rho=draw(hst.floats(1e-3, 0.5)),
                     phi_gradient=tuple(draw(hst.lists(
                         hst.floats(-2.0, 2.0), min_size=dim, max_size=dim))))
    chi_offset = draw(hst.floats(0.0, 3.0))
    model = cf.ChiKappaModel(
        chi_offset=chi_offset,
        chi_slope=draw(hst.floats(0.0 if chi_offset > 0 else 0.1, 3.0)),
        kappa_coeff=draw(hst.floats(0.0, 3.0)),
        kappa_power=draw(hst.floats(1.0, 3.0)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n = draw(hst.floats(0.1, 5.0)) * rng.random(shape)
    c = draw(hst.floats(0.1, 5.0)) * rng.random(shape)
    v = draw(hst.floats(0.0, 3.0)) * rng.standard_normal((dim,) + shape)
    return spec, params, model, n, c, v


class TestStepProperties:

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(_random_problem())
    def test_one_step_keeps_the_invariants(self, problem):
        spec, params, model, n, c, v = problem
        u1, _ = cf.project(cf.VectorField(spec, v))
        u2, _ = cf.project(u1)
        assert np.max(np.abs(u2.data - u1.data)) <= 1e-12
        state = _state(spec, n, c, u1.data)
        work = {}
        new = cf.step(state, params, model, cf.stable_dt(state, params, model),
                      work=work)
        assert abs(np.sum(new.n.data) - np.sum(n)) <= 1e-12 * np.sum(n)
        assert work["min_n_raw"] >= 0.0 and work["min_c_raw"] >= 0.0
        assert np.max(new.c.data) <= np.max(c) + 1e-12
        assert cf.lp_norm(cf.divergence(new.u), np.inf) <= 1e-11


class TestBuildInitial:

    def test_gaussian_mass_normalized(self):
        spec = _spec(n=32)
        n, c, u = cf.build_initial(spec, {
            "n": {"type": "gaussian", "sigma": 0.3, "mass": 2.5},
            "c": {"type": "constant", "value": 1.0},
            "u": {"type": "zero"}})
        mass = cf.integrate(cf.ScalarField(spec, n))
        assert mass == pytest.approx(2.5, rel=1e-12)
        assert np.all(n >= 0)
        np.testing.assert_array_equal(c, np.ones(spec.shape))
        assert not u.any()

    def test_perturbation_is_seeded_and_mass_preserving(self):
        spec = _spec(n=24)
        cfg = {"n": {"type": "gaussian", "sigma": 0.4, "mass": 1.0},
               "perturb": {"amplitude": 0.05, "seed": 42}}
        n1, _, _ = cf.build_initial(spec, cfg)
        n2, _, _ = cf.build_initial(spec, cfg)
        np.testing.assert_array_equal(n1, n2)
        n3, _, _ = cf.build_initial(spec, {**cfg,
                                           "perturb": {"amplitude": 0.05,
                                                       "seed": 43}})
        assert not np.array_equal(n1, n3)
        assert cf.integrate(cf.ScalarField(spec, n1)) == pytest.approx(
            1.0, rel=1e-12)

    def test_negative_constant_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError):
            cf.build_initial(spec, {"n": {"type": "constant", "value": -0.5}})

    def test_unknown_type_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError):
            cf.build_initial(spec, {"n": {"type": "mystery"}})

    def test_snapshot_roundtrip(self, tmp_path):
        # n, c and each velocity component read back bit for bit
        spec = _spec(n=16)
        rng = np.random.default_rng(12)
        vals = rng.random((4,) + spec.shape)
        paths = [str(cf.save_field(cf.ScalarField(spec, v), tmp_path / name,
                                   name=name, time=0.0))
                 for v, name in zip(vals, ("n", "c", "u0", "u1"))]
        n, c, u = cf.build_initial(spec, {
            "n": {"type": "snapshot", "path": paths[0]},
            "c": {"type": "snapshot", "path": paths[1]},
            "u": {"type": "snapshot", "paths": paths[2:]}})
        np.testing.assert_array_equal(n, vals[0])
        np.testing.assert_array_equal(c, vals[1])
        np.testing.assert_array_equal(u, vals[2:])

    def test_vortex_in_one_dimension_is_at_rest(self):
        # the swirl lives in the first two axes; a 1D box has no swirl
        spec = cf.DomainSpec(1, "periodic", 2.0, 16)
        _, _, u = cf.build_initial(spec, {"u": {"type": "vortex",
                                                "amplitude": 0.3}})
        np.testing.assert_array_equal(u, np.zeros((1, 16)))


def _small_run(spec=None, tmp=None, **over):
    spec = spec or _spec(n=16)
    params = _params(spec, t_final=over.pop("t_final", 0.02))
    model = over.pop("model", MODEL)
    initial = over.pop("initial", {
        "n": {"type": "gaussian", "sigma": 0.35, "mass": 1.0},
        "c": {"type": "constant", "value": 1.0},
        "u": {"type": "vortex", "amplitude": 0.2}})
    output = over.pop("output", {"sample_interval": 0.005})
    if tmp is not None:
        output = {**output, "out_dir": str(tmp), "csv": "diag.csv"}
    return cf.run(params, model, initial, output)


class TestRun:

    def test_sampling_cadence_and_guards(self):
        res = _small_run()
        assert len(res.records) == 5
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(0.02, abs=1e-10)
        g = res.guards
        assert g["steps"] > 0
        assert g["mass_drift"] <= 1e-12
        assert g["max_div_residual"] <= 1e-10
        assert g["min_n_raw"] >= -1e-13
        assert g["max_c_increase"] <= 1e-10

    def test_deterministic_repeat(self):
        r1 = _small_run()
        r2 = _small_run()
        from chemoflux.diagnostics import format_records
        assert format_records(r1.records) == format_records(r2.records)
        np.testing.assert_array_equal(r1.state.n.data, r2.state.n.data)
        np.testing.assert_array_equal(r1.state.u.data, r2.state.u.data)

    def test_csv_and_snapshots_written(self, tmp_path, monkeypatch):
        from chemoflux import solver
        real_save, saved = solver.save_field, []

        def counting_save(f, path, name, time):
            saved.append(Path(path).name)
            return real_save(f, path, name, time)

        monkeypatch.setattr(solver, "save_field", counting_save)
        res = _small_run(tmp=tmp_path,
                         output={"sample_interval": 0.005,
                                 "snapshot_every": 2})
        # records 0-4: the final index 4 is also a multiple of
        # snapshot_every, and its round is written once
        assert len(res.records) == 5
        assert saved == [f"{name}_{idx:05d}" for idx in (0, 2, 4)
                         for name in ("n", "c", "p", "u0", "u1")]
        assert res.csv_path is not None and res.csv_path.exists()
        recs, _ = cf.read_csv(res.csv_path)
        assert len(recs) == len(res.records)
        snap = tmp_path / "n_00000.f64"
        assert snap.exists()
        f, meta = cf.load_field(snap, res.params.domain)
        assert meta["field"] == "n"
        assert f.data.shape == res.params.domain.shape

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.inf, math.nan])
    def test_bad_sample_interval_rejected(self, interval):
        # 0 and -1 used to loop forever advancing the next sample time
        with pytest.raises(cf.ConfigError, match="sample_interval"):
            _small_run(output={"sample_interval": interval})

    def test_tiny_sample_interval_rejected(self):
        # below 1e-12 max(t_final, 1) the next sample time stops advancing,
        # and the run used to loop forever
        with pytest.raises(cf.ConfigError, match="output.sample_interval"):
            _small_run(output={"sample_interval": 1e-30})

    def test_output_checked_before_initial_state(self, tmp_path, monkeypatch):
        from chemoflux import solver

        def no_build(*args):
            raise AssertionError("initial state built before output was checked")
        monkeypatch.setattr(solver, "initial_state", no_build)
        cases = [
            ({"out_dir": str(tmp_path), "csv": 5},
             ["output.csv: must be a nonempty string, got 5"]),
            ({"sampel_interval": 0.001},
             ["output.sampel_interval: unknown key (expected one of out_dir, "
              "csv, sample_interval, snapshot_every)"]),
            ({"snapshot_every": 1.5, "out_dir": 7},
             ["output.snapshot_every: must be an integer >= 0, got 1.5",
              "output.out_dir: must be a string, got 7"]),
        ]
        for output, problems in cases:
            with pytest.raises(cf.ConfigError) as exc:
                _small_run(output=output)
            assert exc.value.problems == problems

    def test_unbacked_model_warns(self):
        # quadratic consumption with tiny alpha satisfies no structural case
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                                 kappa_coeff=1.0, kappa_power=2.0)
        spec = _spec(n=16)
        params = _params(spec, alpha=0.1, t_final=0.01)
        res = cf.run(params, model, {
            "n": {"type": "gaussian", "sigma": 0.35, "mass": 1.0},
            "c": {"type": "constant", "value": 1.0}},
            {"sample_interval": 0.01})
        assert any("no structural assumption case" in w for w in res.warnings)

    def test_max_steps_cuts_run_short(self, tmp_path):
        spec = _spec(n=16)
        params = _params(spec, t_final=10.0, max_steps=7)
        res = cf.run(params, MODEL, {
            "n": {"type": "gaussian", "sigma": 0.35, "mass": 1.0},
            "c": {"type": "constant", "value": 1.0}},
            {"sample_interval": 10.0, "snapshot_every": 5,
             "out_dir": str(tmp_path)})
        assert res.guards["steps"] == 7
        assert res.state.t < 10.0
        # the cut state is recorded and snapshotted, though no sample is due
        # and its record index 1 is not a multiple of snapshot_every
        assert [r.t for r in res.records] == [0.0, res.state.t]
        f, meta = cf.load_field(tmp_path / "n_00001", spec)
        assert meta["time"] == res.state.t
        np.testing.assert_array_equal(f.data, res.state.n.data)
        assert sorted(p.name for p in tmp_path.glob("n_*.f64")) == [
            "n_00000.f64", "n_00001.f64"]

    def test_step_that_cannot_advance_t_is_refused(self):
        # a potential gradient at 1e100 grows the mean velocity mode until
        # dt is below half an ulp of t: t stops at 2e-4, and the run used to
        # step on to max_steps (with no cap, forever)
        params = _params(_spec(n=8), rho=0.1, t_final=0.01,
                         phi_gradient=(0.0, 1e100), max_steps=2000)
        with pytest.raises(cf.SolverError, match=r"^stability bound collapsed "
                           r"to dt=4\.9+5e-98 at t=0\.0002$"):
            cf.run(params, MODEL, {})

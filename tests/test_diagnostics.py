"""Monitored-functional tests: closed-form anchors, CSV integrity, and the
regime checks applied to fabricated record streams."""

import dataclasses
import math

import numpy as np
import pytest

import chemoflux as cf
from chemoflux import diagnostics as dg


def _spec(mode="periodic", n=16, dim=2, length=2.0):
    return cf.DomainSpec(dim=dim, mode=mode, lengths=(length,) * dim,
                         resolution=(n,) * dim)


def _state(spec, n=None, c=None, u=None, t=0.0):
    zero = np.zeros(spec.shape)
    return cf.FieldState(
        t=t,
        n=cf.ScalarField(spec, zero if n is None else n),
        c=cf.ScalarField(spec, zero if c is None else c),
        u=cf.VectorField(spec, np.zeros((spec.dim,) + spec.shape)
                         if u is None else u),
        p=cf.ScalarField(spec, zero))


def _params(spec, **kw):
    kw.setdefault("alpha", 0.5)
    kw.setdefault("tau", 1)
    kw.setdefault("rho", 0.01)
    kw.setdefault("t_final", 1.0)
    return cf.SimParams(domain=spec, **kw)


class TestEntropyAndMoment:

    def test_uniform_field_closed_form(self):
        # n = v on a box of volume V: int n log n = v log(v) V
        spec = _spec()
        vol = float(np.prod(spec.lengths))
        for v in (0.5, 2.0, 7.25):
            f = cf.ScalarField(spec, np.full(spec.shape, v))
            ent, abs_ent = dg.entropies(f)
            assert ent == pytest.approx(v * math.log(v) * vol, rel=1e-14)
            assert abs_ent == pytest.approx(v * abs(math.log(v)) * vol, rel=1e-14)

    def test_zero_field_entropy_vanishes(self):
        f = cf.ScalarField(_spec(), np.zeros((16, 16)))
        assert dg.entropies(f) == (0.0, 0.0)

    def test_subnormal_values_stay_finite(self):
        vals = np.full((16, 16), 1e-320)
        f = cf.ScalarField(_spec(), vals)
        assert all(map(math.isfinite, dg.entropies(f)))

    def test_negative_values_rejected(self):
        vals = np.ones((16, 16))
        vals[3, 3] = -1e-9
        f = cf.ScalarField(_spec(), vals)
        with pytest.raises(ValueError):
            dg.entropies(f)

    def test_moment_against_direct_quadrature(self):
        spec = _spec(n=32)
        rng = np.random.default_rng(4)
        vals = rng.random(spec.shape)
        f = cf.ScalarField(spec, vals)
        x, y = cf.mesh(spec)
        expected = np.sum(vals * np.sqrt(1.0 + x ** 2 + y ** 2)) * spec.cell_volume
        assert dg.weighted_moment(f) == pytest.approx(expected, rel=1e-14)

    def test_abs_entropy_dominated_by_energy_pieces(self):
        # int n|log n| <= int n log n + 2 int n <x> + C for any n >= 0;
        # stress the small-value branch where log n is large and negative
        spec = _spec(n=24, length=6.0)
        rng = np.random.default_rng(9)
        vals = 10.0 ** rng.uniform(-9, 1, spec.shape)
        f = cf.ScalarField(spec, vals)
        ent, lhs = dg.entropies(f)
        # C = (4/e) int e^{-<x>/2}: for 0 < s < 1, s log(1/s) <= 2 s <x>
        # when s >= e^{-<x>}, and otherwise s log(1/s) <= (2/e) sqrt(s)
        # < (2/e) e^{-<x>/2}
        const = 4.0 / np.e * np.sum(np.exp(-0.5 * dg.radial_weight(spec))) \
            * spec.cell_volume
        rhs = ent + 2.0 * dg.weighted_moment(f) + const
        assert lhs <= rhs + 1e-12


class TestRecordAssembly:

    def test_record_matches_energy_functional(self):
        spec = _spec(n=24)
        rng = np.random.default_rng(1)
        st = _state(spec, n=rng.random(spec.shape) + 0.2,
                    c=rng.random(spec.shape) + 0.5,
                    u=0.1 * rng.standard_normal((2,) + spec.shape))
        params = _params(spec, em_weight=3.0)
        rec = dg.compute_record(st, params)
        # E = int n|log n| + 2 int n<x> + ||n||_{1+a}^{1+a} + ||grad c||_2^2
        #     + (M+2)/2 ||u||_2^2, summed here from its component functionals
        q = 1.0 + params.alpha
        energy = (dg.entropies(st.n)[1] + 2.0 * dg.weighted_moment(st.n)
                  + cf.lp_norm(st.n, q) ** q
                  + cf.lp_norm(cf.gradient(st.c), 2) ** 2
                  + 0.5 * (params.em_weight + 2.0) * cf.lp_norm(st.u, 2) ** 2)
        assert rec.e_m == pytest.approx(energy, rel=1e-14)
        assert rec.d == pytest.approx(cf.dissipation_functional(st, params),
                                      rel=1e-14)

    def test_neumann_moment_is_nan_and_energy_omits_it(self):
        spec = _spec(mode="neumann")
        st = _state(spec, n=np.ones(spec.shape), c=np.ones(spec.shape))
        params = _params(spec)
        rec = dg.compute_record(st, params)
        assert math.isnan(rec.moment)
        assert math.isfinite(rec.e_m)

    def test_dissipation_accumulator_is_trapezoidal(self):
        spec = _spec(n=12)
        rng = np.random.default_rng(2)
        params = _params(spec)
        times = [0.0, 0.05, 0.125, 0.3]
        recs = []
        prev = None
        for t in times:
            st = _state(spec, n=rng.random(spec.shape) + 0.1,
                        c=rng.random(spec.shape), t=t)
            prev = dg.compute_record(st, params, prev)
            recs.append(prev)
        expected = np.trapezoid([r.d for r in recs], times)
        assert recs[-1].d_accum == pytest.approx(expected, rel=1e-12)
        assert recs[0].d_accum == 0.0

    def test_record_field_order(self):
        names = [f.name for f in dataclasses.fields(dg.DiagnosticsRecord)]
        assert names == list(dg.CSV_COLUMNS)
        assert names[0] == "t"
        assert "e_m" in names and "div_residual" in names


def _fake_records(masses=(1.0, 1.0), e_ms=(2.0, 2.0), max_ns=(1.0, 1.0),
                  abs_ents=None, moments=None):
    ts = np.linspace(0.0, 1.0, len(masses))
    abs_ents = abs_ents or [1.0] * len(masses)
    moments = moments or [1.0] * len(masses)
    out = []
    for i in range(len(masses)):
        out.append(dg.DiagnosticsRecord(
            t=float(ts[i]), mass=masses[i], entropy=0.5,
            abs_entropy=abs_ents[i], moment=moments[i],
            n_l1=masses[i], n_l1a=1.0, n_l2=1.0, n_l12a=1.0,
            n_linf=max_ns[i], grad_c_l2=0.3, u_l2=0.2, e_m=e_ms[i],
            d=1.0, d_accum=float(ts[i]), min_n=0.0, min_c=0.0,
            max_c=1.0, max_n=max_ns[i], div_residual=1e-14))
    return out


class TestCsv:

    def test_roundtrip_exact(self, tmp_path):
        recs = _fake_records(masses=(1.0, 1.0 + 1e-13),
                             e_ms=(2.0, 2.0 + math.pi * 1e-5))
        path = cf.write_csv(recs, tmp_path / "run.csv",
                            warnings=("something happened",))
        back, warns = cf.read_csv(path)
        assert warns == ["something happened"]
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            for f in dataclasses.fields(dg.DiagnosticsRecord):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                assert va == vb or (math.isnan(va) and math.isnan(vb)), f.name

    def test_bytes_deterministic_and_unix_newlines(self, tmp_path):
        recs = _fake_records(e_ms=(1.0 / 3.0, 2.0 / 7.0))
        p1 = cf.write_csv(recs, tmp_path / "a.csv")
        p2 = cf.write_csv(recs, tmp_path / "b.csv")
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b"\r" not in b1
        header = b1.decode().splitlines()[0]
        assert header == ",".join(dg.CSV_COLUMNS)

    def test_nan_moment_roundtrips(self, tmp_path):
        recs = _fake_records(moments=[float("nan"), float("nan")])
        back, _ = cf.read_csv(cf.write_csv(recs, tmp_path / "n.csv"))
        assert all(math.isnan(r.moment) for r in back)

    def test_read_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            cf.read_csv(bad)

    def test_energy_column_recomputable_from_the_others(self, tmp_path):
        # the CSV carries every ingredient of e_m; parse and rebuild it
        spec = _spec(n=24)
        rng = np.random.default_rng(8)
        st = _state(spec, n=rng.random(spec.shape) + 0.2,
                    c=rng.random(spec.shape) + 0.5,
                    u=0.05 * rng.standard_normal((2,) + spec.shape))
        params = _params(spec, alpha=0.3, em_weight=2.0)
        rec = dg.compute_record(st, params)
        back, _ = cf.read_csv(cf.write_csv([rec], tmp_path / "e.csv"))
        r = back[0]
        rebuilt = (r.abs_entropy + 2.0 * r.moment
                   + r.n_l1a ** (1.0 + params.alpha)
                   + r.grad_c_l2 ** 2
                   + 0.5 * (params.em_weight + 2.0) * r.u_l2 ** 2)
        assert r.e_m == pytest.approx(rebuilt, rel=1e-13)


class TestRegimeChecks:

    def test_clean_stream_passes_weak(self):
        rep = cf.weak_class_check(_fake_records(), _params(_spec()))
        assert rep.passed and not rep.failures

    def test_mass_drift_fails(self):
        rep = cf.weak_class_check(_fake_records(masses=(1.0, 1.0 + 1e-6)),
                                  _params(_spec()))
        assert not rep.passed
        assert any("mass drift" in f for f in rep.failures)

    @pytest.mark.parametrize("mode", ["periodic", "neumann"])
    def test_one_mass_tolerance_in_both_modes(self, mode):
        params = _params(_spec(mode=mode))
        rep = cf.weak_class_check(_fake_records(masses=(1.0, 1.0 + 1e-11)),
                                  params)
        assert rep.failures == ["mass drift 1.000e-11 exceeds 1e-12"]
        assert cf.weak_class_check(_fake_records(masses=(1.0, 1.0 + 1e-13)),
                                   params).passed

    def test_energy_blowup_fails(self):
        rep = cf.weak_class_check(_fake_records(e_ms=(2.0, 500.0)),
                                  _params(_spec()))
        assert not rep.passed
        assert any("energy sup" in f for f in rep.failures)

    def test_nonfinite_entropy_fails(self):
        rep = cf.weak_class_check(
            _fake_records(abs_ents=[1.0, float("inf")]), _params(_spec()))
        assert not rep.passed

    def test_nan_moment_fails_periodic_but_passes_neumann(self):
        recs = _fake_records(moments=[1.0, float("nan")])
        assert not cf.weak_class_check(recs, _params(_spec())).passed
        assert cf.weak_class_check(recs, _params(_spec(mode="neumann"))).passed

    def test_overflowing_run_fails_both_checks(self):
        # n of mass 1e200 squares to inf in n_l2, n_l12a and d at t = 0
        spec = cf.DomainSpec(1, "periodic", (1.0,), (8,))
        params = _params(spec, tau=0, rho=0.1, max_steps=1)
        res = cf.run(params, cf.ChiKappaModel(), {
            "n": {"type": "gaussian", "sigma": 0.1, "mass": 1e200}})
        assert math.isinf(res.records[0].n_l2)
        for check in (cf.weak_class_check, cf.bounded_class_check):
            rep = check(res.records, params)
            assert not rep.passed
            assert "n_l2 not finite at t=0.0" in rep.failures

    def test_empty_stream_fails(self):
        assert not cf.weak_class_check([], _params(_spec())).passed

    def test_bounded_adds_linf_control(self):
        params = _params(_spec(), tau=0)
        good = cf.bounded_class_check(_fake_records(max_ns=(1.0, 1.9)), params)
        assert good.passed and not good.warnings
        bad = cf.bounded_class_check(_fake_records(max_ns=(1.0, 2.5)), params)
        assert not bad.passed
        assert any("max_n sup" in f for f in bad.failures)

    def test_bounded_with_inertial_fluid_warns(self):
        rep = cf.bounded_class_check(_fake_records(), _params(_spec(), tau=1))
        assert rep.passed
        assert any("tau=0" in w for w in rep.warnings)

    def test_energy_ceiling_uses_unit_floor(self):
        # tiny initial energy: the cap is ceiling * 1, not ceiling * E(0)
        recs = _fake_records(e_ms=(1e-8, 50.0))
        assert cf.weak_class_check(recs, _params(_spec())).passed
        recs = _fake_records(e_ms=(1e-8, 150.0))
        assert not cf.weak_class_check(recs, _params(_spec())).passed

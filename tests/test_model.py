"""Parameter containers, the chi/kappa family, and assumption classification."""

import dataclasses

import numpy as np
import pytest

import chemoflux as cf
from chemoflux.model import ConfigError


def _params(alpha, **kw):
    domain = kw.pop("domain", None) or cf.DomainSpec(1, "periodic", (2.0,), (8,))
    base = dict(alpha=alpha, tau=0, rho=0.1, t_final=1.0, domain=domain)
    base.update(kw)
    return cf.SimParams(**base)


class TestClassification:
    def test_linear_chi_linear_kappa_everything_active(self):
        model = cf.ChiKappaModel(chi_offset=0.0, chi_slope=1.0,
                                 kappa_coeff=1.0, kappa_power=1.0)
        cls = cf.classify_assumption(model, _params(0.2))
        assert cls.weak_cases == frozenset({"i", "ii", "iii"})
        assert cls.bounded_cases == frozenset({"i", "ii", "iii"})
        assert cls.witnesses == {"chi0": 1.0, "kappa0": 1.0}

    def test_constant_chi_linear_kappa_special_case(self):
        # constant sensitivity with linear consumption lands exactly in the
        # strictly-monotone-consumption clause, in both regimes
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                                 kappa_coeff=1.0, kappa_power=1.0)
        cls = cf.classify_assumption(model, _params(0.15))
        assert cls.weak_cases == frozenset({"iii"})
        assert cls.bounded_cases == frozenset({"iii"})
        assert cls.witnesses == {"kappa0": 1.0}

    def test_quadratic_kappa_small_alpha_satisfies_nothing(self):
        # kappa'(0) = 0 for any power > 1, so the monotone-consumption route
        # dies at the origin; alpha below both thresholds kills the rest
        model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                                 kappa_coeff=1.0, kappa_power=2.0)
        cls = cf.classify_assumption(model, _params(0.1))
        assert cls.weak_cases == frozenset()
        assert cls.bounded_cases == frozenset()
        assert cls.witnesses == {}

    def test_monotone_in_alpha(self):
        model = cf.ChiKappaModel(1.0, 0.5, 2.0, 3.0)
        prev_weak, prev_bounded = frozenset(), frozenset()
        for alpha in (0.05, 0.124, 0.126, 1 / 6, 0.17, 0.5, 1.5):
            cls = cf.classify_assumption(model, _params(alpha))
            assert prev_weak <= cls.weak_cases
            assert prev_bounded <= cls.bounded_cases
            prev_weak, prev_bounded = cls.weak_cases, cls.bounded_cases

    def test_threshold_strictness(self):
        model = cf.ChiKappaModel(1.0, 0.0, 0.0, 1.0)
        at = cf.classify_assumption(model, _params(1 / 6))
        above = cf.classify_assumption(model, _params(1 / 6 + 1e-9))
        assert "i" not in at.weak_cases and "i" in above.weak_cases
        model2 = cf.ChiKappaModel(1.0, 1.0, 0.0, 1.0)
        at8 = cf.classify_assumption(model2, _params(1 / 8))
        above8 = cf.classify_assumption(model2, _params(1 / 8 + 1e-9))
        assert "ii" not in at8.bounded_cases and "ii" in above8.bounded_cases
        assert "ii" in at8.weak_cases  # the weak regime only needs alpha > 0

    def test_witness_values_exact(self):
        model = cf.ChiKappaModel(0.5, 0.25, 2.0, 1.0)
        cls = cf.classify_assumption(model, _params(0.3))
        assert cls.witnesses["chi0"] == 0.25
        assert cls.witnesses["kappa0"] == 2.0


class TestValidation:
    def test_domain_collects_all_problems(self):
        with pytest.raises(ConfigError) as exc:
            cf.DomainSpec(5, "weird", (2.0, 2.0), (4, 4))
        msgs = "\n".join(exc.value.problems)
        assert len(exc.value.problems) >= 3
        assert "dim" in msgs and "mode" in msgs and "resolution" in msgs
        # a resolution entry that is not an integer is listed, never truncated
        for res in ((8.5,), (8.0,), ("8",), (None,)):
            with pytest.raises(ConfigError) as exc:
                cf.DomainSpec(1, "periodic", (2.0,), res)
            assert exc.value.problems == [
                f"resolution entries must be integers, got {res}"]
        spec = cf.DomainSpec(2, "periodic", (2.0, 2.0), (np.int64(8), np.int32(9)))
        assert spec.resolution == (8, 9)
        assert all(type(N) is int for N in spec.resolution)

    def test_domain_arity_mismatch(self):
        with pytest.raises(ConfigError):
            cf.DomainSpec(2, "periodic", (2.0,), (16, 16))

    def test_neumann_needs_two_dimensions(self):
        with pytest.raises(ConfigError):
            cf.DomainSpec(1, "neumann", (2.0,), (16,))
        cf.DomainSpec(2, "neumann", (2.0, 2.0), (16, 16))

    def test_domain_derived_quantities(self):
        spec = cf.DomainSpec(2, "periodic", (4.0, 2.0), (16, 8))
        assert spec.spacing == (0.25, 0.25)
        assert spec.shape == (16, 8)
        assert spec.cell_volume == pytest.approx(0.0625, rel=0, abs=0)

    def test_params_collects_all_problems(self):
        domain = cf.DomainSpec(2, "periodic", (2.0, 2.0), (8, 8))
        with pytest.raises(ConfigError) as exc:
            cf.SimParams(alpha=-1.0, tau=2, rho=1.5, t_final=0.0,
                         domain=domain, cfl_safety=2.0, phi_gradient=(1.0,))
        msgs = "\n".join(exc.value.problems)
        assert len(exc.value.problems) >= 6
        for frag in ("alpha", "tau", "rho", "t_final", "cfl_safety",
                     "phi_gradient"):
            assert frag in msgs

    def test_phi_gradient_defaults_to_zero(self):
        p = _params(0.5, domain=cf.DomainSpec(3, "periodic", (2.0,) * 3, (8,) * 3))
        assert p.phi_gradient == (0.0, 0.0, 0.0)

    def test_model_rejects_degenerate_chi(self):
        with pytest.raises(ConfigError):
            cf.ChiKappaModel(chi_offset=0.0, chi_slope=0.0)

    def test_model_rejects_sublinear_kappa_power(self):
        with pytest.raises(ConfigError):
            cf.ChiKappaModel(kappa_power=0.5)

    def test_containers_frozen(self):
        model = cf.ChiKappaModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.chi_offset = 2.0
        p = _params(0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha = 1.0

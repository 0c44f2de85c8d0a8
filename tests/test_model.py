"""Parameter containers, the chi/kappa family, and assumption classification."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import chemoflux as cf
from chemoflux import cli, model
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
        assert exc.value.problems == [
            "dim: must be 1, 2 or 3, got 5",
            "mode: must be 'periodic' or 'neumann', got 'weird'",
            "resolution: must be an integer >= 8 or a list of them, got (4, 4)"]
        # a resolution entry that is not an integer is listed, never truncated
        for res in ((8.5,), (8.0,), ("8",), (None,)):
            with pytest.raises(ConfigError) as exc:
                cf.DomainSpec(1, "periodic", (2.0,), res)
            assert exc.value.problems == [
                f"resolution: must be an integer >= 8 or a list of them, got {res}"]
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

    def test_rho_at_most_the_shortest_box_length(self):
        # the mollifier reaches ceil(rho/h) cells each way; past the box
        # that kernel has no bound (a box of length 1e-300 asked for ~1e299)
        domain = cf.DomainSpec(2, "periodic", (1.0, 0.5), (8, 8))
        cf.SimParams(alpha=0.5, tau=0, rho=0.5, t_final=1.0, domain=domain)
        with pytest.raises(ConfigError) as exc:
            cf.SimParams(alpha=0.5, tau=0, rho=0.75, t_final=1.0, domain=domain)
        assert exc.value.problems == [
            "rho must be at most the shortest box length 0.5, got 0.75"]
        # a rho with its own problem is not compared with the box
        with pytest.raises(ConfigError) as exc:
            cf.SimParams(alpha=0.5, tau=0, rho=1.5, t_final=1.0, domain=domain)
        assert exc.value.problems == ["rho: must be a number in (0, 1), got 1.5"]

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

    @pytest.mark.parametrize("kind, name, value", [
        ("params", "t_final", math.inf),
        ("params", "em_weight", math.inf),
        ("params", "alpha", math.nan),
        ("params", "phi_gradient", (math.nan,)),
        ("params", "dt_max", math.inf),
        ("model", "kappa_coeff", math.nan),
        ("model", "kappa_power", math.nan),
        ("model", "chi_offset", math.inf),
        ("model", "kappa_coeff", math.inf),
        ("domain", "lengths", (2.0, math.inf)),
    ])
    def test_nonfinite_real_listed(self, kind, name, value):
        # t_final=inf made run loop forever; the others passed unchecked
        build = {
            "params": lambda kw: _params(**{"alpha": 0.5, **kw}),
            "model": lambda kw: cf.ChiKappaModel(**kw),
            "domain": lambda kw: cf.DomainSpec(
                **{"dim": 2, "mode": "periodic", "resolution": (8, 8), **kw}),
        }[kind]
        what = {"phi_gradient": "a list of finite numbers",
                "lengths": "a finite number > 0 or a list of them",
                "kappa_coeff": "a finite number >= 0",
                "chi_offset": "a finite number >= 0",
                "kappa_power": "a finite number >= 1"}
        with pytest.raises(ConfigError) as exc:
            build({name: value})
        assert exc.value.problems == [
            f"{name}: must be {what.get(name, 'a finite number > 0')}, got {value}"]

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


# the bad JSON values of the CLI's sweep (tests/test_cli.py), as a Python
# caller would pass them
BAD = [None, True, False, "x", "", [], [1], [1, 2, 3], {}, {"a": 1},
       math.nan, math.inf, -math.inf, -1, 0, 2.5, 1e-300, 12,
       [16.5, 16], ["a", 2.0], [None, None],
       np.array("neumann"), np.array(["neumann", "x"])]
BOX = cf.DomainSpec(2, "periodic", (2.0, 2.0), (16, 16))
VALID = {cf.DomainSpec: dict(dim=2, mode="periodic", lengths=(2.0, 2.0),
                             resolution=(16, 16)),
         cf.SimParams: dict(alpha=0.5, tau=1, rho=0.01, t_final=0.02,
                            domain=BOX),
         cf.ChiKappaModel: {}}


def _problems(build):
    try:
        build()
    except ConfigError as exc:
        return exc.problems
    return []


class TestKinds:
    """Each dataclass checks the kinds of its own fields, and `run` its
    `initial`, with the checker the CLI uses: one ConfigError listing every
    problem, never another exception, and no value of the wrong kind taken."""

    @pytest.mark.parametrize("kw, problems", [
        (dict(alpha="x"), ["alpha: must be a finite number > 0, got 'x'"]),
        (dict(t_final="1"), ["t_final: must be a finite number > 0, got '1'"]),
        (dict(alpha=True, tau=1.0, max_steps=2.5, rho=1.5),
         ["alpha: must be a finite number > 0, got True",
          "tau: must be 0 or 1, got 1.0",
          "rho: must be a number in (0, 1), got 1.5",
          "max_steps: must be an integer >= 1, got 2.5"]),
        (dict(domain=2.0), ["domain must be a DomainSpec, got 2.0"]),
        (dict(alpha=-1, phi_gradient=("g", 1.0)),
         ["alpha: must be a finite number > 0, got -1",
          "phi_gradient: must be a list of finite numbers, got ('g', 1.0)"]),
    ])
    def test_params_kinds(self, kw, problems):
        # each field's problem in field order, then the rules across fields
        assert _problems(lambda: cf.SimParams(
            **{**VALID[cf.SimParams], **kw})) == problems

    @pytest.mark.parametrize("args, problems", [
        ((2.0, "periodic", (2.0, 2.0), (8, 8)), ["dim: must be 1, 2 or 3, got 2.0"]),
        ((1, "periodic", ("x",), (8,)),
         ["lengths: must be a finite number > 0 or a list of them, got ('x',)"]),
        ((2, 5, (2.0,), 8.0),
         ["mode: must be 'periodic' or 'neumann', got 5",
          "resolution: must be an integer >= 8 or a list of them, got 8.0",
          "lengths must have 2 entries, got 1"]),
        # a numpy array is no string: its kind problem alone, and neither a
        # truth-value error nor the neumann rule
        ((1, np.array(["neumann", "x"]), 2.0, 8),
         ["mode: must be 'periodic' or 'neumann', "
          "got array(['neumann', 'x'], dtype='<U7')"]),
        ((1, np.array("neumann"), 2.0, 8),
         ["mode: must be 'periodic' or 'neumann', "
          "got array('neumann', dtype='<U7')"]),
    ])
    def test_domain_kinds(self, args, problems):
        assert _problems(lambda: cf.DomainSpec(*args)) == problems

    def test_model_kinds(self):
        assert _problems(lambda: cf.ChiKappaModel(chi_offset="a", kappa_power=None,
                                                  chi_slope=-1.0)) == [
            "chi_offset: must be a finite number >= 0, got 'a'",
            "chi_slope: must be a finite number >= 0, got -1.0",
            "kappa_power: must be a finite number >= 1, got None"]

    def test_bare_number_is_the_same_on_every_axis(self):
        spec = cf.DomainSpec(3, "neumann", 2, np.int64(8))
        assert spec.lengths == (2.0,) * 3 and spec.resolution == (8,) * 3
        assert all(type(v) is float for v in spec.lengths)
        assert all(type(v) is int for v in spec.resolution)

    @pytest.mark.parametrize("cls", list(VALID))
    def test_library_bad_value_sweep(self, cls):
        # each bad value in each field: ConfigError or a valid object; a
        # value of the wrong kind gives exactly its kind problem
        for f, value in itertools.product(dataclasses.fields(cls), BAD):
            problems = _problems(lambda: cls(**{**VALID[cls], f.name: value}))
            if f.name == "domain":
                assert problems == [f"domain must be a DomainSpec, got {value!r}"]
                continue
            what, ok = model.VALUE_KINDS[f.metadata["kind"]]
            if not (ok(value, None) or value is None and f.default is None):
                assert problems == [f"{f.name}: must be {what}, got {value!r}"], \
                    (cls.__name__, f.name, value)

    def test_one_schema_for_cli_and_dataclasses(self, monkeypatch):
        # every field but SimParams.domain names a known kind, and the schema
        # each __post_init__ checks against is the CLI's section schema itself
        sections = {"domain": cf.DomainSpec, "params": cf.SimParams,
                    "model": cf.ChiKappaModel}
        seen = []
        check = model.schema_problems
        monkeypatch.setattr(model, "schema_problems",
                            lambda where, value, schema, dim=None:
                            seen.append(schema) or check(where, value, schema, dim))
        for section, cls in sections.items():
            schema = model.FIELD_SCHEMAS[cls]
            assert cli._SECTIONS[section] is schema
            required, optional = schema[1][None]
            assert {**required, **optional}.keys() == {
                f.name for f in dataclasses.fields(cls)} - {"domain"}
            assert all(kind.rstrip("?") in model.VALUE_KINDS
                       for kind in {**required, **optional}.values())
            seen.clear()
            cls(**VALID[cls])
            assert seen == [schema] and seen[0] is schema

    @pytest.mark.parametrize("initial, problems", [
        ({"n": {"type": "gaussian"}},
         ["initial.n.sigma: required key missing for type 'gaussian'"]),
        ({"n": {"type": "gaussian", "sigma": "wide"}},
         ["initial.n.sigma: must be a finite number > 0, got 'wide'"]),
        ({"n": {"value": 1.0, "colour": "red"}, "c": {"type": "array"}},
         ["initial.n.colour: unknown key for type 'constant' "
          "(expected one of type, value)",
          "initial.c.type: unknown type 'array' "
          "(expected one of constant, gaussian, snapshot)"]),
        ([], ["initial: must be a JSON object"]),
        ({"c": {"type": "gaussian", "amplitude": 1.0, "sigma": 0.3,
                "center": [0.0]}},
         ["initial.c.center: must be a list of one finite number per axis, "
          "got [0.0]"]),
        ((np.ones((16, 16)), np.ones(16), np.zeros((2, 16, 16))),
         ["initial: the (n, c, u) arrays must have shapes ((16, 16), (16, 16), "
          "(2, 16, 16)), got ((16, 16), (16,), (2, 16, 16))"]),
        # a ragged nested list has no shape
        (([[1.0] * 16] * 15 + [[1.0] * 15], np.ones((16, 16)), np.zeros((2, 16, 16))),
         ["initial: the (n, c, u) arrays must have shapes ((16, 16), (16, 16), "
          "(2, 16, 16)), got ('ragged', (16, 16), (2, 16, 16))"]),
        ((np.ones((16, 16)), -np.ones((16, 16)), np.zeros((2, 16, 16))),
         ["initial.c: must be nonnegative"]),
        ((np.ones((16, 16)), np.ones((16, 16)), np.full((2, 16, 16), np.nan)),
         ["initial.u: must be finite"]),
        # one problem per bad field: a non-finite n is not also negative
        ((np.full((16, 16), [-1.0, np.inf] * 8), -np.ones((16, 16), int),
          np.full((2, 16, 16), np.nan)),
         ["initial.n: must be finite", "initial.c: must be nonnegative",
          "initial.u: must be finite"]),
        # no cast: a string is no number, a complex number loses its
        # imaginary part, and a bool is never a number
        (([["x"] * 16] * 16, np.ones((16, 16)), np.zeros((2, 16, 16))),
         ["initial: the (n, c, u) arrays must hold integers or floats, "
          "got ('<U1', 'float64', 'float64')"]),
        ((np.ones((16, 16)), np.ones((16, 16), complex), np.zeros((2, 16, 16))),
         ["initial: the (n, c, u) arrays must hold integers or floats, "
          "got ('float64', 'complex128', 'float64')"]),
        ((np.ones((16, 16), bool), np.ones((16, 16)), np.zeros((2, 16, 16))),
         ["initial: the (n, c, u) arrays must hold integers or floats, "
          "got ('bool', 'float64', 'float64')"]),
    ])
    def test_run_checks_initial_before_building(self, initial, problems,
                                                monkeypatch):
        from chemoflux import solver

        def no_build(*args):
            raise AssertionError("initial data built before they were checked")
        monkeypatch.setattr(solver, "mollify_values", no_build)
        params = cf.SimParams(**VALID[cf.SimParams])
        with pytest.raises(ConfigError) as exc:
            cf.run(params, cf.ChiKappaModel(), initial)
        assert exc.value.problems == problems

    def test_run_takes_arrays(self):
        # of floats or of integers
        params = cf.SimParams(**{**VALID[cf.SimParams], "max_steps": 2})
        data = (np.ones(BOX.shape, int), np.ones(BOX.shape), np.zeros((2,) + BOX.shape))
        res = cf.run(params, cf.ChiKappaModel(), data)
        want = cf.run(params, cf.ChiKappaModel(), {})
        np.testing.assert_array_equal(res.state.n.data, want.state.n.data)
        assert res.guards == want.guards

"""Command-line interface tests, driven through main() with captured output."""

import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import chemoflux as cf
from chemoflux import cli


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _base_cfg(**over):
    cfg = {
        "domain": {"dim": 2, "mode": "periodic", "lengths": 2.0,
                   "resolution": 16},
        "params": {"alpha": 0.5, "tau": 1, "rho": 0.01, "t_final": 0.02},
        "model": {"chi_offset": 1.0, "chi_slope": 0.0,
                  "kappa_coeff": 1.0, "kappa_power": 1.0},
        "initial": {"n": {"type": "gaussian", "sigma": 0.35, "mass": 1.0},
                    "c": {"type": "constant", "value": 1.0},
                    "u": {"type": "vortex", "amplitude": 0.2}},
        "output": {"sample_interval": 0.005},
    }
    cfg.update(over)
    return cfg


class TestConfigValidation:

    def test_all_problems_reported_at_once(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["domain"]["mode"] = "toroidal"
        cfg["params"]["alpha"] = -1.0
        cfg["params"]["tau"] = 2
        cfg["mystery"] = {}
        rc = cli.main(["run", _write(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "mode" in err
        assert "alpha" in err
        assert "tau" in err
        assert "mystery" in err

    def test_missing_required_keys_named(self, tmp_path, capsys):
        rc = cli.main(["run", _write(tmp_path, {"domain": {"dim": 2}})])
        err = capsys.readouterr().err
        assert rc == 2
        assert "domain.mode: required key missing" in err
        assert "params.alpha: required key missing" in err

    def test_unknown_section_key_named(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["params"]["viscosity"] = 1.0
        rc = cli.main(["run", _write(tmp_path, cfg)])
        assert rc == 2
        assert "params.viscosity" in capsys.readouterr().err

    def test_scalar_box_broadcast(self, tmp_path, capsys):
        # lengths/resolution given as bare numbers expand across dimensions
        rc = cli.main(["classify", _write(tmp_path, _base_cfg())])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak cases:" in out

    def test_explicit_tuples_still_accepted(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["domain"]["lengths"] = [2.0, 3.0]
        cfg["domain"]["resolution"] = [16, 24]
        rc = cli.main(["classify", _write(tmp_path, cfg)])
        assert rc == 0

    def test_bad_output_values_listed(self, tmp_path, capsys):
        cfg = _base_cfg(output={"sample_interval": 0, "snapshot_every": -1,
                                "csv": 5, "out_dir": 7})
        rc = cli.main(["run", _write(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config problem: output.sample_interval" in err
        assert "config problem: output.snapshot_every" in err
        assert "config problem: output.csv" in err
        assert "config problem: output.out_dir" in err

    def test_tiny_sample_interval_is_a_config_problem(self, tmp_path):
        # a positive interval too small to advance the sample time used to
        # hang the run; in a child process, a hang fails by the timeout
        cfg = _base_cfg(output={"sample_interval": 1e-30})
        cfg["params"]["max_steps"] = 2
        src = os.path.dirname(os.path.dirname(cf.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "chemoflux.cli", "run",
             _write(tmp_path, cfg)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "config problem: output.sample_interval: must be finite and > ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("t_final, default", [(1e-300, "2e-302"),
                                                  (4e-11, "7.999999999999999e-13")])
    def test_default_sample_interval_below_tolerance_says_so(
            self, tmp_path, capsys, t_final, default):
        # no interval is set: the problem names the default t_final/50 and
        # the two keys that can change it
        cfg = _base_cfg()
        del cfg["output"]
        cfg["params"]["t_final"] = t_final
        rc = cli.main(["run", _write(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "config problem: output.sample_interval: must be finite and > 1e-12, "
            f"got the default t_final/50 = {default}; raise params.t_final or "
            "set output.sample_interval\n"))

    def test_mollifier_wider_than_the_box_is_a_config_problem(self, tmp_path,
                                                              capsys):
        # rho 0.01 on a box of length 1e-300 asked the mollifier for ~1e299
        # offsets per axis ("Maximum allowed size exceeded", exit 1)
        cfg = _base_cfg(
            domain={"dim": 1, "mode": "periodic", "lengths": 1e-300,
                    "resolution": 16},
            initial={"n": {"type": "constant", "value": 1.0},
                     "c": {"type": "constant", "value": 1.0},
                     "u": {"type": "zero"}})
        rc = cli.main(["run", _write(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "config problem: params: rho must be at most the shortest box "
            "length 1e-300, got 0.01\n"))

    @pytest.mark.parametrize("section", ["domain", "params", "model",
                                         "initial", "output"])
    @pytest.mark.parametrize("value", [[1, 2], None, "x"])
    def test_non_object_section_listed(self, tmp_path, capsys, section, value):
        cfg = _base_cfg(**{section: value})
        rc = cli.main(["run", _write(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config problem: {section}: must be a JSON object\n"

    def test_initial_missing_keys_listed(self, tmp_path, capsys):
        # missing keys, unknown types and keys, and bad values are each
        # listed, every one of them, before anything is built
        cases = [
            ({"n": {"type": "gaussian", "mass": 1.0},
              "c": {"type": "gaussian", "base": 1.0},
              "u": {"type": "snapshot"}, "perturb": 0.1},
             ["initial.n.sigma: required key missing for type 'gaussian'",
              "initial.c.amplitude: required key missing for type 'gaussian'",
              "initial.c.sigma: required key missing for type 'gaussian'",
              "initial.u.paths: required key missing for type 'snapshot'",
              "initial.perturb: must be a JSON object"]),
            ({"n": {"type": "gausian", "sigma": 0.3},
              "c": {"type": "constant", "value": -1.0},
              "u": {"type": "swirl"}},
             ["initial.n.type: unknown type 'gausian' "
              "(expected one of constant, gaussian, snapshot)",
              "initial.c.value: must be a finite number >= 0, got -1.0",
              "initial.u.type: unknown type 'swirl' "
              "(expected one of zero, vortex, snapshot)"]),
            ({"n": {"type": "gaussian", "sigma": "wide", "colour": "red",
                    "center": [0.0]},
              "c": {"value": -0.5, "type": ["constant"]},
              "perturb": {"amplitude": 2, "seed": 1.5, "kind": "x"}},
             ["initial.n.sigma: must be a finite number > 0, got 'wide'",
              "initial.n.colour: unknown key for type 'gaussian' "
              "(expected one of type, sigma, mass, center)",
              "initial.n.center: must be a list of one finite number per "
              "axis, got [0.0]",
              "initial.c.type: unknown type ['constant'] "
              "(expected one of constant, gaussian, snapshot)",
              "initial.perturb.amplitude: must be a number in [0, 1], got 2",
              "initial.perturb.seed: must be an integer >= 0, got 1.5",
              "initial.perturb.kind: unknown key "
              "(expected one of amplitude, seed)"]),
            # the array type is programmatic, outside the JSON schema
            ({"n": {"type": "array", "values": [1.0] * 256}},
             ["initial.n.type: unknown type 'array' "
              "(expected one of constant, gaussian, snapshot)"]),
        ]
        for (initial, problems), cmd in itertools.product(
                cases, ("run", "classify")):
            rc = cli.main([cmd, _write(tmp_path, _base_cfg(initial=initial))])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.splitlines() == [f"config problem: {p}"
                                        for p in problems]

    def test_built_data_problems_listed_by_run_and_classify(self, tmp_path,
                                                            capsys):
        # problems that show only once a field is built: listed by run
        # (exit 2) under the field they belong to, exactly as cf.run raises
        # them; classify builds nothing, so it classifies (exit 0)
        spec = cf.DomainSpec(2, "periodic", (2.0, 2.0), (16, 16))
        coarse = cf.DomainSpec(2, "periodic", (2.0, 2.0), (8, 8))
        cf.save_field(cf.ScalarField(coarse, np.ones(coarse.shape)),
                      tmp_path / "coarse", "n", 0.0)
        cf.save_field(cf.ScalarField(spec, np.full(spec.shape, np.nan)),
                      tmp_path / "nan", "c", 0.0)
        (tmp_path / "bare.json").write_text('{"field": "n"}')
        (tmp_path / "bare.f64").write_bytes(bytes(8 * 256))
        negative_c = {"type": "gaussian", "base": 0.1, "amplitude": -1.0,
                      "sigma": 0.3}
        cases = [
            ({"c": negative_c}, ["initial.c: must be nonnegative"]),
            ({"n": {"type": "snapshot", "path": str(tmp_path / "bare")}},
             [f"initial.n: snapshot sidecar {tmp_path / 'bare.json'} must be "
              "a JSON object holding resolution and lengths"]),
            ({"n": {"type": "snapshot", "path": str(tmp_path / "coarse")}},
             ["initial.n: snapshot resolution [8, 8] does not match domain "
              "(16, 16)"]),
            ({"c": {"type": "snapshot", "path": str(tmp_path / "nan")}},
             ["initial.c: must be finite"]),
            ({"n": {"type": "gaussian", "sigma": 1e-3}},
             ["initial.n: a gaussian of sigma 0.001 has no mass on this grid"]),
            ({"c": {"type": "gaussian", "amplitude": 1.0, "sigma": 1e-300}},
             ["initial.c: gaussian sigma 1e-300 squares to 0"]),
            # every bad field is listed, one problem each
            ({"c": negative_c,
              "u": {"type": "snapshot",
                    "paths": [str(tmp_path / "nan")] * 2}},
             ["initial.c: must be nonnegative", "initial.u: must be finite"]),
            ({"n": {"type": "gaussian", "sigma": 1e-3},
              "c": {"type": "gaussian", "amplitude": 1.0, "sigma": 1e-300}},
             ["initial.n: a gaussian of sigma 0.001 has no mass on this grid",
              "initial.c: gaussian sigma 1e-300 squares to 0"]),
        ]
        params = cf.SimParams(**_base_cfg()["params"], domain=spec)
        for initial, problems in cases:
            path = _write(tmp_path, _base_cfg(initial=initial))
            assert cli.main(["run", path]) == 2, initial
            assert capsys.readouterr() == (
                "", "".join(f"config problem: {p}\n" for p in problems))
            with pytest.raises(cf.ConfigError) as exc:
                cf.run(params, cf.ChiKappaModel(), initial)
            assert exc.value.problems == problems
            assert cli.main(["classify", path]) == 0, initial
            assert capsys.readouterr().err == ""

    def test_bad_value_sweep(self, tmp_path, capsys):
        # every domain/params/model key takes each bad JSON value in turn:
        # a listed problem or a clean classification, never a traceback.
        # No large integers: a drawn resolution must stay a small grid.
        bad = [None, True, False, "x", "", [], [1], [1, 2, 3], {}, {"a": 1},
               math.nan, math.inf, -math.inf, -1, 0, 2.5, 1e-300, 12,
               [16.5, 16], ["a", 2.0], [None, None]]
        sections = {"domain": cf.DomainSpec, "params": cf.SimParams,
                    "model": cf.ChiKappaModel}
        for section, cls in sections.items():
            for f, value in itertools.product(dataclasses.fields(cls), bad):
                if f.name == "domain":
                    continue
                cfg = _base_cfg()
                cfg[section][f.name] = value
                rc = cli.main(["classify", _write(tmp_path, cfg)])
                capsys.readouterr()
                listed = (
                    type(value) is bool and f.name != "mode"
                    or type(value) is float and not math.isfinite(value)
                    or f.name in ("resolution", "max_steps", "tau")
                    and value in (2.5, [16.5, 16])
                    or f.name == "phi_gradient" and type(value) is not list
                    or f.name == "lengths" and value == 1e-300)
                assert rc in ((2,) if listed else (0, 2)), \
                    (section, f.name, value, rc)

    def test_every_key_has_a_known_kind(self):
        # the schema's single source: a field or study keyword added without
        # a kind fails here
        from chemoflux import oracle
        from chemoflux.model import INITIAL_SCHEMA, OUTPUT_SCHEMA, VALUE_KINDS
        kinds = {f"{cls.__name__}.{f.name}": f.metadata.get("kind")
                 for cls in (cf.DomainSpec, cf.SimParams, cf.ChiKappaModel)
                 for f in dataclasses.fields(cls) if f.name != "domain"}
        studies = {oracle.uniform_consumption_study: oracle.UNIFORM_KEYWORDS,
                   oracle.barenblatt_convergence: oracle.BARENBLATT_KEYWORDS,
                   oracle.manufactured_convergence: oracle.MANUFACTURED_KEYWORDS}
        for study, table in studies.items():
            assert list(table) == list(inspect.signature(study).parameters)
        tables = [("output", OUTPUT_SCHEMA),
                  *((f.__name__, table) for f, table in studies.items())]
        for name, table in tables:
            kinds.update((f"{name}.{k}", v) for k, v in table.items())
        for name, (_, types) in INITIAL_SCHEMA.items():
            for required, optional in types.values():
                kinds.update((f"{name}.{k}", v)
                             for k, v in {**required, **optional}.items())
        assert {k: v for k, v in kinds.items()
                if v not in VALUE_KINDS} == {}

    def test_initial_field_not_object_listed(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["initial"]["n"] = 3
        rc = cli.main(["run", _write(tmp_path, cfg)])
        assert rc == 2
        assert "config problem: initial.n: must be a JSON object" in \
            capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert cf.__version__ in capsys.readouterr().out


class TestRunCommand:

    def test_run_writes_csv_and_reports(self, tmp_path, capsys):
        cfg = _base_cfg(output={"sample_interval": 0.005, "csv": "d.csv"})
        rc = cli.main(["run", _write(tmp_path, cfg), "--out",
                       str(tmp_path / "res")])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "res" / "d.csv").exists()
        for token in ("steps:", "final t:", "mass:", "energy:",
                      "div residual:", "csv:"):
            assert token in out

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = _base_cfg(output={"sample_interval": 0.005, "csv": "d.csv"})
        path = _write(tmp_path, cfg)
        assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", path, "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        b1 = (tmp_path / "a" / "d.csv").read_bytes()
        b2 = (tmp_path / "b" / "d.csv").read_bytes()
        assert b1 == b2

    def test_snapshots_loadable(self, tmp_path, capsys):
        cfg = _base_cfg(output={"sample_interval": 0.005,
                                "snapshot_every": 2})
        rc = cli.main(["run", _write(tmp_path, cfg), "--out",
                       str(tmp_path / "snap")])
        capsys.readouterr()
        assert rc == 0
        f, meta = cf.load_field(tmp_path / "snap" / "n_00000.f64",
                                cf.DomainSpec(2, "periodic", (2.0, 2.0), (16, 16)))
        assert meta["field"] == "n"
        assert f.data.shape == (16, 16)

    def test_run_states_empty_classification_once(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["params"]["alpha"] = 0.1
        cfg["model"] = {"chi_offset": 1.0, "chi_slope": 0.0,
                        "kappa_coeff": 1.0, "kappa_power": 2.0}
        rc = cli.main(["run", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("no structural assumption case is satisfied") == 1
        assert "warning: no structural assumption case" in out

    def test_solver_failure_exits_one(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["initial"]["n"] = {"type": "snapshot",
                               "path": str(tmp_path / "missing")}
        rc = cli.main(["run", _write(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")

    def test_overflowing_stability_bound_is_one_error(self, tmp_path, capsys):
        # (max n + rho)^alpha past the float range: dt collapses to 0
        cfg = {"domain": {"dim": 1, "mode": "periodic", "lengths": 2.0,
                          "resolution": 16},
               "params": {"alpha": 2, "tau": 0, "rho": 0.01, "t_final": 1.0,
                          "max_steps": 2},
               "initial": {"n": {"type": "gaussian", "sigma": 0.3, "mass": 1e200},
                           "c": {"type": "constant", "value": 1.0},
                           "u": {"type": "zero"}}}
        rc = cli.main(["run", _write(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: stability bound collapsed to dt=0.0 at t=0.0\n")

    def test_step_that_cannot_advance_t_is_one_error(self, tmp_path):
        # a potential gradient at 1e308 grows the mean velocity mode until
        # dt is below half an ulp of t; with no step cap the run used to
        # spin forever.  In a child process, a hang fails by the timeout.
        cfg = {"domain": {"dim": 2, "mode": "periodic", "lengths": 2.0,
                          "resolution": 8},
               "params": {"alpha": 0.5, "tau": 1, "rho": 0.1, "t_final": 0.01,
                          "phi_gradient": [0.0, 1e308]}}
        src = os.path.dirname(os.path.dirname(cf.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "chemoflux.cli", "run", _write(tmp_path, cfg)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr == ("error: stability bound collapsed to dt=5e-306 "
                               "at t=0.0002\n")

    def test_bad_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        rc = cli.main(["run", str(p)])
        assert rc == 2
        assert "config problem:" in capsys.readouterr().err


class TestFailureMap:
    """`main` alone turns a failure into an exit code and one stderr line."""

    @pytest.mark.parametrize("exc", [cf.SolverError, OSError, ValueError,
                                     MemoryError])
    def test_run_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                           exc):
        from chemoflux import solver

        def failing_run(*args, **kwargs):
            raise exc("x")
        monkeypatch.setattr(solver, "run", failing_run)
        assert cli.main(["run", _write(tmp_path, _base_cfg())]) == 1
        assert capsys.readouterr() == ("", "error: x\n")

    # a study's ValueError is a breakdown too: only a ConfigError is a refusal
    @pytest.mark.parametrize("exc", [cf.SolverError, ValueError, MemoryError])
    def test_study_failure_is_one_error_line(self, monkeypatch, capsys, exc):
        from chemoflux import oracle

        def failing_study(**kwargs):
            raise exc("x")
        monkeypatch.setattr(oracle, "uniform_consumption_study", failing_study)
        assert cli.main(["oracle", "uniform"]) == 1
        assert capsys.readouterr() == ("", "error: x\n")

    def test_failure_without_a_message_is_named(self, monkeypatch, capsys):
        # numpy's allocation failure carries a message; a bare one does not
        from chemoflux import oracle

        def failing_study(**kwargs):
            raise MemoryError
        monkeypatch.setattr(oracle, "barenblatt_convergence", failing_study)
        assert cli.main(["oracle", "barenblatt"]) == 1
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    def test_oversized_grid_fails_alike_under_run_and_oracle(self, tmp_path,
                                                             capsys):
        # numpy refuses the array before allocating anything; that is a
        # breakdown (exit 1) under either command, not a config problem
        size = 4611686018427387904
        cfg = {"domain": {"dim": 1, "mode": "periodic", "lengths": 6.0,
                          "resolution": size},
               "params": {"alpha": 0.5, "tau": 0, "rho": 1e-6, "t_final": 0.25}}
        assert cli.main(["run", _write(tmp_path, cfg)]) == 1
        run_err = capsys.readouterr()
        cfg = {"oracle": {"resolutions": [size]}}
        assert cli.main(["oracle", "barenblatt", _write(tmp_path, cfg)]) == 1
        assert capsys.readouterr() == run_err
        assert run_err.out == ""
        assert run_err.err.startswith("error: array is too big")
        assert len(run_err.err.splitlines()) == 1

    @pytest.mark.parametrize("layout", ["no scipy", "no binding"])
    def test_missing_fft_binding_is_one_error_line(self, tmp_path, capsys,
                                                   monkeypatch, layout):
        from chemoflux import solver

        root = tmp_path / "scipy"
        (root / "fft" / "_pocketfft").mkdir(parents=True)
        dirs = [] if layout == "no scipy" else [str(root)]
        monkeypatch.setattr(solver, "_scipy_dirs", lambda: dirs)
        monkeypatch.delitem(sys.modules, solver._BINDING, raising=False)
        assert cli.main(["run", _write(tmp_path, _base_cfg())]) == 1
        where = (root / "fft" / "_pocketfft" if dirs
                 else "sys.path (no scipy package found)")
        assert capsys.readouterr() == (
            "", f"error: no scipy pocketfft binding (pypocketfft*) in {where}: "
                "periodic boxes need scipy >= 1.10\n")

    def test_config_error_still_exits_two(self, tmp_path, capsys, monkeypatch):
        from chemoflux import solver

        def refusing_run(*args, **kwargs):
            raise cf.ConfigError(["x"])
        monkeypatch.setattr(solver, "run", refusing_run)
        assert cli.main(["run", _write(tmp_path, _base_cfg())]) == 2
        # printed as raised: run labels its own problems
        assert capsys.readouterr() == ("", "config problem: x\n")

    def test_one_solver_error_class(self):
        from chemoflux import model, solver
        assert cf.SolverError is solver.SolverError is model.SolverError


class TestClassifyCommand:

    def test_reproduces_reference_classification(self, tmp_path, capsys):
        # linear signal response and consumption at alpha = 0.2 activates
        # every structural case
        cfg = _base_cfg()
        cfg["params"]["alpha"] = 0.2
        cfg["model"] = {"chi_offset": 0.0, "chi_slope": 1.0,
                        "kappa_coeff": 1.0, "kappa_power": 1.0}
        rc = cli.main(["classify", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak cases:    {i,ii,iii}" in out
        assert "bounded cases: {i,ii,iii}" in out

    def test_reports_empty_classification(self, tmp_path, capsys):
        cfg = _base_cfg()
        cfg["params"]["alpha"] = 0.1
        cfg["model"] = {"chi_offset": 1.0, "chi_slope": 0.0,
                        "kappa_coeff": 1.0, "kappa_power": 2.0}
        rc = cli.main(["classify", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak cases:    {}" in out
        assert "no structural assumption case" in out


class TestLedgerCommand:

    def test_list_all_entries(self, capsys):
        rc = cli.main(["ledger"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "moser-window" in out
        assert out.count("alpha in") == 22

    def test_point_evaluation(self, capsys):
        rc = cli.main(["ledger", "--entry", "moser-window",
                       "--alpha", "1/4", "--p", "3/2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out
        assert "theta5 = 1/6" in out

    def test_failing_point_exits_one(self, capsys):
        # a corrupted value cannot be produced from the real catalog, but an
        # out-of-window probe must not report failure either; exercise the
        # exit-code contract via scan on a tampered entry is covered in the
        # ledger suite, so here check inapplicable keeps rc 0
        rc = cli.main(["ledger", "--entry", "moser-window",
                       "--alpha", "1/2", "--p", "3/2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inapplicable" in out

    def test_undefined_check_outside_the_region(self, capsys):
        # alpha 1/4 is inside the alpha window, p 17/6 above the p window
        # (5/4, 2) and on the pole of r1, so two checks have no value
        rc = cli.main(["ledger", "--entry", "moser-window",
                       "--alpha", "1/4", "--p", "17/6"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].split() == ["moser-window", "alpha=1/4", "p=17/6",
                                    "inapplicable"]
        assert "    r1-window = None  undefined  (denominator vanishes)" in lines
        assert "    r1-sobolev-index = None  undefined  (denominator vanishes)" \
            in lines

    def test_scan_single_entry(self, capsys):
        rc = cli.main(["ledger", "--entry", "moser-window", "--scan", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "scaling ok" in out

    def test_unknown_entry_exits_two(self, capsys):
        rc = cli.main(["ledger", "--entry", "bogus", "--alpha", "1/4"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_p_required_for_windowed_entry(self, capsys):
        rc = cli.main(["ledger", "--entry", "moser-window", "--alpha", "1/4"])
        assert rc == 2
        assert "--p" in capsys.readouterr().err

    def test_entry_listing_shows_only_that_entry(self, capsys):
        rc = cli.main(["ledger", "--entry", "moser-window"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 2
        assert lines[0].startswith("moser-window ") and "alpha in" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["--p", "3/2"],
        ["--entry", "moser-window", "--scan", "5", "--p", "3/2"],
    ], ids=["alone", "with-scan"])
    def test_p_without_alpha_rejected(self, argv, capsys):
        rc = cli.main(["ledger", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--p needs --alpha" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1/2", "--p", "3/2"],
        ["--scan", "5", "--alpha", "1/2", "--p", "3/2"],
    ], ids=["point", "with-scan"])
    def test_p_rejected_for_entry_without_window(self, argv, capsys):
        rc = cli.main(["ledger", "--entry", "case-i-mid", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "'case-i-mid' takes no --p" in captured.err

    def test_malformed_fraction_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ledger", "--entry", "moser-window", "--alpha", "0.25x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--entry", "moser-high-windows", "--scan", "0"],  # no alpha row at all
        ["--entry", "moser-window", "--scan", "0"],  # no point on its closed end
        ["--scan", "-3"],                            # rows outside the region
    ], ids=["zero-open-region", "zero-closed-end", "negative"])
    def test_scan_density_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ledger", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--scan" in err and "integer >= 1" in err

    # sha256 of the stdout of `chemoflux ledger ARGS`: titles, windows,
    # check and scaling counts and point values of every catalog entry
    GOLDEN = {
        (): "f9f21b9ca9cd686cff293cccd9e09bbf6a7f90042e4cbed36fdba18a19e429a9",
        ("--alpha", "1/5", "--p", "3/2"):
            "04a8f052a1656203b44cb87569a36b18deda95f23b2bc62654ca8379853b2daf",
    }

    @pytest.mark.parametrize("args", list(GOLDEN), ids=["listing", "point"])
    def test_catalog_output_pinned(self, args, capsys):
        rc = cli.main(["ledger", *args])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[args]

    def test_entry_scan_ranges_pinned(self, capsys):
        # sha256 of every value range of the densest scan the benchmark
        # runs, printed as num/den
        rc = cli.main(["ledger", "--entry", "moser-window", "--scan", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f245f29b3d231462477159bffe3ad0c285922e7bff48edd5017f6c3b5b0ab526")

    def test_scan_calls_scan_region_once_per_entry(self, monkeypatch, capsys):
        # the ledger-scan benchmark counts its steps by rebinding every
        # chemoflux module attribute bound to ledger.scan_region, and its
        # tracer wraps the module-level functions named below
        from chemoflux import ledger
        original, calls = ledger.scan_region, []

        def counting(entry, *args, **kwargs):
            calls.append(entry.id)
            return original(entry, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "chemoflux" or name.startswith("chemoflux."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        rc = cli.main(["ledger", "--scan", "3"])
        capsys.readouterr()
        assert rc == 0
        assert calls == [e.id for e in ledger.build_ledger()]
        assert len(calls) == 22
        for name in ("build_ledger", "check_entry", "scaling_check"):
            fn = getattr(ledger, name)
            assert (fn.__module__, fn.__qualname__) == ("chemoflux.ledger", name)

    def test_closed_stdout_exits_without_traceback(self):
        # the reader leaves after one line, as `| head -1` does; -u makes
        # every line its own write, so a later print meets the closed pipe
        src = os.path.dirname(os.path.dirname(cf.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "chemoflux.cli", "ledger", "--scan", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline().startswith(b"case-i-low ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err


class TestOracleCommand:

    def test_uniform_study_output(self, capsys):
        rc = cli.main(["oracle", "uniform"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "uniform study (3 runs)" in out
        assert "mean observed order:" in out

    def test_resolution_study_orders(self, tmp_path, capsys):
        # a study keyed by N: the order of a row is against the coarser row
        cfg = {"oracle": {"resolutions": [16, 32]}}
        rc = cli.main(["oracle", "manufactured", _write(tmp_path, cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == "manufactured study (2 runs)"
        errors = [float(line.split("error=")[1].split()[0]) for line in lines[1:3]]
        order = math.log(errors[0] / errors[1]) / math.log(2)
        assert lines[1].split() == ["N=16", f"error={errors[0]:.6e}"]
        assert lines[2].split() == ["N=32", f"error={errors[1]:.6e}",
                                    f"order={order:.2f}"]
        assert lines[3] == f"  mean observed order: {order:.2f}"
        assert order > 1.9

    def test_study_kwargs_from_config(self, tmp_path, capsys):
        cfg = {"oracle": {"dts": [0.004, 0.002], "t_final": 0.25}}
        rc = cli.main(["oracle", "uniform", _write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "uniform study (2 runs)" in out

    def test_unknown_study_kwarg_rejected(self, tmp_path, capsys):
        pos = "must be a finite number > 0, got"
        ints = "must be a nonempty list of distinct integers >= 8, got"
        cases = [
            ("uniform", {"resolution": 99}, 2, "oracle.resolution"),
            # values outside a keyword's kind, or that the study rejects
            # while it sets up its inputs
            ("uniform", {"dts": "abc"}, 2, "oracle.dts: must be a nonempty "
             "list of distinct finite numbers > 0, got 'abc'"),
            ("uniform", {"t_final": -1}, 2, f"oracle.t_final: {pos} -1"),
            ("barenblatt", {"resolutions": [4]}, 2,
             f"oracle.resolutions: {ints} [4]"),
            ("barenblatt", {"resolutions": [8.5]}, 2,
             f"oracle.resolutions: {ints} [8.5]"),
            ("manufactured", {"dt_factor": 0}, 2, f"oracle.dt_factor: {pos} 0"),
            ("manufactured", {"dt_factor": -1}, 2, f"oracle.dt_factor: {pos} -1"),
            ("manufactured", {"t_end": 0}, 2, f"oracle.t_end: {pos} 0"),
            ("manufactured", {"t_end": -1}, 2, f"oracle.t_end: {pos} -1"),
            ("manufactured", {"dt_factor": 0.2}, 2,
             "oracle.dt_factor: N=16: dt=0.025 exceeds the stability bound"),
            # values with no closed form to compare against, and empty
            # studies, refused before the first run
            ("barenblatt", {"t0": 0}, 2, f"oracle.t0: {pos} 0"),
            ("barenblatt", {"t0": -1}, 2, f"oracle.t0: {pos} -1"),
            ("barenblatt", {"mass": -1}, 2, f"oracle.mass: {pos} -1"),
            ("barenblatt", {"alpha": 0.005}, 2,
             "oracle.alpha: alpha 0.005 is too small: Gamma(1/alpha + 1) overflows"),
            ("uniform", {"c0": 0}, 2, f"oracle.c0: {pos} 0"),
            ("barenblatt", {"resolutions": []}, 2,
             f"oracle.resolutions: {ints} []"),
            ("manufactured", {"resolutions": []}, 2,
             f"oracle.resolutions: {ints} []"),
            ("uniform", {"dts": []}, 2, "oracle.dts: must be a nonempty list"),
            # nothing is consumed, so c stays at c0 and every error reads 0
            ("uniform", {"n_bar": 0}, 2, f"oracle.n_bar: {pos} 0"),
            ("uniform", {"kappa_coeff": 0}, 2, f"oracle.kappa_coeff: {pos} 0"),
            # a repeated grid size or dt has no order between its two rows
            ("uniform", {"dts": [0.002, 0.002]}, 2,
             "oracle.dts: must be a nonempty list of distinct finite numbers "
             "> 0, got [0.002, 0.002]"),
            ("barenblatt", {"resolutions": [16, 16]}, 2,
             f"oracle.resolutions: {ints} [16, 16]"),
            ("manufactured", {"resolutions": [16, 16]}, 2,
             f"oracle.resolutions: {ints} [16, 16]"),
            # a run that breaks down is an error, as for `run`
            ("barenblatt", {"mass": 1e300, "resolutions": [8]}, 1,
             "error: non-finite cell density"),
            # each refusal names the study's own key (not t_final, lengths
            # or dt_max, the dataclass fields it feeds), before any row runs
            ("barenblatt", {"t_run": 0}, 2,
             f"config problem: oracle.t_run: {pos} 0\n"),
            # a time at or below run's time tolerance, as a sample interval
            ("barenblatt", {"t_run": 1e-13, "resolutions": [8]}, 2,
             "config problem: oracle.t_run: must be finite and > 1e-12, "
             "got 1e-13\n"),
            ("uniform", {"t_final": 1e-300}, 2,
             "config problem: oracle.t_final: must be finite and > 1e-12, "
             "got 1e-300\n"),
            ("barenblatt", {"length": 0}, 2,
             f"config problem: oracle.length: {pos} 0\n"),
            # positive, but length/N underflows to a cell width of 0
            ("barenblatt", {"length": 5e-324}, 2,
             "config problem: oracle.length: must give a cell width length/N "
             "> 0 at every resolution, got 5e-324\n"),
            ("barenblatt", {"t0": "x"}, 2,
             f"config problem: oracle.t0: {pos} 'x'\n"),
            ("barenblatt", {"resolutions": [64, 4]}, 2,
             f"config problem: oracle.resolutions: {ints} [64, 4]\n"),
            ("manufactured", {"alpha": "x"}, 2,
             f"config problem: oracle.alpha: {pos} 'x'\n"),
            ("uniform", {"kappa_power": "x"}, 2, "config problem: "
             "oracle.kappa_power: must be a finite number >= 1, got 'x'\n"),
            ("uniform", {"dts": [0.002, -0.001]}, 2,
             "config problem: oracle.dts: must be a nonempty list of distinct "
             "finite numbers > 0, got [0.002, -0.001]\n"),
        ]
        for study, section, code, message in cases:
            cfg = {"oracle": section}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main(["oracle", study, _write(tmp_path, cfg)])
            assert rc == code, (study, section)
            out, err = capsys.readouterr()
            assert out == "", (study, section, out)
            assert message in err
            # the one line is the whole report: no numpy warning beside it
            assert len(err.splitlines()) == 1 and not caught, (err, caught)

    @pytest.mark.parametrize("section", [
        # the profile's product overflows
        {"length": 0.001, "alpha": 0.006, "mass": 1e308, "t0": 1e-10,
         "resolutions": [8]},
        # the profile's height overflows
        {"alpha": 10, "mass": 1e300},
    ], ids=["product", "height"])
    def test_run_problem_reported_under_the_study(self, tmp_path, capsys,
                                                  section):
        # a row's run refuses a profile that overflows to inf; that problem
        # names no key of the study's own, so it is reported under the study.
        # With no warnings filter here, the suite's error::RuntimeWarning
        # fails this test on any numpy warning beside that line.
        cfg = {"oracle": section}
        rc = cli.main(["oracle", "barenblatt", _write(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config problem: oracle: initial.n: must be finite\n")

    @pytest.mark.parametrize("study, section, problem", [
        ("barenblatt", {"length": 0.5, "rho": 0.9},
         "oracle.rho: rho must be at most the shortest box length 0.5, got 0.9"),
        ("barenblatt", {"alpha": 0.005}, "oracle.alpha: alpha 0.005 is too small"),
        ("barenblatt", {"alpha": 10, "mass": 1e300},
         "oracle: initial.n: must be finite"),
        ("barenblatt", {"t_run": 1e-13, "resolutions": [8]},
         "oracle.t_run: must be finite and > 1e-12"),
        ("manufactured", {"dt_factor": 0.2},
         "oracle.dt_factor: N=16: dt=0.025 exceeds the stability bound"),
    ], ids=["rho-above-length", "gamma", "profile", "t_run", "dt_factor"])
    def test_library_and_cli_list_the_same_refusal(self, tmp_path, capsys,
                                                   study, section, problem):
        # the study labels its refusal; the CLI prints it as it is
        from chemoflux import oracle
        fn = {"barenblatt": oracle.barenblatt_convergence,
              "manufactured": oracle.manufactured_convergence}[study]
        with pytest.raises(cf.ConfigError) as exc:
            fn(**section)
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith(problem)
        rc = cli.main(["oracle", study, _write(tmp_path, {"oracle": section})])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"config problem: {exc.value.problems[0]}\n")

    def test_unknown_top_level_key_listed(self, tmp_path, capsys):
        # a misspelt section used to run the default study
        cfg = {"oracl": {"dts": [0.01], "t_final": 0.02}}
        rc = cli.main(["oracle", "uniform", _write(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "config problem: oracl: unknown section (expected one of domain, "
            "initial, model, oracle, output, params)\n"))

    def test_each_study_problem_on_its_own_line(self, tmp_path, capsys):
        cfg = {"oracle": {"alpha": -0.5, "rho": 1.5}}
        rc = cli.main(["oracle", "barenblatt", _write(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config problem: oracle.alpha: must be a finite number > 0, got -0.5\n"
            "config problem: oracle.rho: must be a number in (0, 1), got 1.5\n")

    def test_non_object_study_section_listed(self, tmp_path, capsys):
        rc = cli.main(["oracle", "uniform", _write(tmp_path, {"oracle": [1]})])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config problem: oracle: must be a JSON object\n"


class TestThreads:

    def test_threads_flag(self, tmp_path, capsys):
        from chemoflux import solver
        before = solver._workers
        try:
            # classify runs no FFT and leaves the worker count alone
            rc = cli.main(["--threads", "2", "classify",
                           _write(tmp_path, _base_cfg())])
            assert rc == 0
            assert solver._workers == before
            cfg = {"oracle": {"dts": [0.01], "t_final": 0.02}}
            rc = cli.main(["--threads", "2", "oracle", "uniform",
                           _write(tmp_path, cfg)])
            assert rc == 0
            assert solver._workers == 2
        finally:
            cf.set_threads(before)

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_threads_flag_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--threads", value, "ledger"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

"""Acceptance gate: ten release criteria, one test each, at their stated
tolerances and wall-clock budgets.  Run with -v for the per-criterion
pass/fail lines."""

import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import chemoflux as cf
from chemoflux import cli
from chemoflux.oracle import barenblatt_convergence, uniform_consumption_study


def _cube(n=32, dim=3, mode="periodic", length=2.0):
    return cf.DomainSpec(dim=dim, mode=mode, lengths=(length,) * dim,
                         resolution=(n,) * dim)


BUMP_INITIAL = {"n": {"type": "gaussian", "sigma": 0.45, "mass": 1.0},
                "c": {"type": "constant", "value": 1.0},
                "u": {"type": "vortex", "amplitude": 0.3}}


# criterion 10's configuration; at alpha=0.5 it is criterion 3's problem
INERTIAL_T1 = {
    "domain": {"dim": 3, "mode": "periodic", "lengths": 2.0, "resolution": 32},
    "params": {"alpha": 0.5, "tau": 1, "rho": 0.01, "t_final": 1.0,
               "phi_gradient": [0.0, 0.0, -0.3]},
    "model": {"chi_offset": 1.0, "chi_slope": 0.0,
              "kappa_coeff": 1.0, "kappa_power": 1.0},
    "initial": BUMP_INITIAL,
    "output": {"sample_interval": 0.02, "csv": "diagnostics.csv"},
}


@pytest.fixture(scope="module")
def inertial_t1_cli_run(tmp_path_factory):
    """Criterion 10's first `chemoflux run` invocation, shared with criterion
    3 at alpha=0.5: (config path, CSV path, wall seconds)."""
    out = tmp_path_factory.mktemp("inertial-t1")
    cfg_path = out / "repeat.json"
    cfg_path.write_text(json.dumps(INERTIAL_T1), encoding="utf-8")
    t0 = time.perf_counter()
    assert cli.main(["run", str(cfg_path), "--out", str(out / "r1")]) == 0
    return cfg_path, out / "r1" / "diagnostics.csv", time.perf_counter() - t0


@pytest.fixture(scope="module")
def thousand_step_run():
    """Shared 32^3 inertial run capped at 1000 steps (criteria 1, 2, 7)."""
    params = cf.SimParams(alpha=0.5, tau=1, rho=0.01, t_final=10.0,
                          domain=_cube(), phi_gradient=(0.0, 0.0, -0.3),
                          max_steps=1000)
    t0 = time.perf_counter()
    res = cf.run(params, cf.ChiKappaModel(), BUMP_INITIAL,
                 {"sample_interval": 0.005})
    return res, time.perf_counter() - t0


def test_criterion_01_mass_conservation_1000_steps(thousand_step_run):
    res, wall = thousand_step_run
    assert res.guards["steps"] == 1000
    assert res.guards["mass_drift"] <= 1e-12
    assert wall <= 120.0
    print(f"criterion 01: drift {res.guards['mass_drift']:.3e} over 1000 "
          f"steps in {wall:.1f}s")


def test_criterion_02_positivity_and_chemical_maximum(thousand_step_run):
    res, _ = thousand_step_run
    assert all(r.min_n >= 0.0 for r in res.records)
    assert all(r.min_c >= 0.0 for r in res.records)
    max_cs = [r.max_c for r in res.records]
    assert all(b <= a + 1e-10 for a, b in zip(max_cs, max_cs[1:]))
    assert res.guards["max_c_increase"] <= 1e-10
    print(f"criterion 02: min n {min(r.min_n for r in res.records):.3e}, "
          f"max c increase {res.guards['max_c_increase']:.3e}")


@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.2])
def test_criterion_03_energy_stays_bounded_to_t1(alpha, request):
    budget = getattr(request.session, "_c3_budget", 600.0)
    params = cf.SimParams(alpha=alpha, tau=1, rho=0.01, t_final=1.0,
                          domain=_cube(), phi_gradient=(0.0, 0.0, -0.3))
    if alpha == 0.5:  # criterion 10's first invocation integrates this run
        _, csv_path, wall = request.getfixturevalue("inertial_t1_cli_run")
        records, _ = cf.read_csv(csv_path)
    else:
        t0 = time.perf_counter()
        records = cf.run(params, cf.ChiKappaModel(), BUMP_INITIAL,
                         {"sample_interval": 0.02}).records
        wall = time.perf_counter() - t0
    request.session._c3_budget = budget - wall
    assert request.session._c3_budget > 0.0, "10 minute budget exhausted"
    for r in records:
        for name in ("mass", "entropy", "abs_entropy", "moment", "e_m", "d"):
            assert math.isfinite(getattr(r, name)), (alpha, r.t, name)
    e0 = records[0].e_m
    sup = max(r.e_m for r in records)
    assert sup <= 100.0 * max(e0, 1.0)
    rep = cf.weak_class_check(records, params)
    assert rep.passed, rep.failures
    print(f"criterion 03 (alpha={alpha}): sup E {sup:.4g} vs initial "
          f"{e0:.4g} in {wall:.0f}s")


def test_criterion_04_uniform_density_bound_inertia_free():
    params = cf.SimParams(alpha=0.15, tau=0, rho=0.01, t_final=1.0,
                          domain=_cube(), phi_gradient=(0.0, 0.0, -0.2))
    model = cf.ChiKappaModel(chi_offset=1.0, chi_slope=0.0,
                             kappa_coeff=1.0, kappa_power=1.0)
    initial = {"n": {"type": "gaussian", "sigma": 0.45, "mass": 1.0},
               "c": {"type": "constant", "value": 1.0},
               "u": {"type": "vortex", "amplitude": 0.2}}
    t0 = time.perf_counter()
    res = cf.run(params, model, initial, {"sample_interval": 0.02})
    wall = time.perf_counter() - t0
    assert wall <= 300.0
    peak0 = res.records[0].max_n
    sup = max(r.max_n for r in res.records)
    assert sup <= 2.0 * peak0
    rep = cf.bounded_class_check(res.records, params)
    assert rep.passed, rep.failures
    print(f"criterion 04: sup max_n {sup:.4g} vs 2x initial "
          f"{2 * peak0:.4g} in {wall:.0f}s")


def test_criterion_05_uniform_consumption_accuracy_and_order():
    t0 = time.perf_counter()
    study = uniform_consumption_study()
    wall = time.perf_counter() - t0
    assert wall <= 60.0
    errs = {dt: err for dt, err in study}
    assert errs[1e-3] <= 1e-4
    ordered = [err for _, err in study]
    orders = [math.log2(ordered[i] / ordered[i + 1]) for i in range(2)]
    assert all(o >= 0.9 for o in orders)
    print(f"criterion 05: err(1e-3) {errs[1e-3]:.3e}, orders "
          + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_06_self_similar_spreading_converges_in_l1():
    t0 = time.perf_counter()
    rows = barenblatt_convergence()
    wall = time.perf_counter() - t0
    assert wall <= 120.0
    errs = [e for _, e in rows]
    assert [n for n, _ in rows] == [64, 128, 256]
    assert errs[0] > errs[1] > errs[2]
    print("criterion 06: L1 errors "
          + ", ".join(f"{e:.3e}" for e in errs) + f" in {wall:.1f}s")


def test_criterion_07_projection_residuals(thousand_step_run):
    res, _ = thousand_step_run
    assert res.guards["max_div_residual"] <= 1e-10
    params = cf.SimParams(alpha=0.5, tau=1, rho=0.01, t_final=10.0,
                          domain=_cube(n=64, dim=2, mode="neumann"),
                          phi_gradient=(0.0, -0.3), max_steps=200)
    t0 = time.perf_counter()
    walled = cf.run(params, cf.ChiKappaModel(), {
        "n": {"type": "gaussian", "sigma": 0.45, "mass": 1.0},
        "c": {"type": "constant", "value": 1.0},
        "u": {"type": "vortex", "amplitude": 0.25}},
        {"sample_interval": 0.01})
    wall = time.perf_counter() - t0
    assert wall <= 180.0
    assert walled.guards["steps"] == 200
    assert walled.guards["max_div_residual"] <= 1e-12
    print(f"criterion 07: periodic div {res.guards['max_div_residual']:.3e}, "
          f"walled div {walled.guards['max_div_residual']:.3e}")


def test_criterion_08_exact_catalog_scan_and_anchors():
    t0 = time.perf_counter()
    catalog = cf.build_ledger()
    for entry in catalog:
        rep = cf.scan_region(entry, density=100)
        assert rep.passed, (entry.id, rep.interior_failures[:3])
    res = cf.check_entry(cf.get_entry("case-i-low-gn-2minus-alpha"), F(1, 3))
    values = {o.name: o.value for o in res.outcomes}
    assert values["gn-exponent"] == F(4, 3)
    res = cf.check_entry(cf.get_entry("moser-window"), F(1, 4), F(3, 2))
    values = {o.name: o.value for o in res.outcomes}
    assert values["theta5"] == F(1, 6)
    wall = time.perf_counter() - t0
    assert wall <= 60.0
    print(f"criterion 08: {len(catalog)} entries scanned at density 100 "
          f"in {wall:.1f}s")


def test_criterion_09_reference_classifications():
    dom = _cube(n=8, dim=1)

    def classify(chi, kappa, alpha):
        model = cf.ChiKappaModel(chi_offset=chi[0], chi_slope=chi[1],
                                 kappa_coeff=kappa[0], kappa_power=kappa[1])
        params = cf.SimParams(alpha=alpha, tau=0, rho=0.01, t_final=1.0,
                              domain=dom)
        return model, cf.classify_assumption(model, params)

    model, cls = classify((0.0, 1.0), (1.0, 1.0), 0.2)
    assert cls.weak_cases == frozenset({"i", "ii", "iii"})
    assert cls.bounded_cases == frozenset({"i", "ii", "iii"})
    assert cls.witnesses["chi0"] == model.chi_slope
    assert cls.witnesses["kappa0"] == model.kappa_coeff

    _, cls = classify((1.0, 0.0), (1.0, 1.0), 0.15)
    assert cls.weak_cases == frozenset({"iii"})
    assert cls.bounded_cases == frozenset({"iii"})

    _, cls = classify((1.0, 0.0), (1.0, 2.0), 0.1)
    assert cls.weak_cases == frozenset()
    assert cls.bounded_cases == frozenset()
    print("criterion 09: three reference models classified exactly")


def test_criterion_10_repeat_runs_bit_identical(inertial_t1_cli_run, tmp_path,
                                               capsys):
    cfg_path, first_csv, _ = inertial_t1_cli_run
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    b1 = first_csv.read_bytes()
    b2 = (tmp_path / "r2" / "diagnostics.csv").read_bytes()
    assert b1 == b2
    print(f"criterion 10: {len(b1)} CSV bytes identical across invocations")

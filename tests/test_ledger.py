"""Exact-arithmetic catalog tests.

Anchor values below were derived by hand from the exponent formulas,
not read off the implementation:
at alpha = 1/3 the porous-interpolation exponent (6-6a)/(2+3a) collapses
to 4/3 and the mass exponent (1+4a)/(2+3a) to 7/9; at (alpha, p) =
(1/4, 3/2) the window quantities are r1 = 15/8 with denominator
5+14a-3p = 4, p-3a = 3/4, r2 = p-a+1 = 9/4, theta1 = 7/16,
theta5 = 1/6, delta1 = 4*theta1/(p+a) = 1, delta5 = r2*theta5 = 3/8.
"""

import dataclasses
import hashlib
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

import chemoflux as cf
from chemoflux import ledger as lg


REGIONS = {
    # id: (alpha_lo, alpha_hi, lo_strict, hi_strict, uses_p)
    "case-i-low":                 (F(1, 6), F(1, 3), True, False, False),
    "case-i-low-gn-2minus-alpha": (F(1, 6), F(1, 3), True, False, False),
    "case-i-low-gn-l2":           (F(1, 6), F(1, 3), True, False, False),
    "case-i-low-gn-6-5":          (F(1, 6), F(1, 3), True, False, False),
    "case-i-mid":                 (F(1, 3), F(1), True, False, False),
    "case-i-high":                (F(1), None, True, True, False),
    "case-i-high-gn":             (F(1), F(2), True, True, False),
    "case-ii-iii-small-alpha":    (F(0), F(1, 6), True, False, False),
    "moser-high-windows":         (F(1, 3), None, True, True, True),
    "moser-high-gn-interp":       (F(1, 3), None, True, True, True),
    "moser-high-interp-window":   (F(1, 3), None, True, True, True),
    "sobolev-grad-power":         (F(0), None, True, True, False),
    "moser-window":               (F(1, 8), F(1, 3), True, False, True),
    "moser-window-gn-theta1":     (F(1, 8), F(1, 3), True, False, True),
    "moser-window-gn-theta2":     (F(1, 8), F(1, 3), True, False, True),
    "moser-window-gn-theta3":     (F(1, 8), F(1, 3), True, False, True),
    "moser-window-gn-theta4":     (F(1, 8), F(1, 3), True, False, True),
    "moser-window-gn-theta5":     (F(1, 8), F(1, 3), True, False, True),
    "moser-low-vorticity":        (F(1, 8), F(1, 3), True, False, False),
    "moser-low-r1-range":         (F(1, 8), F(1, 3), True, False, True),
    "moser-low-p0":               (F(1, 8), F(1, 3), True, False, False),
    "moser-low-p0-tail":          (F(1, 8), F(1, 3), True, False, True),
}


class TestCatalogShape:

    def test_size_and_unique_ids(self):
        cat = cf.build_ledger()
        ids = [e.id for e in cat]
        assert len(cat) == 22
        assert len(set(ids)) == 22
        for e in cat:
            assert e.title
            assert e.checks

    def test_region_table(self):
        cat = {e.id: e for e in cf.build_ledger()}
        assert set(cat) == set(REGIONS)
        for eid, (lo, hi, los, his, uses_p) in REGIONS.items():
            e = cat[eid]
            assert e.alpha_lo == lo, eid
            assert e.alpha_hi == hi, eid
            assert e.alpha_lo_strict is los, eid
            assert e.alpha_hi_strict is his, eid
            assert e.uses_p is uses_p, eid

    def test_get_entry_roundtrip_and_unknown(self):
        e = cf.get_entry("moser-window")
        assert e.id == "moser-window"
        with pytest.raises(KeyError):
            cf.get_entry("no-such-entry")


def _outcomes(entry_id, alpha, p=None):
    res = cf.check_entry(cf.get_entry(entry_id), alpha, p)
    return res.status, {o.name: o for o in res.outcomes}


class TestAnchorValues:

    def test_porous_interpolation_exponent_at_one_third(self):
        status, out = _outcomes("case-i-low-gn-2minus-alpha", F(1, 3))
        assert status == "pass"
        assert out["gn-exponent"].value == F(4, 3)
        assert out["mass-exponent"].value == F(7, 9)

    def test_moser_window_point(self):
        status, out = _outcomes("moser-window", F(1, 4), F(3, 2))
        assert status == "pass"
        assert out["r1-denominator"].value == F(4)
        assert out["r1-window"].value == F(15, 8)
        assert out["p-minus-3a"].value == F(3, 4)
        assert out["holder-conjugacy"].value == F(1)
        assert out["r1-sobolev-index"].value == F(0)
        assert out["r2-window"].value == F(9, 4)
        assert out["theta1"].value == F(7, 16)
        assert out["theta5"].value == F(1, 6)
        assert out["delta1"].value == F(1)
        assert out["delta5"].value == F(3, 8)
        assert all(o.ok for o in out.values())

    def test_moser_window_delta_theta_consistency(self):
        # delta_i are tied to theta_i by fixed rational relations; verify the
        # reported values satisfy them instead of freezing every numeral
        a, p = F(1, 4), F(3, 2)
        _, out = _outcomes("moser-window", a, p)
        r2 = p - a + 1
        assert out["delta2"].value == 4 * out["theta2"].value / (p + a)
        assert out["delta3"].value == 2 * r2 * out["theta3"].value / (p + a)
        assert out["delta4"].value == 2 * r2 * out["theta4"].value / (p + a)

    def test_outside_window_is_inapplicable_with_diagnostics(self):
        status, out = _outcomes("moser-high-windows", F(1, 8), F(100))
        assert status == "inapplicable"
        assert out["delta-p-prime"].value == F(-197, 1100)
        assert out["delta-p"].value == F(-997, 1100)
        assert out["delta-p-prime"].ok is False

    def test_p_outside_its_window_inapplicable(self):
        # alpha 1/4 is inside moser-window's alpha window, p 17/6 above its
        # p window, and r1 has a pole there: a value-less diagnostic
        e = cf.get_entry("moser-window")
        assert e.p_window(F(1, 4)) == (F(5, 4), F(2))
        assert not e.contains(F(1, 4), F(17, 6))
        status, out = _outcomes("moser-window", F(1, 4), F(17, 6))
        assert status == "inapplicable"
        assert (out["r1-window"].value, out["r1-window"].ok,
                out["r1-window"].note) == (None, None, "denominator vanishes")
        assert out["p-minus-3a"].value == F(25, 12)

    def test_below_alpha_floor_inapplicable(self):
        status, _ = _outcomes("case-i-low", F(1, 10))
        assert status == "inapplicable"


class TestExactnessDiscipline:

    def test_float_alpha_rejected(self):
        e = cf.get_entry("case-i-mid")
        with pytest.raises(TypeError):
            cf.check_entry(e, 0.5)

    def test_bool_rejected(self):
        # a bool is never a number: True is not alpha 1
        with pytest.raises(TypeError, match="^alpha must be an int or "
                                            "Fraction, got bool$"):
            cf.check_entry(cf.get_entry("case-i-mid"), True)
        with pytest.raises(TypeError, match="^p must be an int or "
                                            "Fraction, got bool$"):
            cf.check_entry(cf.get_entry("moser-window"), F(1, 4), False)

    def test_float_p_rejected(self):
        e = cf.get_entry("moser-window")
        with pytest.raises(TypeError):
            cf.check_entry(e, F(1, 4), 1.5)

    def test_missing_p_rejected(self):
        e = cf.get_entry("moser-window")
        with pytest.raises(ValueError):
            cf.check_entry(e, F(1, 4))

    def test_int_alpha_accepted(self):
        # ints are exact; the high-alpha region admits alpha = 2
        res = cf.check_entry(cf.get_entry("case-i-high"), 2)
        assert res.status == "pass"


class TestScalings:

    def test_all_catalog_scalings_hold(self):
        for e in cf.build_ledger():
            assert cf.scaling_check(e), e.id

    def test_dilation_exponent_rules(self):
        two = lambda a, p: F(2)
        one = lambda a, p: F(1)
        # volume scaling of an L^q norm power: -3 e / q in three dimensions
        assert lg.ScaleFactor("lp", two, two).lam_exponent(F(1, 2), None) == F(-3)
        # gradient of a density power contributes -e/2 per power of the norm
        assert lg.ScaleFactor("grad_pow", one, two).lam_exponent(F(1, 2), None) == F(-1)
        # chemical gradient: e (1 - 3/q)
        assert lg.ScaleFactor("grad_c", two, two).lam_exponent(F(1, 2), None) == F(-1)

    def test_corrupted_scaling_detected(self):
        ident = lambda a, p: a
        two = lambda a, p: F(2)
        one = lambda a, p: F(1)
        bad = lg.LedgerEntry(
            id="x-bad", title="deliberately inconsistent", alpha_lo=F(1, 6),
            alpha_hi=F(1, 3), checks=(lg.Check("v", ident, lo=F(0)),),
            scalings=(lg.Scaling(lhs=(lg.ScaleFactor("lp", two, two),),
                                 rhs=(lg.ScaleFactor("grad_pow", one, one),)),))
        assert not cf.scaling_check(bad)
        assert not cf.scan_region(bad, density=8).passed

    def test_scaling_gap_zero_only_on_the_window_edge_detected(self):
        # the gap (1 + a - p)/2 vanishes on p = p_lo(a) = 1 + a, the lattice's
        # j = 0, and nowhere inside the window
        e = lg.LedgerEntry(
            id="x-edge-gap", title="scaling consistent only on the window edge",
            alpha_lo=F(1, 3), alpha_hi=F(1), p_lo=lambda a, p: 1 + a,
            checks=(lg.Check("v", lambda a, p: p, lo=F(0)),),
            scalings=(lg.Scaling(lhs=(lg._grad_pow(lambda a, p: p),),
                                 rhs=(lg._grad_pow(lambda a, p: 1 + a),)),))
        assert not cf.scaling_check(e)

    def test_scaling_vacuous_without_entries(self):
        assert cf.scaling_check(cf.get_entry("case-i-low"))

    def test_scaling_vacuous_on_empty_p_window(self):
        # p_hi = p_lo leaves no point in the region: the inconsistent scaling
        # passes vacuously, and the scan has no line
        one = lambda a, p: F(1)
        e = lg.LedgerEntry(
            id="x-empty-window", title="p window empty at every alpha",
            alpha_lo=F(1, 6), alpha_hi=F(1, 3), p_lo=lambda a, p: 1 + a,
            p_hi=lambda a, p: 1 + a, checks=(lg.Check("v", lambda a, p: p, lo=F(0)),),
            scalings=(lg.Scaling(lhs=(lg.ScaleFactor("lp", one, one),),
                                 rhs=(lg.ScaleFactor("grad_pow", one, one),)),))
        assert cf.scaling_check(e) is True
        rep = cf.scan_region(e, density=3)
        assert (rep.interior_points, rep.passed) == (0, True)


class TestScan:

    def test_all_entries_scan_clean_at_moderate_density(self):
        for e in cf.build_ledger():
            rep = cf.scan_region(e, density=12)
            assert rep.passed, (e.id, rep.interior_failures[:3])
            assert rep.interior_points > 0, e.id

    def test_moser_window_ranges_sit_inside_declared_bounds(self):
        rep = cf.scan_region(cf.get_entry("moser-window"), density=12)
        ranges = rep.value_ranges
        assert ranges["holder-conjugacy"] == (F(1), F(1))
        assert ranges["r1-sobolev-index"] == (F(0), F(0))
        for name in ("theta1", "theta2", "theta3", "theta4", "theta5"):
            lo, hi = ranges[name]
            assert F(0) < lo <= hi < F(1), name
        for name in ("delta1", "delta2", "delta3", "delta4", "delta5"):
            lo, hi = ranges[name]
            assert F(0) < lo <= hi < F(2), name
        lo, hi = ranges["r1-window"]
        assert F(1) <= lo <= hi < F(3)
        lo, hi = ranges["r2-window"]
        assert F(2) < lo <= hi < F(3)

    def test_interior_pole_raises(self):
        pole = lambda a, p: F(1) / (a - F(1, 4))
        e = lg.LedgerEntry(id="x-pole", title="pole inside window",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           checks=(lg.Check("v", pole, lo=F(0)),))
        with pytest.raises(cf.CatalogError):
            cf.check_entry(e, F(1, 4))
        # density 1 puts the one interior point of the alpha line on the pole
        with pytest.raises(cf.CatalogError, match=r"alpha=1/4, p=None"):
            cf.scan_region(e, density=1)

    @pytest.mark.parametrize("cap", [F(1), F(1, 2)], ids=["at-floor", "below-floor"])
    def test_empty_alpha_scan_range_raises(self, cap):
        e = lg.LedgerEntry(id="x-empty", title="scan cap at or below alpha_lo",
                           alpha_lo=F(1), alpha_hi=None, scan_alpha_hi=cap,
                           checks=(lg.Check("v", lambda a, p: a, lo=F(0)),))
        with pytest.raises(cf.CatalogError, match="empty alpha scan range"):
            cf.scan_region(e, density=3)

    def test_cached_helper_pole_raises_every_time(self):
        # r1 = (6+6a)/(5+14a-3p) has a pole at p = 17/6 when a = 1/4, and
        # every call that meets it must fail
        e = lg.LedgerEntry(id="x-r1-pole", title="r1 pole inside window",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           p_lo=lambda a, p: F(2), p_hi=lambda a, p: F(4),
                           checks=(lg.Check("r1", lg._r1, lo=F(0)),))
        for _ in range(2):
            with pytest.raises(cf.CatalogError):
                cf.check_entry(e, F(1, 4), F(17, 6))

    @pytest.mark.parametrize("check", [lg._r1, lambda a, p: 1 / lg._r1(a, p)],
                             ids=["r1", "reciprocal-r1"])
    def test_lattice_point_on_p_pole_raises(self, check):
        # density 3 puts a row at a = 1/4 and the point p = 17/6, r1's pole
        # there, on it; the reciprocal no longer divides by 5+14a-3p, but its
        # Fraction evaluation divides by r1 = 0 at that point
        e = lg.LedgerEntry(id="x-r1-pole", title="r1 pole on a lattice point",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           p_lo=lambda a, p: F(5, 2), p_hi=lambda a, p: F(19, 6),
                           checks=(lg.Check("r1", check, lo=F(0)),))
        with pytest.raises(cf.CatalogError, match=r"alpha=1/4, p=17/6"):
            cf.scan_region(e, density=3)

    def test_alpha_pole_on_a_row_raises(self):
        pole = lambda a, p: p / (a - F(1, 4))
        e = lg.LedgerEntry(id="x-alpha-pole", title="pole on an alpha row",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           p_lo=lambda a, p: F(2), p_hi=lambda a, p: F(4),
                           checks=(lg.Check("v", pole, lo=F(0)),))
        with pytest.raises(cf.CatalogError, match=r"alpha=1/4, p=5/2"):
            cf.scan_region(e, density=3)

    def test_pole_on_one_whole_row_raises(self):
        # density 3 puts the second row on a = 1/4, where the divisor
        # vanishes for every p; its first point p = 5/2 is reported
        e = lg.LedgerEntry(id="x-row-pole", title="pole along one interior row",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           p_lo=lambda a, p: F(2), p_hi=lambda a, p: F(4),
                           checks=(lg.Check("v", lambda a, p: 1 / ((a - F(1, 4)) * p),
                                            lo=F(0)),))
        with pytest.raises(cf.CatalogError, match=r"alpha=1/4, p=5/2$"):
            cf.scan_region(e, density=3)

    def test_window_pole_on_a_row_raises(self):
        # density 3 puts the second row on a = 1/4, where both window ends
        # have a pole; so does a point evaluation there
        e = lg.LedgerEntry(id="x-window-pole", title="p window with a pole",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           alpha_hi_strict=False,
                           p_lo=lambda a, p: 1 / (a - F(1, 4)) + 10,
                           p_hi=lambda a, p: 1 / (a - F(1, 4)) + 12,
                           checks=(lg.Check("p", lambda a, p: p, lo=F(0)),))
        pattern = r"^entry 'x-window-pole': p window undefined at alpha=1/4 "
        with pytest.raises(cf.CatalogError, match=pattern):
            cf.scan_region(e, density=3)
        with pytest.raises(cf.CatalogError, match=pattern):
            cf.check_entry(e, F(1, 4), F(3))

    def test_divisor_zero_everywhere_raises_at_first_point(self):
        e = lg.LedgerEntry(id="x-zero-divisor", title="a divisor that is 0",
                           alpha_lo=F(1, 6), alpha_hi=F(1, 3),
                           p_lo=lambda a, p: F(2), p_hi=lambda a, p: F(4),
                           checks=(lg.Check("ok", lambda a, p: p, lo=F(0)),
                                   lg.Check("v", lambda a, p: 1 / (p - p), lo=F(0))))
        with pytest.raises(cf.CatalogError, match=r"'v'.*alpha=5/24, p=5/2$"):
            cf.scan_region(e, density=3)

    def test_failures_listed_point_major(self):
        e = lg.LedgerEntry(id="x-fails", title="checks failing on the lattice",
                           alpha_lo=F(0), alpha_hi=F(1),
                           p_lo=lambda a, p: F(0), p_hi=lambda a, p: F(1),
                           checks=(lg.Check("p-low", lambda a, p: p, lo=F(1, 2)),
                                   lg.Check("sum", lambda a, p: a + p, hi=F(1))))
        rep = cf.scan_region(e, density=3)
        q1, q2, q3 = F(1, 4), F(1, 2), F(3, 4)
        assert rep.interior_failures == [
            (q1, q1, "p-low"), (q1, q2, "p-low"), (q1, q3, "sum"),
            (q2, q1, "p-low"), (q2, q2, "p-low"), (q2, q2, "sum"), (q2, q3, "sum"),
            (q3, q1, "p-low"), (q3, q1, "sum"), (q3, q2, "p-low"), (q3, q2, "sum"),
            (q3, q3, "sum")]
        assert rep.value_ranges == {"p-low": (q1, q3), "sum": (q2, F(3, 2))}

    @pytest.mark.parametrize("density", [0, -3])
    def test_density_below_one_rejected(self, density):
        with pytest.raises(ValueError):
            cf.scan_region(cf.get_entry("moser-window"), density=density)

    @pytest.mark.parametrize("density", [True, 2.5, F(3), "3"])
    def test_density_not_an_integer_rejected(self, density):
        # True scanned at density 1, and 2.5 failed in range()
        with pytest.raises(ValueError) as exc:
            cf.scan_region(cf.get_entry("moser-window"), density=density)
        assert str(exc.value) == \
            f"scan density must be an integer >= 1, got {density!r}"

    def test_check_window_semantics(self):
        c = lg.Check("w", lambda a, p: a, lo=F(0), hi=F(1),
                     lo_strict=True, hi_strict=False)
        assert not c.holds(F(0))
        assert c.holds(F(1, 2))
        assert c.holds(F(1))
        assert not c.holds(F(3, 2))
        pin = lg.Check("id", lambda a, p: a, lo=F(1, 3), hi=F(1, 3),
                       lo_strict=False, hi_strict=False)
        assert pin.holds(F(1, 3))
        assert not pin.holds(F(1, 3) + F(1, 10 ** 9))

    def test_region_window_edges(self):
        # the alpha window keeps its declared strictness per side; the p
        # window is open at both ends
        low = cf.get_entry("case-i-low")              # (1/6, 1/3]
        assert not low.contains(F(1, 6), None)
        assert low.contains(F(1, 3), None)
        assert not low.contains(F(1, 3) + F(1, 10 ** 9), None)
        window = cf.get_entry("moser-window")         # p in (1+a, 1+4a)
        a = F(1, 4)
        assert window.contains(a, F(3, 2))
        assert not window.contains(a, F(5, 4))
        assert not window.contains(a, F(2))
        assert cf.check_entry(window, a, F(2)).status == "inapplicable"


def _q(x):
    return "None" if x is None else f"{x.numerator}/{x.denominator}"


def _canonical(rep) -> str:
    parts = [rep.entry_id, str(rep.interior_points)]
    parts += [f"{_q(a)},{_q(p)},{name}" for a, p, name in rep.interior_failures]
    parts += [f"{name}:{_q(lo)}:{_q(hi)}"
              for name, (lo, hi) in rep.value_ranges.items()]
    parts.append(str(rep.scaling_ok))
    return ";".join(parts)


class TestExactScanReports:
    """The scan is exact, so every report is pinned bit for bit: the digest
    covers each entry's counts, failures and value ranges as num/den."""

    # these reports' fields match the point-by-point Fraction scan's
    DIGEST_20 = "02dfb3a39e1f6fb5691ad38a5e800176cd48c408d2eec8707c9d56059a28cb8c"
    DIGEST_60 = "7d1626332fbabb88b63e0403221d1dc2e130af4b5b7ccd28d6c6d04239f6aff4"
    # criterion 8's density, pinned from the line-by-line scan
    DIGEST_100 = "3977a14c5442dd9010ec5bcdda02cd300028d7e1c96f619288a6da27b57f3dd9"

    @staticmethod
    def _digest(density):
        h = hashlib.sha256()
        for e in cf.build_ledger():
            h.update(_canonical(cf.scan_region(e, density=density)).encode() + b"\n")
        return h.hexdigest()

    def test_density_20_reports_pinned(self):
        assert self._digest(20) == self.DIGEST_20

    def test_density_60_reports_pinned(self):
        assert self._digest(60) == self.DIGEST_60

    def test_density_100_reports_pinned(self):
        assert self._digest(100) == self.DIGEST_100


_CATALOG = cf.build_ledger()
_CUTS = [F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]
_ONE, _TWO = (lambda a, p: F(1)), (lambda a, p: F(2))
# entries whose lines the monotone proof must refuse, each beside a check it
# must accept: a turning point inside every p line, and denominators with
# the irrational root sqrt(2) between two lattice points of every line
_SYNTHETIC = (
    lg.LedgerEntry(
        id="x-turning-point", title="a minimum inside every p line",
        alpha_lo=F(0), alpha_hi=F(1), p_lo=_ONE, p_hi=_TWO,
        checks=(lg.Check("bowl", lambda a, p: (p - F(3, 2)) * (p - F(3, 2)) + a,
                         lo=F(0), hi=F(1, 2)),
                lg.Check("ramp", lambda a, p: a + p, lo=F(1)))),
    lg.LedgerEntry(
        id="x-alpha-pole-between", title="a pole between two points of the alpha line",
        alpha_lo=F(1), alpha_hi=F(2), alpha_lo_strict=False, alpha_hi_strict=False,
        checks=(lg.Check("hyperbola", lambda a, p: a / (a * a - 2), hi=F(3)),
                lg.Check("ramp", lambda a, p: 2 * a - 1, lo=F(0)))),
    lg.LedgerEntry(
        id="x-p-pole-between", title="a pole between two points of every p line",
        alpha_lo=F(0), alpha_hi=F(1), p_lo=_ONE, p_hi=_TWO,
        checks=(lg.Check("hyperbola", lambda a, p: (1 + a) / (p * p - 2), lo=F(-3)),
                lg.Check("ramp", lambda a, p: a / p, lo=F(0)))),
)


def _reference_lattice(entry, m):
    """scan_region's lattice of density m, built from the entry's declared
    fields: (point, rows), where point(i, j) is the lattice point at row i
    and index j (traced values for i, j = lg._I, lg._J), and rows holds the
    (i, inner) of its lines, inner the j of the line's points."""
    cap = next(c for c in (entry.alpha_hi, entry.scan_alpha_hi, entry.alpha_lo + 1)
               if c is not None)
    step = (cap - entry.alpha_lo) / (m + 1)
    alphas = list(range(1, m + 1))
    if not entry.alpha_lo_strict:
        alphas.insert(0, 0)
    if entry.alpha_hi is not None and not entry.alpha_hi_strict:
        alphas.append(m + 1)
    if not entry.uses_p:
        return (lambda i, j: (entry.alpha_lo + step * j, None)), [(0, alphas)]

    def window(a):
        lo = entry.p_lo(a, None)
        return lo, lo + lg.SCAN_P_SPAN if entry.p_hi is None else entry.p_hi(a, None)

    def point(i, j):
        a = entry.alpha_lo + step * i
        lo, hi = window(a)
        return a, lo + (hi - lo) * j / (m + 1)

    rows = []
    for i in alphas:
        lo, hi = window(entry.alpha_lo + step * i)
        if lo < hi:
            rows.append((i, range(1, m + 1)))
    return point, rows


def _reference_report(entry, density):
    """scan_region's report fields, rebuilt one point at a time with
    check_entry: (points, failures, value ranges in insertion order).  Every
    lattice point must lie inside the region."""
    point, rows = _reference_lattice(entry, density)
    inner = [point(i, j) for i, js in rows for j in js]
    failures, ranges = [], {}
    for a, p in inner:
        res = cf.check_entry(entry, a, p)
        assert res.status != "inapplicable", (a, p)
        failures += [(a, p, o.name) for o in res.outcomes if o.ok is False]
        for o in res.outcomes:
            lo, hi = ranges.get(o.name, (o.value, o.value))
            ranges[o.name] = (min(lo, o.value), max(hi, o.value))
    return len(inner), failures, list(ranges.items())


@hst.composite
def _entry_with_cut_bounds(draw):
    """A catalog entry with its checks' bounds redrawn, so that checks fail
    at some lattice points and pass at others."""
    entry = draw(hst.sampled_from(_CATALOG + _SYNTHETIC))
    checks = []
    for chk in entry.checks:
        lo, hi = sorted(draw(hst.lists(hst.sampled_from(_CUTS + [None]),
                                       min_size=2, max_size=2)),
                        key=lambda x: (x is None, x))
        checks.append(dataclasses.replace(chk, lo=lo, hi=hi,
                                          lo_strict=draw(hst.booleans()),
                                          hi_strict=draw(hst.booleans())))
    return dataclasses.replace(entry, checks=tuple(checks))


def _assert_scan_matches_points(entry, density):
    rep = cf.scan_region(entry, density=density)
    assert (rep.interior_points, rep.interior_failures,
            list(rep.value_ranges.items())) == _reference_report(entry, density)
    point, rows = _reference_lattice(entry, density)
    traced = [lg._lift(c.value(*point(lg._I, lg._J))) for c in entry.checks]
    for i, inner in rows:
        lines = [v.row(i) for v in traced]
        for j in inner:
            res = cf.check_entry(entry, *point(i, j))
            assert [F(lg._at(num, j), lg._at(den, j)) if lg._at(den, j)
                    else None for num, den in lines] == [o.value for o in res.outcomes]


def _line_ends(entry, density):
    """Per line of more than two points, `_ends_range` of each check there,
    read off one trace per check."""
    a, p, rows = lg._lattice(entry, density)
    traced = [lg._lift(c.value(a, p)) for c in entry.checks]
    return [[lg._ends_range(c, *v.row(i), inner[0], inner[-1])
             for c, v in zip(entry.checks, traced)]
            for i, inner in rows if len(inner) > 2]


def _counting(entry):
    """The entry with each check's value wrapped to count its calls."""
    calls = {c.name: 0 for c in entry.checks}

    def counted(chk):
        def value(a, p):
            calls[chk.name] += 1
            return chk.value(a, p)
        return dataclasses.replace(chk, value=value)

    return dataclasses.replace(entry, checks=tuple(map(counted, entry.checks))), calls


class TestRowScanAgainstPoints:
    """The scan traces each check once per entry over the whole lattice, and
    each line decides it at its two ends when it is proved monotone there,
    else point by point; either way every point's value and verdict must be
    the one check_entry gives there."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_entry_with_cut_bounds(), hst.integers(1, 9))
    def test_row_scan_matches_check_entry(self, entry, density):
        _assert_scan_matches_points(entry, density)

    @pytest.mark.parametrize("density", range(1, 10))
    @pytest.mark.parametrize("entry", _SYNTHETIC, ids=lambda e: e.id)
    def test_non_monotone_lines_scanned_point_by_point(self, entry, density):
        _assert_scan_matches_points(entry, density)
        for bent, ramp in _line_ends(entry, density):
            assert bent is None and ramp is not None

    def test_catalog_decided_at_line_ends_at_density_60(self):
        # every (line, check) pair of the shipped catalog is proved monotone
        # with passing ends; an edit that loses this slows the scan
        for e in _CATALOG:
            for line in _line_ends(e, 60):
                assert all(line), (e.id, line)

    @pytest.mark.parametrize("density", [3, 60])
    def test_each_check_traced_once_per_scan(self, density):
        for e in _CATALOG + _SYNTHETIC:
            counted, calls = _counting(e)
            for scans in (1, 2):
                cf.scan_region(counted, density=density)
                assert calls == {c.name: scans for c in e.checks}, e.id


@hst.composite
def _polynomial_with_roots(draw):
    """An integer polynomial (constant term first) built from rational roots
    r (factors q x - r) and from x^2 + k factors, with an integer interval
    (lo, hi); some roots sit exactly on lo or hi.  Degree <= 16."""
    lo = draw(hst.integers(-6, 6))
    hi = lo + draw(hst.integers(1, 12))
    roots = draw(hst.lists(hst.one_of(
        hst.sampled_from([F(lo), F(hi)]),
        hst.builds(F, hst.integers(-80, 80), hst.integers(1, 12))), max_size=16))
    ks = draw(hst.lists(hst.integers(1, 60), max_size=(16 - len(roots)) // 2))
    poly = (draw(hst.integers(-9, 9).filter(bool)),)
    for r in roots:
        poly = lg._pmul(poly, (-r.numerator, r.denominator))
    for k in ks:
        poly = lg._pmul(poly, (k, 0, 1))
    return poly, lo, hi, roots, ks


class TestRootExclusion:
    """`_no_root_between` (Descartes' rule of signs on (lo, hi)) may fail to
    prove a root-free interval, but must never claim one that holds a
    root."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_polynomial_with_roots())
    def test_no_root_claimed_wrongly(self, case):
        poly, lo, hi, roots, ks = case
        inside = any(lo < r < hi for r in roots)
        if lg._no_root_between(poly, lo, hi):
            assert not inside
        # the one-circle theorem: with no root in the open disc on the
        # diameter (lo, hi) the rule proves the interval root-free
        mid, half = F(lo + hi, 2), F(hi - lo, 2)
        if not inside and all(mid * mid + k > half * half for k in ks):
            assert lg._no_root_between(poly, lo, hi)
        assert lg._no_root_between(poly + (0, 0), lo, hi) == \
            lg._no_root_between(poly, lo, hi)

    def test_zero_polynomial_and_constants(self):
        for zero in [(0,), (0, 0, 0)]:
            assert not lg._no_root_between(zero, 0, 5)
        for const in [(7,), (-3, 0)]:
            assert lg._no_root_between(const, -2, 2)

    def test_roots_on_the_ends_are_outside(self):
        ends = lg._pmul((-1, 1), (-4, 1))              # (x - 1)(x - 4)
        assert lg._no_root_between(ends, 1, 4)
        assert not lg._no_root_between(ends, 0, 4)
        assert not lg._no_root_between(ends, 1, 5)

    def test_degree_16_with_one_root_inside(self):
        poly = (1,)
        for r in [F(-7, 3), F(31, 10)] + [F(k) for k in range(-20, -6)]:
            poly = lg._pmul(poly, (-r.numerator, r.denominator))
        assert len(poly) == 17
        assert not lg._no_root_between(poly, 3, 4)
        assert lg._no_root_between(poly, 4, 6)


class TestSymbolicExactness:
    """The catalog's exactness, checked in sympy apart from the traced
    arithmetic: every check value, scale index and power is a ratio of
    polynomials of total degree <= 4 in (a, p), and each Scaling's
    lambda-exponents cancel identically, which `scaling_check` proves from
    one trace in the lattice coordinates (i, j)."""

    def test_scaled_p_entries_are_not_vacuous(self):
        # an empty-everywhere p window would let scaling_check pass unproved
        for e in cf.build_ledger():
            if e.uses_p and e.scalings:
                _, p, rows = lg._lattice(e, 1)
                assert rows and any(map(any, p.num[1:])), e.id

    def test_catalog_is_rational_of_low_degree_and_scalings_cancel(self):
        a, p = sp.symbols("a p")
        for e in cf.build_ledger():
            pv = p if e.uses_p else None
            exprs = [c.value(a, pv) for c in e.checks]
            for sc in e.scalings:
                factors = sc.lhs + sc.rhs
                exprs += [f.index(a, pv) for f in factors]
                exprs += [f.power(a, pv) for f in factors]
                gap = (sum(f.lam_exponent(a, pv) for f in sc.lhs)
                       - sum(f.lam_exponent(a, pv) for f in sc.rhs))
                assert sp.cancel(gap) == 0, e.id
            for expr in exprs:
                for part in sp.fraction(sp.cancel(sp.sympify(expr))):
                    assert sp.Poly(part, a, p).total_degree() <= 4, (e.id, expr)

    def test_pinned_identities_hold_identically(self):
        a, p = sp.symbols("a p")
        for e in cf.build_ledger():
            pv = p if e.uses_p else None
            for c in e.checks:
                if c.lo == c.hi and not (c.lo_strict or c.hi_strict):
                    assert sp.cancel(c.value(a, pv) - c.lo) == 0, (e.id, c.name)

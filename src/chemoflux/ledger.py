"""Exact-rational catalog of the interpolation-exponent bookkeeping.

The a priori estimates behind the solver's monitored functionals chain
Gagliardo-Nirenberg/Sobolev interpolations whose exponents are rational
functions of the diffusion parameter `a` (written alpha elsewhere) and, for
the iterated-norm bounds, of a free integrability index `p`.  Each catalog entry
pins one such step: its validity region, the window/identity checks its
exponents must satisfy there, and (where the entry asserts an inequality
between norms) the dilation-scaling bookkeeping of both sides.

Everything here is exact: a Fraction at a point, a ratio of integer
polynomials in the point index along a lattice line.  Floats are rejected at
the boundary: a single float would silently turn exact window checks into
approximate ones.

Scaling bookkeeping (space dimension 3, mass-normalized densities): under
n -> n(lambda x),

    ||n||_q^e          -> lambda^{-3e/q}
    ||grad n^s||_2^e   -> lambda^{-e/2}   (s chosen so the profile is fixed)
    ||grad c||_q^e     -> lambda^{e(1-3/q)}

`scaling_check` verifies that the lambda-exponents of both sides of an
asserted inequality agree identically as rational functions: it traces
their difference along each line of the scan lattice, and its numerator
must be the zero polynomial.  For an entry without a p window the one line
runs along alpha, so it proves the identity in alpha outright.  Otherwise
the lines run along p on at least 21 rational alpha rows.  Every exponent
in the catalog is a ratio of polynomials of total degree <= 4 in (a, p)
(tests/test_ledger.py checks this on sympy symbols), so the difference has
numerator degree far below 21 in a; vanishing identically on 21 rows
therefore proves the identity exactly, it does not sample it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Callable

DIM = 3  # space dimension of the scaling bookkeeping
SCAN_P_SPAN = Fraction(5)  # lattice span of an unbounded p window
# Structural thresholds on alpha: case (i) needs alpha > 1/6, and cases
# (ii)/(iii) reach the bounded regime for alpha > 1/8.  The classifier in
# `model` reads them; catalog regions below start or end at them.
ALPHA_CASE_I = Fraction(1, 6)
ALPHA_CASES_II_III = Fraction(1, 8)

Expr = Callable[[Fraction, Fraction | None], Fraction]


class CatalogError(RuntimeError):
    """An expression is undefined inside its declared region: catalog bug."""


def _rational(value, name: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be an int or Fraction, got float {value!r}; "
            "exact window checks do not admit floating point")
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or Fraction, got {type(value).__name__}")
    return Fraction(value)


@dataclass(frozen=True)
class Check:
    """value(a, p) constrained to [lo, hi] (strict flags per side).

    lo == hi with both sides non-strict pins an exact identity.  A None bound
    leaves that side unconstrained.
    """

    name: str
    value: Expr
    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_strict: bool = True
    hi_strict: bool = True

    def holds(self, v: Fraction) -> bool:
        return self.holds_ratio(*v.as_integer_ratio())

    def holds_ratio(self, n: int, d: int) -> bool:
        """holds(n/d) for integers n and d > 0, by integer sign tests: an
        integer gap is > 0 iff it is >= 1, so `>= strict` decides both kinds."""
        lo, hi = self.lo, self.hi
        above = lo is None or n * lo.denominator - lo.numerator * d >= self.lo_strict
        below = hi is None or hi.numerator * d - n * hi.denominator >= self.hi_strict
        return above and below


@dataclass(frozen=True)
class ScaleFactor:
    """One norm factor: kind in {"lp", "grad_pow", "grad_c"}; `index` is the
    integrability (or power) index, `power` the exponent it carries."""

    kind: str
    index: Expr
    power: Expr

    def lam_exponent(self, a: Fraction, p: Fraction | None) -> Fraction:
        e = self.power(a, p)
        q = self.index(a, p)
        if self.kind == "lp":
            return Fraction(-DIM) * e / q
        if self.kind == "grad_pow":
            return -e / 2
        if self.kind == "grad_c":
            return e * (1 - Fraction(DIM) / q)
        raise ValueError(f"unknown scale factor kind {self.kind!r}")


@dataclass(frozen=True)
class Scaling:
    lhs: tuple[ScaleFactor, ...]
    rhs: tuple[ScaleFactor, ...]


@dataclass(frozen=True)
class LedgerEntry:
    id: str
    title: str
    alpha_lo: Fraction
    alpha_hi: Fraction | None            # None: unbounded above
    alpha_lo_strict: bool = True
    alpha_hi_strict: bool = True
    p_lo: Expr | None = None             # p window (open), as functions of a
    p_hi: Expr | None = None             # None with p_lo set: unbounded above
    checks: tuple[Check, ...] = ()
    scalings: tuple[Scaling, ...] = ()
    scan_alpha_hi: Fraction | None = None  # lattice cap for unbounded regions

    @property
    def uses_p(self) -> bool:
        return self.p_lo is not None

    def contains(self, a: Fraction, p: Fraction | None) -> bool:
        if a < self.alpha_lo or (self.alpha_lo_strict and a == self.alpha_lo):
            return False
        if self.alpha_hi is not None:
            if a > self.alpha_hi or (self.alpha_hi_strict and a == self.alpha_hi):
                return False
        if self.uses_p:
            if p is None:
                raise ValueError(f"entry {self.id!r} requires a p value")
            if p <= self.p_lo(a, None) or (self.p_hi is not None
                                           and p >= self.p_hi(a, None)):
                return False
        return True


@dataclass
class CheckOutcome:
    name: str
    value: Fraction | None
    ok: bool | None
    note: str = ""


@dataclass
class CheckResult:
    entry_id: str
    alpha: Fraction
    p: Fraction | None
    status: str                      # "pass" | "fail" | "inapplicable"
    outcomes: list[CheckOutcome] = field(default_factory=list)


def check_entry(entry: LedgerEntry, alpha, p=None) -> CheckResult:
    """Evaluate every check of one entry at an exact rational point.

    Inside the region all expressions must evaluate (a vanishing denominator
    there raises CatalogError) and all bounds must hold.  Outside, the result
    is "inapplicable" and the checks are evaluated defensively as diagnostics.
    """
    a = _rational(alpha, "alpha")
    pv = None if p is None else _rational(p, "p")
    if entry.uses_p and pv is None:
        raise ValueError(f"entry {entry.id!r} requires a p value")
    inside = entry.contains(a, pv)
    outcomes = []
    ok_all = True
    for chk in entry.checks:
        try:
            v = chk.value(a, pv)
        except ZeroDivisionError:
            if inside:
                raise CatalogError(
                    f"entry {entry.id!r} check {chk.name!r}: denominator vanishes "
                    f"at interior point alpha={a}, p={pv}") from None
            outcomes.append(CheckOutcome(chk.name, None, None,
                                         "undefined (denominator vanishes)"))
            continue
        good = chk.holds(v)
        ok_all = ok_all and good
        outcomes.append(CheckOutcome(chk.name, v, good))
    if not inside:
        return CheckResult(entry.id, a, pv, "inapplicable", outcomes)
    return CheckResult(entry.id, a, pv, "pass" if ok_all else "fail", outcomes)


def _padd(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c + e for c, e in zip_longest(x, y, fillvalue=0))


def _pmul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        for k, e in enumerate(y):
            out[i + k] += c * e
    return tuple(out)


def _at(coeffs: tuple[int, ...], j: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * j + c
    return v


class _RowValue:
    """An expression traced along a lattice line: N(j)/D(j) in the line's
    point index j, as integer coefficient tuples (constant term first).
    Division keeps the divisor's denominator in D, so D is a product of
    nonzero constants and of every divisor's numerator and denominator: where
    D(j) is 0 the expression's Fraction evaluation at point j divides by zero,
    and elsewhere it equals N(j)/D(j).  Dividing by the zero polynomial
    raises."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...]):
        self.num, self.den = num, den

    def __neg__(self) -> _RowValue:
        return _RowValue(tuple(-c for c in self.num), self.den)

    def __add__(self, other) -> _RowValue:
        o = _lift(other)
        return _RowValue(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                         _pmul(self.den, o.den))

    def __sub__(self, other) -> _RowValue:
        return self + -other

    def __rsub__(self, other) -> _RowValue:
        return -self + other

    def __mul__(self, other) -> _RowValue:
        o = _lift(other)
        return _RowValue(_pmul(self.num, o.num), _pmul(self.den, o.den))

    def __truediv__(self, other) -> _RowValue:
        o = _lift(other)
        if not any(o.num):
            raise ZeroDivisionError("divisor vanishes along the whole line")
        return _RowValue(_pmul(self.num, _pmul(o.den, o.den)),
                         _pmul(self.den, _pmul(o.num, o.den)))

    def __rtruediv__(self, other) -> _RowValue:
        return _lift(other) / self

    __radd__, __rmul__ = __add__, __mul__


def _lift(x) -> _RowValue:
    if type(x) is _RowValue:
        return x
    if isinstance(x, (int, Fraction)):
        return _RowValue((x.numerator,), (x.denominator,))
    raise TypeError(f"row values take int or Fraction operands, not {type(x).__name__}")


_J = _RowValue((0, 1), (1,))  # the point index j of a line


def _on(x, j: int):
    """x at point j of a lattice line: x itself unless it is traced in j."""
    return Fraction(_at(x.num, j), _at(x.den, j)) if type(x) is _RowValue else x


def _lattice(entry: LedgerEntry, m: int) -> list[tuple]:
    """The density-m scan lattice as lines (a, p, inner): one of a, p is
    traced in the point index j, and `inner` holds the j of the line's
    points, every one of them inside the region.

    Alpha rows sit at a = alpha_lo + step*j, step = (cap - alpha_lo)/(m+1),
    for j = 1..m plus 0 and m+1 where those are closed ends of the region.
    An entry without a p window is one line along alpha.  Else each row with
    a nonempty p window is a line p = lo + (hi - lo)/(m+1)*j, j = 1..m."""
    cap = entry.alpha_hi if entry.alpha_hi is not None else entry.scan_alpha_hi
    cap = entry.alpha_lo + 1 if cap is None else cap
    if cap <= entry.alpha_lo:
        raise CatalogError(f"entry {entry.id!r}: empty alpha scan range "
                           f"({entry.alpha_lo}, {cap})")
    a_line = entry.alpha_lo + (cap - entry.alpha_lo) / (m + 1) * _J
    rows = list(range(entry.alpha_lo_strict, m + 1))  # j = 0 iff a closed end
    if entry.alpha_hi is not None and not entry.alpha_hi_strict:
        rows.append(m + 1)
    if not entry.uses_p:
        return [(a_line, None, rows)]
    lines = []
    for j in rows:
        a = _on(a_line, j)
        lo = entry.p_lo(a, None)
        hi = lo + SCAN_P_SPAN if entry.p_hi is None else entry.p_hi(a, None)
        if lo < hi:
            lines.append((a, lo + (hi - lo) / (m + 1) * _J, range(1, m + 1)))
    return lines


def scaling_check(entry: LedgerEntry) -> bool:
    """True iff every asserted inequality of the entry is dilation-consistent
    (identical lambda-exponents on both sides); vacuously true without one."""
    if not entry.scalings:
        return True
    for a, p, _ in _lattice(entry, 21):
        for sc in entry.scalings:
            lhs = sum((f.lam_exponent(a, p) for f in sc.lhs), Fraction(0))
            rhs = sum((f.lam_exponent(a, p) for f in sc.rhs), Fraction(0))
            if any(_lift(lhs - rhs).num):  # not identically zero on the line
                return False
    return True


@dataclass
class ScanReport:
    entry_id: str
    interior_points: int
    interior_failures: list[tuple[Fraction, Fraction | None, str]]
    value_ranges: dict[str, tuple[Fraction, Fraction]]
    scaling_ok: bool

    @property
    def passed(self) -> bool:
        return not self.interior_failures and self.scaling_ok


def _widen(ranges: dict, name: str, lo: Fraction, hi: Fraction) -> None:
    cur = ranges.get(name)
    ranges[name] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))


def _ratio(v: _RowValue, j: int) -> tuple[int, int]:
    """v at point j as n/d with d >= 0; d is 0 where v is undefined."""
    n, d = _at(v.num, j), _at(v.den, j)
    return (-n, -d) if d < 0 else (n, d)


def scan_region(entry: LedgerEntry, density: int = 100) -> ScanReport:
    """Lattice-verify an entry: every lattice point (interior points plus
    closed endpoints) must pass every check.  Value ranges are tracked per
    check, exactly.  Each check is traced once per lattice line, then
    decided at every point of the line by integer polynomial evaluations
    and sign tests.  No point outside the region is scanned; `check_entry`
    decides any single point, inside or out.
    """
    if density < 1:
        raise ValueError(f"scan density must be an integer >= 1, got {density!r}")
    points = 0
    failures, ranges = [], {}
    for a, p, inner in _lattice(entry, density):
        poles, failed = [], []
        for k, chk in enumerate(entry.checks):
            try:
                v = _lift(chk.value(a, p))
            except ZeroDivisionError:  # a divisor vanishes on the whole line
                poles.extend(inner[:1])
                continue
            lo_v = hi_v = None
            for j in inner:
                n, d = _ratio(v, j)
                if d == 0:
                    poles.append(j)
                    break
                if not chk.holds_ratio(n, d):
                    failed.append((j, k))
                if lo_v is None or n * lo_v[1] < lo_v[0] * d:
                    lo_v = n, d
                if hi_v is None or n * hi_v[1] > hi_v[0] * d:
                    hi_v = n, d
            if lo_v is not None:
                _widen(ranges, chk.name, Fraction(*lo_v), Fraction(*hi_v))
        if poles:  # raises the CatalogError a point-by-point scan meets first
            check_entry(entry, _on(a, min(poles)), _on(p, min(poles)))
        failures += [(_on(a, j), _on(p, j), entry.checks[k].name)
                     for j, k in sorted(failed)]
        points += len(inner)
    return ScanReport(
        entry_id=entry.id,
        interior_points=points,
        interior_failures=failures,
        value_ranges=ranges,
        scaling_ok=scaling_check(entry),
    )


# ---------------------------------------------------------------------------
# the catalog

def _f(num, den=1) -> Fraction:
    return Fraction(num, den)


def _const(v: Fraction) -> Expr:
    return lambda a, p: v


def _lp(index: Expr, power: Expr) -> ScaleFactor:
    return ScaleFactor("lp", index, power)


def _grad_pow(power: Expr) -> ScaleFactor:
    # the s in ||grad n^s||_2 never enters the lambda bookkeeping
    return ScaleFactor("grad_pow", _const(Fraction(1)), power)


def _gn(q: Expr, e: Expr, mass_index: Expr, mass: Expr, grad: Expr) -> Scaling:
    """||n||_q^e <= ||n||_{mass_index}^mass ||grad n^s||_2^grad."""
    return Scaling(lhs=(_lp(q, e),), rhs=(_lp(mass_index, mass), _grad_pow(grad)))


def _interpolation(id: str, title: str, kind: str, q: Expr, q0: Expr, q1: Expr,
                   theta: Expr, e: Expr, pre: tuple[Check, ...] = (),
                   **region) -> LedgerEntry:
    """||f||_q^e <= ||f||_{q0}^{e(1-theta)} ||f||_{q1}^{e theta}, all three
    norms of ScaleFactor `kind`: the `pre` checks, then the index identity
    1/q = (1-theta)/q0 + theta/q1, and the dilation scaling of both sides."""
    def index(a, p):
        t = theta(a, p)
        return 1 / q(a, p) - (1 - t) / q0(a, p) - t / q1(a, p)

    return LedgerEntry(
        id=id, title=title, **region,
        checks=pre + (Check("interp-index", index, lo=Fraction(0), hi=Fraction(0),
                            lo_strict=False, hi_strict=False),),
        scalings=(Scaling(
            lhs=(ScaleFactor(kind, q, e),),
            rhs=(ScaleFactor(kind, q0, lambda a, p: e(a, p) * (1 - theta(a, p))),
                 ScaleFactor(kind, q1, lambda a, p: e(a, p) * theta(a, p)))),),
    )


def _r2(a: Fraction, p: Fraction) -> Fraction:
    return p - a + 1


def _theta1(a, p):
    return (p + a) * (3 * p - 14 * a + 1) / (2 * (3 * p + 2 * a - 1))


def _theta2(a, p):
    return 3 * (p + a) * (p - 3 * a) / (2 * (1 + a) * (3 * p + 3 * a - 1))


def _theta3(a, p):
    r2 = _r2(a, p)
    return 3 * (p + a) * (p - 2 * a) / (r2 * (3 * p + 2 * a - 1))


def _theta4(a, p):
    r2 = _r2(a, p)
    return (p + a) * (5 * r2 - 6) / (r2 * (6 * p + 6 * a - 2))


def _theta5(a, p):
    r2 = _r2(a, p)
    return 3 * (r2 - 2) / (2 * r2)


def _r1_denominator(a, p):
    return 5 + 14 * a - 3 * p


def _r1(a, p):
    return (6 + 6 * a) / _r1_denominator(a, p)


def build_ledger() -> tuple[LedgerEntry, ...]:
    """The full catalog.  Ids are stable; tests and the CLI key on them."""
    zero, one, two = _f(0), _f(1), _f(2)
    c1, c2 = _const(one), _const(two)
    # indices and exponents shared by several entries (or by a check and a
    # scaling power of one entry), each written once
    one_a: Expr = lambda a, p: 1 + a         # L^{1+a}; lower end of the p windows
    one_4a: Expr = lambda a, p: 1 + 4 * a    # upper end of the low band's p window
    one_minus_a: Expr = lambda a, p: 1 - a
    sobolev: Expr = lambda a, p: 3 + 6 * a   # endpoint Sobolev index
    q_iter: Expr = lambda a, p: 6 * p / (2 * p + 3 * a)  # iteration's interpolated index
    q_top: Expr = lambda a, p: 3 * p + 3 * a  # upper interpolation index
    p0: Expr = lambda a, p: _f(3, 2) - 3 * a / 4  # second-stage start index
    # the index 6r/(6+r) lowered from r against L^1
    lowered = lambda r: lambda a, p: 6 * r(a, p) / (6 + r(a, p))
    gn_l2: Expr = lambda a, p: 6 / (2 + 6 * a)
    l2_scaling = _gn(c2, c2, c1, lambda a, p: (1 + 6 * a) / (2 + 6 * a), gn_l2)
    entries = []

    # ---- degenerate-diffusion branch, low exponent window
    case_low = dict(alpha_lo=ALPHA_CASE_I, alpha_hi=_f(1, 3), alpha_hi_strict=False)
    entries.append(LedgerEntry(
        id="case-i-low",
        title="entropy-route exponent windows on the low-diffusion branch",
        **case_low,
        checks=(
            Check("one-minus-3a", lambda a, p: 1 - 3 * a,
                  lo=zero, lo_strict=False, hi=_f(2, 3)),
            Check("one-minus-2a", lambda a, p: 1 - 2 * a, lo=zero, hi=_f(2, 3)),
        ),
    ))
    gn_2ma: Expr = lambda a, p: (6 - 6 * a) / (2 + 3 * a)
    mass_2ma: Expr = lambda a, p: (1 + 4 * a) / (2 + 3 * a)
    two_ma: Expr = lambda a, p: 2 - a
    entries.append(LedgerEntry(
        id="case-i-low-gn-2minus-alpha",
        title="interpolation of ||n||_{2-a}^{2-a} against the (1+a)/2 gradient power",
        **case_low,
        checks=(
            Check("gn-exponent", gn_2ma, lo=_f(4, 3), lo_strict=False, hi=two),
            Check("mass-exponent", mass_2ma, lo=zero, hi=one),
        ),
        scalings=(_gn(two_ma, two_ma, c1, mass_2ma, gn_2ma),),
    ))
    entries.append(LedgerEntry(
        id="case-i-low-gn-l2",
        title="interpolation of ||n||_2^2 against the (1+2a)/2 gradient power",
        **case_low,
        checks=(
            Check("gn-exponent", gn_l2, lo=_f(3, 2), lo_strict=False, hi=two),
        ),
        scalings=(l2_scaling,),
    ))
    gn_65: Expr = lambda a, p: 2 / (2 + 6 * a)
    entries.append(LedgerEntry(
        id="case-i-low-gn-6-5",
        title="interpolation of ||n||_{6/5}^2 for the fluid forcing pairing",
        **case_low,
        checks=(
            Check("gn-exponent", gn_65, lo=zero, hi=two),
            Check("q-upper-gap", lambda a, p: sobolev(a, p) - _f(6, 5), lo=zero),
        ),
        scalings=(_gn(_const(_f(6, 5)), c2, c1,
                      lambda a, p: (3 + 10 * a) / (2 + 6 * a), gn_65),),
    ))

    # ---- middle and high diffusion branches
    entries.append(LedgerEntry(
        id="case-i-mid",
        title="exponent windows on the middle branch",
        alpha_lo=_f(1, 3), alpha_hi=one, alpha_hi_strict=False,
        checks=(
            Check("one-minus-a", one_minus_a,
                  lo=zero, lo_strict=False, hi=_f(2, 3)),
            Check("gn-exponent", gn_l2, lo=zero, hi=two),
        ),
        scalings=(l2_scaling,),
    ))
    # the companion L2 interpolation lacks a dilation-homogeneous exponent
    # pair; only the exponent window is asserted here
    entries.append(LedgerEntry(
        id="case-i-high",
        title="vorticity-route window on the high branch",
        alpha_lo=one, alpha_hi=None, scan_alpha_hi=_f(4),
        checks=(
            Check("vorticity-exponent", lambda a, p: 6 / (2 + 3 * a),
                  lo=zero, hi=two),
        ),
    ))
    # region capped at 2 above by catalog policy; the window check itself
    # holds for every positive a (6a < 4+6a), so the cap is conservative,
    # not forced by the arithmetic
    gn_high: Expr = lambda a, p: 6 * a / (2 + 3 * a)
    entries.append(LedgerEntry(
        id="case-i-high-gn",
        title="interpolation of ||n||_{1+a}^{1+a} on the high branch",
        alpha_lo=one, alpha_hi=two,
        checks=(
            Check("gn-exponent", gn_high, lo=zero, hi=two),
        ),
        scalings=(_gn(one_a, one_a, c1,
                      lambda a, p: (2 + 2 * a) / (2 + 3 * a), gn_high),),
    ))
    entries.append(LedgerEntry(
        id="case-ii-iii-small-alpha",
        title="monotone-sensitivity branches: windows for arbitrarily small a",
        alpha_lo=zero, alpha_hi=ALPHA_CASE_I, alpha_hi_strict=False,
        checks=(
            Check("one-minus-a", one_minus_a, lo=zero, hi=one),
            Check("half-one-minus-a", lambda a, p: one_minus_a(a, p) / 2,
                  lo=zero, hi=_f(1, 2)),
        ),
    ))

    # ---- L^p iteration, high-diffusion branch (a > 1/3)
    high = dict(alpha_lo=_f(1, 3), alpha_hi=None, scan_alpha_hi=_f(3), p_lo=one_a)
    entries.append(LedgerEntry(
        id="moser-high-windows",
        title="iteration absorption windows, high branch",
        **high,
        checks=(
            Check("delta-p",
                  lambda a, p: (2 * p * (3 * a - 1) + 3 * a) / (p * (1 + 3 * a)),
                  lo=zero, hi=two),
            Check("delta-p-prime",
                  lambda a, p: (6 * a - 1) / (1 + 3 * a) + 3 * a / (p * (1 + 3 * a)),
                  lo=zero, hi=two),
        ),
    ))
    kappa: Expr = lambda a, p: (1 + 2 * a) * (4 * p - 3 * a) / (2 * p * (1 + 3 * a))
    entries.append(LedgerEntry(
        id="moser-high-gn-interp",
        title="two-endpoint interpolation feeding the high-branch iteration",
        **high,
        checks=(
            Check("kappa-interp", kappa, lo=zero, hi=two),
        ),
        scalings=(Scaling(
            lhs=(_lp(q_iter, c2),),
            rhs=(_lp(c1, lambda a, p: 2 - kappa(a, p)), _lp(sobolev, kappa)),
        ),),
    ))
    entries.append(LedgerEntry(
        id="moser-high-interp-window",
        title="validity window of the interpolation index, high branch",
        **high,
        checks=(
            Check("q-above-one", lambda a, p: q_iter(a, p) - 1, lo=zero),
            Check("q-below-sobolev",
                  lambda a, p: sobolev(a, p) - q_iter(a, p), lo=zero),
        ),
    ))
    embedding: Expr = lambda a, p: 2 / (1 + 2 * a)
    entries.append(LedgerEntry(
        id="sobolev-grad-power",
        title="endpoint Sobolev control of ||n||_{3+6a} by the gradient power",
        alpha_lo=zero, alpha_hi=None, scan_alpha_hi=two,
        checks=(
            Check("embedding-exponent", embedding, lo=zero, hi=two),
        ),
        scalings=(Scaling(
            lhs=(_lp(sobolev, c1),),
            rhs=(_grad_pow(embedding),),
        ),),
    ))

    # ---- L^p iteration, low-diffusion window (1/8 < a <= 1/3)
    low = dict(alpha_lo=ALPHA_CASES_II_III, alpha_hi=_f(1, 3), alpha_hi_strict=False)
    p_win = dict(p_lo=one_a, p_hi=one_4a)
    p_minus_3a: Expr = lambda a, p: p - 3 * a
    # the Hoelder exponent conjugate to (p-3a)/(1+a)
    holder: Expr = lambda a, p: (one_4a(a, p) - p) / one_a(a, p)
    entries.append(LedgerEntry(
        id="moser-window",
        title="iteration window bookkeeping on the low band: indices, "
              "conjugacy, and the five interpolation fractions",
        **low, **p_win,
        checks=(
            Check("r1-denominator", _r1_denominator, lo=zero),
            Check("r1-window", _r1, lo=one, lo_strict=False, hi=_f(3)),
            Check("p-minus-3a", p_minus_3a, lo=zero),
            Check("holder-conjugacy",
                  lambda a, p: p_minus_3a(a, p) / one_a(a, p) + holder(a, p),
                  lo=one, hi=one, lo_strict=False, hi_strict=False),
            Check("r1-sobolev-index",
                  lambda a, p: 1 / _r1(a, p) - holder(a, p) / 2 - _f(1, 3),
                  lo=zero, hi=zero, lo_strict=False, hi_strict=False),
            Check("r2-window", _r2, lo=two, hi=_f(3)),
            Check("theta1", _theta1, lo=zero, hi=one),
            Check("theta2", _theta2, lo=zero, hi=one),
            Check("theta3", _theta3, lo=zero, hi=one),
            Check("theta4", _theta4, lo=zero, hi=one),
            Check("theta5", _theta5, lo=zero, hi=one),
            Check("delta1", lambda a, p: 4 * _theta1(a, p) / (p + a),
                  lo=zero, hi=two),
            Check("delta2", lambda a, p: 4 * _theta2(a, p) / (p + a),
                  lo=zero, hi=two),
            Check("delta3", lambda a, p: 2 * _r2(a, p) * _theta3(a, p) / (p + a),
                  lo=zero, hi=two),
            Check("delta4", lambda a, p: 2 * _r2(a, p) * _theta4(a, p) / (p + a),
                  lo=zero, hi=two),
            Check("delta5", lambda a, p: _r2(a, p) * _theta5(a, p),
                  lo=zero, hi=two),
        ),
    ))
    entries.append(_interpolation(
        "moser-window-gn-theta1",
        "interpolation ||n||_{r1}^2 between L^{1+a} and L^{3p+3a}",
        "lp", _r1, one_a, q_top, _theta1, c2, **low, **p_win))
    entries.append(_interpolation(
        "moser-window-gn-theta2",
        "interpolation at the lowered index 6 r1/(6+r1) against L^1",
        "lp", lowered(_r1), c1, q_top, _theta2, c2,
        pre=(Check("q-above-one", lambda a, p: _r1(a, p) - _f(6, 5), lo=zero),),
        **low, **p_win))
    entries.append(_interpolation(
        "moser-window-gn-theta3",
        "interpolation ||n||_{r2}^{r2} between L^{1+a} and L^{3p+3a}",
        "lp", _r2, one_a, q_top, _theta3, _r2, **low, **p_win))
    entries.append(_interpolation(
        "moser-window-gn-theta4",
        "interpolation at the lowered index 6 r2/(6+r2) against L^1",
        "lp", lowered(_r2), c1, q_top, _theta4, _r2, **low, **p_win))
    entries.append(_interpolation(
        "moser-window-gn-theta5",
        "gradient-of-c interpolation ||grad c||_{r2}^{r2} between L^2 and L^6",
        "grad_c", _r2, c2, _const(_f(6)), _theta5, _r2, **low, **p_win))
    gn_vort: Expr = lambda a, p: (6 - 6 * a) / (2 + 5 * a)
    mass_vort: Expr = lambda a, p: (1 + a) * (1 + 6 * a) / (2 + 5 * a)
    entries.append(LedgerEntry(
        id="moser-low-vorticity",
        title="vorticity-route interpolation of ||n||_2^2 on the low band",
        **low,
        checks=(
            Check("gn-exponent", gn_vort, lo=zero, hi=two),
            Check("mass-exponent", mass_vort, lo=zero, hi=two),
        ),
        scalings=(_gn(c2, c2, one_a, mass_vort, gn_vort),),
    ))
    entries.append(LedgerEntry(
        id="moser-low-r1-range",
        title="sub-window of the low band where r1 stays in [2, 6]",
        **low,
        p_lo=lambda a, p: (2 + 11 * a) / 3, p_hi=one_4a,
        checks=(
            Check("r1-sub-range", _r1,
                  lo=two, lo_strict=False, hi=_f(6), hi_strict=False),
        ),
    ))
    entries.append(LedgerEntry(
        id="moser-low-p0",
        title="the collapsing start index p0 = 3/2 - 3a/4 of the second stage",
        **low,
        checks=(
            Check("p0-above-one", lambda a, p: p0(a, p) - 1, lo=zero, hi=_f(1, 2)),
            Check("p0-inside-window", lambda a, p: one_4a(a, p) - p0(a, p),
                  lo=zero),
            Check("collapse-identity",
                  lambda a, p: (12 - 4 * p0(a, p)) / (2 * p0(a, p) + 3 * a),
                  lo=two, hi=two, lo_strict=False, hi_strict=False),
        ),
    ))
    entries.append(LedgerEntry(
        id="moser-low-p0-tail",
        title="second-stage absorption windows seeded at p0, low band",
        **low,
        p_lo=one_a,
        checks=(
            Check("second-delta-p",
                  lambda a, p: 3 * a * (2 - a) / (p * (2 + a)), lo=zero, hi=two),
            Check("second-delta-p-prime",
                  lambda a, p: (16 * a - 2) / (2 + 5 * a)
                  + (6 * a + 6 * a * a) / (p * (2 + 5 * a)),
                  lo=zero, hi=two),
            Check("interp-above-p0", lambda a, p: q_iter(a, p) - p0(a, p),
                  lo=zero),
            Check("interp-below-sobolev",
                  lambda a, p: q_top(a, p0(a, p)) - q_iter(a, p), lo=zero),
        ),
    ))
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)), "duplicate catalog ids"
    return tuple(entries)


def get_entry(entry_id: str, catalog=None) -> LedgerEntry:
    catalog = build_ledger() if catalog is None else catalog
    for e in catalog:
        if e.id == entry_id:
            return e
    raise KeyError(f"no catalog entry {entry_id!r}")

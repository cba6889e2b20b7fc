"""Bell-test analysis: visibility, feasibility, CHSH value and optimization.

A correlator is a callable (InterferometerSetting, InterferometerSetting)
-> CorrelationResult, so the same CHSH machinery runs on the Gaussian
closed form or on full quadrature; a CHSH setting is one interferometer,
chosen by its arm length ell.  The closed-form helpers here, like the
closed form itself, read the dispersion scales (TimescaleSummary) and
the pulse phase, never a source distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .correlation import (
    CorrelationResult,
    InterferometerSetting,
    correlate_closed_form,
    fringe_phase,
)
from .scenario import TimescaleSummary, ValidationError, _dispersion_product

__all__ = [
    "TSIRELSON_BOUND",
    "ChshSettings",
    "BellOutcome",
    "FeasibilityReport",
    "OptimizationResult",
    "visibility",
    "crossing_tau",
    "feasible",
    "chsh_value",
    "optimize_settings",
    "seed_settings",
    "closed_form_correlator",
    "periods_above_threshold",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
_TSIRELSON_TOL = 1e-9

# feasible(): the reduced fringe wavelength must stay below this fraction
# of the packet separation
_LAMBDA_RATIO_GUARD = 0.01
# seed_settings(): phase-gauge samples over one period
_GAUGE_SAMPLES = 64
# optimize_settings(): sweep limit, and the gain in |S| below which a
# sweep counts as converged
_MAX_SWEEPS = 40
_SWEEP_TOL = 1e-12
# optimize_settings(): line-search directions in (a, a', b, b'), each
# arm length alone and then the common mode
_DIRECTIONS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
               (0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0))


@dataclass(frozen=True)
class ChshSettings:
    """The four interferometer settings of a CHSH run: a and a' on side 1,
    b and b' on side 2."""

    a: InterferometerSetting
    a_prime: InterferometerSetting
    b: InterferometerSetting
    b_prime: InterferometerSetting

    def __post_init__(self) -> None:
        for setting in self.as_tuple():
            if not isinstance(setting, InterferometerSetting):
                raise ValidationError(
                    f"CHSH settings must be InterferometerSetting, got {type(setting).__name__}"
                )

    def as_tuple(self):
        return (self.a, self.a_prime, self.b, self.b_prime)

    def pairs(self):
        """Setting pairs in CHSH order with their combination signs."""
        return (
            (self.a, self.b, 1.0),
            (self.a, self.b_prime, -1.0),
            (self.a_prime, self.b, 1.0),
            (self.a_prime, self.b_prime, 1.0),
        )


@dataclass(frozen=True)
class BellOutcome:
    """CHSH verdict; construction enforces the quantum bound."""

    s_value: float
    visibility: float
    settings: ChshSettings

    def __post_init__(self) -> None:
        if self.s_value < 0.0 or self.s_value > TSIRELSON_BOUND + _TSIRELSON_TOL:
            raise ValidationError(
                f"CHSH value {self.s_value} outside [0, 2*sqrt(2)] - "
                "either the correlator is unphysical or the combination is wrong"
            )
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(f"visibility {self.visibility} outside [0, 1]")

    @property
    def violated(self) -> bool:
        return bool(self.s_value > 2.0)

    @property
    def margin(self) -> float:
        return self.s_value - 2.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Dispersion-product inequality plus the short-wavelength guard.

    product: (1 + tau^2/t_cm^2)(1 + tau^2/t_rel^2); a violation needs it
        below 4 (product_ok), which is the visibility above 1/sqrt(2).
    lambda_ratio: reduced fringe wavelength over the packet separation;
        it must stay below _LAMBDA_RATIO_GUARD (side_condition_ok).
    """

    product: float
    lambda_ratio: float

    @property
    def product_ok(self) -> bool:
        return self.product < 4.0

    @property
    def side_condition_ok(self) -> bool:
        return self.lambda_ratio < _LAMBDA_RATIO_GUARD

    @property
    def feasible(self) -> bool:
        return self.product_ok and self.side_condition_ok

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class OptimizationResult:
    settings: ChshSettings
    s_value: float
    outcome: BellOutcome
    converged: bool
    sweeps: int


def visibility(scales: TimescaleSummary, tau: float) -> float:
    """Fringe-center visibility; envelope factors excluded."""
    return _dispersion_product(scales, tau) ** -0.25


def crossing_tau(scales: TimescaleSummary) -> float:
    """The tau where the dispersion product reaches 4, i.e. where the
    visibility falls to 1/sqrt(2); below it the visibility is higher.

    With a = t_cm^2, b = t_rel^2 and x = tau^2 the product is 4 where
    x^2 + (a + b) x - 3ab = 0; the positive root is written without the
    cancellation of the textbook form, which loses all digits once one
    time is far below the other.  Times whose squares overflow are refused.
    """
    try:
        a, b = scales.t_cm**2, scales.t_rel**2
        return math.sqrt(6.0 * a * b / ((a + b) + math.sqrt((a + b) ** 2 + 12.0 * a * b)))
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(
            f"crossing out of range at t_cm = {scales.t_cm:g} s, t_rel = {scales.t_rel:g} s"
        ) from None


def feasible(scales: TimescaleSummary, tau: float) -> FeasibilityReport:
    """Violation is possible iff the dispersion product stays below 4
    (strict) while the reduced fringe wavelength stays below 1% of the
    packet separation (_LAMBDA_RATIO_GUARD)."""
    product = _dispersion_product(scales, tau)
    separation = tau * scales.v_rel
    ratio = math.inf if separation == 0.0 else scales.lambda_bar_rel / separation
    return FeasibilityReport(product=product, lambda_ratio=ratio)


def _signed_chsh(correlator, settings: ChshSettings, results=None) -> float:
    """Signed CHSH sum; the correlator results are appended to ``results``."""
    total = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
    for x, y, sign in settings.pairs():
        result = correlator(x, y)
        if results is not None:
            results.append(result)
        total += sign * result.e_value
    return total


def chsh_value(
    correlator: Callable[[InterferometerSetting, InterferometerSetting], CorrelationResult],
    settings: ChshSettings,
) -> BellOutcome:
    """CHSH combination S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|.

    The visibility is the fringe amplitude the correlator reports at
    (a, b).
    """
    results = []
    s = abs(_signed_chsh(correlator, settings, results))
    return BellOutcome(s_value=s, visibility=results[0].visibility, settings=settings)


def _wrap_near_zero(angle: float) -> float:
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped < -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def closed_form_correlator(scales: TimescaleSummary, tau: float, phi_tau: float):
    """Adapter: (setting, setting) -> CorrelationResult via the closed form."""

    def correlator(s1: InterferometerSetting, s2: InterferometerSetting) -> CorrelationResult:
        return correlate_closed_form(scales, tau, phi_tau, s1.ell, s2.ell)

    return correlator


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list:
    """``num`` evenly spaced floats, bit for bit as numpy 2's linspace.

    Point i is start + i * step, or start + i / div * delta when step
    underflows to zero; with ``endpoint`` the last point is ``stop``.
    Needs num >= 2 (num >= 1 without ``endpoint``).
    """
    div = num - 1 if endpoint else num
    delta = stop - start
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    if endpoint:
        points[-1] = stop
    return points


def seed_settings(scales: TimescaleSummary, tau: float, phi_tau: float) -> ChshSettings:
    """Initial CHSH length settings from the fringe phase.

    Target effective analyzer angles (0, pi/2) x (pi/4, 3pi/4) are
    converted to arm-length offsets of the reduced fringe wavelength
    around the envelope center, which both read from ``scales``; a
    global phase gauge shared by both sides is scanned at 64 points
    (_GAUGE_SAMPLES) to trade fringe-phase placement against envelope
    suppression, which the plain textbook angles ignore.
    """
    lam = scales.lambda_bar_rel
    center1 = 0.5 * tau * scales.v_rel
    center2 = -0.5 * tau * scales.v_rel
    phi_center = fringe_phase(scales, tau, phi_tau, center1, center2)
    correlator = closed_form_correlator(scales, tau, phi_tau)

    def build(chi: float) -> ChshSettings:
        def setting1(alpha: float) -> InterferometerSetting:
            delta = _wrap_near_zero(alpha + chi - phi_center) * lam
            return InterferometerSetting(ell=center1 + delta)

        def setting2(beta: float) -> InterferometerSetting:
            delta = _wrap_near_zero(beta + chi) * lam
            return InterferometerSetting(ell=center2 + delta)

        return ChshSettings(
            a=setting1(0.0),
            a_prime=setting1(0.5 * math.pi),
            b=setting2(0.25 * math.pi),
            b_prime=setting2(0.75 * math.pi),
        )

    best = None
    best_s = -math.inf
    for chi in _linspace(0.0, 2.0 * math.pi, _GAUGE_SAMPLES, endpoint=False):
        candidate = build(chi)
        s = abs(_signed_chsh(correlator, candidate))
        if s > best_s:
            best_s = s
            best = candidate
    return best


def _bounded_minimize(func, x1: float, x2: float, xatol: float):
    """Brent's bounded minimiser (Brent 1973, ch. 5): golden-section steps
    plus parabolic steps on [x1, x2], stopping once both bracket ends lie
    within 2 (xatol/3 + sqrt(eps)|x|) of the best point x, or after 500
    calls.

    A transcription of scipy's ``_minimize_scalar_bounded`` (scipy 1.17,
    ``minimize_scalar(method="bounded")``): the same steps and bracket
    updates, so on finite doubles it visits the same abscissae and
    returns the same bits.  Returns (x, f(x)) of the best point, as
    Python floats.
    """
    a, b, xatol = float(x1), float(x2), float(xatol)
    maxfun = 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = float(func(x))
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    d = xm - xf
                    rat = tol1 * ((d > 0) - (d < 0) + (d == 0))
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + ((rat > 0) - (rat < 0) + (rat == 0)) * max(abs(rat), tol1)
        fu = float(func(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf, fx


def optimize_settings(
    correlator: Callable[[InterferometerSetting, InterferometerSetting], CorrelationResult],
    initial: ChshSettings,
) -> OptimizationResult:
    """Bounded line searches over the four arm lengths maximizing |S|.

    Each sweep runs one bounded Brent search (``_bounded_minimize``) of
    -|S| along each of the five _DIRECTIONS: every arm length alone, then
    all four together.  Moving all four together leaves every ell1 - ell2
    unchanged, so |S| is nearly flat along that common mode and
    single-length steps only creep along it; it is searched on its own.
    Each search spans the local scale to either side of the current point
    and moves it only when |S| rises.  The local scale is the larger
    same-side spacing |a - a_prime|, |b - b_prime|: a quarter fringe
    period for phase-derived seeds, so the bracket spans half a period
    and holds one maximum.  The search stops after a sweep that gains
    less than 1e-12 in |S| (converged) or after 40 sweeps (_SWEEP_TOL,
    _MAX_SWEEPS).  Only the arm lengths ell move; each setting keeps its
    angle theta.  Local search only: the result is the nearest optimum,
    deterministic given the initial settings.
    """
    values = [s.ell for s in initial.as_tuple()]
    templates = initial.as_tuple()

    local_scale = max(abs(values[0] - values[1]), abs(values[2] - values[3]))
    if local_scale <= 0.0:
        local_scale = max(abs(v) for v in values) * 1e-6
    if local_scale <= 0.0:
        local_scale = 1e-6

    def rebuild(vals) -> ChshSettings:
        return ChshSettings(*(
            InterferometerSetting(ell=v, theta=template.theta)
            for template, v in zip(templates, vals)
        ))

    def objective_at(vals) -> float:
        return abs(_signed_chsh(correlator, rebuild(vals)))

    best = objective_at(values)
    converged = False
    for sweeps in range(1, _MAX_SWEEPS + 1):
        previous = best
        for direction in _DIRECTIONS:
            def moved(t, direction=direction):
                return [v + t * d for v, d in zip(values, direction)]

            xatol = max(max(abs(v) for v in values) * 1e-12, local_scale * 2e-9)
            t, f = _bounded_minimize(
                lambda t: -objective_at(moved(t)), -local_scale, local_scale, xatol
            )
            if -f > best:
                best = -f
                values = moved(t)
        if best - previous < _SWEEP_TOL:
            converged = True
            break

    settings = rebuild(values)
    outcome = chsh_value(correlator, settings)
    return OptimizationResult(
        settings=settings,
        s_value=outcome.s_value,
        outcome=outcome,
        converged=converged,
        sweeps=sweeps,
    )


def periods_above_threshold(scales: TimescaleSummary, tau: float) -> float:
    """Number of fringe periods around the envelope center where the
    envelope-adjusted visibility still exceeds 1/sqrt(2).

    Counted along the length-difference axis at zero length sum.  Zero
    when even the center visibility is below threshold.  A t_rel whose
    square overflows is refused.
    """
    v_center = visibility(scales, tau)
    threshold = 1.0 / math.sqrt(2.0)
    if v_center <= threshold:
        return 0.0
    t_rel = scales.t_rel
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    try:
        k_rel = (t_rel / (t_rel**2 + tau**2)) / (2.0 * v * lam)
        delta_max = math.sqrt(math.log(v_center * math.sqrt(2.0)) / k_rel)
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"the fringe count is out of range at t_rel = {t_rel:g} s") from None
    period = 2.0 * math.pi * lam
    return 2.0 * delta_max / period

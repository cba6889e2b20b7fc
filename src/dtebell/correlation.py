"""Joint detection probabilities behind two single-atom interferometers.

Each atom passes an unbalanced guided-path interferometer whose long arm
is switched in for the early dissociation branch and out for the late
one; the four coincidence probabilities P(s1, s2) then interfere the two
dissociation times.  Two evaluation routes are provided: direct 2D
quadrature of the momentum integral (the Gaussian pair or the
squared-sinc source; the engine is _quadrature), and the Gaussian closed
form, which refuses the squared-sinc source.  Both take (pair, s1, s2)
with one DtePair and so run its separation check.  Keeping the two
routes genuinely independent is the point: each is the other's oracle.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping

from ._quadrature import QuadratureError, _converge, _interference
from .dissociation import FeshbachDistribution, gaussian_approximation
from .scenario import (
    CONSTANTS,
    Species,
    TimescaleSummary,
    ValidationError,
    _dispersion_factors,
    _dispersion_product,
    _record,
    _require_positive,
    _theta_in_range,
)

__all__ = [
    "SIGN_PAIRS",
    "QuadratureError",
    "InterferometerSetting",
    "DtePair",
    "CorrelationResult",
    "correlate_quadrature",
    "correlate_closed_form",
    "fringe_phase",
    "closed_form_parts",
]

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# quadrature target on each coincidence probability
P_TARGET = 1e-6


@_record
class InterferometerSetting:
    """One interferometer: arm-length variation and mirror angle."""

    ell: float  # m
    theta: float = math.pi / 4.0  # rad

    def __post_init__(self) -> None:
        if not math.isfinite(self.ell):
            raise ValidationError("ell must be finite")
        if not _theta_in_range(self.theta):
            raise ValidationError(f"theta must lie in [0, pi/2], got {self.theta}")


@_record
class DtePair:
    """Dissociated atom pair ready for correlation analysis.

    ``distribution`` is the Gaussian pair, given by its dispersion scales
    (a TimescaleSummary: c.m. width, relative width and mean relative
    momentum p0_rel, the c.m. mean being 0), or the squared-sinc
    FeshbachDistribution; any other type is refused.  Each detector sees
    only the outward branch of the relative momentum, so p0_rel > 0
    (derive_scales refuses anything else).  Scales derived for another
    atom mass than ``species``'s are refused.

    Checks the separation condition: the dispersion-broadened
    single-atom packet width at interrogation time must stay well below
    the half separation v_rel*tau/2 (warning below a 10x margin, error
    below 2x), otherwise the two interferometers do not address distinct
    particles.  Both correlation routes read one.
    """

    distribution: TimescaleSummary | FeshbachDistribution
    tau: float
    phi_tau: float
    species: Species

    def __post_init__(self) -> None:
        _require_positive("tau", self.tau)
        if not math.isfinite(self.phi_tau):
            raise ValidationError("phi_tau must be finite")
        scales = self.distribution
        if not isinstance(scales, (TimescaleSummary, FeshbachDistribution)):
            raise ValidationError(
                f"unsupported distribution type {type(scales).__name__}; "
                "expected TimescaleSummary or FeshbachDistribution"
            )
        # derive_scales writes v_rel with exactly this expression
        if isinstance(scales, TimescaleSummary) and (
            scales.v_rel != 2.0 * scales.p0_rel / self.species.atom_mass
        ):
            raise ValidationError(
                "scales were derived for another atom mass: v_rel != 2 p0_rel / atom_mass"
            )
        margin = self.separation_margin()
        if margin < 2.0:
            raise ValidationError(
                "wave packets not separated: half-separation over broadened "
                f"width is {margin:.2f}, need >= 2"
            )
        if margin < 10.0:
            warnings.warn(
                f"wave-packet separation margin is only {margin:.1f}x",
                stacklevel=3,  # past the record's __init__, to the caller
            )

    def separation_margin(self) -> float:
        hbar = CONSTANTS.hbar
        scales = self.distribution
        if not isinstance(scales, TimescaleSummary):
            scales = gaussian_approximation(scales, self.species)
        sx_cm = hbar / (2.0 * scales.sigma_p_cm)
        sx_rel = hbar / (2.0 * scales.sigma_p_rel)
        # single-atom spatial variance: c.m. plus a quarter of the relative
        grow_cm, grow_rel = _dispersion_factors(scales, self.tau)
        width_sq = sx_cm**2 * grow_cm + 0.25 * sx_rel**2 * grow_rel
        half_separation = 0.5 * scales.v_rel * self.tau
        return half_separation / math.sqrt(width_sq)


def _check_probabilities(p: Mapping) -> None:
    """Refuse a probability table unless its cells sum to 1 and each lies
    in [0, 1], both to within 1e-9 of round-off; a NaN cell fails."""
    total = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
    for value in p.values():
        total += value
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total}, not 1")
    for key, value in p.items():
        if not (-1e-9 <= value <= 1.0 + 1e-9):
            raise ValidationError(f"P{key} = {value} outside [0, 1]")


@_record
class CorrelationResult:
    """Four coincidence probabilities plus their correlation value.

    ``visibility`` is the fringe amplitude of E at this setting pair,
    |sin2t1 sin2t2| * |I| for the complex interference integral I, so
    that |E - cos2t1 cos2t2| <= visibility.
    """

    p: Mapping
    e_value: float
    quadrature_error_estimate: float
    visibility: float

    def __post_init__(self) -> None:
        _check_probabilities(self.p)
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(f"visibility {self.visibility} outside [0, 1]")

    def probability(self, s1: int, s2: int) -> float:
        return self.p[(s1, s2)]


def _result_from_interference(
    e_interference: float,
    amplitude: float,
    theta1: float,
    theta2: float,
    estimate: float,
) -> CorrelationResult:
    """P(s1,s2) = (1/4)*{1 + s1 s2 [cos2t1 cos2t2 + sin2t1 sin2t2 * e_int]}.

    The first term is the non-interfering mirror/splitter imbalance; it
    vanishes at theta = pi/4 where the standard form is recovered.
    ``amplitude`` is |I| >= |e_int|; scaled by |sin2t1 sin2t2| it is the
    result's visibility.
    """
    c_term = math.cos(2.0 * theta1) * math.cos(2.0 * theta2)
    s_term = math.sin(2.0 * theta1) * math.sin(2.0 * theta2)
    # numerical fuzz just beyond the physical bound is clipped, anything
    # worse is a real bug upstream
    if abs(e_interference) > 1.0 + 1e-9:
        raise ValidationError(f"interference term {e_interference} outside [-1, 1]")
    if amplitude > 1.0 + 1e-9:
        raise ValidationError(f"interference amplitude {amplitude} above 1")
    e_interference = min(1.0, max(-1.0, e_interference))
    amplitude = min(1.0, amplitude)
    combined = c_term + s_term * e_interference
    # P depends on s1 s2 only: equal signs (++, --) and opposite signs (+-, -+)
    same = min(1.0, max(0.0, 0.25 * (1.0 + combined)))
    opposite = min(1.0, max(0.0, 0.25 * (1.0 - combined)))
    return CorrelationResult(
        p={(1, 1): same, (1, -1): opposite, (-1, 1): opposite, (-1, -1): same},
        e_value=same - opposite - opposite + same,
        quadrature_error_estimate=estimate,
        visibility=abs(s_term) * amplitude,
    )


# ---------------------------------------------------------------------------
# quadrature


def correlate_quadrature(
    pair: DtePair, s1: InterferometerSetting, s2: InterferometerSetting
) -> CorrelationResult:
    """Coincidence probabilities by direct momentum quadrature.

    Works in pair-adapted units (momenta in p0, lengths in the reduced
    fringe wavelength) where the dissociation-time phase reads
    c*sl/2 + r*dl - (c^2/4 + r^2)/m_int.  The early branch takes the long
    interferometer arms and carries the extra free evolution; the result
    is the real part of the phase-weighted distribution average against
    exp(-i phi_tau).

    ``quadrature_error_estimate`` bounds the error of the returned
    probabilities: a quarter of the difference to the half-level pass,
    which is itself sized to converge, plus the truncated tail mass and a
    rounding floor.  On the sinc^2 route the tail term also carries the
    bound of _quadrature._tail_cut: each line integral stops where its
    phase has no stationary point left, and that non-stationary-phase
    bound on the dropped part (at most an eighth of the envelope tail)
    is charged here.  The levels double from 1 to at most
    _quadrature.MAX_LEVEL; the returned pass differs from its half-level
    pass in every node count, and where a node cap or that ceiling rules
    this out, QuadratureError is raised (_quadrature._converge).
    """
    compute, tail = _interference(pair, s1.ell, s2.ell)
    phase_ref = complex(math.cos(pair.phi_tau), -math.sin(pair.phi_tau))

    # the 1e-12 floor covers double-precision summation noise
    def estimate_for(error):
        return 0.25 * error + 0.25 * tail + 1e-12

    fine, estimate = _converge(compute, estimate_for, P_TARGET)
    e_interference = float((phase_ref * fine).real)
    return _result_from_interference(e_interference, abs(fine), s1.theta, s2.theta, estimate)


# ---------------------------------------------------------------------------
# closed form


def closed_form_parts(
    scales: TimescaleSummary, tau: float, phi_tau: float, ell1: float, ell2: float
):
    """Visibility prefactor, envelope, and cosine argument of the Gaussian
    interference term, written in the dispersion scales t_cm, t_rel, the
    reduced fringe wavelength and the relative velocity.  A tau or arm
    length that takes the phase past the float range is refused."""
    _require_positive("tau", tau)
    t_cm, t_rel = scales.t_cm, scales.t_rel
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    dl = ell1 - ell2
    sl = ell1 + ell2

    prefactor = _dispersion_product(scales, tau) ** -0.25
    two_v_lam = 2.0 * v * lam  # equals 4 hbar / m
    rel_shift = dl - tau * v
    try:
        envelope = math.exp(
            -(t_rel / (t_rel**2 + tau**2)) * rel_shift**2 / two_v_lam
            - (t_cm / (t_cm**2 + tau**2)) * sl**2 / two_v_lam
        )
        phi0 = (
            tau * v / lam
            + math.atan(tau / t_cm)
            + math.atan(tau / t_rel)
            + 2.0 * phi_tau
        )
        phase = (
            dl / lam
            + (tau / (t_rel**2 + tau**2)) * rel_shift**2 / two_v_lam
            + (tau / (t_cm**2 + tau**2)) * sl**2 / two_v_lam
            - 0.5 * phi0
        )
        if not math.isfinite(phase):  # a product past the float range
            raise OverflowError
    except OverflowError:  # that, or a square past it
        raise ValidationError(
            f"fringe phase overflows at tau = {tau:g} s, ell1 = {ell1:g} m, ell2 = {ell2:g} m"
        ) from None
    return prefactor, envelope, phase


def _gaussian_scales(pair: DtePair) -> TimescaleSummary:
    """The dispersion scales of a Gaussian pair; the closed form is the
    Gaussian oracle of the quadrature, so a squared-sinc pair is refused."""
    scales = pair.distribution
    if not isinstance(scales, TimescaleSummary):
        raise ValidationError(f"the closed form needs a Gaussian pair, got {type(scales).__name__}")
    return scales


def correlate_closed_form(
    pair: DtePair, s1: InterferometerSetting, s2: InterferometerSetting
) -> CorrelationResult:
    """Gaussian closed form of the coincidence probabilities.

    The interference term is prefactor * envelope * cos(phase), with the
    parts of closed_form_parts of the pair at s1.ell and s2.ell; the
    angles enter as on the quadrature route, so the visibility is
    |sin2t1 sin2t2| * prefactor * envelope.  A sinc^2 pair is refused.
    """
    prefactor, envelope, phase = closed_form_parts(
        _gaussian_scales(pair), pair.tau, pair.phi_tau, s1.ell, s2.ell
    )
    return _result_from_interference(
        prefactor * envelope * math.cos(phase), prefactor * envelope,
        s1.theta, s2.theta, 0.0,
    )


def fringe_phase(
    scales: TimescaleSummary, tau: float, phi_tau: float, ell1: float, ell2: float
) -> float:
    """Cosine argument of the interference term at the given arm lengths.

    This is the full argument: linear fringe term (ell1-ell2)/lambda_bar,
    both quadratic chirp corrections, and -phi0/2.  The Bell optimizer
    uses it to translate length offsets into effective analyzer angles.
    """
    return closed_form_parts(scales, tau, phi_tau, ell1, ell2)[2]

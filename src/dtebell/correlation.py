"""Joint detection probabilities behind two single-atom interferometers.

Each atom passes an unbalanced guided-path interferometer whose long arm
is switched in for the early dissociation branch and out for the late
one; the four coincidence probabilities P(s1, s2) then interfere the two
dissociation times.  Two evaluation routes are provided: direct 2D
quadrature of the momentum integral for arbitrary pair distributions
(a DtePair), and the Gaussian closed form, which reads only the
dispersion scales it is written in (a TimescaleSummary, as
scales_from_scenario returns).  Keeping both genuinely independent is the
point: the closed form is the oracle for the quadrature and vice versa.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dissociation import (
    MAX_NODES,
    MIN_NODES,
    WINDOW_SIGMAS,
    FeshbachDistribution,
    GaussianPair,
    QuadratureError,
    _converge,
    _pair_integral,
    _tail_cut,
    _window_integral,
    gaussian_approximation,
)
from .scenario import (
    CONSTANTS,
    Species,
    TimescaleSummary,
    ValidationError,
    _dispersion_product,
    derive_scales,
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


@dataclass(frozen=True)
class InterferometerSetting:
    """One interferometer: arm-length variation and mirror angle."""

    ell: float  # m
    theta: float = math.pi / 4.0  # rad

    def __post_init__(self) -> None:
        if not math.isfinite(self.ell):
            raise ValidationError("ell must be finite")
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValidationError(f"theta must lie in [0, pi/2], got {self.theta}")


@dataclass(frozen=True)
class DtePair:
    """Dissociated atom pair ready for correlation analysis.

    ``distribution`` is a GaussianPair or the squared-sinc
    FeshbachDistribution.  Each detector sees only the outward branch of
    the relative momentum, so a Gaussian relative mode must have
    mean_p > 0 (derive_scales refuses anything else).

    Checks the separation condition: the dispersion-broadened
    single-atom packet width at interrogation time must stay well below
    the half separation v_rel*tau/2 (warning below a 10x margin, error
    below 2x), otherwise the two interferometers do not address distinct
    particles.
    """

    distribution: GaussianPair | FeshbachDistribution
    tau: float
    phi_tau: float
    species: Species

    def __post_init__(self) -> None:
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValidationError(f"tau must be positive and finite, got {self.tau}")
        if not math.isfinite(self.phi_tau):
            raise ValidationError("phi_tau must be finite")
        margin = self.separation_margin()
        if margin < 2.0:
            raise ValidationError(
                "wave packets not separated: half-separation over broadened "
                f"width is {margin:.2f}, need >= 2"
            )
        if margin < 10.0:
            warnings.warn(
                f"wave-packet separation margin is only {margin:.1f}x",
                stacklevel=2,
            )

    def gaussian_modes(self) -> GaussianPair:
        dist = self.distribution
        if isinstance(dist, GaussianPair):
            return dist
        return gaussian_approximation(dist)

    def separation_margin(self) -> float:
        hbar = CONSTANTS.hbar
        modes = self.gaussian_modes()
        scales = derive_scales(
            self.species,
            sigma_p_cm=modes.cm.sigma_p,
            sigma_p_rel=modes.rel.sigma_p,
            p0_rel=modes.rel.mean_p,
        )
        sx_cm = hbar / (2.0 * modes.cm.sigma_p)
        sx_rel = hbar / (2.0 * modes.rel.sigma_p)
        # single-atom spatial variance: c.m. plus a quarter of the relative
        width_sq = sx_cm**2 * (1.0 + (self.tau / scales.t_cm) ** 2) + 0.25 * sx_rel**2 * (
            1.0 + (self.tau / scales.t_rel) ** 2
        )
        half_separation = 0.5 * scales.v_rel * self.tau
        return half_separation / math.sqrt(width_sq)


@dataclass(frozen=True)
class CorrelationResult:
    """Four coincidence probabilities plus their correlation value.

    ``visibility`` is the fringe amplitude of E at this setting pair,
    |sin2t1 sin2t2| * |I| for the complex interference integral I, so
    that |E - cos2t1 cos2t2| <= visibility.
    """

    p: Mapping
    e_value: float
    method: str
    quadrature_error_estimate: float
    visibility: float

    def __post_init__(self) -> None:
        total = sum(self.p.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        for key, value in self.p.items():
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ValidationError(f"P{key} = {value} outside [0, 1]")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(f"visibility {self.visibility} outside [0, 1]")
        if self.method not in ("Quadrature", "ClosedForm"):
            raise ValidationError(f"unknown method {self.method!r}")

    def probability(self, s1: int, s2: int) -> float:
        return self.p[(s1, s2)]


def _result_from_interference(
    e_interference: float,
    amplitude: float,
    theta1: float,
    theta2: float,
    method: str,
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
    p = {}
    for s1, s2 in SIGN_PAIRS:
        value = 0.25 * (1.0 + s1 * s2 * combined)
        p[(s1, s2)] = min(1.0, max(0.0, value))
    e_value = p[(1, 1)] - p[(1, -1)] - p[(-1, 1)] + p[(-1, -1)]
    return CorrelationResult(
        p=p,
        e_value=e_value,
        method=method,
        quadrature_error_estimate=estimate,
        visibility=abs(s_term) * amplitude,
    )


# ---------------------------------------------------------------------------
# quadrature machinery


def _internal_units(p_ref: float, tau: float, mass: float, ell1: float, ell2: float):
    """(m_int, sl_int, dl_int): the atom mass and the arm-length sum and
    difference in the quadrature's units.

    Momenta are in units of p_ref, times in units of tau and lengths in
    units of hbar/p_ref, so hbar is exactly 1 inside and the mass unit is
    p_ref*tau/length; internal masses come out small for heavy slow
    particles, which keeps the phase factors O(1) on the grid.
    """
    length = CONSTANTS.hbar / p_ref
    m_int = mass / ((p_ref * tau) * length**-1)
    return m_int, (ell1 + ell2) / length, (ell1 - ell2) / length


def _gaussian_interference(gaussians, p_ref, m_int, sl_int, dl_int, level=1.0):
    """Interference integral for a separable Gaussian pair, internal units
    (momenta in p_ref).

    ``level`` scales every node count; returns (value, capped) where
    capped means some factor's node count sits at MAX_NODES, so raising
    the level further adds no nodes there.
    """

    def factor(mode, a, b):
        mean = mode.mean_p / p_ref
        sigma = mode.sigma_p / p_ref
        return _window_integral(mean, sigma, a, b, level, MIN_NODES, MAX_NODES)

    i_cm, cm_capped = factor(gaussians.cm, 0.5 * sl_int, 1.0 / (4.0 * m_int))
    i_rel, rel_capped = factor(gaussians.rel, dl_int, 1.0 / m_int)
    return i_cm * i_rel, cm_capped or rel_capped


def _feshbach_interference(dist, m_int, sl_int, dl_int, level=1.0):
    """Interference integral for the squared-sinc source, internal units;
    returns (value, capped)."""
    value, capped = _pair_integral(
        dist, 0.5 * sl_int, 1.0 / (4.0 * m_int), dl_int, 1.0 / m_int, level
    )
    pref = dist.normalization * dist.kappa * dist.b**2 / math.pi
    return pref * value, capped


def correlate_quadrature(
    pair: DtePair, s1: InterferometerSetting, s2: InterferometerSetting, refine: int = 0
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
    rate-corrected when that alone misses P_TARGET, plus the truncated
    tail mass and a rounding floor.  On the sinc^2 route the tail term
    also carries the bound of dissociation._tail_cut: each line integral
    stops where its phase has no stationary point left, and that
    non-stationary-phase bound on the dropped part (at most an eighth of
    the envelope tail) is charged here.  ``refine`` forces that many extra
    node doublings beyond the adaptive schedule (testing hook for the
    self-consistency property).  The returned pass differs from its
    half-level pass in every node count; where a node cap rules that out,
    QuadratureError is raised (dissociation._converge).
    """
    dist = pair.distribution
    if isinstance(dist, GaussianPair):
        p_ref = dist.rel.mean_p
    elif isinstance(dist, FeshbachDistribution):
        p_ref = dist.p0
    else:
        raise ValidationError(
            f"unsupported distribution type {type(dist).__name__}; "
            "expected GaussianPair or FeshbachDistribution"
        )
    m_int, sl_int, dl_int = _internal_units(
        p_ref, pair.tau, pair.species.atom_mass, s1.ell, s2.ell
    )

    if isinstance(dist, GaussianPair):
        compute = lambda level: _gaussian_interference(dist, p_ref, m_int, sl_int, dl_int, level)
        tail = 2.0 * math.erfc(WINDOW_SIGMAS / math.sqrt(2.0))
    else:
        compute = lambda level: _feshbach_interference(dist, m_int, sl_int, dl_int, level)
        tail = dist.tail_bound() + _tail_cut(dist, dl_int, 1.0 / m_int)[1]

    phase_ref = np.exp(-1j * pair.phi_tau)

    # the 1e-12 floor covers double-precision summation noise
    def estimate_for(error):
        return 0.25 * error + 0.25 * tail + 1e-12

    fine, estimate = _converge(compute, estimate_for, P_TARGET, float(2**refine), rate=True)
    e_interference = float(np.real(phase_ref * fine))
    return _result_from_interference(
        e_interference, abs(fine), s1.theta, s2.theta, "Quadrature", estimate
    )


# ---------------------------------------------------------------------------
# closed form


def closed_form_parts(
    scales: TimescaleSummary, tau: float, phi_tau: float, ell1: float, ell2: float
):
    """Visibility prefactor, envelope, and cosine argument of the Gaussian
    interference term, written in the dispersion scales t_cm, t_rel, the
    reduced fringe wavelength and the relative velocity."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValidationError(f"tau must be positive and finite, got {tau}")
    t_cm, t_rel = scales.t_cm, scales.t_rel
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    dl = ell1 - ell2
    sl = ell1 + ell2

    prefactor = _dispersion_product(scales, tau) ** -0.25
    two_v_lam = 2.0 * v * lam  # equals 4 hbar / m
    rel_shift = dl - tau * v
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
    return prefactor, envelope, phase


def correlate_closed_form(
    scales: TimescaleSummary, tau: float, phi_tau: float, ell1: float, ell2: float
) -> CorrelationResult:
    """Gaussian closed form of the coincidence probabilities at theta = pi/4.

    E = prefactor * envelope * cos(phase) with the parts documented in
    closed_form_parts, and the visibility is prefactor * envelope.
    """
    prefactor, envelope, phase = closed_form_parts(scales, tau, phi_tau, ell1, ell2)
    return _result_from_interference(
        prefactor * envelope * math.cos(phase), prefactor * envelope,
        math.pi / 4.0, math.pi / 4.0, "ClosedForm", 0.0,
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

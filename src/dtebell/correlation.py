"""Joint detection probabilities behind two single-atom interferometers.

Each atom passes an unbalanced guided-path interferometer whose long arm
is switched in for the early dissociation branch and out for the late
one; the four coincidence probabilities P(s1, s2) then interfere the two
dissociation times.  Two evaluation routes are provided: direct 2D
quadrature of the momentum integral for arbitrary pair distributions,
and the Gaussian closed form.  Keeping both genuinely independent is the
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
    GaussianMode,
    GaussianPair,
    QuadratureError,
    _converge,
    _gauss_legendre,
    _node_count,
    _pair_integral,
    _quadratic_span,
)
from .scenario import CONSTANTS, ScaledUnits, Species, ValidationError, derive_scales

__all__ = [
    "SIGN_PAIRS",
    "QuadratureError",
    "InterferometerSetting",
    "GaussianPairDistribution",
    "DtePair",
    "CorrelationResult",
    "smatrix_amplitude",
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
    """One interferometer: arm-length variation, mirror angle, switch flavor."""

    ell: float  # m
    theta: float = math.pi / 4.0  # rad
    switch_mode: str = "Switched"

    def __post_init__(self) -> None:
        if not math.isfinite(self.ell):
            raise ValidationError("ell must be finite")
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValidationError(f"theta must lie in [0, pi/2], got {self.theta}")
        if self.switch_mode not in ("Switched", "BeamSplitter"):
            raise ValidationError(
                f"switch_mode must be 'Switched' or 'BeamSplitter', got {self.switch_mode!r}"
            )


@dataclass(frozen=True)
class GaussianPairDistribution:
    """Product of Gaussian centre-of-mass and relative momentum modes.

    The relative mode is symmetrized over both propagation directions by
    default.  ``position_offset`` displaces the pair in space; it changes
    only the momentum-space phase, not |psi|^2, so it must not affect any
    correlation output (that invariance is tested, which is why the knob
    exists).
    """

    modes: GaussianPair
    symmetrized: bool = True
    position_offset: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.position_offset):
            raise ValidationError("position_offset must be finite")
        if self.modes.rel.mean_p <= 0.0:
            raise ValidationError(
                f"relative mode must propagate outward: mean_p > 0, got {self.modes.rel.mean_p}"
            )

    @property
    def rel_branches(self):
        """(weight, GaussianMode) branches of the relative mode."""
        rel = self.modes.rel
        if self.symmetrized:
            mirror = GaussianMode(mean_p=-rel.mean_p, sigma_p=rel.sigma_p)
            return ((0.5, rel), (0.5, mirror))
        return ((1.0, rel),)

    @property
    def detector_branches(self):
        """Relative-momentum branches folded onto the detector frame.

        The atom moving toward interferometer 1 always carries positive
        relative momentum by construction of the labels, so the mirror
        branch (atoms swapped) maps onto the same positive-momentum line
        with the arm assignment swapped along with it.  Folding merges
        both particle-label branches into positive means.
        """
        merged = {}
        for weight, mode in self.rel_branches:
            key = (abs(mode.mean_p), mode.sigma_p)
            merged[key] = merged.get(key, 0.0) + weight
        return tuple(
            (w, GaussianMode(mean_p=mean, sigma_p=sigma)) for (mean, sigma), w in merged.items()
        )

    def density(self, p_cm, p_rel):
        rel = sum(w * m.density(p_rel) for w, m in self.rel_branches)
        return self.modes.cm.density(p_cm) * rel

    def density_particle_frame(self, p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.density(p1 + p2, 0.5 * (p1 - p2))


@dataclass(frozen=True)
class DtePair:
    """Dissociated atom pair ready for correlation analysis.

    Checks the separation condition: the dispersion-broadened
    single-atom packet width at interrogation time must stay well below
    the half separation v_rel*tau/2 (warning below a 10x margin, error
    below 2x), otherwise the two interferometers do not address distinct
    particles.
    """

    distribution: GaussianPairDistribution | FeshbachDistribution
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
        if isinstance(dist, GaussianPairDistribution):
            return dist.modes
        from .dissociation import gaussian_approximation

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
    """Four coincidence probabilities plus their correlation value."""

    p: Mapping
    e_value: float
    method: str
    quadrature_error_estimate: float
    generalized_theta: bool = False

    def __post_init__(self) -> None:
        total = sum(self.p.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        for key, value in self.p.items():
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ValidationError(f"P{key} = {value} outside [0, 1]")
        if self.method not in ("Quadrature", "ClosedForm"):
            raise ValidationError(f"unknown method {self.method!r}")

    def probability(self, s1: int, s2: int) -> float:
        return self.p[(s1, s2)]


def _result_from_interference(
    e_interference: float,
    theta1: float,
    theta2: float,
    method: str,
    estimate: float,
) -> CorrelationResult:
    """P(s1,s2) = (1/4)*{1 + s1 s2 [cos2t1 cos2t2 + sin2t1 sin2t2 * e_int]}.

    The first term is the non-interfering mirror/splitter imbalance; it
    vanishes at theta = pi/4 where the standard form is recovered.
    """
    c_term = math.cos(2.0 * theta1) * math.cos(2.0 * theta2)
    s_term = math.sin(2.0 * theta1) * math.sin(2.0 * theta2)
    # numerical fuzz just beyond the physical bound is clipped, anything
    # worse is a real bug upstream
    if abs(e_interference) > 1.0 + 1e-9:
        raise ValidationError(f"interference term {e_interference} outside [-1, 1]")
    e_interference = min(1.0, max(-1.0, e_interference))
    combined = c_term + s_term * e_interference
    p = {}
    for s1, s2 in SIGN_PAIRS:
        value = 0.25 * (1.0 + s1 * s2 * combined)
        p[(s1, s2)] = min(1.0, max(0.0, value))
    e_value = p[(1, 1)] - p[(1, -1)] - p[(-1, 1)] + p[(-1, -1)]
    generalized = abs(theta1 - math.pi / 4.0) > 1e-12 or abs(theta2 - math.pi / 4.0) > 1e-12
    return CorrelationResult(
        p=p,
        e_value=e_value,
        method=method,
        quadrature_error_estimate=estimate,
        generalized_theta=generalized,
    )


def smatrix_amplitude(setting: InterferometerSetting, port: int, switch_state: str, p):
    """Single-interferometer output amplitude for one input momentum.

    With the long arm switched in ('on') the atom picks up the arm phase
    exp(i p ell / hbar) and splits cos/sin over the +1/-1 ports; with the
    arm switched out ('off') there is no momentum phase and the -1 port
    carries the minus sign that keeps the full matrix unitary.
    """
    if port not in (1, -1):
        raise ValidationError(f"port must be +1 or -1, got {port}")
    if switch_state not in ("on", "off"):
        raise ValidationError(f"switch_state must be 'on' or 'off', got {switch_state!r}")
    theta = setting.theta
    if switch_state == "on":
        phase = np.exp(1j * np.asarray(p, dtype=float) * setting.ell / CONSTANTS.hbar)
        return phase * (math.cos(theta) if port == 1 else math.sin(theta))
    amp = math.sin(theta) if port == 1 else -math.cos(theta)
    return complex(amp) if np.isscalar(p) or np.asarray(p).ndim == 0 else np.full(np.shape(p), amp, dtype=complex)


# ---------------------------------------------------------------------------
# quadrature machinery


def _gaussian_factor(mode_mean: float, mode_sigma: float, a: float, b: float, n: int) -> complex:
    """integral of N(x; mean, sigma) * exp(i(a x - b x^2)) over +-8.5 sigma."""
    x_gl, w_gl = _gauss_legendre(n)
    half = WINDOW_SIGMAS * mode_sigma
    x = mode_mean + half * x_gl
    dens = np.exp(-0.5 * ((x - mode_mean) / mode_sigma) ** 2) / (
        math.sqrt(2.0 * math.pi) * mode_sigma
    )
    phase = np.exp(1j * (a * x - b * x * x))
    return complex(np.dot(w_gl * half, dens * phase))


def _gaussian_interference(dist, units, m_int, sl_int, dl_int, level=1.0):
    """Interference integral for a separable Gaussian pair, internal units.

    ``level`` scales every node count; returns (value, capped) where
    capped means some factor ran at the per-dimension ceiling and raising
    the level further cannot improve it.
    """
    cm = dist.modes.cm
    b_cm = 1.0 / (4.0 * m_int)
    b_rel = 1.0 / m_int
    a_cm = 0.5 * sl_int
    a_rel = dl_int

    cm_mean = units.to_internal(cm.mean_p, "momentum")
    cm_sigma = units.to_internal(cm.sigma_p, "momentum")
    lo, hi = cm_mean - WINDOW_SIGMAS * cm_sigma, cm_mean + WINDOW_SIGMAS * cm_sigma
    n_cm, capped = _node_count(_quadratic_span(a_cm, b_cm, lo, hi), level, MIN_NODES, MAX_NODES)
    i_cm = _gaussian_factor(cm_mean, cm_sigma, a_cm, b_cm, n_cm)

    i_rel = 0.0 + 0.0j
    for weight, mode in dist.detector_branches:
        mean = units.to_internal(mode.mean_p, "momentum")
        sigma = units.to_internal(mode.sigma_p, "momentum")
        lo, hi = mean - WINDOW_SIGMAS * sigma, mean + WINDOW_SIGMAS * sigma
        n, hit = _node_count(_quadratic_span(a_rel, b_rel, lo, hi), level, MIN_NODES, MAX_NODES)
        capped = capped or hit
        i_rel += weight * _gaussian_factor(mean, sigma, a_rel, b_rel, n)
    return i_cm * i_rel, capped


def _feshbach_interference(dist, units, m_int, sl_int, dl_int, level=1.0):
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
    tail mass and a rounding floor.  ``refine`` forces that many extra
    node doublings beyond the adaptive schedule (testing hook for the
    self-consistency property).
    """
    dist = pair.distribution
    if isinstance(dist, GaussianPairDistribution):
        p_ref = dist.modes.rel.mean_p
    elif isinstance(dist, FeshbachDistribution):
        p_ref = dist.p0
    else:
        raise ValidationError(
            f"unsupported distribution type {type(dist).__name__}; "
            "expected GaussianPairDistribution or FeshbachDistribution"
        )
    units = ScaledUnits(momentum=p_ref, time=pair.tau)
    m_int = units.to_internal(pair.species.atom_mass, "mass")
    dl_int = units.to_internal(s1.ell - s2.ell, "length")
    sl_int = units.to_internal(s1.ell + s2.ell, "length")

    if isinstance(dist, GaussianPairDistribution):
        compute = lambda level: _gaussian_interference(dist, units, m_int, sl_int, dl_int, level)
        tail = 2.0 * math.erfc(WINDOW_SIGMAS / math.sqrt(2.0))
    else:
        compute = lambda level: _feshbach_interference(dist, units, m_int, sl_int, dl_int, level)
        tail = dist.tail_bound()

    phase_ref = np.exp(-1j * pair.phi_tau)

    # the 1e-12 floor covers double-precision summation noise
    def estimate_for(error):
        return 0.25 * error + 0.25 * tail + 1e-12

    fine, estimate = _converge(compute, estimate_for, P_TARGET, float(2**refine), rate=True)
    e_interference = float(np.real(phase_ref * fine))
    return _result_from_interference(
        e_interference, s1.theta, s2.theta, "Quadrature", estimate
    )


# ---------------------------------------------------------------------------
# closed form


def closed_form_parts(
    gaussians: GaussianPair,
    species: Species,
    tau: float,
    phi_tau: float,
    ell1: float,
    ell2: float,
):
    """Visibility prefactor, envelope, and cosine argument of the Gaussian
    interference term, plus the derived scales used to build them."""
    if gaussians.rel.mean_p <= 0.0:
        raise ValidationError("closed form requires rel.mean_p > 0")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValidationError(f"tau must be positive and finite, got {tau}")
    scales = derive_scales(
        species,
        sigma_p_cm=gaussians.cm.sigma_p,
        sigma_p_rel=gaussians.rel.sigma_p,
        p0_rel=gaussians.rel.mean_p,
    )
    t_cm, t_rel = scales.t_cm, scales.t_rel
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    dl = ell1 - ell2
    sl = ell1 + ell2

    prefactor = ((1.0 + (tau / t_cm) ** 2) * (1.0 + (tau / t_rel) ** 2)) ** -0.25
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
    return prefactor, envelope, phase, scales


def correlate_closed_form(
    gaussians: GaussianPair,
    species: Species,
    tau: float,
    phi_tau: float,
    ell1: float,
    ell2: float,
    signs=None,
) -> CorrelationResult:
    """Gaussian closed form of the coincidence probabilities at theta = pi/4.

    E = prefactor * envelope * cos(phase) with the parts documented in
    closed_form_parts.  ``signs`` optionally names one (s1, s2) outcome of
    interest; the result always carries all four probabilities, the
    argument is validated for convenience in calling code.
    """
    if signs is not None:
        if tuple(signs) not in SIGN_PAIRS:
            raise ValidationError(f"signs must be one of {SIGN_PAIRS}, got {signs}")
    prefactor, envelope, phase, _ = closed_form_parts(
        gaussians, species, tau, phi_tau, ell1, ell2
    )
    e_interference = prefactor * envelope * math.cos(phase)
    return _result_from_interference(
        e_interference, math.pi / 4.0, math.pi / 4.0, "ClosedForm", 0.0
    )


def fringe_phase(
    gaussians: GaussianPair,
    species: Species,
    tau: float,
    phi_tau: float,
    ell1: float,
    ell2: float,
) -> float:
    """Cosine argument of the interference term at the given arm lengths.

    This is the full argument: linear fringe term (ell1-ell2)/lambda_bar,
    both quadratic chirp corrections, and -phi0/2.  The Bell optimizer
    uses it to translate length offsets into effective analyzer angles.
    """
    _, _, phase, _ = closed_form_parts(gaussians, species, tau, phi_tau, ell1, ell2)
    return phase

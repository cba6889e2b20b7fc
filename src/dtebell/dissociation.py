"""Two-pulse dissociation at a narrow magnetic resonance.

Provides the joint momentum distribution of the atom pair (squared-sinc
interference of the two dissociation pulses times a Lorentzian resonance
factor and the trap ground-state profile), its Gaussian approximation,
the accumulated two-pulse phase and its stability budget, and the mean
dissociation yield.  The normalization is _quadrature's zero-phase pair
integral, which reads the source through rel_panel_edges and _scaled_kernel.

numpy is imported inside the functions that build arrays: the
closed-form routes read phi_tau and the stability budget from here and
never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._quadrature import _converge, _pair_integral
from .scenario import (
    CONSTANTS,
    Scenario,
    Species,
    TimescaleSummary,
    ValidationError,
    _check_source_domain,
    _sigma_p_rel,
    _source_momenta,
    derive_scales,
)

__all__ = [
    "FeshbachDistribution",
    "StabilityReport",
    "distribution_from_scenario",
    "gaussian_approximation",
    "phi_tau",
    "phase_stability",
    "dissociation_probability",
    "required_c_tilde_norm_sq",
    "PHASE_BUDGET",
]

# relative envelope level at which the momentum support is truncated
TRUNCATION_LEVEL = 1e-10

# drift budget for the interferometric phase, rad
PHASE_BUDGET = 0.05

# the raw normalization must agree with its half-level pass to NORM_TARGET
NORM_TARGET = 3e-7


@dataclass(frozen=True)
class FeshbachDistribution:
    """Joint (p_cm, p_rel) distribution after two square pulses.

    In units of the mean relative momentum p0, with c = p_cm/p0 and
    r = p_rel/p0, the density is

        N * (kappa b^2 / pi) * sinc^2(x) * f_cm(p_cm) / (p0 * (x/kappa + b)^2)

    where x = kappa*(c^2/4 + r^2 - 1), kappa = (p0/delta_p)^2,
    b = (p_bar/p0)^2 and f_cm is the zero-mean c.m. Gaussian of width
    sigma_p_cm.  sinc(x) = sin(x)/x with sinc(0) = 1.  N is fixed
    numerically so the density integrates to one; the analytic limit
    delta_p, sigma_cm << p0 gives N -> 1.  N is computed on first use of
    ``normalization`` (or anything that needs it) and cached: callers
    that only read the lobe parameters never pay for the 2D integral.
    """

    p0: float
    p_bar: float
    delta_p: float
    sigma_p_cm: float

    def __post_init__(self) -> None:
        _check_source_domain(self.p0, self.p_bar, self.delta_p, self.sigma_p_cm)

    @functools.cached_property
    def _normalized(self) -> tuple[float, float]:
        # (N, relative error estimate of N); cached_property writes the
        # instance __dict__ directly, which a frozen dataclass allows
        raw, err = self._raw_integral()
        return 1.0 / raw, err / raw

    @property
    def normalization(self) -> float:
        return self._normalized[0]

    @property
    def norm_error_estimate(self) -> float:
        return self._normalized[1]

    # -- scaled parameters ------------------------------------------------

    @property
    def kappa(self) -> float:
        return (self.p0 / self.delta_p) ** 2

    @property
    def b(self) -> float:
        return (self.p_bar / self.p0) ** 2

    @property
    def x_cut(self) -> float:
        """Positive sinc-argument cutoff where the combined 1/x^2 sinc
        envelope times the squared Lorentzian falls to TRUNCATION_LEVEL."""
        a = 1.0 / (self.kappa * self.b)
        target = 1.0 / math.sqrt(TRUNCATION_LEVEL)
        return (-1.0 + math.sqrt(1.0 + 4.0 * a * target)) / (2.0 * a)

    def r_hi(self) -> float:
        """Upper |p_rel|/p0 of the truncated support at zero c.m. momentum."""
        return math.sqrt(1.0 + self.x_cut / self.kappa)

    def tail_bound(self) -> float:
        """Analytic bound on the relative mass beyond the truncation.

        Integrates the envelope 1/(x^2 (1+ax)^2) past x_cut in closed
        form (partial fractions) and compares with the in-domain peak
        contribution; conservative by construction.
        """
        a = 1.0 / (self.kappa * self.b)
        xc = self.x_cut
        tail_env = (
            2.0 * a * math.log(a * xc / (1.0 + a * xc))
            + 1.0 / xc
            + a / (1.0 + a * xc)
        )
        # envelope integral over the retained domain is >= pi/2 * 1/(1+..)^2
        # near the sinc peak; normalize against sinc^2 mass ~ pi
        return tail_env / math.pi

    # -- quadrature scaffolding --------------------------------------------

    def rel_panel_edges(self, u):
        """Panel edges in r > 0 aligned with the sinc zeros x = k*pi.

        ``u`` is an array of c^2/4 values; returns edges of shape
        (len(u), n_panels+1).  Panels clipped to zero width where the
        corresponding zero lies below r = 0, so a single static panel
        count serves every u.
        """
        import numpy as np

        u = np.atleast_1d(np.asarray(u, dtype=float))
        kappa = self.kappa
        k_lo = math.floor(-kappa / math.pi) - 1
        k_hi = math.ceil(self.x_cut / math.pi)
        k = np.arange(k_lo, k_hi + 1, dtype=float)
        arg = 1.0 - u[:, None] + (k[None, :] * math.pi) / kappa
        edges = np.sqrt(np.clip(arg, 0.0, None))
        # force exact domain ends
        lo = np.zeros((len(u), 1))
        hi = np.sqrt(1.0 - u + self.x_cut / kappa)[:, None]
        edges = np.clip(edges, 0.0, hi)
        return np.concatenate([lo, edges, hi], axis=1)

    def _scaled_kernel(self, u, r):
        import numpy as np

        # sinc^2(x) / (x/kappa + b)^2 in (u, r); the c.m. profile and the
        # kappa b^2/pi prefactor are applied by the callers
        x = self.kappa * (u + r * r - 1.0)
        denom = u + r * r - 1.0 + self.b
        return np.sinc(x / math.pi) ** 2 / (denom * denom)

    def _raw_integral(self):
        """Full 2D integral at N = 1 plus its error estimate.

        The zero-phase case of the interference integral: the same line
        values and c.m. quadrature, refined by the same doubling loop.
        """
        pref = self.kappa * self.b**2 / math.pi

        def compute(level):
            value, capped = _pair_integral(self, 0.0, 0.0, 0.0, 0.0, level)
            return pref * value.real, capped

        raw, err = _converge(compute, lambda error: error, NORM_TARGET)
        return raw, err + self.tail_bound() * raw

    # -- public evaluation --------------------------------------------------

    def density(self, p_cm, p_rel):
        """Joint density in SI (per momentum squared), vectorized."""
        import numpy as np

        c = np.asarray(p_cm, dtype=float) / self.p0
        r = np.asarray(p_rel, dtype=float) / self.p0
        u = c * c / 4.0
        pref = self.normalization * self.kappa * self.b**2 / math.pi
        z = np.asarray(p_cm, dtype=float) / self.sigma_p_cm
        f_cm = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.sigma_p_cm)
        return pref * self._scaled_kernel(u, r) * f_cm / self.p0


def distribution_from_scenario(scenario: Scenario) -> FeshbachDistribution:
    """Canonical distribution for a scenario: the source momenta p0,
    p_bar, delta_p and sigma_p_cm that scales_from_scenario reads too."""
    return FeshbachDistribution(*_source_momenta(scenario))


def gaussian_approximation(dist: FeshbachDistribution, species: Species) -> TimescaleSummary:
    """Dispersion scales of the Gaussian pair matching the distribution's lobes.

    The relative mode is centred on p0 with the pinned main-lobe width
    sigma_p_rel = SINC_WIDTH_FACTOR * delta_p^2 / (2 p0); the c.m. width is
    the distribution's own.  For a distribution from a scenario these are
    the scales scales_from_scenario returns, computed by the same helpers.
    """
    return derive_scales(species, dist.sigma_p_cm, _sigma_p_rel(dist.p0, dist.delta_p), dist.p0)


def phi_tau(scenario: Scenario) -> float:
    """Relative phase accumulated between the two dissociation branches.

    [2 U_T tau - mu dB T + mu (B_res - B_0) tau] / hbar + omega_G tau,
    reported unwrapped: drift budgets concern absolute phase change, not
    the principal value.
    """
    mu = scenario.resonance.moment_difference
    p = scenario.pulses
    g = scenario.trap_guide
    return (
        2.0 * g.trap_depth * p.pulse_separation
        - mu * p.pulse_height * p.pulse_duration
        + mu * (scenario.resonance.position - p.base_field) * p.pulse_separation
    ) / CONSTANTS.hbar + g.omega_guide * p.pulse_separation


@dataclass(frozen=True)
class StabilityReport:
    """Shot-to-shot phase drift budget.

    drifts: absolute phase drift per parameter, rad, for the supplied
        relative reproducibility of that parameter.
    sensitivities: d(phase)/d(parameter) in rad per SI unit.
    total: root-sum-square of the drifts (independent errors).
    passes: per-parameter drift <= PHASE_BUDGET.
    common_mode_field_drift: drift when base_field and resonance_position
        move together; identically zero because only their difference
        enters, included to document the cancellation.
    """

    drifts: dict
    sensitivities: dict
    total: float
    passes: dict
    common_mode_field_drift: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def phase_stability(scenario: Scenario, relative_errors: float = 1e-5) -> StabilityReport:
    """Propagate one relative parameter error into phase drift.

    ``relative_errors`` applies to each of base_field, pulse_height,
    resonance_position, pulse_duration, pulse_separation and trap_depth.
    Absolute drift per parameter is |d(phase)/dx| * r * |x|; the total
    combines them in quadrature, and each drift is compared with
    PHASE_BUDGET.
    """
    r = float(relative_errors)
    if r < 0.0 or not math.isfinite(r):
        raise ValidationError(f"relative error must be finite and >= 0, got {r}")

    hbar = CONSTANTS.hbar
    mu = scenario.resonance.moment_difference
    p = scenario.pulses
    g = scenario.trap_guide
    tau = p.pulse_separation

    values = {
        "base_field": p.base_field,
        "pulse_height": p.pulse_height,
        "resonance_position": scenario.resonance.position,
        "pulse_duration": p.pulse_duration,
        "pulse_separation": tau,
        "trap_depth": g.trap_depth,
    }
    sensitivities = {
        "base_field": -mu * tau / hbar,
        "pulse_height": -mu * p.pulse_duration / hbar,
        "resonance_position": mu * tau / hbar,
        "pulse_duration": -mu * p.pulse_height / hbar,
        "pulse_separation": (
            2.0 * g.trap_depth + mu * (scenario.resonance.position - p.base_field)
        ) / hbar + g.omega_guide,
        "trap_depth": 2.0 * tau / hbar,
    }
    drifts = {name: abs(sensitivities[name]) * r * abs(value) for name, value in values.items()}
    square_sum = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
    for d in drifts.values():
        square_sum += d * d
    total = math.sqrt(square_sum)
    passes = {name: drift <= PHASE_BUDGET for name, drift in drifts.items()}
    common = abs(sensitivities["base_field"] + sensitivities["resonance_position"])
    return StabilityReport(
        drifts=drifts,
        sensitivities=sensitivities,
        total=total,
        passes=passes,
        common_mode_field_drift=common,
    )


def dissociation_probability(scenario: Scenario, c_tilde_norm_sq: float) -> float:
    """Mean dissociation yield per molecule.

    omega_G * a_bg * mu * width * ||C~||^2 / (pi hbar^2), linear in each
    factor.  ||C~||^2 (momentum * time^2, SI) is caller-supplied: the
    pulse amplitude spectrum has no closed form pinned here, see
    required_c_tilde_norm_sq for the inversion.
    """
    if c_tilde_norm_sq < 0.0:
        raise ValidationError(f"c_tilde_norm_sq must be >= 0, got {c_tilde_norm_sq}")
    a_bg = scenario.resonance.background_scattering_length
    if a_bg <= 0.0:
        raise ValidationError(
            "dissociation yield model requires a positive background "
            f"scattering length, got {a_bg}"
        )
    return (
        scenario.trap_guide.omega_guide
        * a_bg
        * scenario.resonance.moment_difference
        * scenario.resonance.width
        * c_tilde_norm_sq
        / (math.pi * CONSTANTS.hbar**2)
    )


def required_c_tilde_norm_sq(
    scenario: Scenario, n_molecules: int, target_mean: float = 1.0
) -> float:
    """||C~||^2 making n_molecules * yield equal target_mean dissociations."""
    if n_molecules < 1:
        raise ValidationError(f"n_molecules must be >= 1, got {n_molecules}")
    per_unit = dissociation_probability(scenario, 1.0)
    return target_mean / (n_molecules * per_unit)

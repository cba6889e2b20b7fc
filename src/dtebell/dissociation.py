"""Two-pulse dissociation at a narrow magnetic resonance.

Provides the joint momentum distribution of the atom pair (squared-sinc
interference of the two dissociation pulses times a Lorentzian resonance
factor and the trap ground-state profile), its Gaussian approximation,
the accumulated two-pulse phase and its stability budget, and the mean
dissociation yield.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .scenario import (
    CONSTANTS,
    SINC_WIDTH_FACTOR,
    Scenario,
    TrapGuide,
    Species,
    ValidationError,
    _p0_from_fields,
    _sigma_p_cm_ground_state,
)

__all__ = [
    "GaussianMode",
    "GaussianPair",
    "FeshbachDistribution",
    "StabilityReport",
    "DissociationSummary",
    "p0_from_fields",
    "feshbach_density",
    "distribution_from_scenario",
    "gaussian_approximation",
    "fit_sinc_width_factor",
    "phi_tau",
    "phase_stability",
    "dissociation_probability",
    "required_c_tilde_norm_sq",
    "dissociation_summary",
    "PHASE_BUDGET",
]

# relative envelope level at which the momentum support is truncated
TRUNCATION_LEVEL = 1e-10

# drift budget for the interferometric phase, rad
PHASE_BUDGET = 0.05

# c^2/4 rows per block of the sinc^2 line tensor (see _line_values)
U_ROWS_PER_BLOCK = 2
# c.m. window half-width in sigmas; node bounds of a window integral and
# of one sinc^2 panel
WINDOW_SIGMAS = 8.5
MIN_NODES = 32
MAX_NODES = 4096
PANEL_NODE_CAP = 8192
# a doubling loop stops at MAX_LEVEL times its starting level; the raw
# normalization must agree with its half-level pass to NORM_TARGET
MAX_LEVEL = 8.0
NORM_TARGET = 3e-7


@dataclass(frozen=True)
class GaussianMode:
    """1D Gaussian momentum mode, SI."""

    mean_p: float
    sigma_p: float

    def __post_init__(self) -> None:
        if not (self.sigma_p > 0.0 and math.isfinite(self.sigma_p)):
            raise ValidationError(f"sigma_p must be positive and finite, got {self.sigma_p}")
        if not math.isfinite(self.mean_p):
            raise ValidationError("mean_p must be finite")

    def density(self, p):
        z = (np.asarray(p, dtype=float) - self.mean_p) / self.sigma_p
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.sigma_p)


@dataclass(frozen=True)
class GaussianPair:
    """Centre-of-mass and relative Gaussian modes of the dissociated pair."""

    cm: GaussianMode
    rel: GaussianMode


def p0_from_fields(scenario: Scenario) -> float:
    """Mean relative momentum from the field protocol.

    p0^2/m equals the magnetic energy above resonance at the pulse top,
    minus twice the trap depth and the transverse zero-point energy.
    Raises BelowThresholdError when that budget is not positive.
    """
    return _p0_from_fields(scenario)


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the target accuracy; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@functools.lru_cache(maxsize=128)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only.

    scipy's roots_legendre rather than numpy's leggauss: at the 4096-node
    panels of the sinc^2 quadrature it is several times faster.
    """
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class FeshbachDistribution:
    """Joint (p_cm, p_rel) distribution after two square pulses.

    In units of the mean relative momentum p0, with c = p_cm/p0 and
    r = p_rel/p0, the density is

        N * (kappa b^2 / pi) * sinc^2(x) * f_cm(p_cm) / (p0 * (x/kappa + b)^2)

    where x = kappa*(c^2/4 + r^2 - 1), kappa = (p0/delta_p)^2 and
    b = (p_bar/p0)^2.  sinc(x) = sin(x)/x with sinc(0) = 1.  N is fixed
    numerically so the density integrates to one; the analytic limit
    delta_p, sigma_cm << p0 gives N -> 1.  N is computed on first use of
    ``normalization`` (or anything that needs it) and cached: callers
    that only read the lobe parameters never pay for the 2D integral.
    """

    p0: float
    p_bar: float
    delta_p: float
    cm_state: GaussianMode

    def __post_init__(self) -> None:
        for name in ("p0", "p_bar", "delta_p"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.delta_p / self.p0 > 0.2:
            raise ValidationError(
                "narrow-spectrum precondition violated: delta_p/p0 = "
                f"{self.delta_p / self.p0:.4f} > 0.2"
            )
        if self.cm_state.sigma_p / self.p0 > 0.2:
            raise ValidationError(
                "narrow-spectrum precondition violated: sigma_p_cm/p0 = "
                f"{self.cm_state.sigma_p / self.p0:.4f} > 0.2"
            )
        if self.p_bar <= self.p0:
            # (x/kappa + b) vanishes on a momentum shell when b < 1: the
            # resonance pole enters the kinematically allowed domain
            raise ValidationError(
                "resonance pole inside the momentum domain: requires p_bar > p0, "
                f"got p_bar/p0 = {self.p_bar / self.p0:.4f}"
            )

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

    def r_hi(self, u: float = 0.0) -> float:
        """Upper |p_rel|/p0 of the truncated support at c^2/4 = u."""
        return math.sqrt(1.0 - u + self.x_cut / self.kappa)

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
        c = np.asarray(p_cm, dtype=float) / self.p0
        r = np.asarray(p_rel, dtype=float) / self.p0
        u = c * c / 4.0
        pref = self.normalization * self.kappa * self.b**2 / math.pi
        return pref * self._scaled_kernel(u, r) * self.cm_state.density(p_cm) / self.p0

    def density_particle_frame(self, p1, p2):
        """Same density addressed by single-particle momenta (unit Jacobian)."""
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        return self.density(p1 + p2, 0.5 * (p1 - p2))


def feshbach_density(dist: FeshbachDistribution, p_cm, p_rel):
    """Module-level alias for :meth:`FeshbachDistribution.density`."""
    return dist.density(p_cm, p_rel)


# ---------------------------------------------------------------------------
# quadrature shared by the normalization and the correlation routes


def _converge(compute, estimate_for, target: float, level: float = 1.0, rate: bool = False):
    """Double the level until estimate_for(error) <= target.

    ``compute(level)`` returns (value, capped); ``error`` is the
    difference between the pass at ``level`` and the half-level pass.
    With ``rate`` that difference is rate-corrected (_rate_corrected)
    when it misses the target on an uncapped pass; at the starting level
    this costs one quarter-level pass, after that the previous doubling
    supplies the rate.  Returns (value, estimate); raises QuadratureError
    on a capped pass or past MAX_LEVEL times the starting level, so a
    node ceiling never masquerades as convergence.
    """
    ceiling = MAX_LEVEL * level
    coarse, _ = compute(0.5 * level)
    fine, capped = compute(level)
    previous = None  # |coarse - the pass below it|, once known
    while True:
        error = abs(fine - coarse)
        estimate = estimate_for(error)
        if rate and estimate > target and not capped:
            if previous is None:
                coarser, _ = compute(0.25 * level)
                previous = abs(coarse - coarser)
            estimate = estimate_for(_rate_corrected(error, previous))
        if estimate <= target:
            return fine, estimate
        if capped or level >= ceiling:
            raise QuadratureError(
                f"quadrature error estimate {estimate:.3e} exceeds {target:.0e} "
                "at the node-count ceiling",
                estimate=estimate,
            )
        level *= 2.0
        coarse, previous = fine, error
        fine, capped = compute(level)


def _rate_corrected(error: float, previous: float) -> float:
    """Error of the finer of two passes whose difference is ``error``.

    ``previous`` is the difference one doubling earlier.  If each later
    difference shrinks by at least rho = error/previous, their sum, the
    error left in the finer pass, is error * rho/(1 - rho).  Passes that
    contract by less than half (or not at all) keep the plain
    difference, so the correction never raises an estimate.
    """
    if error < 0.5 * previous:
        return error * error / (previous - error)
    return error


def _quadratic_span(a: float, b: float, lo: float, hi: float) -> float:
    """max-min of a*x - b*x^2 on [lo, hi]."""
    values = [a * lo - b * lo * lo, a * hi - b * hi * hi]
    if b != 0.0:
        vertex = a / (2.0 * b)
        if lo < vertex < hi:
            values.append(a * vertex - b * vertex * vertex)
    return max(values) - min(values)


def _node_count(span: float, level: float, floor: int, ceiling: int) -> tuple[int, bool]:
    """(nodes, capped): >= 8 per radian of ``span``, clipped, scaled by level."""
    base = int(np.clip(math.ceil(8.0 * span), floor, ceiling))
    n = int(math.ceil(base * level))
    if n >= ceiling:
        return ceiling, True
    return max(n, floor // 2), False


def _line_values(dist: FeshbachDistribution, u, a_lin: float, b_quad: float, level=1.0):
    """(values, capped): per u, 2 * integral over r > 0 of K(u, r) e^{i(a r - b r^2)} dr.

    K is the scaled sinc^2 kernel; the 2 folds the mirror particle-label
    branch onto the detector frame.  Panels follow the sinc zeros; node
    buckets follow the worst phase excursion over all rows.  The (u,
    panel, node) tensor is then summed U_ROWS_PER_BLOCK rows at a time.
    Rows sum independently, so the bits do not change, except in a
    one-row block: a lone trailing row joins the block before it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    edges = dist.rel_panel_edges(u)
    lo_e, hi_e = edges[:, :-1], edges[:, 1:]

    def phase(r):
        return a_lin * r - b_quad * r * r

    f_lo, f_hi = phase(lo_e), phase(hi_e)
    top = np.maximum(f_lo, f_hi)
    bot = np.minimum(f_lo, f_hi)
    if b_quad > 0.0:
        vertex = a_lin / (2.0 * b_quad)
        inside = (lo_e < vertex) & (vertex < hi_e)
        top = np.where(inside, np.maximum(top, phase(vertex)), top)
    span = (top - bot).max(axis=0)
    needed = np.ceil(np.maximum(12, np.ceil(0.7 * span) + 12) * level).astype(int)
    capped = bool((needed >= PANEL_NODE_CAP).any())
    buckets = np.minimum(2 ** np.ceil(np.log2(needed)).astype(int), PANEL_NODE_CAP)

    half_width = 0.5 * (hi_e - lo_e)
    mid = 0.5 * (lo_e + hi_e)
    result = np.zeros(len(u), dtype=complex)
    starts = list(range(0, len(u), U_ROWS_PER_BLOCK))
    if len(starts) > 1 and len(u) - starts[-1] == 1:
        starts.pop()
    for rows in map(slice, starts, starts[1:] + [len(u)]):
        for size in np.unique(buckets):
            sel = buckets == size
            gl_x, gl_w = _gauss_legendre(int(size))
            half = half_width[rows][:, sel][:, :, None]
            r = mid[rows][:, sel][:, :, None] + half * gl_x
            kern = dist._scaled_kernel(u[rows, None, None], r)
            osc = 2.0 * np.exp(1j * phase(r))
            result[rows] += ((kern * osc * gl_w).sum(axis=2) * half[:, :, 0]).sum(axis=1)
    return result, capped


def _pair_integral(dist, a_cm, b_cm, a_rel, b_rel, level=1.0):
    """(value, capped): integral of f_cm(c) e^{i(a_cm c - b_cm c^2)} G(c^2/4) dc.

    G is _line_values at phase a_rel r - b_rel r^2; momenta in p0, N = 1,
    no kappa b^2/pi prefactor.  G is sampled at Chebyshev points in u and
    interpolated onto the c.m. grid: a dozen line integrals, not one per
    c.m. node.
    """
    cm = dist.cm_state
    cm_mean = cm.mean_p / dist.p0
    cm_sigma = cm.sigma_p / dist.p0
    lo = cm_mean - WINDOW_SIGMAS * cm_sigma
    hi = cm_mean + WINDOW_SIGMAS * cm_sigma
    u_hi = max(lo * lo, hi * hi) / 4.0
    u_lo = 0.0 if lo < 0.0 < hi else min(lo * lo, hi * hi) / 4.0
    u_width = (u_hi - u_lo) if u_hi > u_lo else 1.0

    # G oscillates in u with period 2 pi / kappa
    kappa = dist.kappa
    cycles = (u_hi - u_lo) * kappa / (2.0 * math.pi)
    n_u = int(math.ceil((math.ceil(7.0 * cycles) + 10) * level))
    k = np.arange(n_u)
    u_nodes = 0.5 * (u_lo + u_hi) + 0.5 * (u_hi - u_lo) * np.cos(
        math.pi * (2.0 * k + 1.0) / (2.0 * n_u)
    )
    g_vals, capped = _line_values(dist, u_nodes, a_rel, b_rel, level=level)
    x_norm = (2.0 * u_nodes - (u_lo + u_hi)) / u_width
    coef_re = np.polynomial.chebyshev.chebfit(x_norm, g_vals.real, n_u - 1)
    coef_im = np.polynomial.chebyshev.chebfit(x_norm, g_vals.imag, n_u - 1)

    span = _quadratic_span(a_cm, b_cm, lo, hi) + kappa * (u_hi - u_lo)
    n_c, hit = _node_count(span, level, MIN_NODES, MAX_NODES)
    gl_x, gl_w = _gauss_legendre(n_c)
    half = WINDOW_SIGMAS * cm_sigma
    c = cm_mean + half * gl_x
    xc = (2.0 * (c * c / 4.0) - (u_lo + u_hi)) / u_width
    g_interp = np.polynomial.chebyshev.chebval(xc, coef_re) + 1j * np.polynomial.chebyshev.chebval(
        xc, coef_im
    )
    f_cm = np.exp(-0.5 * ((c - cm_mean) / cm_sigma) ** 2) / (
        math.sqrt(2.0 * math.pi) * cm_sigma
    )
    phase = np.exp(1j * (a_cm * c - b_cm * c * c))
    return complex(np.dot(gl_w * half, f_cm * phase * g_interp)), capped or hit


def distribution_from_scenario(scenario: Scenario) -> FeshbachDistribution:
    """Canonical distribution for a scenario.

    p_bar^2 = m * mu * pulse_height (resonance passage depth) and
    delta_p^2 = 2 m hbar / pulse_duration (spectral width of one pulse);
    the c.m. mode is the molecular trap ground state.
    """
    c = scenario.constants
    m = scenario.species.atom_mass
    p0 = _p0_from_fields(scenario)
    p_bar = math.sqrt(m * scenario.resonance.moment_difference * scenario.pulses.pulse_height)
    delta_p = math.sqrt(2.0 * m * c.hbar / scenario.pulses.pulse_duration)
    cm_state = GaussianMode(mean_p=0.0, sigma_p=_sigma_p_cm_ground_state(scenario))
    return FeshbachDistribution(p0=p0, p_bar=p_bar, delta_p=delta_p, cm_state=cm_state)


def gaussian_approximation(
    dist: FeshbachDistribution,
    species: Species | None = None,
    trap_guide: TrapGuide | None = None,
) -> GaussianPair:
    """Gaussian pair matching the distribution's lobes.

    The relative mode keeps the pinned main-lobe width factor (the fit
    routine exists to validate it, not to replace it); sigma_p_rel =
    factor * delta_p^2 / (2 p0), which is the mass-free form of
    factor * m hbar / (p0 T).  The c.m. mode is taken from the
    distribution unless an explicit trap ground state is requested.
    """
    rel = GaussianMode(
        mean_p=dist.p0,
        sigma_p=SINC_WIDTH_FACTOR * dist.delta_p**2 / (2.0 * dist.p0),
    )
    if trap_guide is not None and species is not None:
        sigma_cm = math.sqrt(CONSTANTS.hbar * trap_guide.omega_trap * species.molecule_mass / 2.0)
        cm = GaussianMode(mean_p=dist.cm_state.mean_p, sigma_p=sigma_cm)
    else:
        cm = dist.cm_state
    return GaussianPair(cm=cm, rel=rel)


def fit_sinc_width_factor(dist: FeshbachDistribution, n_samples: int = 201) -> float:
    """Least-squares Gaussian width of the central momentum lobe.

    Samples the relative profile at p_cm = 0 on a uniform grid across
    the main lobe (|x| < pi), normalizes to the on-shell peak, and fits
    exp(-dp^2 / 2 sigma^2) with the amplitude pinned at one; returns the
    width as the dimensionless factor sigma * 2 kappa / p0, comparable
    to SINC_WIDTH_FACTOR.
    """
    from scipy.optimize import curve_fit

    kappa = dist.kappa
    r_lo = math.sqrt(1.0 - math.pi / kappa)
    r_hi = math.sqrt(1.0 + math.pi / kappa)
    r = np.linspace(r_lo, r_hi, n_samples)
    profile = dist.density(0.0, r * dist.p0)
    profile = profile / dist.density(0.0, dist.p0)
    dp = r - 1.0

    def model(x, sigma):
        return np.exp(-0.5 * (x / sigma) ** 2)

    sigma0 = SINC_WIDTH_FACTOR / (2.0 * kappa)
    (sigma_fit,), _ = curve_fit(model, dp, profile, p0=[sigma0])
    return float(abs(sigma_fit) * 2.0 * kappa)


def phi_tau(scenario: Scenario, wrap: bool = False) -> float:
    """Relative phase accumulated between the two dissociation branches.

    [2 U_T tau - mu dB T + mu (B_res - B_0) tau] / hbar + omega_G tau,
    reported unwrapped by default: drift budgets concern absolute phase
    change, not the principal value.
    """
    c = scenario.constants
    mu = scenario.resonance.moment_difference
    p = scenario.pulses
    g = scenario.trap_guide
    phase = (
        2.0 * g.trap_depth * p.pulse_separation
        - mu * p.pulse_height * p.pulse_duration
        + mu * (scenario.resonance.position - p.base_field) * p.pulse_separation
    ) / c.hbar + g.omega_guide * p.pulse_separation
    if wrap:
        phase = (phase + math.pi) % (2.0 * math.pi) - math.pi
    return phase


_STABILITY_PARAMS = (
    "base_field",
    "pulse_height",
    "resonance_position",
    "pulse_duration",
    "pulse_separation",
    "trap_depth",
)


@dataclass(frozen=True)
class StabilityReport:
    """Shot-to-shot phase drift budget.

    drifts: absolute phase drift per parameter, rad, for the supplied
        relative reproducibility of that parameter.
    sensitivities: d(phase)/d(parameter) in rad per SI unit.
    total: root-sum-square of the drifts (independent errors).
    budget: the drift allowance each parameter is compared against.
    passes: per-parameter drift <= budget.
    common_mode_field_drift: drift when base_field and resonance_position
        move together; identically zero because only their difference
        enters, included to document the cancellation.
    """

    drifts: dict
    sensitivities: dict
    relative_errors: dict
    total: float
    budget: float
    passes: dict
    common_mode_field_drift: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def phase_stability(
    scenario: Scenario,
    relative_errors: Mapping[str, float] | float = 1e-5,
    budget: float = PHASE_BUDGET,
) -> StabilityReport:
    """Propagate relative parameter errors into phase drift.

    ``relative_errors`` is either one number applied to every parameter
    or a mapping over base_field, pulse_height, resonance_position,
    pulse_duration, pulse_separation, trap_depth.  Absolute drift per
    parameter is |d(phase)/dx| * r * |x|; the total combines them in
    quadrature.
    """
    if isinstance(relative_errors, Mapping):
        unknown = set(relative_errors) - set(_STABILITY_PARAMS)
        if unknown:
            raise ValidationError(f"unknown stability parameters: {sorted(unknown)}")
        rel = {name: float(relative_errors.get(name, 0.0)) for name in _STABILITY_PARAMS}
    else:
        rel = {name: float(relative_errors) for name in _STABILITY_PARAMS}
    for name, r in rel.items():
        if r < 0.0 or not math.isfinite(r):
            raise ValidationError(f"relative error for {name} must be >= 0, got {r}")

    c = scenario.constants
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
        "base_field": -mu * tau / c.hbar,
        "pulse_height": -mu * p.pulse_duration / c.hbar,
        "resonance_position": mu * tau / c.hbar,
        "pulse_duration": -mu * p.pulse_height / c.hbar,
        "pulse_separation": (
            2.0 * g.trap_depth + mu * (scenario.resonance.position - p.base_field)
        ) / c.hbar + g.omega_guide,
        "trap_depth": 2.0 * tau / c.hbar,
    }
    drifts = {
        name: abs(sensitivities[name]) * rel[name] * abs(values[name])
        for name in _STABILITY_PARAMS
    }
    total = math.sqrt(sum(d * d for d in drifts.values()))
    passes = {name: drifts[name] <= budget for name in _STABILITY_PARAMS}
    common = abs(sensitivities["base_field"] + sensitivities["resonance_position"])
    return StabilityReport(
        drifts=drifts,
        sensitivities=sensitivities,
        relative_errors=rel,
        total=total,
        budget=budget,
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
    c = scenario.constants
    return (
        scenario.trap_guide.omega_guide
        * a_bg
        * scenario.resonance.moment_difference
        * scenario.resonance.width
        * c_tilde_norm_sq
        / (math.pi * c.hbar**2)
    )


def required_c_tilde_norm_sq(
    scenario: Scenario, n_molecules: int, target_mean: float = 1.0
) -> float:
    """||C~||^2 making n_molecules * yield equal target_mean dissociations."""
    if n_molecules < 1:
        raise ValidationError(f"n_molecules must be >= 1, got {n_molecules}")
    per_unit = dissociation_probability(scenario, 1.0)
    return target_mean / (n_molecules * per_unit)


@dataclass(frozen=True)
class DissociationSummary:
    distribution: FeshbachDistribution
    gaussians: GaussianPair
    phi_tau: float
    probability: float | None


def dissociation_summary(
    scenario: Scenario, c_tilde_norm_sq: float | None = None
) -> DissociationSummary:
    dist = distribution_from_scenario(scenario)
    prob = None
    if c_tilde_norm_sq is not None:
        prob = dissociation_probability(scenario, c_tilde_norm_sq)
    return DissociationSummary(
        distribution=dist,
        gaussians=gaussian_approximation(dist),
        phi_tau=phi_tau(scenario),
        probability=prob,
    )

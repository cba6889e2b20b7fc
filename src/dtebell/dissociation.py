"""Two-pulse dissociation at a narrow magnetic resonance.

Provides the joint momentum distribution of the atom pair (squared-sinc
interference of the two dissociation pulses times a Lorentzian resonance
factor and the trap ground-state profile), its Gaussian approximation,
the accumulated two-pulse phase and its stability budget, and the mean
dissociation yield.

numpy is imported inside the functions that build arrays: the
closed-form routes read phi_tau and the stability budget from here and
never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .scenario import (
    CONSTANTS,
    Scenario,
    Species,
    TimescaleSummary,
    ValidationError,
    _check_source_domain,
    _delta_p,
    _p0_from_fields,
    _p_bar,
    _sigma_p_cm_ground_state,
    _sigma_p_rel,
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


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the target accuracy; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@functools.cache
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
        for name in ("p0", "p_bar", "delta_p", "sigma_p_cm"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
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


# ---------------------------------------------------------------------------
# quadrature shared by the normalization and the correlation routes


def _converge(compute, estimate_for, target: float, level: float = 1.0, rate: bool = False):
    """Double the level until estimate_for(error) <= target.

    ``compute(level)`` returns (value, capped): capped means some node
    count is at its cap (_node_count), where doubling adds no nodes.
    ``error`` is the difference between the pass at ``level`` and the
    half-level pass.  With ``rate`` that difference is rate-corrected
    (_rate_corrected) when it misses the target on an uncapped pass; at
    the starting level this costs one quarter-level pass, after that the
    previous doubling supplies the rate.  Returns (value, estimate).  A
    capped half-level pass raises QuadratureError (estimate inf), as do
    a capped pass that misses the target and a pass past MAX_LEVEL times
    the starting level, so every accepted pass differs from its
    half-level pass in every node count.
    """
    ceiling = MAX_LEVEL * level
    coarse, capped = compute(0.5 * level)
    if capped:
        raise QuadratureError("half-level pass at the node-count cap", estimate=math.inf)
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


def _node_count(need, level: float, cap: int):
    """(nodes, capped): the power of two >= min(need, cap) * level, at most
    ``cap`` (itself a power of two); vectorised over ``need``.

    capped means nodes == cap: doubling the level adds no nodes.  Since
    the need is clipped before scaling, a pass at half a starting level
    >= 1 is never capped, and nodes(2 level) = min(2 nodes(level), cap).
    """
    import numpy as np

    mantissa, exponent = np.frexp(np.minimum(need, cap) * level)
    nodes = np.minimum(np.ldexp(1.0, exponent - (mantissa == 0.5)), cap).astype(int)
    return nodes, nodes == cap


def _window_integral(mean, sigma, a, b, level, floor, cap, extra_span=0.0, weight=None):
    """(value, capped): integral of N(x; mean, sigma) e^{i(a x - b x^2)} weight(x)
    over mean +- WINDOW_SIGMAS sigma.  The Gauss-Legendre rule needs 8 nodes
    per radian of phase range plus ``extra_span`` (what ``weight`` adds),
    at least ``floor``, and _node_count sizes it at ``level``."""
    import numpy as np

    half = WINDOW_SIGMAS * sigma
    span = _quadratic_span(a, b, mean - half, mean + half) + extra_span
    n, capped = _node_count(max(math.ceil(8.0 * span), floor), level, cap)
    gl_x, gl_w = _gauss_legendre(int(n))
    x = mean + half * gl_x
    dens = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    integrand = dens * np.exp(1j * (a * x - b * x * x))
    if weight is not None:
        integrand = integrand * weight(x)
    return complex(np.dot(gl_w * half, integrand)), bool(capped)


def _line_values(dist: FeshbachDistribution, u, a_lin: float, b_quad: float, level=1.0, r_cut=None):
    """(values, capped): per u, 2 * integral over r > 0 of K(u, r) e^{i(a r - b r^2)} dr.

    K is the scaled sinc^2 kernel; the 2 folds the mirror particle-label
    branch onto the detector frame.  Panels follow the sinc zeros; node
    counts (_node_count) follow each panel's worst phase excursion over
    all rows, and capped means some panel is at PANEL_NODE_CAP.  The (u,
    panel, node) tensor is summed U_ROWS_PER_BLOCK rows at a time.  Rows
    sum independently, so the bits do not change, except in a one-row
    block: a lone trailing row joins the block before it.

    With ``r_cut`` (from _tail_cut) the integral stops at r = r_cut:
    panel edges are clipped there and panels wholly above it are not
    evaluated.  Without it the line runs to the truncation edge r_hi.
    """
    import numpy as np

    u = np.atleast_1d(np.asarray(u, dtype=float))
    edges = dist.rel_panel_edges(u)
    if r_cut is not None:
        # edges ascend along each row, so the kept panels are a prefix
        kept = int((edges[:, :-1] < r_cut).any(axis=0).sum())
        edges = np.minimum(edges[:, : kept + 1], r_cut)
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
    buckets, capped = _node_count(np.ceil(0.7 * span) + 12, level, PANEL_NODE_CAP)

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
    return result, bool(capped.any())


def _cm_window(dist: FeshbachDistribution):
    """(u_hi, rows): the c.m. window c = p_cm/p0 in [-WINDOW_SIGMAS sigma,
    WINDOW_SIGMAS sigma] spans u = c^2/4 in [0, u_hi]; rows is the number
    of Chebyshev rows in u per unit level."""
    half = WINDOW_SIGMAS * (dist.sigma_p_cm / dist.p0)
    u_hi = half * half / 4.0
    # G oscillates in u with period 2 pi / kappa
    cycles = u_hi * dist.kappa / (2.0 * math.pi)
    return u_hi, math.ceil(7.0 * cycles) + 10


def _tail_cut(dist: FeshbachDistribution, a: float, b: float, level=1.0):
    """(R or None, bound): where the line integrals of a pass at ``level``
    stop for the phase a r - b r^2, and what stopping costs the
    interference value (normalized, kappa b^2/pi prefactor included).

    With sinc^2 x = (1 - cos 2x)/(2 x^2) the integrand is a sum of
    h(r) e^{i psi_j(r)}, weights 1, 1/2, 1/2, where h = 1/(2 x^2 (x/kappa
    + b_env)^2) and psi_j = a r - b r^2 + {0, +2x, -2x}; each psi_j' is
    linear in r.  Past an R where x > 0 and every |psi_j'| is nonzero
    and nondecreasing, h/|psi_j'| decreases and integration by parts
    gives |integral from R of h e^{i psi_j}| <= 2 h(R)/|psi_j'(R)|
    (non-stationary phase; Stein, Harmonic Analysis, 1993, ch. VIII).
    psi_j' does not depend on u and h is largest at u = 0, the window's
    lower end, so that row bounds every row.  The label fold (2), the
    prefactor N kappa b_env^2/pi and the Lebesgue constant (2/pi)
    ln(n + 1) + 1 of the pass's n Chebyshev rows in u carry it to the
    interference value; the c.m. weights sum to the Gaussian's window
    mass, one to rounding.

    R is the smallest admissible radius whose bound is at most an eighth
    of tail_bound(), so every pass, at any level, stays within that
    eighth: it is the returned ``bound`` whenever the phase admits a cut,
    even where this level's bound at r_hi misses it and R is None.  With
    no admissible radius (for example at zero phase) nothing is cut and
    the result is (None, 0.0).
    """
    kappa, b_env = dist.kappa, dist.b
    _, rows = _cm_window(dist)
    r_lo = 1.0  # x > 0 above it
    slopes = (-2.0 * b, -2.0 * b + 4.0 * kappa, -2.0 * b - 4.0 * kappa)
    for slope in slopes:
        if slope == 0.0:
            if a == 0.0:
                return None, 0.0
        else:
            # |a + slope r| grows from zero at r = -a/slope on
            r_lo = max(r_lo, -a / slope)
    r_hi = dist.r_hi()
    if r_lo >= r_hi:
        return None, 0.0

    lebesgue = 2.0 / math.pi * math.log(math.ceil(rows * level) + 1.0) + 1.0
    # 4: the label fold times the 2 of integration by parts
    scale = 4.0 * dist.normalization * kappa * b_env**2 / math.pi * lebesgue

    def bound(r):
        x = kappa * (r * r - 1.0)
        h = 1.0 / (2.0 * x * x * (x / kappa + b_env) ** 2)
        weighted = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
        for w, s in zip((1.0, 0.5, 0.5), slopes):
            weighted += w / abs(a + s * r)
        return scale * h * weighted

    target = 0.125 * dist.tail_bound()
    if bound(r_hi) > target:
        return None, target
    # the bound decreases on (r_lo, r_hi]: bisect for its smallest passing radius
    for _ in range(64):
        mid = 0.5 * (r_lo + r_hi)
        if not r_lo < mid < r_hi:
            break
        if bound(mid) <= target:
            r_hi = mid
        else:
            r_lo = mid
    return r_hi, target


def _pair_integral(dist, a_cm, b_cm, a_rel, b_rel, level=1.0):
    """(value, capped): integral of f_cm(c) e^{i(a_cm c - b_cm c^2)} G(c^2/4) dc.

    G is _line_values at phase a_rel r - b_rel r^2, cut where _tail_cut
    allows; momenta in p0, N = 1, no kappa b^2/pi prefactor.  G is
    sampled at Chebyshev points in u and interpolated onto the c.m.
    grid: a dozen line integrals, not one per c.m. node.
    """
    import numpy as np

    u_hi, rows = _cm_window(dist)

    n_u = int(math.ceil(rows * level))
    k = np.arange(n_u)
    u_nodes = 0.5 * u_hi + 0.5 * u_hi * np.cos(math.pi * (2.0 * k + 1.0) / (2.0 * n_u))
    r_cut, _ = _tail_cut(dist, a_rel, b_rel, level)
    g_vals, capped = _line_values(dist, u_nodes, a_rel, b_rel, level, r_cut)
    cheb = np.polynomial.chebyshev
    x_norm = (2.0 * u_nodes - u_hi) / u_hi
    coef_re = cheb.chebfit(x_norm, g_vals.real, n_u - 1)
    coef_im = cheb.chebfit(x_norm, g_vals.imag, n_u - 1)

    def g_interp(c):
        xc = (2.0 * (c * c / 4.0) - u_hi) / u_hi
        return cheb.chebval(xc, coef_re) + 1j * cheb.chebval(xc, coef_im)

    value, hit = _window_integral(
        0.0, dist.sigma_p_cm / dist.p0, a_cm, b_cm, level, MIN_NODES, MAX_NODES,
        dist.kappa * u_hi, g_interp,
    )
    return value, capped or hit


def distribution_from_scenario(scenario: Scenario) -> FeshbachDistribution:
    """Canonical distribution for a scenario.

    p_bar^2 = m * mu * pulse_height (resonance passage depth) and
    delta_p^2 = 2 m hbar / pulse_duration (spectral width of one pulse);
    the c.m. width is that of the molecular trap ground state.
    """
    return FeshbachDistribution(
        p0=_p0_from_fields(scenario),
        p_bar=_p_bar(scenario),
        delta_p=_delta_p(scenario),
        sigma_p_cm=_sigma_p_cm_ground_state(scenario),
    )


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
    drifts = {
        name: abs(sensitivities[name]) * r * abs(values[name])
        for name in _STABILITY_PARAMS
    }
    square_sum = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
    for d in drifts.values():
        square_sum += d * d
    total = math.sqrt(square_sum)
    passes = {name: drifts[name] <= PHASE_BUDGET for name in _STABILITY_PARAMS}
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

"""The quadrature engine: node, level and window policy, the doubling
loop, the Gaussian window and sinc^2 line integrals, and the interference
integral of a DtePair.  dissociation normalizes with its zero-phase pair
integral; correlation turns its passes into an error estimate.  numpy is
imported inside the functions that build arrays; the Gauss-Legendre rules
are read from the bundled table data/gauss_legendre.npy.
"""

from __future__ import annotations

import functools
import math
from importlib import resources

from .scenario import CONSTANTS, TimescaleSummary, _require_positive

# c^2/4 rows per block of the sinc^2 line tensor (see _line_values)
U_ROWS_PER_BLOCK = 2
# c.m. window half-width in sigmas; node bounds of a window integral and
# of one sinc^2 panel
WINDOW_SIGMAS = 8.5
MIN_NODES = 32
MAX_NODES = 4096
PANEL_NODE_CAP = 8192
# a doubling loop stops at MAX_LEVEL times its starting level
MAX_LEVEL = 8.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the target accuracy; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@functools.cache
def _legendre_table():
    """data/gauss_legendre.npy, read once: row 0 nodes, row 1 weights, the
    n-node rule (n = 1, 2, 4, ..., PANEL_NODE_CAP) in columns n-1 ... 2n-2."""
    import numpy as np

    with resources.files("dtebell").joinpath("data/gauss_legendre.npy").open("rb") as handle:
        table = np.load(handle)
    table.flags.writeable = False
    return table


@functools.cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only.

    The rules are scipy.special.roots_legendre's, bit for bit, stored as
    a table (tests/gauss_legendre_table.py rebuilds it), so no output
    depends on the installed scipy.  Only powers of two up to
    PANEL_NODE_CAP are stored, which is all _node_count asks for.
    """
    table = _legendre_table()
    if not (0 < n and n & (n - 1) == 0 and 2 * n - 1 <= table.shape[1]):
        raise ValueError(f"no {n}-node Gauss-Legendre rule in the table")
    return table[0, n - 1 : 2 * n - 1], table[1, n - 1 : 2 * n - 1]


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
    at least ``floor``; _node_count sizes it at ``level``, clipped to ``cap``."""
    import numpy as np

    half = WINDOW_SIGMAS * sigma
    span = _quadratic_span(a, b, mean - half, mean + half) + extra_span
    n, capped = _node_count(max(math.ceil(min(cap, 8.0 * span)), floor), level, cap)
    gl_x, gl_w = _gauss_legendre(int(n))
    x = mean + half * gl_x
    dens = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    integrand = dens * np.exp(1j * (a * x - b * x * x))
    if weight is not None:
        integrand = integrand * weight(x)
    return complex(np.dot(gl_w * half, integrand)), bool(capped)


def _line_values(dist, u, a_lin: float, b_quad: float, level=1.0, r_cut=None):
    """(values, capped): per u, 2 * integral over r > 0 of K(u, r) e^{i(a r - b r^2)} dr.

    K is the scaled kernel of the FeshbachDistribution ``dist``; the 2 folds
    the mirror particle-label branch onto the detector frame.  Panels follow
    the sinc zeros; node counts (_node_count) follow each panel's worst
    phase excursion over all rows, and capped means some panel is at
    PANEL_NODE_CAP.  The (u, panel, node) tensor is summed U_ROWS_PER_BLOCK
    rows at a time.  Rows sum independently, so the bits do not change,
    except in a one-row block: a lone trailing row joins the block before it.

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


def _cm_window(dist):
    """(u_hi, rows): the c.m. window c = p_cm/p0 in [-WINDOW_SIGMAS sigma,
    WINDOW_SIGMAS sigma] spans u = c^2/4 in [0, u_hi]; rows is the number
    of Chebyshev rows in u per unit level."""
    half = WINDOW_SIGMAS * (dist.sigma_p_cm / dist.p0)
    u_hi = half * half / 4.0
    # G oscillates in u with period 2 pi / kappa
    cycles = u_hi * dist.kappa / (2.0 * math.pi)
    return u_hi, math.ceil(7.0 * cycles) + 10


def _tail_cut(dist, a: float, b: float, level=1.0):
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
    _require_positive("internal mass m hbar/(p0^2 tau)", m_int)
    return m_int, (ell1 + ell2) / length, (ell1 - ell2) / length


def _gaussian_interference(scales, p_ref, m_int, sl_int, dl_int, level=1.0):
    """Interference integral for the separable Gaussian pair of ``scales``
    (c.m. mean 0, relative mean p0_rel), internal units (momenta in p_ref).

    ``level`` scales every node count; returns (value, capped) where
    capped means some factor's node count sits at MAX_NODES, so raising
    the level further adds no nodes there.
    """

    def factor(mean_p, sigma_p, a, b):
        return _window_integral(
            mean_p / p_ref, sigma_p / p_ref, a, b, level, MIN_NODES, MAX_NODES
        )

    i_cm, cm_capped = factor(0.0, scales.sigma_p_cm, 0.5 * sl_int, 1.0 / (4.0 * m_int))
    i_rel, rel_capped = factor(scales.p0_rel, scales.sigma_p_rel, dl_int, 1.0 / m_int)
    return i_cm * i_rel, cm_capped or rel_capped


def _feshbach_interference(dist, m_int, sl_int, dl_int, level=1.0):
    """Interference integral for the squared-sinc source, internal units;
    returns (value, capped)."""
    value, capped = _pair_integral(
        dist, 0.5 * sl_int, 1.0 / (4.0 * m_int), dl_int, 1.0 / m_int, level
    )
    pref = dist.normalization * dist.kappa * dist.b**2 / math.pi
    return pref * value, capped


def _interference(pair, ell1: float, ell2: float):
    """(compute, tail): compute(level) is one (value, capped) pass of the pair's
    interference integral at ell1, ell2; tail bounds what no pass integrates."""
    dist = pair.distribution
    gaussian = isinstance(dist, TimescaleSummary)
    p_ref = dist.p0_rel if gaussian else dist.p0
    m_int, sl_int, dl_int = _internal_units(p_ref, pair.tau, pair.species.atom_mass, ell1, ell2)
    if gaussian:
        return (
            lambda level: _gaussian_interference(dist, p_ref, m_int, sl_int, dl_int, level),
            2.0 * math.erfc(WINDOW_SIGMAS / math.sqrt(2.0)),
        )
    return (
        lambda level: _feshbach_interference(dist, m_int, sl_int, dl_int, level),
        dist.tail_bound() + _tail_cut(dist, dl_int, 1.0 / m_int)[1],
    )

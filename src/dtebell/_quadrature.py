"""The quadrature engine: node, level and window policy, the doubling
loop, the Gaussian window and sinc^2 line integrals, and the interference
integral of a DtePair.  dissociation normalizes with _raw_mass, the
zero-phase pair integral, whose lines stop at _tail_cut's radius and add
the kernel's smooth mean past it; correlation turns its passes into an
error estimate.  numpy is imported inside the functions that build
arrays; the Gauss-Legendre rules are read from the bundled table
data/gauss_legendre.npy, once.  Every rule's size comes from
_node_count.  A window integral's grid depends only on (mean, sigma, b,
nodes), which a scan holds fixed for all its rows, so _window_grid keeps
it in a small bounded cache.
"""

from __future__ import annotations

import functools
import math
from importlib import resources

from .scenario import CONSTANTS, TimescaleSummary, _require_positive

# c.m. window half-width in sigmas; a window integral's node floor, and
# its nodes per radian of phase range: Gauss-Legendre resolves about 0.5
# (Hale & Trefethen 2008, SIAM J. Numer. Anal. 46, 930), so both passes of
# the doubling loop are converged and their difference is rounding.  The
# floor holds a window with little phase, a bare +-8.5 sigma Gaussian: the
# floor's half, 32 nodes, misses 3e-11 of its mass (16 nodes: 1.5e-3)
WINDOW_SIGMAS = 8.5
MIN_NODES = 64
WINDOW_NODES_PER_RADIAN = 4.0
# every rule's node cap: the largest rule in data/gauss_legendre.npy
NODE_CAP = 8192
# a doubling loop starts at level 1 and stops at MAX_LEVEL
MAX_LEVEL = 8.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the target accuracy; carries the estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@functools.cache
def _legendre_table():
    """data/gauss_legendre.npy, read once: row 0 nodes, row 1 weights, the
    n-node rule (n = 1, 2, 4, ..., NODE_CAP) in columns n-1 ... 2n-2."""
    import numpy as np

    with resources.files("dtebell").joinpath("data/gauss_legendre.npy").open("rb") as handle:
        table = np.load(handle)
    table.flags.writeable = False
    return table


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only views of
    the cached _legendre_table.

    The rules are scipy.special.roots_legendre's, bit for bit, stored as
    a table (tests/gauss_legendre_table.py rebuilds it), so no output
    depends on the installed scipy.  Only powers of two up to NODE_CAP
    are stored, which is all _node_count asks for.
    """
    table = _legendre_table()
    if not (0 < n and n & (n - 1) == 0 and 2 * n - 1 <= table.shape[1]):
        raise ValueError(f"no {n}-node Gauss-Legendre rule in the table")
    return table[0, n - 1 : 2 * n - 1], table[1, n - 1 : 2 * n - 1]


def _converge(compute, estimate_for, target: float):
    """Double the level from 1 until estimate_for(error) <= target.

    ``compute(level)`` returns (value, capped): capped means some node
    count is at its cap (_node_count), where doubling adds no nodes.
    ``error`` is the difference between the pass at ``level`` and the
    half-level pass.  Every rule is sized so that its level-0.5 pass has
    converged too (MIN_NODES, _cm_window), so the difference is measured
    between two converged passes, not extrapolated from a coarse one.
    Returns (value, estimate).  A capped half-level pass raises
    QuadratureError (estimate inf), as do a capped pass that misses the
    target and a pass at MAX_LEVEL that misses it, so every accepted pass
    differs from its half-level pass in every node count.
    """
    level = 1.0
    coarse, capped = compute(0.5)
    if capped:
        raise QuadratureError("half-level pass at the node-count cap", estimate=math.inf)
    fine, capped = compute(level)
    while True:
        estimate = estimate_for(abs(fine - coarse))
        if estimate <= target:
            return fine, estimate
        if capped or level >= MAX_LEVEL:
            raise QuadratureError(
                f"quadrature error estimate {estimate:.3e} exceeds {target:.0e} "
                "at the node-count ceiling",
                estimate=estimate,
            )
        level *= 2.0
        coarse = fine
        fine, capped = compute(level)


def _quadratic_span(a: float, b: float, lo: float, hi: float) -> float:
    """max-min of a*x - b*x^2 on [lo, hi]."""
    values = [a * lo - b * lo * lo, a * hi - b * hi * hi]
    if b != 0.0:
        vertex = a / (2.0 * b)
        if lo < vertex < hi:
            values.append(a * vertex - b * vertex * vertex)
    return max(values) - min(values)


def _node_count(need, level: float) -> tuple[int, bool]:
    """(nodes, capped): the power of two >= min(need, NODE_CAP) * level,
    at least 1 and at most NODE_CAP (itself a power of two).

    capped means nodes == NODE_CAP: doubling the level adds no nodes; a
    scaled need that overflows (or is nan) is capped.  Since the need is
    clipped before scaling, a pass at half a starting level >= 1 is never
    capped, and where the scaled need is at least 1, nodes(2 level) =
    min(2 nodes(level), NODE_CAP).  This is the one node-count rule:
    every window and every sinc^2 panel calls it with a Python scalar need.
    """
    scaled = min(need, NODE_CAP) * level
    if not scaled < NODE_CAP:
        return NODE_CAP, True
    mantissa, exponent = math.frexp(scaled)
    nodes = max(int(math.ldexp(1.0, exponent - (mantissa == 0.5))), 1)
    return nodes, nodes == NODE_CAP


@functools.lru_cache(maxsize=32)
def _window_grid(mean, sigma, b, n: int):
    """(x, weights) of the n-node rule on mean +- WINDOW_SIGMAS sigma: the
    nodes x and the complex weights w N(x; mean, sigma) e^{-i b x^2}, with
    w the scaled Gauss-Legendre weights, cached and read-only.

    Within a scan the pair and tau fix (mean, sigma, b), and n takes a
    handful of values.  32 entries of at most NODE_CAP nodes, 8 bytes of
    x and 16 of weight each, hold at most 32 * 8192 * 24 bytes = 6 MiB.
    """
    import numpy as np

    gl_x, gl_w = _gauss_legendre(n)
    half = WINDOW_SIGMAS * sigma
    x = mean + half * gl_x
    dens = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    weights = gl_w * half * dens * np.exp(-1j * (b * x * x))
    for array in (x, weights):
        array.flags.writeable = False
    return x, weights


def _window_need(mean, sigma, a, b, extra_span=0.0) -> int:
    """A window's node need at level 1: WINDOW_NODES_PER_RADIAN per radian
    of the phase range a x - b x^2 over mean +- WINDOW_SIGMAS sigma, plus
    ``extra_span`` (what a weight adds), at least MIN_NODES."""
    half = WINDOW_SIGMAS * sigma
    span = _quadratic_span(a, b, mean - half, mean + half) + extra_span
    return max(math.ceil(min(NODE_CAP, WINDOW_NODES_PER_RADIAN * span)), MIN_NODES)


def _window_integral(mean, sigma, a, b, level, need, weight=None):
    """(value, capped): integral of N(x; mean, sigma) e^{i(a x - b x^2)} weight(x)
    over mean +- WINDOW_SIGMAS sigma on the rule _node_count sizes from
    ``need`` (_window_need's) at ``level``.  A call computes only e^{i a x},
    ``weight`` and one dot product with the cached _window_grid's weights."""
    import numpy as np

    n, capped = _node_count(need, level)
    x, weights = _window_grid(mean, sigma, b, n)
    integrand = np.exp(x * (1j * a))
    if weight is not None:
        integrand = integrand * weight(x)
    return complex(np.dot(weights, integrand)), capped


def _line_values(dist, u, a_lin: float, b_quad: float, level=1.0, r_cut=None):
    """(values, capped): per u, 2 * integral over r > 0 of K(u, r) e^{i(a r - b r^2)} dr.

    K is the scaled kernel of the FeshbachDistribution ``dist``; the 2 folds
    the mirror particle-label branch onto the detector frame.  Panels follow
    the sinc zeros; node counts (_node_count) follow each panel's worst
    phase excursion over all rows, and capped means some panel is at
    NODE_CAP.  Each node bucket's (panel, node) work arrays are allocated
    once and reused for every u row, one row at a time, so the rows of a
    call fault in no fresh pages.

    With ``r_cut`` (from _tail_cut) the full kernel stops at r = r_cut:
    only the panels below it are built, their edges clipped there.
    Without it the line runs to the truncation edge r_hi(u).
    At zero phase (a = b = 0) a cut line adds the smooth mean of the
    kernel from r_cut to r_hi(u) (_mean_tail); only the oscillating
    remainder, which _tail_cut bounds, is left out.
    """
    import numpy as np

    u = np.atleast_1d(np.asarray(u, dtype=float))
    edges = dist.rel_panel_edges(u, r_cut)
    result = np.zeros(len(u), dtype=complex)
    if r_cut is not None:
        if a_lin == 0.0 and b_quad == 0.0:
            result += _mean_tail(dist, u, r_cut, level)
        edges = np.minimum(edges, r_cut)
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
    needs = np.ceil(0.7 * (top - bot).max(axis=0)) + 12
    counts = [_node_count(need, level) for need in needs.tolist()]
    buckets = np.array([nodes for nodes, _ in counts], dtype=int)

    half_width = 0.5 * (hi_e - lo_e)
    mid = 0.5 * (lo_e + hi_e)
    for size in sorted(set(buckets.tolist())):  # np.unique would load numpy.ma
        sel = buckets == size
        gl_x, gl_w = _gauss_legendre(size)
        shape = (int(sel.sum()), size)
        r, kern, work = np.empty(shape), np.empty(shape), np.empty(shape)
        osc = np.empty(shape, dtype=complex)
        re, im = osc.real, osc.imag
        for row in range(len(u)):
            half = half_width[row, sel]
            # r = mid + half x and the kernel and phase of r
            np.multiply(half[:, None], gl_x, out=r)
            np.add(mid[row, sel][:, None], r, out=r)
            dist._scaled_kernel(u[row], r, out=(kern, work))
            np.multiply(r, b_quad, out=re)
            re *= r
            np.multiply(r, a_lin, out=im)
            im -= re  # the phase a r - b r^2
            re.fill(0.0)
            np.exp(osc, out=osc)
            osc *= 2.0
            np.multiply(kern, osc, out=osc)
            osc *= gl_w
            result[row] += (osc.sum(axis=1) * half).sum()
    return result, any(capped for _, capped in counts)


def _mean_tail(dist, u, r_lo, level):
    """Per u, 2 * integral from r_lo to r_hi(u) of h = 1/(2 x^2 (x/kappa + b)^2),
    the mean of the scaled kernel sinc^2 x/(x/kappa + b)^2 = h (1 - cos 2x).

    h is smooth and decreasing for x > 0, so its panels ignore the sinc
    zeros: geometric, at most a factor 2 wide, each with a rule of need
    16 sized by _node_count at ``level``.  Its poles, x = 0 and x/kappa =
    -b, lie off the panels (x > 0 past a cut), so the rules converge
    geometrically; the doubling loop checks them with the rest of the pass.
    """
    import numpy as np

    ratio = np.maximum(dist.r_hi_at(u), r_lo) / r_lo
    n_panels = max(math.ceil(math.log2(float(ratio.max()))), 1)
    edges = r_lo * ratio[:, None] ** (np.arange(n_panels + 1) / n_panels)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    n, _ = _node_count(16, level)
    gl_x, gl_w = _gauss_legendre(n)
    r = (0.5 * (edges[:, 1:] + edges[:, :-1]))[:, :, None] + half[:, :, None] * gl_x
    s = u[:, None, None] + r * r - 1.0  # x/kappa
    h = 1.0 / (2.0 * (dist.kappa * s) ** 2 * (s + dist.b) ** 2)
    return 2.0 * ((h * gl_w).sum(axis=2) * half).sum(axis=1)


def _cm_window(dist):
    """(u_hi, rows): the c.m. window c = p_cm/p0 in [-WINDOW_SIGMAS sigma,
    WINDOW_SIGMAS sigma] spans u = c^2/4 in [0, u_hi]; rows is the number
    of Chebyshev rows in u per unit level: the first-kind points at which
    _pair_integral samples G and interpolates it exactly.

    G oscillates in u with period 2 pi / kappa.  Chebyshev interpolation
    needs about pi rows per cycle plus a constant (Trefethen 2013,
    Approximation Theory and Approximation Practice, ch. 8).  The
    level-0.5 pass must converge too, so it gets 7 rows per cycle plus 7:
    interference values within 1.5 envelope widths of the bundled centre
    need 8, 20, 43 and 68 rows for 1e-7 in P at kappa u_hi = 1.7, 11.2, 33
    and 58.7, where that pass holds 9, 20, 44 and 73.
    """
    half = WINDOW_SIGMAS * (dist.sigma_p_cm / dist.p0)
    u_hi = half * half / 4.0
    cycles = u_hi * dist.kappa / (2.0 * math.pi)
    return u_hi, math.ceil(14.0 * cycles) + 14


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

    At zero phase, the normalization's raw integral, the weight-1 term
    does not oscillate: _line_values integrates its smooth mean past R,
    so R and the bound come from the two +-2x terms (slopes +-4 kappa)
    alone, scaled at N = 1: the normalization is that integral, so
    reading it here would recurse.

    R is the smallest admissible radius whose bound is at most an eighth
    of tail_bound(), so every pass, at any level, stays within that
    eighth: it is the returned ``bound`` whenever the phase admits a cut,
    even where this level's bound at r_hi misses it and R is None.  With
    no admissible radius (for example a stationary point past r_hi)
    nothing is cut and the result is (None, 0.0).
    """
    kappa, b_env = dist.kappa, dist.b
    _, rows = _cm_window(dist)
    r_lo = 1.0  # x > 0 above it
    terms = [(0.5, -2.0 * b + 4.0 * kappa), (0.5, -2.0 * b - 4.0 * kappa)]
    if a == 0.0 and b == 0.0:
        norm = 1.0
    else:
        terms.insert(0, (1.0, -2.0 * b))
        norm = dist.normalization
    for _, slope in terms:
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
    scale = 4.0 * norm * kappa * b_env**2 / math.pi * lebesgue

    def bound(r):
        x = kappa * (r * r - 1.0)
        h = 1.0 / (2.0 * x * x * (x / kappa + b_env) ** 2)
        weighted = 0.0  # a plain loop: sum() rounds differently from Python 3.12 on
        for w, s in terms:
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


def _chebyshev_coefficients(values):
    """Chebyshev coefficients of the degree n - 1 polynomial through the n
    ``values`` at the first-kind points x_k = cos(pi (2k + 1)/(2n)): the
    DCT-II sum c_j = (2/n) sum_k values_k T_j(x_k), c_0 halved (Trefethen
    2013, Approximation Theory and Approximation Practice, ch. 3).  Each
    T_j(x_k) = cos(pi m/(2n)) takes the exact integer m = j (2k + 1) mod 4n."""
    import numpy as np

    n = len(values)
    j = np.arange(n)
    basis = np.cos(np.outer(j, 2 * j + 1) % (4 * n) * (math.pi / (2 * n)))
    coef = (basis * values).sum(axis=1) * (2.0 / n)
    coef[0] *= 0.5
    return coef


def _chebyshev_values(coef, x):
    """sum_j coef_j T_j(x) on the array x in [-1, 1], at least two
    coefficients, by Clenshaw's recurrence in the form numpy's chebval uses."""
    x2 = 2.0 * x
    c0, c1 = coef[-2], coef[-1]
    for c in coef[-3::-1]:
        c0, c1 = c - c1, c0 + c1 * x2
    return c0 + c1 * x


def _pair_integral(dist, a_cm, b_cm, a_rel, b_rel, level=1.0):
    """(value, capped): integral of f_cm(c) e^{i(a_cm c - b_cm c^2)} G(c^2/4) dc.

    G is _line_values at phase a_rel r - b_rel r^2, cut where _tail_cut
    allows; momenta in p0, N = 1, no kappa b^2/pi prefactor.  G is
    sampled at the first-kind Chebyshev points in u and carried onto the
    c.m. grid by the exact interpolant through those samples
    (_chebyshev_coefficients, _chebyshev_values): a dozen line integrals,
    not one per c.m. node, and no least-squares fit.
    """
    import numpy as np

    u_hi, rows = _cm_window(dist)

    n_u = int(math.ceil(rows * level))
    k = np.arange(n_u)
    u_nodes = 0.5 * u_hi + 0.5 * u_hi * np.cos(math.pi * (2.0 * k + 1.0) / (2.0 * n_u))
    r_cut, _ = _tail_cut(dist, a_rel, b_rel, level)
    g_vals, capped = _line_values(dist, u_nodes, a_rel, b_rel, level, r_cut)
    coef = _chebyshev_coefficients(g_vals)

    def g_interp(c):
        return _chebyshev_values(coef, (2.0 * (c * c / 4.0) - u_hi) / u_hi)

    sigma = dist.sigma_p_cm / dist.p0
    need = _window_need(0.0, sigma, a_cm, b_cm, dist.kappa * u_hi)
    value, hit = _window_integral(0.0, sigma, a_cm, b_cm, level, need, g_interp)
    return value, capped or hit


def _raw_mass(dist, target: float):
    """(raw, estimate): the source's integral at N = 1, the zero-phase pair
    integral with the kappa b^2/pi prefactor, doubled by _converge until
    its pass difference plus the charge of the zero-phase tail cut
    (_tail_cut) is at most ``target``.  The estimate carries that charge;
    the truncation beyond r_hi (tail_bound) is the caller's.
    """
    pref = dist.kappa * dist.b**2 / math.pi
    _, cut = _tail_cut(dist, 0.0, 0.0)

    def compute(level):
        value, capped = _pair_integral(dist, 0.0, 0.0, 0.0, 0.0, level)
        return pref * value.real, capped

    return _converge(compute, lambda error: error + cut, target)


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


def _gaussian_interference(cm, rel, needs, level):
    """(value, capped): one pass of the separable Gaussian pair's interference
    integral, the product of its c.m. and relative window integrals, whose
    (mean, sigma, a, b) are ``cm`` and ``rel`` and whose _window_need ``needs``."""
    i_cm, cm_capped = _window_integral(*cm, level, needs[0])
    i_rel, rel_capped = _window_integral(*rel, level, needs[1])
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
    if gaussian:  # c.m. and relative windows (momenta in p0_rel), sized once for every pass
        cm = (0.0, dist.sigma_p_cm / p_ref, 0.5 * sl_int, 1.0 / (4.0 * m_int))
        rel = (dist.p0_rel / p_ref, dist.sigma_p_rel / p_ref, dl_int, 1.0 / m_int)
        needs = _window_need(*cm), _window_need(*rel)
        return (
            lambda level: _gaussian_interference(cm, rel, needs, level),
            2.0 * math.erfc(WINDOW_SIGMAS / math.sqrt(2.0)),
        )
    return (
        lambda level: _feshbach_interference(dist, m_int, sl_int, dl_int, level),
        dist.tail_bound() + _tail_cut(dist, dl_int, 1.0 / m_int)[1],
    )

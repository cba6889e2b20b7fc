"""Test-only reference models.

A spin-1/2 singlet-style correlator: its CHSH value at the textbook
angles is exactly 2*sqrt(2), which makes it the oracle for the CHSH and
Monte Carlo machinery.  A spin setting is an InterferometerSetting whose
``ell`` is read as the analyzer angle in radians; ``theta`` is ignored.

An uncached Gaussian window integral: the oracle the cached
_quadrature._window_integral must match bit for bit.

The sinc^2 line values as one (u, panel, node) tensor per node bucket:
the oracle the row-at-a-time _quadrature._line_values must match bit for
bit.

One quadrature pass at a chosen level, as probabilities: a finer
reference for what correlate_quadrature returns.

The rows of `dtebell scan`, rebuilt cell by cell from the correlate_*
routes: the oracle of the CLI's scan emitter.

The fields of a package record, and a copy with some of them changed:
what dataclasses.fields and dataclasses.replace give, read from the
record's ``__match_args__``.
"""

import math

from dtebell._quadrature import (
    WINDOW_NODES_PER_RADIAN,
    WINDOW_SIGMAS,
    _gauss_legendre,
    _interference,
    _node_count,
    _quadratic_span,
)
from dtebell.bell import ChshSettings
from dtebell.cli import RESULT_COLUMNS, _format_cell
from dtebell.correlation import (
    SIGN_PAIRS,
    CorrelationResult,
    DtePair,
    InterferometerSetting,
    QuadratureError,
    _result_from_interference,
    correlate_closed_form,
    correlate_quadrature,
)
from dtebell.dissociation import phi_tau
from dtebell.scenario import ValidationError, scales_from_scenario


def record_fields(record) -> dict:
    """Field name -> value of a package record, in field order."""
    return {name: getattr(record, name) for name in record.__match_args__}


def replace(record, **changes):
    """A new record of the same class with ``changes``; __post_init__ runs."""
    return type(record)(**{**record_fields(record), **changes})


def spin_correlation(x: InterferometerSetting, y: InterferometerSetting) -> CorrelationResult:
    """P(s1, s2) = {1 + s1 s2 cos(phi1 - phi2)}/4 with phi1 = x.ell, phi2 = y.ell."""
    e = math.cos(x.ell - y.ell)
    p = {(s1, s2): 0.25 * (1.0 + s1 * s2 * e) for s1 in (1, -1) for s2 in (1, -1)}
    e_value = p[(1, 1)] - p[(1, -1)] - p[(-1, 1)] + p[(-1, -1)]
    return CorrelationResult(
        p=p, e_value=e_value, quadrature_error_estimate=0.0,
        visibility=1.0,
    )


def angle_settings(a: float, a_prime: float, b: float, b_prime: float) -> ChshSettings:
    """CHSH settings for spin_correlation, angles in radians."""
    return ChshSettings(*(InterferometerSetting(ell=phi) for phi in (a, a_prime, b, b_prime)))


TEXTBOOK = angle_settings(0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)


def uncached_window_integral(mean, sigma, a, b, level, floor, cap, extra_span=0.0, weight=None):
    """_quadrature._window_integral without its grid cache: the nodes and
    complex weights are rebuilt per call, and the node count runs numpy's
    frexp/ldexp on a scalar."""
    import numpy as np

    half = WINDOW_SIGMAS * sigma
    span = _quadratic_span(a, b, mean - half, mean + half) + extra_span
    need = max(math.ceil(min(cap, WINDOW_NODES_PER_RADIAN * span)), floor)
    mantissa, exponent = np.frexp(np.minimum(need, cap) * level)
    n = np.minimum(np.ldexp(1.0, exponent - (mantissa == 0.5)), cap).astype(int)
    capped = n == cap
    gl_x, gl_w = _gauss_legendre(int(n))
    x = mean + half * gl_x
    dens = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    weights = gl_w * half * dens * np.exp(-1j * (b * x * x))
    integrand = np.exp(x * (1j * a))
    if weight is not None:
        integrand = integrand * weight(x)
    return complex(np.dot(weights, integrand)), bool(capped)


def line_values_one_block(dist, u, a_lin: float, b_quad: float, level: float):
    """_quadrature._line_values without a tail cut, each node bucket's
    rows in one (u, panel, node) tensor: the same node counts, from each
    panel's phase excursion over all rows, and the same operations."""
    import numpy as np

    edges = dist.rel_panel_edges(u)
    lo, hi = edges[:, :-1], edges[:, 1:]

    def phase(r):
        return a_lin * r - b_quad * r * r

    # _quadratic_span per panel and row: the phase at both edges and at
    # the vertex where it lies inside
    values = [phase(lo), phase(hi)]
    if b_quad != 0.0:
        vertex = a_lin / (2.0 * b_quad)
        values.append(np.where((lo < vertex) & (vertex < hi), phase(vertex), values[0]))
    excursion = (np.max(values, axis=0) - np.min(values, axis=0)).max(axis=0)
    buckets = np.array([_node_count(need, level)[0] for need in np.ceil(0.7 * excursion) + 12])
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    result = np.zeros(len(u), dtype=complex)
    for size in sorted(set(buckets.tolist())):
        sel = buckets == size
        gl_x, gl_w = _gauss_legendre(size)
        half_sel = np.ascontiguousarray(half[:, sel])
        r = half_sel[:, :, None] * gl_x
        r += mid[:, sel, None]
        kern = dist._scaled_kernel(u[:, None, None], r)
        phase = r * a_lin
        r *= b_quad * r  # r is not read again
        phase -= r
        osc = np.exp(phase * 1j)
        osc *= 2.0
        osc *= kern
        osc *= gl_w
        result += (osc.sum(axis=2) * half_sel).sum(axis=1)
    return result


def quadrature_pass(pair, s1: InterferometerSetting, s2: InterferometerSetting, level: float):
    """(result, capped): the engine's pass at ``level`` of the pair's
    interference integral at s1, s2, turned into probabilities as
    correlate_quadrature turns its returned pass; the estimate is 0."""
    compute, _ = _interference(pair, s1.ell, s2.ell)
    value, capped = compute(level)
    phase_ref = complex(math.cos(pair.phi_tau), -math.sin(pair.phi_tau))
    result = _result_from_interference(
        float((phase_ref * value).real), abs(value), s1.theta, s2.theta, 0.0
    )
    return result, capped


SCAN_KEYS = {
    "ell1": ("interferometer", "ell1_um"),
    "ell2": ("interferometer", "ell2_um"),
    "tau": ("pulses", "separation_s"),
    "field": ("pulses", "base_field_mG"),
}


def scan_rows(document, axis: str, method: str, grid) -> list:
    """The cells of `dtebell scan`'s rows over ``grid``, rebuilt one grid
    point at a time: the config document with the point set, its pair,
    the correlate_* route's result, and every RESULT_COLUMNS cell
    formatted by cli._format_cell.  A computation error fills the error
    cell, its line breaks turned into spaces."""
    route = correlate_closed_form if method == "closed" else correlate_quadrature
    rows = []
    for value in grid:
        point = document.replace(*SCAN_KEYS[axis], value)
        inter = point.values["interferometer"]
        row = {
            "source": "scan", "axis": axis, "axis_value": value,
            "ell1_um": inter["ell1_um"], "ell2_um": inter["ell2_um"],
            "tau_s": point.get("pulses", "separation_s"),
            "theta1_deg": inter["theta1_deg"], "theta2_deg": inter["theta2_deg"],
            "switch_mode": inter["mode"], "method": method,
        }
        try:
            scenario = point.to_scenario()
            pair = DtePair(
                distribution=scales_from_scenario(scenario),
                tau=scenario.pulses.pulse_separation,
                phi_tau=phi_tau(scenario),
                species=scenario.species,
            )
            result = route(
                pair,
                InterferometerSetting(inter["ell1_um"] / 1e6, math.radians(inter["theta1_deg"])),
                InterferometerSetting(inter["ell2_um"] / 1e6, math.radians(inter["theta2_deg"])),
            )
        except (ValidationError, QuadratureError) as exc:
            row["error"] = str(exc).replace("\n", " ")
        else:
            for name, outcome in zip(("P_pp", "P_pm", "P_mp", "P_mm"), SIGN_PAIRS):
                row[name] = result.probability(*outcome)
            row["E"], row["V"] = result.e_value, result.visibility
        rows.append([_format_cell(row.get(name)) for name in RESULT_COLUMNS])
    return rows

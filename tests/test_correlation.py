"""Coincidence probabilities: quadrature vs closed form vs brute force.

Frozen oracle values were computed from independent derivations (direct
Gaussian integrals for the closed form, uniform-Simpson brute force for
the squared-sinc path) before being pinned here.
"""

import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, reject, seed, settings, strategies as st

import dtebell

from dtebell.correlation import (
    P_TARGET,
    SIGN_PAIRS,
    CorrelationResult,
    DtePair,
    InterferometerSetting,
    QuadratureError,
    _result_from_interference,
    closed_form_parts,
    correlate_closed_form,
    correlate_quadrature,
    fringe_phase,
)
from dtebell._quadrature import (
    MIN_NODES,
    NODE_CAP,
    _chebyshev_coefficients,
    _chebyshev_values,
    _gauss_legendre,
    _legendre_table,
    _internal_units,
    _tail_cut,
    _window_grid,
    _window_integral,
    _window_need,
)
from dtebell.cli import main as cli_main
from dtebell.dissociation import distribution_from_scenario
from dtebell.dissociation import phi_tau as phi_tau_of
from dtebell.scenario import (
    CONSTANTS,
    Species,
    TrapGuide,
    ValidationError,
    derive_scales,
    load_config,
    reference_scenario,
    scales_from_scenario,
)
from reference_models import quadrature_pass, uncached_window_integral

# frozen reference-scenario oracles
E_CENTER_REF = 0.70237388788893       # closed form at the fringe center, tau = 1 s
V_REF = 0.7178682252076126            # visibility prefactor
MARGIN_REF = 60.56434232412866        # packet separation over broadened width
E_FESHBACH_CENTER = 0.637391550695    # squared-sinc source, same settings
PHI_C_REF = -27645.807207833193       # fringe phase at the envelope center


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario()


@pytest.fixture(scope="module")
def scales(scenario):
    return scales_from_scenario(scenario)


@pytest.fixture(scope="module")
def fesh(scenario):
    return distribution_from_scenario(scenario)


@pytest.fixture(scope="module")
def phi_tau(scenario):
    return phi_tau_of(scenario)


@pytest.fixture(scope="module")
def pair(scenario, scales, phi_tau):
    """The Gaussian pair of the bundled scenario at tau = 1 s."""
    return DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)


def center_lengths(scales, tau):
    return 0.5 * tau * scales.v_rel, -0.5 * tau * scales.v_rel


# ---------------------------------------------------------------------------
# S-matrix amplitudes


def smatrix_amplitude(setting: InterferometerSetting, port: int, switch_state: str, p):
    """Single-interferometer output amplitude for one input momentum (SI).

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


def test_smatrix_on_values():
    s = InterferometerSetting(ell=0.0, theta=math.pi / 4.0)
    assert smatrix_amplitude(s, 1, "on", 0.0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert smatrix_amplitude(s, -1, "on", 0.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_smatrix_off_values():
    s = InterferometerSetting(ell=1e-3, theta=math.pi / 4.0)
    assert smatrix_amplitude(s, 1, "off", 0.0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert smatrix_amplitude(s, -1, "off", 0.0) == pytest.approx(-1.0 / math.sqrt(2.0))


def test_smatrix_momentum_phase():
    p = 5.343129568302826e-29
    ell = 2.5e-6
    s = InterferometerSetting(ell=ell, theta=0.3)
    amp = smatrix_amplitude(s, 1, "on", p)
    expected = np.exp(1j * p * ell / CONSTANTS.hbar) * math.cos(0.3)
    assert amp == pytest.approx(expected)


@given(
    theta=st.floats(0.0, math.pi / 2.0),
    p=st.floats(-1e-28, 1e-28),
    ell=st.floats(-1e-2, 1e-2),
)
@settings(max_examples=100, deadline=None)
def test_smatrix_unitarity(theta, p, ell):
    s = InterferometerSetting(ell=ell, theta=theta)
    for state in ("on", "off"):
        total = sum(abs(smatrix_amplitude(s, port, state, p)) ** 2 for port in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_smatrix_validation():
    s = InterferometerSetting(ell=0.0)
    with pytest.raises(ValidationError):
        smatrix_amplitude(s, 0, "on", 0.0)
    with pytest.raises(ValidationError):
        smatrix_amplitude(s, 1, "maybe", 0.0)


# ---------------------------------------------------------------------------
# domain-type validation


def test_setting_validation():
    with pytest.raises(ValidationError):
        InterferometerSetting(ell=0.0, theta=-0.1)
    with pytest.raises(ValidationError):
        InterferometerSetting(ell=0.0, theta=math.pi / 2.0 + 0.1)
    with pytest.raises(ValidationError):
        InterferometerSetting(ell=math.inf)


def test_distribution_requires_outward_rel(scales, scenario, phi_tau):
    # each detector sees only the outward branch of the relative momentum;
    # derive_scales refuses the scales before a DtePair can hold them
    for p0_rel in (-scales.p0_rel, 0.0):
        with pytest.raises(ValidationError):
            bad = derive_scales(scenario.species, scales.sigma_p_cm, scales.sigma_p_rel, p0_rel)
            DtePair(distribution=bad, tau=1.0, phi_tau=phi_tau, species=scenario.species)


def test_pair_refuses_scales_of_another_mass(scales, scenario, phi_tau):
    # the pair carries the mass twice, in species and inside the scales
    heavier = Species(name="heavier", atom_mass=2.0 * scenario.species.atom_mass)
    other = derive_scales(heavier, scales.sigma_p_cm, scales.sigma_p_rel, scales.p0_rel)
    with pytest.raises(ValidationError, match="another atom mass"):
        DtePair(distribution=other, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    # the same widths derived for the species' own mass pass, bit for bit
    same = derive_scales(scenario.species, scales.sigma_p_cm, scales.sigma_p_rel, scales.p0_rel)
    assert same == scales
    DtePair(distribution=same, tau=1.0, phi_tau=phi_tau, species=scenario.species)


def test_pair_margin_value(scales, scenario, phi_tau):
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    assert pair.separation_margin() == pytest.approx(MARGIN_REF, rel=1e-8)


def test_pair_margin_warning(scales, scenario, phi_tau):
    # tau small enough that packets barely separate
    with pytest.warns(UserWarning, match="separation margin"):
        DtePair(distribution=scales, tau=0.05, phi_tau=phi_tau, species=scenario.species)


def test_constructor_warnings_point_at_the_caller(scales, scenario, phi_tau):
    # not at the record's generated __init__, which reports "<string>"
    with pytest.warns(UserWarning) as caught:
        DtePair(distribution=scales, tau=0.05, phi_tau=phi_tau, species=scenario.species)
        TrapGuide(omega_trap=900.0, omega_guide=1000.0, trap_depth=1e-30)
    margin, quasi_1d = caught
    assert "separation margin" in str(margin.message)
    assert "omega_trap" in str(quasi_1d.message)
    assert (margin.filename, quasi_1d.filename) == (__file__, __file__)


def test_pair_margin_error(scales, scenario, phi_tau):
    wide = derive_scales(
        scenario.species, scales.sigma_p_cm, 200.0 * scales.sigma_p_rel, scales.p0_rel
    )
    with pytest.raises(ValidationError, match="not separated"):
        DtePair(distribution=wide, tau=1.0, phi_tau=phi_tau, species=scenario.species)


def test_pair_tau_validation(scales, scenario):
    with pytest.raises(ValidationError):
        DtePair(distribution=scales, tau=0.0, phi_tau=0.0, species=scenario.species)
    with pytest.raises(ValidationError):
        DtePair(distribution=scales, tau=1.0, phi_tau=math.nan, species=scenario.species)


def test_result_validation():
    with pytest.raises(ValidationError):
        CorrelationResult(
            p={k: 0.3 for k in SIGN_PAIRS}, e_value=0.0,
            quadrature_error_estimate=0.0, visibility=0.0,
        )
    with pytest.raises(ValidationError):
        CorrelationResult(
            p={(1, 1): 1.2, (1, -1): -0.2, (-1, 1): 0.0, (-1, -1): 0.0},
            e_value=0.0, quadrature_error_estimate=0.0,
            visibility=0.0,
        )


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_center_value(pair, scales, phi_tau):
    ell1, ell2 = center_lengths(scales, 1.0)
    res = correlate_closed_form(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    assert res.quadrature_error_estimate == 0.0
    assert res.e_value == pytest.approx(E_CENTER_REF, rel=1e-10)
    prefactor, envelope, phase = closed_form_parts(scales, 1.0, phi_tau, ell1, ell2)
    assert prefactor == pytest.approx(V_REF, rel=1e-8)
    assert envelope == pytest.approx(1.0, rel=1e-12)
    assert res.e_value == pytest.approx(prefactor * math.cos(phase), rel=1e-12)


def test_closed_form_no_dispersion_limit(scenario, scales, phi_tau):
    # shrink both widths so T_cm, T_rel blow up: unit visibility, pure
    # fringe.  The packets then overlap completely, so no DtePair accepts
    # these scales; the limit is taken on the formula layer, with the
    # probabilities formed as correlate_closed_form forms them.
    tiny = derive_scales(
        scenario.species,
        sigma_p_cm=1e-6 * scales.sigma_p_cm,
        sigma_p_rel=1e-6 * scales.sigma_p_rel,
        p0_rel=scales.p0_rel,
    )
    tau = 1.0
    ell1, ell2 = center_lengths(scales, tau)
    prefactor, envelope, phase = closed_form_parts(tiny, tau, phi_tau, ell1, ell2)
    assert phase == fringe_phase(tiny, tau, phi_tau, ell1, ell2)
    quarter = math.pi / 4.0
    res = _result_from_interference(
        prefactor * envelope * math.cos(phase), prefactor * envelope, quarter, quarter, 0.0
    )
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    expected = math.cos(tau * v / lam - 0.5 * (tau * v / lam + 2.0 * phi_tau))
    assert res.e_value == pytest.approx(expected, abs=1e-9)
    for (s1, s2), p in res.p.items():
        assert p == pytest.approx(0.25 * (1.0 + s1 * s2 * expected), abs=1e-9)


def test_both_routes_take_the_pair_and_two_settings():
    # one signature for both routes: a batch over either reads (pair, s1, s2)
    for route in (correlate_closed_form, correlate_quadrature):
        assert list(inspect.signature(route).parameters) == ["pair", "s1", "s2"]


def test_closed_form_refuses_a_sinc2_pair(fesh, scenario, phi_tau):
    # the closed form is the Gaussian oracle of the quadrature, so every
    # closed-form entry point refuses the squared-sinc source up front
    import dtebell.bell as bell

    sinc2 = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    setting = InterferometerSetting(ell=0.0)
    for call in (
        lambda: correlate_closed_form(sinc2, setting, setting),
        lambda: bell.closed_form_correlator(sinc2),
        lambda: bell.seed_settings(sinc2),
    ):
        with pytest.raises(ValidationError, match="Gaussian pair, got FeshbachDistribution"):
            call()


def test_closed_form_requires_outward(scales, scenario):
    # the closed form is written in scales, and derive_scales refuses an
    # inward relative mode
    with pytest.raises(ValidationError, match="p0_rel must be positive"):
        derive_scales(
            scenario.species,
            sigma_p_cm=scales.sigma_p_cm,
            sigma_p_rel=scales.sigma_p_rel,
            p0_rel=-scales.p0_rel,
        )


def test_closed_form_parts_reads_only_the_scales(pair, scales, phi_tau, monkeypatch):
    import dtebell.bell as bell
    import dtebell.dissociation as dis
    import dtebell.scenario as scn

    def refuse(*args, **kwargs):
        raise AssertionError("derive_scales called on a closed-form route")

    for module in (scn, dis):
        monkeypatch.setattr(module, "derive_scales", refuse)
    ell1, ell2 = center_lengths(scales, 1.0)
    parts = closed_form_parts(scales, 1.0, phi_tau, ell1, ell2)
    assert len(parts) == 3
    assert fringe_phase(scales, 1.0, phi_tau, ell1, ell2) == parts[2]
    closed = correlate_closed_form(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    assert closed.visibility == parts[0] * parts[1]
    correlator = bell.closed_form_correlator(pair)
    seeded = bell.seed_settings(pair)
    assert correlator(seeded.a, seeded.b).e_value == correlate_closed_form(
        pair, seeded.a, seeded.b
    ).e_value
    with pytest.raises(ValidationError, match="tau must be positive"):
        closed_form_parts(scales, 0.0, phi_tau, ell1, ell2)


@given(
    d1=st.floats(-2e-5, 2e-5),
    d2=st.floats(-2e-5, 2e-5),
    tau=st.floats(0.3, 2.5),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_probability_structure(d1, d2, tau):
    scenario = reference_scenario()
    scales = scales_from_scenario(scenario)
    pair = DtePair(distribution=scales, tau=tau, phi_tau=0.37, species=scenario.species)
    ell1 = 0.5 * tau * scales.v_rel + d1
    ell2 = -0.5 * tau * scales.v_rel + d2
    res = correlate_closed_form(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    assert sum(res.p.values()) == pytest.approx(1.0, abs=1e-12)
    for p in res.p.values():
        assert 0.0 <= p <= 1.0
    # e_value is exactly the signed sum of the stored probabilities
    signed = res.p[(1, 1)] - res.p[(1, -1)] - res.p[(-1, 1)] + res.p[(-1, -1)]
    assert res.e_value == signed


# ---------------------------------------------------------------------------
# fringe phase


def test_fringe_phase_center(scales, phi_tau):
    ell1, ell2 = center_lengths(scales, 1.0)
    phase = fringe_phase(scales, 1.0, phi_tau, ell1, ell2)
    assert phase == pytest.approx(PHI_C_REF, rel=1e-10)
    # chirp terms vanish at the envelope center: phase is the literal
    # linear fringe minus half the accumulated offset
    lam = scales.lambda_bar_rel
    v = scales.v_rel
    phi0 = (
        v / lam + math.atan(1.0 / scales.t_cm) + math.atan(1.0 / scales.t_rel) + 2.0 * phi_tau
    )
    assert phase == pytest.approx(v / lam - 0.5 * phi0, rel=1e-12)


def test_fringe_phase_slope(scales, phi_tau):
    # at the envelope center the phase slope in ell1 is exactly 1/lambda_bar
    ell1, ell2 = center_lengths(scales, 1.0)
    h = 1e-9
    up = fringe_phase(scales, 1.0, phi_tau, ell1 + h, ell2)
    dn = fringe_phase(scales, 1.0, phi_tau, ell1 - h, ell2)
    assert (up - dn) / (2.0 * h) == pytest.approx(1.0 / scales.lambda_bar_rel, rel=1e-5)


def test_fringe_phase_tau_to_zero(scales):
    # phi0 and the chirps vanish with tau; only the linear fringe survives
    lam = CONSTANTS.hbar / scales.p0_rel
    phase = fringe_phase(scales, 1e-9, 0.0, 2e-6, -1e-6)
    assert phase == pytest.approx(3e-6 / lam, rel=1e-4)


# ---------------------------------------------------------------------------
# quadrature vs closed form (the central two-route check)


def test_quadrature_matches_closed_form_center(pair, scales):
    """Both routes read the analyzer angles, at 45 degrees and at 0.3 rad."""
    ell1, ell2 = center_lengths(scales, 1.0)
    for theta in (math.pi / 4.0, 0.3):
        s1 = InterferometerSetting(ell=ell1, theta=theta)
        s2 = InterferometerSetting(ell=ell2, theta=theta)
        quad = correlate_quadrature(pair, s1, s2)
        closed = correlate_closed_form(pair, s1, s2)
        assert quad.quadrature_error_estimate < 1e-6
        for key in SIGN_PAIRS:
            assert quad.p[key] == pytest.approx(closed.p[key], abs=1e-9)
        assert quad.e_value == pytest.approx(closed.e_value, abs=1e-6)
        assert quad.visibility == pytest.approx(closed.visibility, abs=1e-6)


def _uncut(monkeypatch):
    import dtebell._quadrature as quad

    monkeypatch.setattr(quad, "_tail_cut", lambda *args: (None, 0.0))


@pytest.mark.parametrize(
    "tau, offset_um, eighths, level",
    [(1.0, 0.0, k, 1.0) for k in range(8)]
    + [(1.0, 0.0, 0, 2.0)]
    + [(0.05, 0.0, 0, 1.0), (2.0, 0.0, 0, 1.0)]
    + [(1.0, -200.0, 0, 1.0), (1.0, 3000.0, 0, 1.0)],
)
def test_sinc2_tail_cut_within_its_bound(fesh, scenario, scales, tau, offset_um, eighths, level):
    """The cut line integral differs from the full one by at most the
    bound charged for it, at the check phases, other tau and arm offsets
    that move the stationary point."""
    from dtebell._quadrature import _feshbach_interference

    shift = scales.lambda_bar_rel * 2.0 * math.pi * eighths / 8.0
    dl = tau * scales.v_rel + shift + offset_um * 1e-6
    m_int, _, dl_int = _internal_units(fesh.p0, tau, scenario.species.atom_mass, dl, 0.0)
    r_cut, bound = _tail_cut(fesh, dl_int, 1.0 / m_int, level)
    assert r_cut is not None and r_cut < fesh.r_hi()
    cut, _ = _feshbach_interference(fesh, m_int, 0.0, dl_int, level)
    with pytest.MonkeyPatch.context() as mp:
        _uncut(mp)
        full, _ = _feshbach_interference(fesh, m_int, 0.0, dl_int, level)
    assert abs(cut - full) <= bound


@pytest.mark.parametrize("a, b", [(1.0, 0.01)])
def test_sinc2_line_without_admissible_cut_is_unchanged(fesh, a, b, monkeypatch):
    """A stationary point beyond the truncation edge leaves nothing to
    cut: the result is the full one, bit for bit."""
    import dtebell._quadrature as quad

    assert _tail_cut(fesh, a, b) == (None, 0.0)
    kept, _ = quad._pair_integral(fesh, 0.0, 0.0, a, b, 1.0)
    _uncut(monkeypatch)
    full, _ = quad._pair_integral(fesh, 0.0, 0.0, a, b, 1.0)
    assert kept == full


@pytest.mark.parametrize("eighths", [0, 3])
def test_sinc2_cut_keeps_few_panels(fesh, scenario, scales, phi_tau, eighths, monkeypatch):
    """Machine-independent guard on the cost of a sinc^2 call: its line
    integrals evaluate under a tenth of the panels of rel_panel_edges."""
    import dtebell._quadrature as quad
    import dtebell.dissociation as dis

    fesh.normalization  # computed before counting
    rows = panels = 0
    line_values = quad._line_values
    scaled_kernel = dis.FeshbachDistribution._scaled_kernel

    def counting_lines(dist, u, *args):
        nonlocal rows
        rows += len(u)
        return line_values(dist, u, *args)

    def counting_kernel(dist, u, r, out=None):
        nonlocal panels
        panels += r.shape[0]  # one u row's (panel, node) array
        return scaled_kernel(dist, u, r, out)

    monkeypatch.setattr(quad, "_line_values", counting_lines)
    monkeypatch.setattr(dis.FeshbachDistribution, "_scaled_kernel", counting_kernel)
    pair = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    correlate_quadrature(pair, *_sinc2_settings(scales, eighths))
    all_panels = fesh.rel_panel_edges([0.0]).shape[1] - 1
    assert all_panels == 3136
    assert rows > 0
    assert panels / rows < 0.1 * all_panels


@pytest.mark.parametrize(
    "d1, d2, tau",
    [
        (0.0, 0.0, 1.0),
        (2.0e-6, 0.0, 1.0),
        (1.0e-6, -3.0e-6, 1.0),
        (0.0, 1.5e-6, 0.4),
        (-4.0e-6, 2.5e-6, 1.7),
    ],
)
def test_quadrature_matches_closed_form_offsets(
    scenario, scales, phi_tau, d1, d2, tau
):
    ell1 = 0.5 * tau * scales.v_rel + d1
    ell2 = -0.5 * tau * scales.v_rel + d2
    pair = DtePair(distribution=scales, tau=tau, phi_tau=phi_tau, species=scenario.species)
    s1, s2 = InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    quad = correlate_quadrature(pair, s1, s2)
    closed = correlate_closed_form(pair, s1, s2)
    for key in SIGN_PAIRS:
        assert quad.p[key] == pytest.approx(closed.p[key], abs=1e-6)


def test_gaussian_route_within_its_estimate_of_the_closed_form(pair, scales):
    """400 seeded settings within 4 mm of each arm's centre, each analyzer
    at any angle in [0, pi/2]: every P of the Gaussian quadrature lies
    within its own error estimate of the closed form."""
    rng = random.Random(7)
    centres = center_lengths(scales, 1.0)
    for _ in range(400):
        s1, s2 = (
            InterferometerSetting(
                ell=centre + rng.uniform(-4e-3, 4e-3), theta=rng.uniform(0.0, 0.5 * math.pi)
            )
            for centre in centres
        )
        quad = correlate_quadrature(pair, s1, s2)
        closed = correlate_closed_form(pair, s1, s2)
        for key in SIGN_PAIRS:
            assert abs(quad.p[key] - closed.p[key]) <= quad.quadrature_error_estimate


def test_visibility_is_the_fringe_amplitude_on_both_routes(scenario, scales):
    """Both routes report the same |I| at any setting pair, and it bounds
    the fringe: |E - cos2t1 cos2t2| <= visibility, also off 45 degrees."""
    rng = np.random.default_rng(12)
    period = 2.0 * math.pi * scales.lambda_bar_rel
    species = scenario.species
    for _ in range(20):
        tau = rng.uniform(0.4, 1.8)
        pulse_phase = rng.uniform(0.0, 2.0 * math.pi)
        ell1 = 0.5 * tau * scales.v_rel + rng.uniform(-3.0, 3.0) * period
        ell2 = -0.5 * tau * scales.v_rel + rng.uniform(-3.0, 3.0) * period
        theta1, theta2 = rng.uniform(0.0, 0.5 * math.pi, 2)
        pair = DtePair(distribution=scales, tau=tau, phi_tau=pulse_phase, species=species)
        prefactor, envelope, _ = closed_form_parts(scales, tau, pulse_phase, ell1, ell2)
        s1, s2 = InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
        tilt1 = InterferometerSetting(ell=ell1, theta=theta1)
        tilt2 = InterferometerSetting(ell=ell2, theta=theta2)
        closed = correlate_closed_form(pair, s1, s2)
        quad = correlate_quadrature(pair, s1, s2)
        tilted = correlate_quadrature(pair, tilt1, tilt2)
        tilted_closed = correlate_closed_form(pair, tilt1, tilt2)
        assert closed.visibility == prefactor * envelope
        assert abs(quad.visibility - prefactor * envelope) <= 1e-6
        assert abs(tilted.visibility - tilted_closed.visibility) <= 1e-6
        assert abs(tilted.e_value - tilted_closed.e_value) <= 1e-6
        quarter = math.pi / 4.0
        for result, t1, t2 in ((closed, quarter, quarter), (quad, quarter, quarter),
                               (tilted, theta1, theta2)):
            untilted = math.cos(2.0 * t1) * math.cos(2.0 * t2)
            assert abs(result.e_value - untilted) <= result.visibility + 1e-12


def test_quadrature_at_origin(scales, scenario, phi_tau):
    # ell1 = ell2 = 0: packets never overlap in arrival time, E ~ 0, P = 1/4
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=0.0, species=scenario.species)
    zero = InterferometerSetting(ell=0.0)
    quad = correlate_quadrature(pair, zero, zero)
    closed = correlate_closed_form(pair, zero, zero)
    for key in SIGN_PAIRS:
        assert quad.p[key] == pytest.approx(closed.p[key], abs=1e-6)
        assert quad.p[key] == pytest.approx(0.25, abs=1e-6)


def test_narrow_spike_limit(scenario, scales):
    # near-monochromatic pair with dispersion pushed just above the
    # separation floor: E collapses to a single phasor whose argument is
    # the arm phase at the spike plus the spike's own quadratic phase;
    # the literal dispersion-free limit is unreachable because packets
    # must separate before they stop dispersing
    p0 = scales.p0_rel
    spike = derive_scales(scenario.species, 2.5e-3 * p0, 2.5e-3 * p0, p0)
    tau = 0.3
    phi = 0.7
    with pytest.warns(UserWarning, match="separation margin"):
        pair = DtePair(distribution=spike, tau=tau, phi_tau=phi, species=scenario.species)
    lam = CONSTANTS.hbar / p0
    ell1 = 0.5 * tau * scales.v_rel + 0.3 * lam
    ell2 = -0.5 * tau * scales.v_rel
    res = correlate_quadrature(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    expected = math.cos((ell1 - ell2) / lam - 0.5 * tau * scales.v_rel / lam - phi)
    assert res.e_value == pytest.approx(expected, abs=1e-2)


def test_sign_structure(scenario, scales, phi_tau):
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    res = correlate_quadrature(
        pair, InterferometerSetting(ell=ell1 + 1.3e-6), InterferometerSetting(ell=ell2)
    )
    assert res.p[(1, 1)] == res.p[(-1, -1)]
    assert res.p[(1, -1)] == res.p[(-1, 1)]


def test_refinement_self_consistency(scenario, scales, phi_tau):
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    s1, s2 = InterferometerSetting(ell=ell1 + 8e-7), InterferometerSetting(ell=ell2)
    base = correlate_quadrature(pair, s1, s2)
    finer, capped = quadrature_pass(pair, s1, s2, 2.0)
    assert not capped
    for key in SIGN_PAIRS:
        assert abs(finer.p[key] - base.p[key]) <= base.quadrature_error_estimate


def test_quadrature_failure_carries_estimate(
    scenario, scales, phi_tau, monkeypatch
):
    # force the node ceiling far below the phase budget so the half-node
    # comparison cannot agree and the capped state must surface
    import dtebell._quadrature as quad

    monkeypatch.setattr(quad, "MIN_NODES", 8)
    monkeypatch.setattr(quad, "NODE_CAP", 16)
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    with pytest.raises(QuadratureError) as excinfo:
        correlate_quadrature(
            pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
        )
    assert excinfo.value.estimate > 1e-6


def test_unsupported_distribution(scenario):
    class Fake:
        pass

    with pytest.raises(ValidationError, match="unsupported distribution type"):
        DtePair(distribution=Fake(), tau=1.0, phi_tau=0.0, species=scenario.species)


# ---------------------------------------------------------------------------
# generalized mirror angles, checked against a (p1, p2) brute force


def brute_force_probabilities(scales, scenario, tau, phi_tau, s1, s2, n=1200):
    """Direct 2D integral of |early + late|^2 in particle momenta.

    Completely independent route: no (p_cm, p_rel) factorization, no
    closed form; amplitudes composed explicitly per port.
    """
    from scipy.special import roots_legendre

    p0 = scales.p0_rel
    # momenta in p0 and times in tau make the mass m hbar / (p0^2 tau)
    m_int = scenario.species.atom_mass * CONSTANTS.hbar / (p0**2 * tau)
    sc = scales.sigma_p_cm / p0
    sr = scales.sigma_p_rel / p0
    w = 8.5 * (0.5 * sc + sr)

    x, wts = roots_legendre(n)
    p1 = 1.0 + w * x
    p2 = -1.0 + w * x
    w1 = wts * w
    c = p1[:, None] + p2[None, :]
    r = 0.5 * (p1[:, None] - p2[None, :])
    dens = (
        np.exp(-0.5 * (c / sc) ** 2) / (math.sqrt(2 * math.pi) * sc)
        * np.exp(-0.5 * ((r - 1.0) / sr) ** 2) / (math.sqrt(2 * math.pi) * sr)
    )
    weight = w1[:, None] * w1[None, :] * dens

    early_phase = np.exp(
        -1j * (phi_tau + (p1[:, None] ** 2 + p2[None, :] ** 2) / (2.0 * m_int))
    )
    on1 = {port: smatrix_amplitude(s1, port, "on", p1 * p0) for port in (1, -1)}
    on2 = {port: smatrix_amplitude(s2, port, "on", p2 * p0) for port in (1, -1)}
    off1 = {port: smatrix_amplitude(s1, port, "off", 0.0) for port in (1, -1)}
    off2 = {port: smatrix_amplitude(s2, port, "off", 0.0) for port in (1, -1)}

    p = {}
    for sg1, sg2 in SIGN_PAIRS:
        amp = (
            early_phase * on1[sg1][:, None] * on2[sg2][None, :]
            + off1[sg1] * off2[sg2]
        ) / math.sqrt(2.0)
        p[(sg1, sg2)] = float(np.sum(weight * np.abs(amp) ** 2))
    return p


@pytest.mark.parametrize("theta1, theta2", [(math.pi / 4, math.pi / 4), (0.3, 1.1), (0.6, math.pi / 4)])
def test_quadrature_matches_brute_force(scenario, scales, phi_tau, theta1, theta2):
    tau = 1.0
    ell1, ell2 = center_lengths(scales, tau)
    ell1 += 0.9e-6
    s1 = InterferometerSetting(ell=ell1, theta=theta1)
    s2 = InterferometerSetting(ell=ell2, theta=theta2)
    pair = DtePair(distribution=scales, tau=tau, phi_tau=phi_tau, species=scenario.species)
    quad = correlate_quadrature(pair, s1, s2)
    brute = brute_force_probabilities(scales, scenario, tau, phi_tau, s1, s2)
    assert abs(sum(brute.values()) - 1.0) < 1e-9
    for key in SIGN_PAIRS:
        assert quad.p[key] == pytest.approx(brute[key], abs=1e-8)


def test_theta_zero_kills_interference(scenario, scales, phi_tau):
    # a fully transmissive mirror on one side leaves a fixed imbalance
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    theta2 = 0.4
    res = correlate_quadrature(
        pair,
        InterferometerSetting(ell=ell1, theta=0.0),
        InterferometerSetting(ell=ell2, theta=theta2),
    )
    expected = math.cos(2.0 * theta2)
    for (sg1, sg2), value in res.p.items():
        assert value == pytest.approx(0.25 * (1.0 + sg1 * sg2 * expected), abs=1e-9)


# ---------------------------------------------------------------------------
# squared-sinc source


def test_feshbach_center_value(fesh, scenario, scales, phi_tau):
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    res = correlate_quadrature(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    assert res.quadrature_error_estimate < 1e-6
    assert res.e_value == pytest.approx(E_FESHBACH_CENTER, rel=1e-6)


def test_sinc2_last_digits(fesh, scenario, scales, phi_tau):
    """Bit-exact pin of the bundled source's sinc^2 numbers: the CLI
    prints them to six digits only, so no corpus case sees a last-ulp
    change in the c.m. window or the pair integral."""
    assert fesh.normalization == 0.9995039744539412
    assert fesh.norm_error_estimate == 1.2678399015754016e-07
    ell1, ell2 = center_lengths(scales, 1.0)
    pair = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    res = correlate_quadrature(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    assert res.visibility == 0.6505032744413163
    assert res.e_value == 0.6373915533837362


def _record_passes(monkeypatch, name):
    """Log {level: value} of every pass made through _quadrature.<name>,
    a (value, capped) function that takes the level last."""
    import dtebell._quadrature as quad

    passes = {}
    original = getattr(quad, name)

    def recording(*args):
        value, capped = original(*args)
        passes[args[-1]] = value
        return value, capped

    monkeypatch.setattr(quad, name, recording)
    return passes


def _sinc2_settings(scales, eighths):
    """Settings ``eighths`` of a fringe off the envelope centre, tau = 1 s."""
    ell1, ell2 = center_lengths(scales, 1.0)
    shift = scales.lambda_bar_rel * 2.0 * math.pi * eighths / 8.0
    return InterferometerSetting(ell=ell1 + shift), InterferometerSetting(ell=ell2)


@pytest.fixture(scope="module")
def sinc2_level2(fesh, scenario, scales, phi_tau):
    """Sinc^2 passes at level 2 at the fringe centre and 3/8 fringe off
    it: {eighths: (result, capped, traced peak)}."""
    import tracemalloc

    pair = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    fesh.normalization  # cached before the trace
    calls = {}
    for eighths in (0, 3):
        tracemalloc.start()
        try:
            res, capped = quadrature_pass(pair, *_sinc2_settings(scales, eighths), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        calls[eighths] = (res, capped, peak)
    return calls


def test_feshbach_off_centre_peak_memory(sinc2_level2):
    """A level-2 sinc^2 pass 3/8 of a fringe off centre: its line
    integrals must stay one u row at a time."""
    _, capped, peak = sinc2_level2[3]
    assert not capped
    assert peak < 16 * 2**20


# one bundled centre call in a fresh interpreter, then five more: the minor
# page faults of the five, and the elements of the call's largest row array
_CENTRE_CALL_FAULTS = """
import json, resource
from dtebell import dissociation as dis
from dtebell.correlation import DtePair, InterferometerSetting, correlate_quadrature
from dtebell.scenario import load_config, scales_from_scenario
scenario = load_config().to_scenario()
fesh = dis.distribution_from_scenario(scenario)
ell = 0.5 * scales_from_scenario(scenario).v_rel
pair = DtePair(distribution=fesh, tau=1.0, phi_tau=dis.phi_tau(scenario), species=scenario.species)
settings = InterferometerSetting(ell=ell), InterferometerSetting(ell=-ell)
largest = 0
kernel = dis.FeshbachDistribution._scaled_kernel

def sizing(self, u, r, *args, **kwargs):
    global largest
    largest = max(largest, r.size)
    return kernel(self, u, r, *args, **kwargs)

dis.FeshbachDistribution._scaled_kernel = sizing
correlate_quadrature(pair, *settings)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    correlate_quadrature(pair, *settings)
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, largest]))
"""


def test_repeated_sinc2_calls_fault_in_few_pages():
    """Each node bucket's u rows are evaluated in one set of work arrays,
    so repeated centre calls on a fresh heap fault in far fewer pages than
    their largest row array has elements (fresh block temporaries, each
    above malloc's mmap threshold, faulted about 8200 pages per call)."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dtebell.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CENTRE_CALL_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, largest = json.loads(proc.stdout)
    assert largest == 231 * 64  # one u row of the 64-node bucket's 231 panels
    assert faults < largest / 4


@pytest.mark.parametrize("n_u", [7, 8, 9, 18, 44, 73, 150])
def test_chebyshev_interpolant_matches_numpys_fit(n_u):
    """The exact interpolant at the first-kind points against numpy's
    least-squares chebfit and chebval (a test oracle only), on seeded
    complex samples of an oscillating G: it reproduces the samples, its
    coefficients agree to a few ulps of max|G|, and its values on the
    c.m. nodes of a window, x = 2 t^2 - 1 for the rule's nodes t, agree
    to O(n) ulps, since both recurrences round once per term."""
    cheb = np.polynomial.chebyshev
    x = np.cos(math.pi * (2.0 * np.arange(n_u) + 1.0) / (2.0 * n_u))
    gl_x, _ = _gauss_legendre(256)
    x_cm = 2.0 * gl_x * gl_x - 1.0
    for seed in range(3):
        rng = np.random.default_rng([n_u, seed])
        omega, pole, phase = rng.uniform(0.0, 0.25 * n_u), rng.uniform(1.5, 4.0), rng.uniform(0.0, 6.3)
        g = rng.uniform(0.1, 10.0) * np.exp(1j * (omega * x + phase)) / (pole + x) ** 2
        ulp = np.finfo(float).eps * np.abs(g).max()
        coef = _chebyshev_coefficients(g)
        oracle = cheb.chebfit(x, g.real, n_u - 1) + 1j * cheb.chebfit(x, g.imag, n_u - 1)
        assert np.abs(_chebyshev_values(coef, x) - g).max() <= n_u * ulp
        assert np.abs(coef - oracle).max() <= 32 * ulp
        on_cm = cheb.chebval(x_cm, oracle.real) + 1j * cheb.chebval(x_cm, oracle.imag)
        assert np.abs(_chebyshev_values(coef, x_cm) - on_cm).max() <= 2 * n_u * ulp


def _sinc2_pair(**overrides):
    """(pair, scales): the sinc^2 pair of the bundled config with lab-unit
    overrides of omega_trap_hz, duration_ms and separation_s (tau), and
    the Gaussian scales of its scenario."""
    document = load_config()
    for key, value in overrides.items():
        section = "scenario" if key == "omega_trap_hz" else "pulses"
        document = document.replace(section, key, value)
    scenario = document.to_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a margin below 10x only warns
        pair = DtePair(
            distribution=distribution_from_scenario(scenario),
            tau=scenario.pulses.pulse_separation,
            phi_tau=phi_tau_of(scenario),
            species=scenario.species,
        )
    return pair, scales_from_scenario(scenario)


# (overrides, ell1, ell2 in m): sinc^2 settings off the envelope centre
# whose c.m. window needs 2136 and 2178 nodes at level 1: a 4096-node
# rule, below NODE_CAP, so the pass is not capped
OFF_CENTRE_SINC2 = [
    ({"omega_trap_hz": 1.35032, "duration_ms": 87.1375}, 6120.772e-6, -5349.364e-6),
    ({"omega_trap_hz": 1.65835, "duration_ms": 111.325, "separation_s": 1.10641},
     5540.537e-6, -5918.607e-6),
]


@pytest.mark.parametrize("overrides, ell1, ell2", OFF_CENTRE_SINC2)
def test_sinc2_off_centre_converges_below_the_cap(overrides, ell1, ell2, monkeypatch):
    """The level-1 pass is uncapped and its difference to the converged
    level-0.5 pass meets P_TARGET, so it is accepted; a level-2 reference
    pass under a 4x cap, its rules past the table from scipy, agrees with
    it within the estimate."""
    import dtebell._quadrature as quad

    pair, _ = _sinc2_pair(**overrides)
    s1, s2 = InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    pair.distribution.normalization  # its own passes are not the call's
    with pytest.MonkeyPatch.context() as mp:
        passes = _record_passes(mp, "_pair_integral")
        res = correlate_quadrature(pair, s1, s2)
    assert set(passes) == {0.5, 1.0}
    assert res.quadrature_error_estimate <= P_TARGET

    table_rule = quad._gauss_legendre

    def rule(n):
        if n <= NODE_CAP:
            return table_rule(n)
        from scipy.special import roots_legendre

        return roots_legendre(n)

    monkeypatch.setattr(quad, "_gauss_legendre", rule)
    monkeypatch.setattr(quad, "NODE_CAP", 4 * NODE_CAP)
    reference, capped = quadrature_pass(pair, s1, s2, 2.0)
    assert not capped
    for key in SIGN_PAIRS:
        assert abs(res.p[key] - reference.p[key]) <= res.quadrature_error_estimate


def _envelope_widths(scales, tau):
    """(w_rel, w_cm): the e-fold widths in ell1 - ell2 and ell1 + ell2 of
    the interference envelope, w^2 = 2 v_rel lambda_bar (t^2 + tau^2)/t
    with t = t_rel and t_cm (correlation.closed_form_parts)."""
    two_v_lam = 2.0 * scales.v_rel * scales.lambda_bar_rel
    return tuple(
        math.sqrt(two_v_lam * (t * t + tau * tau) / t) for t in (scales.t_rel, scales.t_cm)
    )


# no shrinking: a failing example takes about a second, and shrinking one
# ran for five minutes
@settings(
    max_examples=12, derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate)
)
@given(
    st.floats(0.2, 2.0),
    st.floats(30.0, 120.0),
    st.floats(0.4, 1.6),
    st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=4, max_size=4),
)
def test_sinc2_converges_across_the_validity_domain(trap_hz, duration_ms, tau, offsets):
    """Sinc^2 calls within 1.5 envelope widths of the centre, in scenarios
    drawn over the validity domain, reach P_TARGET without a cap, and
    they and the source's normalization run levels 0.5 and 1 only."""
    try:
        pair, scales = _sinc2_pair(
            omega_trap_hz=trap_hz, duration_ms=duration_ms, separation_s=tau
        )
    except ValidationError:
        reject()  # outside the validity domain
    w_rel, w_cm = _envelope_widths(scales, tau)
    with pytest.MonkeyPatch.context() as mp:
        passes = _record_passes(mp, "_pair_integral")
        for rel, cm in offsets:
            dl = tau * scales.v_rel + rel * w_rel
            sl = cm * w_cm
            s1 = InterferometerSetting(ell=0.5 * (sl + dl))
            s2 = InterferometerSetting(ell=0.5 * (sl - dl))
            res = correlate_quadrature(pair, s1, s2)
            assert res.quadrature_error_estimate <= P_TARGET
    assert set(passes) == {0.5, 1.0}


def test_quadrature_asks_for_power_of_two_rules(fesh, scenario, scales, phi_tau, monkeypatch):
    import dtebell._quadrature as quad

    requested = []
    original = quad._gauss_legendre

    def recording(n):
        requested.append(n)
        return original(n)

    monkeypatch.setattr(quad, "_gauss_legendre", recording)
    s1, s2 = _sinc2_settings(scales, 3)
    for dist in (scales, fesh):
        # a cached window grid asks for no rule: each route must ask itself
        _window_grid.cache_clear()
        requested.clear()
        pair = DtePair(distribution=dist, tau=1.0, phi_tau=phi_tau, species=scenario.species)
        correlate_quadrature(pair, s1, s2)
        assert requested, type(dist).__name__
        assert all(n > 0 and n & (n - 1) == 0 for n in requested)


def test_gauss_legendre_table_is_scipys_rules_bit_for_bit():
    from gauss_legendre_table import build_table, rule_sizes

    table = build_table()
    # the builder, the bundled table and the engine share one cap
    assert rule_sizes()[-1] == NODE_CAP
    assert _legendre_table().shape == table.shape == (2, 2 * NODE_CAP - 1)
    for n in rule_sizes():
        nodes, weights = _gauss_legendre(n)
        assert nodes.tobytes() == table[0, n - 1 : 2 * n - 1].tobytes()
        assert weights.tobytes() == table[1, n - 1 : 2 * n - 1].tobytes()
        assert not (nodes.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("n", [3, 2 * NODE_CAP])
def test_gauss_legendre_refuses_sizes_the_table_lacks(n):
    with pytest.raises(ValueError, match=f"no {n}-node"):
        _gauss_legendre(n)


def _window_weight(x):
    """A smooth complex weight, standing in for the sinc^2 route's G(c^2/4)."""
    return np.cos(0.7 * x) + 0.5j * np.sin(1.3 * x)


# (mean, sigma, b): what fixes a window grid besides its node count
_WINDOW_KEYS = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 2.0), st.floats(0.0, 60.0))
# (key index, a, level, extra_span)
_WINDOW_CALLS = st.tuples(
    st.integers(0, 2),
    st.floats(-300.0, 300.0),
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 8.0]),
    st.sampled_from([0.0, 2.0]),
)


@seed(20261020)
@given(
    st.lists(_WINDOW_KEYS, min_size=3, max_size=3),
    st.lists(_WINDOW_CALLS, min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
# keys equal as floats but not in bits share one cache entry
@example(
    [(0.0, 1.0, 0.0), (-0.0, 1.0, -0.0), (0.5, 0.3, 1.0)],
    [(0, 0.0, 1.0, 0.0), (1, -0.0, 1.0, 0.0)],
    random.Random(0),
)
@settings(max_examples=80, deadline=None)
def test_cached_window_matches_uncached_bit_for_bit(keys, calls, rng):
    """Each call runs twice in a shuffled order, each time weighted or
    not, so fresh grids (misses) and reused ones (hits) both meet the
    oracle."""
    _window_grid.cache_clear()
    order = list(range(len(calls))) * 2
    rng.shuffle(order)
    for i in order:
        key, a, level, extra_span = calls[i]
        mean, sigma, b = keys[key]
        weight = _window_weight if rng.random() < 0.5 else None
        need = _window_need(mean, sigma, a, b, extra_span)
        value, capped = _window_integral(mean, sigma, a, b, level, need, weight)
        expected, expected_capped = uncached_window_integral(
            mean, sigma, a, b, level, MIN_NODES, NODE_CAP, extra_span, weight
        )
        assert value == expected
        assert capped is expected_capped
    info = _window_grid.cache_info()
    assert info.hits >= len(calls) and info.misses >= 1


def test_window_grid_cache_stays_bounded_and_read_only():
    _window_grid.cache_clear()
    argv = ["scan", "--axis", "ell1", "--start", "5330", "--stop", "5370",
            "--steps", "4000", "--method", "quad"]
    assert cli_main(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    info = _window_grid.cache_info()
    assert info.currsize <= info.maxsize
    # the scan builds fewer grids than the cache holds, so none is rebuilt
    assert info.misses <= info.maxsize and info.hits > 0
    for array in _window_grid(0.0, 1.0, 0.5, MIN_NODES):
        with pytest.raises(ValueError):
            array[0] = 0.0


def _assert_estimate_describes(res, reference, passes, tail):
    """The estimate bounds the distance to a finer reference and is no
    larger than the pass-difference estimate of the returned pass."""
    for key in SIGN_PAIRS:
        assert abs(res.p[key] - reference.p[key]) <= res.quadrature_error_estimate
    level = max(passes)
    plain = 0.25 * abs(passes[level] - passes[0.5 * level]) + 0.25 * tail + 1e-12
    assert res.quadrature_error_estimate <= plain


def _rel_phase(dist, scenario, s1, s2, tau=1.0):
    """(a, b) of the relative-momentum phase a r - b r^2 that
    correlate_quadrature integrates, momenta in p0."""
    m_int, _, dl_int = _internal_units(dist.p0, tau, scenario.species.atom_mass, s1.ell, s2.ell)
    return dl_int, 1.0 / m_int


@pytest.mark.parametrize("eighths", [0, 3])
def test_feshbach_estimate_describes_returned_pass(
    fesh, scenario, scales, phi_tau, sinc2_level2, eighths, monkeypatch
):
    pair = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    passes = _record_passes(monkeypatch, "_feshbach_interference")
    settings = _sinc2_settings(scales, eighths)
    res = correlate_quadrature(pair, *settings)
    # levels 0.5 and 1 have both converged: no other pass is run
    assert set(passes) == {0.5, 1.0}
    # the route's tail term: envelope tail plus the charge for the cut line
    _, cut_bound = _tail_cut(fesh, *_rel_phase(fesh, scenario, *settings))
    assert cut_bound > 0.0
    tail = fesh.tail_bound() + cut_bound
    _assert_estimate_describes(res, sinc2_level2[eighths][0], passes, tail)


@pytest.mark.parametrize(
    "d1, d2, tau",
    [
        (0.0, 0.0, 1.0),
        (8.0e-7, 0.0, 1.0),
        (2.0e-6, 0.0, 1.0),
        (1.0e-6, -3.0e-6, 1.0),
        (0.0, 1.5e-6, 0.4),
        (-4.0e-6, 2.5e-6, 1.7),
    ],
)
def test_gaussian_estimate_describes_returned_pass(
    scenario, scales, phi_tau, d1, d2, tau, monkeypatch
):
    s1 = InterferometerSetting(ell=0.5 * tau * scales.v_rel + d1)
    s2 = InterferometerSetting(ell=-0.5 * tau * scales.v_rel + d2)
    pair = DtePair(distribution=scales, tau=tau, phi_tau=phi_tau, species=scenario.species)
    reference, _ = quadrature_pass(pair, s1, s2, 4.0)
    passes = _record_passes(monkeypatch, "_gaussian_interference")
    res = correlate_quadrature(pair, s1, s2)
    tail = 2.0 * math.erfc(8.5 / math.sqrt(2.0))
    _assert_estimate_describes(res, reference, passes, tail)


@pytest.mark.parametrize("nodes_per_radian, floor, levels", [(None, None, 2), (0.5, 8, 5)])
def test_gaussian_call_sizes_its_windows_once(
    scenario, scales, phi_tau, nodes_per_radian, floor, levels, monkeypatch
):
    # each window's phase span is found once per call, not once per pass:
    # coarser windows make the doubling loop run up to level 8
    import dtebell._quadrature as quad

    if floor is not None:
        monkeypatch.setattr(quad, "WINDOW_NODES_PER_RADIAN", nodes_per_radian)
        monkeypatch.setattr(quad, "MIN_NODES", floor)
    spans = []
    original = quad._quadratic_span

    def counting(*args):
        spans.append(args)
        return original(*args)

    monkeypatch.setattr(quad, "_quadratic_span", counting)
    passes = _record_passes(monkeypatch, "_gaussian_interference")
    pair = DtePair(distribution=scales, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    half = 0.5 * scales.v_rel
    correlate_quadrature(pair, InterferometerSetting(half + 1e-6), InterferometerSetting(-half))
    assert len(passes) == levels
    assert len(spans) == 2


def test_feshbach_vs_uniform_simpson(fesh, scenario):
    """Independent oracle for the panel scheme: uniform Simpson in r."""
    from scipy.integrate import simpson
    from scipy.special import roots_legendre

    from dtebell._quadrature import _feshbach_interference

    tau = 0.05
    p0 = fesh.p0
    v = 2.0 * p0 / scenario.species.atom_mass
    m_int, _, dl_int = _internal_units(p0, tau, scenario.species.atom_mass, tau * v, 0.0)
    sl_int = 0.0

    fast, _ = _feshbach_interference(fesh, m_int, sl_int, dl_int)

    cm_sigma = fesh.sigma_p_cm / p0
    lo, hi = -8.5 * cm_sigma, 8.5 * cm_sigma
    n_c = 401
    xc, wc = roots_legendre(n_c)
    half = 0.5 * (hi - lo)
    c = 0.5 * (lo + hi) + half * xc
    u = c * c / 4.0
    r_hi = math.sqrt(max(0.0, 1.0 - u.min()) + fesh.x_cut / fesh.kappa)
    b = 1.0 / m_int
    span = abs(dl_int) * r_hi + b * r_hi**2
    n_r = int(12 * span) | 1
    r = np.linspace(1e-12, r_hi, n_r)
    osc = 2.0 * np.exp(1j * (dl_int * r - b * r * r))
    inner = np.empty(n_c, dtype=complex)
    chunk = max(1, int(3e7 // n_r))
    for i0 in range(0, n_c, chunk):
        kern = fesh._scaled_kernel(u[i0 : i0 + chunk, None], r[None, :])
        inner[i0 : i0 + chunk] = simpson(kern * osc[None, :], x=r, axis=1)
    f_cm = np.exp(-0.5 * (c / cm_sigma) ** 2) / (math.sqrt(2 * math.pi) * cm_sigma)
    phase_c = np.exp(1j * (0.5 * sl_int * c - c * c / (4.0 * m_int)))
    pref = fesh.normalization * fesh.kappa * fesh.b**2 / math.pi
    reference = pref * complex(np.dot(wc * half, f_cm * phase_c * inner))

    assert abs(fast - reference) < 1e-8
    assert abs(fast) == pytest.approx(0.96976037, abs=1e-6)


def test_feshbach_vs_gaussian_model(fesh, scenario, scales, phi_tau, pair):
    """Quantify (not bound) the model gap: fitted-Gaussian closed form vs
    the actual squared-sinc quadrature at the fringe center."""
    ell1, ell2 = center_lengths(scales, 1.0)
    sinc2 = DtePair(distribution=fesh, tau=1.0, phi_tau=phi_tau, species=scenario.species)
    quad = correlate_quadrature(
        sinc2, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    closed = correlate_closed_form(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=ell2)
    )
    gap = abs(quad.e_value - closed.e_value)
    # frozen empirical band: the Gaussian model overestimates the fringe
    # contrast here by about 0.065; fail loudly if the gap drifts
    assert 0.03 < gap < 0.09

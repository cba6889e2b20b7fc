import io
import json
import math
import warnings

import pytest

from dtebell import load_config
from dtebell.scenario import (
    CONSTANTS,
    BelowThresholdError,
    ConfigError,
    PulseSequence,
    Resonance,
    Scenario,
    Species,
    TimescaleSummary,
    TrapGuide,
    ValidationError,
    derive_scales,
    reference_scenario,
    scales_from_scenario,
)
from reference_models import record_fields

# Frozen oracle values for the bundled lithium-6 scenario, recomputed
# independently from the CODATA constants with mpmath-checked arithmetic.
M_LI6 = 9.98834639979638e-27
P0_REF = 5.343129568302826e-29
V_REL_REF = 0.010698727005326427
SIGMA_REL_REF = 3.929650984034736e-31
SIGMA_CM_REF = 1.819113573790802e-30
T_REL_REF = 3.41060795770383
T_CM_REF = 0.6366197723675814
LAMBDA_BAR_REF = 1.9736968821719415e-6


def test_constants_match_scipy():
    sc = pytest.importorskip("scipy.constants")
    assert CONSTANTS.hbar == pytest.approx(sc.hbar, rel=1e-8)
    assert CONSTANTS.k_boltzmann == pytest.approx(sc.k, rel=1e-12)
    assert CONSTANTS.bohr_magneton == pytest.approx(sc.physical_constants["Bohr magneton"][0], rel=1e-8)
    assert CONSTANTS.bohr_radius == pytest.approx(sc.physical_constants["Bohr radius"][0], rel=1e-8)
    assert CONSTANTS.atomic_mass_unit == pytest.approx(sc.physical_constants["atomic mass constant"][0], rel=1e-8)


def test_species_masses():
    li6 = Species(name="Li6", atom_mass=6.0151228 * CONSTANTS.atomic_mass_unit)
    assert li6.atom_mass == pytest.approx(M_LI6, rel=1e-12)
    # exact factor two, no binding-energy correction
    assert li6.molecule_mass == 2.0 * li6.atom_mass


def test_species_rejects_nonpositive_mass():
    with pytest.raises(ValidationError, match="atom_mass"):
        Species(name="bad", atom_mass=0.0)
    with pytest.raises(ValidationError, match="atom_mass"):
        Species(name="bad", atom_mass=-1e-27)


def test_trap_guide_warns_when_not_quasi_1d():
    with pytest.warns(UserWarning, match="omega_trap"):
        TrapGuide(omega_trap=900.0, omega_guide=1000.0, trap_depth=1e-30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TrapGuide(omega_trap=2.0 * math.pi * 50.0,
                  omega_guide=2.0 * math.pi * 1000.0,
                  trap_depth=1e-30)


def test_trap_guide_field_validation_names_offender():
    with pytest.raises(ValidationError, match="omega_guide"):
        TrapGuide(omega_trap=1.0, omega_guide=-1.0, trap_depth=1.0)
    with pytest.raises(ValidationError, match="trap_depth"):
        TrapGuide(omega_trap=1.0, omega_guide=10.0, trap_depth=math.nan)


def test_pulse_sequence_ordering():
    with pytest.raises(ValidationError, match="pulse_separation"):
        PulseSequence(base_field=1e-4, pulse_height=1e-5,
                      pulse_duration=0.5, pulse_separation=0.5)
    seq = PulseSequence(base_field=1e-4, pulse_height=1e-5,
                        pulse_duration=0.01, pulse_separation=1.0)
    assert seq.pulse_separation > seq.pulse_duration


def test_interferometer_block_validation(tmp_path):
    # the config's [interferometer] section is checked once, at load
    for body, match in (
        ("theta1_deg = 120", "theta1_deg: 120.0"),
        ("theta2_deg = -0.5", "theta2_deg: -0.5"),
    ):
        path = tmp_path / "case.cfg"
        path.write_text(f"[interferometer]\n{body}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))
    for theta in (0.0, 90.0):
        path.write_text(f"[interferometer]\ntheta1_deg = {theta}\n", encoding="utf-8")
        assert load_config(str(path)).get("interferometer", "theta1_deg") == theta


def test_reference_scenario_scales():
    # 1e-9 relative: the oracle values were computed with exact-decimal
    # arithmetic, the implementation accumulates the field detuning in
    # float64 with ~1e-9 cancellation noise
    scales = scales_from_scenario(reference_scenario())
    assert scales.p0_rel == pytest.approx(P0_REF, rel=1e-8)
    assert scales.v_rel == pytest.approx(V_REL_REF, rel=1e-8)
    assert scales.sigma_p_rel == pytest.approx(SIGMA_REL_REF, rel=1e-8)
    assert scales.sigma_p_cm == pytest.approx(SIGMA_CM_REF, rel=1e-8)
    assert scales.t_rel == pytest.approx(T_REL_REF, rel=1e-8)
    assert scales.t_cm == pytest.approx(T_CM_REF, rel=1e-12)
    assert scales.lambda_bar_rel == pytest.approx(LAMBDA_BAR_REF, rel=1e-8)


def _leaves(value, path="scenario"):
    """(path, value) for every field that is not a record, depth first."""
    if not hasattr(value, "__match_args__"):
        return [(path, value)]
    leaves = []
    for name, field in record_fields(value).items():
        leaves += _leaves(field, f"{path}.{name}")
    return leaves


class TestSingleSource:
    """data/paper-li6.cfg is the one copy of the reference numbers."""

    def test_reference_scenario_is_the_bundled_cfg(self):
        reference = _leaves(reference_scenario())
        converted = _leaves(load_config(None).to_scenario())
        assert [path for path, _ in reference] == [path for path, _ in converted]
        for (path, a), (_, b) in zip(reference, converted):
            if isinstance(a, float):
                assert a.hex() == b.hex(), path
            else:
                assert a == b, path

    def test_lab_units_convert_correctly_rounded(self):
        scenario = load_config(None).to_scenario()
        assert scenario.pulses.pulse_height == 4e-05  # 400 mG
        assert scenario.resonance.width == 1e-07  # 1 mG
        assert scenario.pulses.pulse_duration == 0.06  # 60 ms
        assert scenario.trap_guide.trap_depth == CONSTANTS.k_boltzmann * 1e-07  # 100 nK

    def test_cli_scales_match_the_library_reference(self):
        from dtebell.cli import main

        out, err = io.StringIO(), io.StringIO()
        assert main(["scales", "--json"], out, err) == 0
        payload = json.loads(out.getvalue())
        # test_bell.py's V_REF, PRODUCT_REF and LAMBDA_RATIO_REF
        assert payload["visibility"] == 0.7178682251780976
        assert payload["dispersion_product"] == 3.765486346780854
        assert payload["lambda_ratio"] == 0.0001844796005393443


def test_reference_dispersion_times_magnitudes():
    # both dispersion times sit within a factor ~5 of the 1 s interrogation
    scales = scales_from_scenario(reference_scenario())
    tau = reference_scenario().pulses.pulse_separation
    assert 0.2 < scales.t_cm / tau < 5.0
    assert 0.2 < scales.t_rel / tau < 5.0
    # fringe wavelength: ~12.4 um full wavelength at the reference velocity
    assert 2.0 * math.pi * scales.lambda_bar_rel == pytest.approx(12.4e-6, rel=0.01)


def test_t_cm_equals_trap_period_over_pi():
    # ground-state spread makes t_cm = 2/omega_trap independent of mass
    scn = reference_scenario()
    scales = scales_from_scenario(scn)
    assert scales.t_cm == pytest.approx(2.0 / scn.trap_guide.omega_trap, rel=1e-12)


def test_below_threshold_pulse_raises():
    scn = reference_scenario()
    weak = PulseSequence(base_field=scn.pulses.base_field,
                         pulse_height=1e-9,
                         pulse_duration=scn.pulses.pulse_duration,
                         pulse_separation=scn.pulses.pulse_separation)
    bad = Scenario(species=scn.species, trap_guide=scn.trap_guide,
                   resonance=scn.resonance, pulses=weak)
    with pytest.raises(BelowThresholdError, match="below-threshold pulse"):
        scales_from_scenario(bad)


def test_derive_scales_validates_inputs():
    li6 = reference_scenario().species
    with pytest.raises(ValidationError, match="sigma_p_cm"):
        derive_scales(li6, sigma_p_cm=-1.0, sigma_p_rel=1e-30, p0_rel=1e-28)
    with pytest.raises(ValidationError, match="p0_rel"):
        derive_scales(li6, sigma_p_cm=1e-30, sigma_p_rel=1e-30, p0_rel=0.0)
    # a finite width whose square overflows
    with pytest.raises(ValidationError, match=r"sigma_p_cm\^2 must be positive and finite, got inf"):
        derive_scales(Species("x", 1e-26), 1e200, 1e-30, 1e-20)


def test_reference_internal_mass():
    # the quadrature's unit conversion, dtebell._quadrature._internal_units
    from dtebell._quadrature import _internal_units

    p0 = scales_from_scenario(reference_scenario()).p0_rel
    m_int, _, _ = _internal_units(p0, 1.0, M_LI6, 0.0, 0.0)
    # m hbar / (p0^2 tau), the single dimensionless mass parameter
    expected = M_LI6 * CONSTANTS.hbar / (P0_REF**2 * 1.0)
    assert m_int == pytest.approx(expected, rel=1e-12)
    assert m_int == pytest.approx(3.6895e-4, rel=1e-3)


def test_timescale_summary_is_plain_data():
    s = TimescaleSummary(t_cm=1.0, t_rel=2.0, lambda_bar_rel=3.0, v_rel=4.0,
                         sigma_p_cm=5.0, sigma_p_rel=6.0, p0_rel=7.0)
    assert s.t_rel == 2.0

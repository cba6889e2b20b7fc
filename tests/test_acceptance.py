"""End-to-end acceptance checks.

Each test pins one headline capability of the toolkit with hard
tolerances: the lithium-6 timescales from the shipped config, the
fringe-center visibility and its 1/sqrt(2) threshold, the de Broglie
fringe period, agreement of the two independent correlation routes, the
optimized CHSH violation and its loss at long separation, the Monte
Carlo error model, the cross-module invariants, and the phase-drift
budget report.
"""

import io
import math
import time
from importlib import resources

import numpy as np
import pytest

from dtebell.bell import (
    TSIRELSON_BOUND,
    chsh_value,
    closed_form_correlator,
    feasible,
    optimize_settings,
    seed_settings,
    visibility,
)
from dtebell.cli import load_config, main
from dtebell.correlation import (
    DtePair,
    InterferometerSetting,
    correlate_closed_form,
    correlate_quadrature,
)
from dtebell.dissociation import (
    PHASE_BUDGET,
    distribution_from_scenario,
    phase_stability,
    phi_tau,
)
from dtebell.montecarlo import RunConfig, estimate_chsh, run
from dtebell.scenario import CONSTANTS, Scenario, derive_scales, scales_from_scenario
from reference_models import replace

SHIPPED_CFG = str(resources.files("dtebell").joinpath("data/paper-li6.cfg"))


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    import csv

    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], row)) for row in rows[1:]]


@pytest.fixture(scope="module")
def shipped_scenario():
    return load_config(SHIPPED_CFG).to_scenario()


@pytest.fixture(scope="module")
def shipped_visibility(shipped_scenario):
    scales = scales_from_scenario(shipped_scenario)
    return visibility(scales, shipped_scenario.pulses.pulse_separation)


@pytest.fixture(scope="module")
def reference_pipeline(shipped_scenario):
    """Closed-form correlator and optimized settings for the shipped case."""
    scn = shipped_scenario
    pair = DtePair(
        distribution=scales_from_scenario(scn),
        tau=scn.pulses.pulse_separation,
        phi_tau=phi_tau(scn),
        species=scn.species,
    )
    correlator = closed_form_correlator(pair)
    settings = optimize_settings(correlator, seed_settings(pair)).settings
    e_true = tuple(correlator(x, y).e_value for x, y, _ in settings.pairs())
    return correlator, settings, e_true


class TestTimescalesFromShippedConfig:
    def test_dispersion_times_and_runtime(self):
        start = time.perf_counter()
        code, out, err = invoke("scales", SHIPPED_CFG, "--json")
        elapsed = time.perf_counter() - start
        assert code == 0
        import json

        payload = json.loads(out)
        assert payload["t_rel_s"] == pytest.approx(3.4, abs=0.1)
        assert payload["t_cm_s"] == pytest.approx(0.64, abs=0.01)
        assert elapsed < 1.0


class TestFringeCenterVisibility:
    def test_band_threshold_and_product(self, shipped_scenario, shipped_visibility):
        assert shipped_visibility == pytest.approx(0.72, abs=0.01)
        assert shipped_visibility > 1.0 / math.sqrt(2.0)
        report = feasible(
            scales_from_scenario(shipped_scenario),
            shipped_scenario.pulses.pulse_separation,
        )
        assert report.product < 4.0
        assert report.feasible

    def test_scanned_fringe_amplitude_in_band(self, reference_pipeline,
                                              shipped_scenario):
        """The amplitude of an actually scanned fringe, not just the formula."""
        correlator, settings, _ = reference_pipeline
        outcome = chsh_value(correlator, settings)
        assert outcome.visibility == pytest.approx(0.72, abs=0.01)
        assert outcome.visibility > 1.0 / math.sqrt(2.0)


class TestDeBroglieFringePeriod:
    def test_relative_wavelength_at_one_cm_per_s(self, shipped_scenario):
        species = shipped_scenario.species
        reduced_mass = species.atom_mass / 2.0
        v_rel = 0.01
        p0 = reduced_mass * v_rel
        scales = derive_scales(species, 0.05 * p0, 0.01 * p0, p0)
        assert scales.v_rel == pytest.approx(v_rel, rel=1e-12)
        wavelength = 2.0 * math.pi * scales.lambda_bar_rel
        assert wavelength == pytest.approx(13.3e-6, abs=0.1e-6)
        # same number straight from h / (mu * v)
        h = 2.0 * math.pi * CONSTANTS.hbar
        assert wavelength == pytest.approx(h / (reduced_mass * v_rel), rel=1e-12)


class TestOracleEquivalence:
    def test_quadrature_matches_closed_form_on_randomized_cases(
        self, shipped_scenario
    ):
        """Two independent routes to every joint probability.

        20 randomized Gaussian source states x a 5x5 grid of arm lengths
        around the envelope center; every P agrees to 1e-6 absolute,
        within a 60 s budget.
        """
        species = shipped_scenario.species
        p0 = scales_from_scenario(shipped_scenario).p0_rel
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            sigma_cm = rng.uniform(0.01, 0.08) * p0
            sigma_rel = rng.uniform(0.002, 0.02) * p0
            tau = rng.uniform(0.3, 2.5)
            pulse_phase = rng.uniform(0.0, 2.0 * math.pi)
            scales = derive_scales(species, sigma_cm, sigma_rel, p0)
            v = 2.0 * p0 / species.atom_mass
            period = 2.0 * math.pi * CONSTANTS.hbar / p0
            pair = DtePair(
                distribution=scales,
                tau=tau,
                phi_tau=pulse_phase,
                species=species,
            )
            for d1 in np.linspace(-1.5, 1.5, 5):
                for d2 in np.linspace(-1.5, 1.5, 5):
                    ell1 = tau * v / 2.0 + d1 * period
                    ell2 = -tau * v / 2.0 + d2 * period
                    arm1 = InterferometerSetting(ell=ell1)
                    arm2 = InterferometerSetting(ell=ell2)
                    closed = correlate_closed_form(pair, arm1, arm2)
                    quad = correlate_quadrature(pair, arm1, arm2)
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            worst = max(
                                worst,
                                abs(
                                    closed.probability(s1, s2)
                                    - quad.probability(s1, s2)
                                ),
                            )
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6
        assert elapsed < 60.0


class TestOptimizedBellViolation:
    def test_s_saturates_visibility_bound(self, shipped_visibility):
        code, out, err = invoke("bell", SHIPPED_CFG, "--optimize")
        assert code == 0
        summary = parse_csv(out)[-1]
        s = float(summary["S"])
        assert s == pytest.approx(2.03, abs=0.005)
        assert s > 2.0
        assert s == pytest.approx(
            2.0 * math.sqrt(2.0) * shipped_visibility, abs=1e-3
        )

    def test_long_separation_loses_violation(self):
        code, out, err = invoke("bell", SHIPPED_CFG, "--optimize", "--tau", "2.0")
        assert code == 0
        summary = parse_csv(out)[-1]
        assert float(summary["S"]) < 2.0
        assert "violated = false" in err


class TestMonteCarloStatistics:
    def test_e_values_within_four_stderr_across_seeds(self, reference_pipeline):
        correlator, settings, e_true = reference_pipeline
        good = 0
        for seed in range(100):
            table = run(
                correlator,
                RunConfig(
                    events_per_setting=10_000,
                    seed=seed,
                    mode="Switched",
                    settings=settings,
                ),
            )
            estimate = estimate_chsh(table)
            if all(
                abs(e_hat - e) <= 4.0 * se
                for e_hat, e, se in zip(
                    estimate.e_values, e_true, estimate.e_stderr
                )
            ):
                good += 1
        assert good >= 95

    def test_stderr_scales_as_inverse_sqrt_n(self, reference_pipeline):
        correlator, settings, e_true = reference_pipeline
        scaled = []
        for n in (100, 10_000, 1_000_000):
            table = run(
                correlator,
                RunConfig(
                    events_per_setting=n,
                    seed=1234,
                    mode="Switched",
                    settings=settings,
                ),
            )
            scaled.append(estimate_chsh(table).stderr * math.sqrt(n))
        assert max(scaled) / min(scaled) < 1.10
        predicted = math.sqrt(sum(1.0 - e * e for e in e_true))
        for value in scaled:
            assert value == pytest.approx(predicted, rel=0.10)


class TestCrossModuleInvariants:
    def test_probability_normalization(self, shipped_scenario, reference_pipeline):
        correlator, settings, _ = reference_pipeline
        for x, y, _sign in settings.pairs():
            result = correlator(x, y)
            total = sum(
                result.probability(s1, s2) for s1 in (1, -1) for s2 in (1, -1)
            )
            assert total == pytest.approx(1.0, abs=1e-9)
        scn = shipped_scenario
        pair = DtePair(
            distribution=scales_from_scenario(scn),
            tau=scn.pulses.pulse_separation,
            phi_tau=phi_tau(scn),
            species=scn.species,
        )
        quad = correlate_quadrature(
            pair,
            InterferometerSetting(ell=settings.a.ell),
            InterferometerSetting(ell=settings.b.ell),
        )
        total = sum(quad.probability(s1, s2) for s1 in (1, -1) for s2 in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_tsirelson_bound_respected(self, reference_pipeline):
        correlator, settings, _ = reference_pipeline
        assert chsh_value(correlator, settings).s_value <= TSIRELSON_BOUND + 1e-9
        from reference_models import TEXTBOOK, spin_correlation

        spin = chsh_value(spin_correlation, TEXTBOOK)
        assert spin.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert spin.s_value <= TSIRELSON_BOUND + 1e-9

    def test_source_density_parity_and_normalization(self, shipped_scenario):
        dist = distribution_from_scenario(shipped_scenario)
        rng = np.random.default_rng(5)
        p0 = dist.p0
        pc = rng.uniform(-0.15, 0.15, 32) * p0
        pr = rng.uniform(-3.0, 3.0, 32) * p0
        np.testing.assert_allclose(
            dist.density(pc, pr), dist.density(pc, -pr), rtol=1e-12
        )
        np.testing.assert_allclose(
            dist.density(pc, pr), dist.density(-pc, pr), rtol=1e-12
        )
        # independent quadrature family: Gauss-Legendre x composite Simpson
        from scipy.integrate import simpson

        sc = dist.sigma_p_cm / p0
        cycles = (8.5 * sc) ** 2 / 4.0 * dist.kappa / (2.0 * math.pi)
        n_c = max(64, 16 * int(math.ceil(cycles)) + 48)
        x, w = np.polynomial.legendre.leggauss(n_c)
        c = 8.5 * sc * x
        r = np.linspace(0.0, dist.r_hi(), 160_001)
        total = 0.0
        for ci, wi in zip(c, w):
            total += wi * simpson(dist.density(ci * p0, r * p0), x=r * p0)
        total *= 2.0 * 8.5 * sc * p0
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_stability_sensitivities_match_finite_differences(
        self, shipped_scenario
    ):
        scn = shipped_scenario
        report = phase_stability(scn, relative_errors=1e-5)
        h = 1e-6

        def rebuilt(**kw):
            pulses = {
                k: v
                for k, v in kw.items()
                if k in ("base_field", "pulse_height", "pulse_duration",
                         "pulse_separation")
            }
            out = scn
            if pulses:
                out = Scenario(
                    species=out.species, trap_guide=out.trap_guide,
                    resonance=out.resonance,
                    pulses=replace(out.pulses, **pulses),
                )
            if "resonance_position" in kw:
                out = Scenario(
                    species=out.species, trap_guide=out.trap_guide,
                    resonance=replace(
                        out.resonance, position=kw["resonance_position"]
                    ),
                    pulses=out.pulses,
                )
            if "trap_depth" in kw:
                out = Scenario(
                    species=out.species,
                    trap_guide=replace(out.trap_guide, trap_depth=kw["trap_depth"]),
                    resonance=out.resonance, pulses=out.pulses,
                )
            return out

        values = {
            "base_field": scn.pulses.base_field,
            "pulse_height": scn.pulses.pulse_height,
            "resonance_position": scn.resonance.position,
            "pulse_duration": scn.pulses.pulse_duration,
            "pulse_separation": scn.pulses.pulse_separation,
            "trap_depth": scn.trap_guide.trap_depth,
        }
        for name, x in values.items():
            hi = phi_tau(rebuilt(**{name: x * (1.0 + h)}))
            lo = phi_tau(rebuilt(**{name: x * (1.0 - h)}))
            numeric = (hi - lo) / (2.0 * x * h)
            assert report.sensitivities[name] == pytest.approx(
                numeric, rel=1e-8
            ), name

    def test_cli_output_byte_identical_under_fixed_seed(self):
        first = invoke(
            "montecarlo", SHIPPED_CFG, "--events", "300", "--seed", "13"
        )
        second = invoke(
            "montecarlo", SHIPPED_CFG, "--events", "300", "--seed", "13"
        )
        assert first == second
        scan_a = invoke(
            "scan", SHIPPED_CFG, "--axis", "ell1", "--start", "5340",
            "--stop", "5360", "--steps", "5",
        )
        scan_b = invoke(
            "scan", SHIPPED_CFG, "--axis", "ell1", "--start", "5340",
            "--stop", "5360", "--steps", "5",
        )
        assert scan_a == scan_b


class TestStabilityBudgetReport:
    def test_per_parameter_verdicts(self, shipped_scenario):
        report = phase_stability(shipped_scenario, relative_errors=1e-5)
        expected = {
            "base_field", "pulse_height", "resonance_position",
            "pulse_duration", "pulse_separation", "trap_depth",
        }
        assert set(report.drifts) == expected
        assert set(report.passes) == expected
        assert PHASE_BUDGET == pytest.approx(0.05)
        for name in expected:
            assert isinstance(report.passes[name], bool)
            assert report.passes[name] == (report.drifts[name] <= PHASE_BUDGET)
            assert report.drifts[name] == pytest.approx(
                abs(report.sensitivities[name]) * 1e-5
                * abs(_parameter_value(shipped_scenario, name)),
                rel=1e-12,
            )
        # the report grades each knob instead of one global verdict: at
        # 1e-5 relative error some pass and some fail
        assert report.passes["pulse_duration"]
        assert not report.passes["base_field"]
        # a common drift of base field and resonance position cancels in
        # the detuning, so the correlated-drift figure is zero
        assert report.common_mode_field_drift == pytest.approx(0.0, abs=1e-12)

    def test_report_reaches_the_cli(self):
        code, _, err = invoke("feasibility", SHIPPED_CFG, "--steps", "3")
        assert code == 0
        assert "budget 0.05" in err
        assert "pass" in err and "FAIL" in err


def _parameter_value(scn, name):
    return {
        "base_field": scn.pulses.base_field,
        "pulse_height": scn.pulses.pulse_height,
        "resonance_position": scn.resonance.position,
        "pulse_duration": scn.pulses.pulse_duration,
        "pulse_separation": scn.pulses.pulse_separation,
        "trap_depth": scn.trap_guide.trap_depth,
    }[name]

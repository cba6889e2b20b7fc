"""Finite-statistics run simulation and CHSH estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtebell.bell import (
    TSIRELSON_BOUND,
    closed_form_correlator,
    optimize_settings,
    seed_settings,
)
from dtebell.correlation import CorrelationResult, InterferometerSetting
from dtebell.dissociation import phi_tau
import dtebell.montecarlo as mc
from dtebell.montecarlo import (
    DISCARDED,
    MODES,
    OUTCOMES,
    ChshEstimate,
    CountTable,
    InsufficientDataError,
    RunConfig,
    estimate_chsh,
    multi_dissociation_rate,
    pair_rng,
    run,
    sample_event,
)
from dtebell.scenario import ValidationError, reference_scenario, scales_from_scenario
from reference_models import TEXTBOOK, angle_settings, spin_correlation as spin_correlator

# Golden tallies pin the RNG contract (Philox keyed by (seed, pair), one
# uniform per Switched event, two per BeamSplitter event).
GOLDEN_SWITCHED = (
    (210, 41, 42, 207),
    (35, 212, 215, 38),
    (206, 33, 45, 216),
    (200, 26, 45, 229),
)
GOLDEN_BEAMSPLITTER = (
    (111, 21, 24, 95),
    (12, 115, 108, 18),
    (120, 14, 17, 106),
    (109, 16, 17, 119),
)
GOLDEN_BS_DISCARDED = (249, 247, 243, 239)


@pytest.fixture(scope="module")
def reference_setup():
    scenario = reference_scenario()
    scales = scales_from_scenario(scenario)
    phase = phi_tau(scenario)
    tau = scenario.pulses.pulse_separation
    correlator = closed_form_correlator(scales, tau, phase)
    optimized = optimize_settings(correlator, seed_settings(scales, tau, phase))
    e_true = [correlator(x, y).e_value for x, y, _ in optimized.settings.pairs()]
    return correlator, optimized.settings, e_true


def degenerate_result():
    p = {(1, 1): 1.0, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.0}
    return CorrelationResult(p=p, e_value=1.0, method="ClosedForm", quadrature_error_estimate=0.0,
                             visibility=1.0)


# ------------------------------------------------------------- config/table


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(0, 1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10.5, 1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, -1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 2**64, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 1, "switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 1, "Switched", (0.0, 1.0, 2.0, 3.0))
    RunConfig(10, 2**64 - 1, "BeamSplitter", TEXTBOOK)


def test_count_table_invariants():
    good = CountTable(
        counts=((5, 0, 0, 0),) * 4,
        discarded=(0, 0, 0, 0),
        events_per_setting=5,
        mode="Switched",
        settings=TEXTBOOK,
    )
    assert good.kept(0) == 5
    assert good.count(0, (1, 1)) == 5
    assert good.count(3, (-1, -1)) == 0
    with pytest.raises(ValidationError):  # tallies don't add up
        CountTable(((4, 0, 0, 0),) * 4, (0,) * 4, 5, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):  # Switched cannot discard
        CountTable(((4, 0, 0, 0),) * 4, (1,) * 4, 5, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):  # negative tally
        CountTable(((6, -1, 0, 0),) * 4, (0,) * 4, 5, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):  # missing a pair
        CountTable(((5, 0, 0, 0),) * 3, (0, 0, 0), 5, "Switched", TEXTBOOK)
    CountTable(((2, 1, 0, 0),) * 4, (2,) * 4, 5, "BeamSplitter", TEXTBOOK)


# ------------------------------------------------------------------ sampler


def test_sample_event_degenerate_distribution():
    rng = pair_rng(0, 0)
    for _ in range(25):
        assert sample_event(degenerate_result(), "Switched", rng) == (1, 1)


def test_sample_event_mode_validation():
    with pytest.raises(ValidationError):
        sample_event(degenerate_result(), "both", pair_rng(0, 0))


def test_sample_event_rejects_unnormalized():
    bad = degenerate_result()
    object.__setattr__(bad, "p", {pair: 0.3 for pair in OUTCOMES})
    with pytest.raises(ValidationError):
        sample_event(bad, "Switched", pair_rng(0, 0))


def test_sample_event_uniform_frequencies():
    # spin model at a quarter turn: all four ports equally likely
    result = spin_correlator(
        InterferometerSetting(ell=0.0), InterferometerSetting(ell=0.5 * math.pi)
    )
    uniform = angle_settings(0.0, 0.0, 0.5 * math.pi, 0.5 * math.pi)
    table = run(spin_correlator, RunConfig(1_000_000, 2024, "Switched", uniform))
    band = 4.0 * math.sqrt(0.25 * 0.75 / 1_000_000)
    for i in range(4):
        for n in table.counts[i]:
            assert abs(n / 1_000_000 - 0.25) < band
    # spot-check the sequential sampler on the same distribution
    rng = pair_rng(2024, 0)
    draws = 20_000
    tallies = {outcome: 0 for outcome in OUTCOMES}
    for _ in range(draws):
        tallies[sample_event(result, "Switched", rng)] += 1
    small_band = 4.0 * math.sqrt(0.25 * 0.75 / draws)
    for outcome in OUTCOMES:
        assert abs(tallies[outcome] / draws - 0.25) < small_band


def test_beamsplitter_discard_fraction():
    table = run(spin_correlator, RunConfig(1_000_000, 11, "BeamSplitter", TEXTBOOK))
    band = 4.0 * math.sqrt(0.25 / 1_000_000)
    for dropped in table.discarded:
        assert abs(dropped / 1_000_000 - 0.5) < band


# --------------------------------------------------------------------- run


def test_run_single_event():
    table = run(spin_correlator, RunConfig(1, 3, "Switched", TEXTBOOK))
    for i in range(4):
        assert table.kept(i) == 1
        assert table.discarded[i] == 0


def test_run_deterministic_and_golden():
    config = RunConfig(500, 4242, "Switched", TEXTBOOK)
    first = run(spin_correlator, config)
    second = run(spin_correlator, config)
    assert first == second
    assert first.counts == GOLDEN_SWITCHED
    bs = run(spin_correlator, RunConfig(500, 4242, "BeamSplitter", TEXTBOOK))
    assert bs.counts == GOLDEN_BEAMSPLITTER
    assert bs.discarded == GOLDEN_BS_DISCARDED


def test_run_matches_sequential_sampler():
    for mode in ("Switched", "BeamSplitter"):
        table = run(spin_correlator, RunConfig(300, 77, mode, TEXTBOOK))
        for i, (x, y, _sign) in enumerate(TEXTBOOK.pairs()):
            result = spin_correlator(x, y)
            rng = pair_rng(77, i)
            tallies = {outcome: 0 for outcome in OUTCOMES}
            dropped = 0
            for _ in range(300):
                outcome = sample_event(result, mode, rng)
                if outcome == DISCARDED:
                    dropped += 1
                else:
                    tallies[outcome] += 1
            assert tuple(tallies[o] for o in OUTCOMES) == table.counts[i]
            assert dropped == table.discarded[i]


def _one_shot_tallies(correlator, config):
    """Each pair's whole stream in one draw, tallied by searchsorted."""
    counts, discarded = [], []
    n = config.events_per_setting
    for index, (x, y, _sign) in enumerate(config.settings.pairs()):
        cum = np.cumsum([correlator(x, y).p[outcome] for outcome in OUTCOMES])
        rng = pair_rng(config.seed, index)
        if config.mode == "BeamSplitter":
            u = rng.random((n, 2))
            port_u = u[u[:, 0] >= 0.5, 1]
        else:
            port_u = rng.random(n)
        idx = np.minimum(np.searchsorted(cum, port_u, side="right"), 3)
        counts.append(tuple(int(t) for t in np.bincount(idx, minlength=4)))
        discarded.append(n - len(port_u))
    return tuple(counts), tuple(discarded)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("chunk", [1000, mc.EVENT_CHUNK])
def test_chunked_run_matches_one_shot(reference_setup, monkeypatch, mode, chunk):
    correlator, chsh_settings, _ = reference_setup
    monkeypatch.setattr(mc, "EVENT_CHUNK", chunk)
    # a ragged last chunk of 3 events
    config = RunConfig(2 * chunk + 3, 5, mode, chsh_settings)
    table = run(correlator, config)
    assert (table.counts, table.discarded) == _one_shot_tallies(correlator, config)


def test_run_propagates_correlator_errors():
    def failing(_x, _y):
        raise ValidationError("broken correlator")

    with pytest.raises(ValidationError):
        run(failing, RunConfig(10, 0, "Switched", TEXTBOOK))


# --------------------------------------------------------------- estimation


def test_estimate_all_plus_plus():
    table = CountTable(((7, 0, 0, 0),) * 4, (0,) * 4, 7, "Switched", TEXTBOOK)
    estimate = estimate_chsh(table)
    assert estimate.e_values == (1.0, 1.0, 1.0, 1.0)
    assert estimate.s_value == 2.0  # |1 - 1 + 1 + 1|
    # E_hat = 1 is not exact: 2/(n + 1) from the z = 1 Wilson interval
    assert estimate.e_stderr == (0.25,) * 4
    assert estimate.stderr == 0.5
    assert not estimate.violated


def test_estimate_insufficient_data():
    table = CountTable(
        counts=((1, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0)),
        discarded=(2, 0, 0, 0),
        events_per_setting=3,
        mode="BeamSplitter",
        settings=TEXTBOOK,
    )
    with pytest.raises(InsufficientDataError):
        estimate_chsh(table)


def test_estimate_beyond_quantum_bound_flagged():
    # a fluke sample outside the quantum range is flagged, not rejected
    table = CountTable(
        counts=((5, 0, 0, 0), (0, 5, 0, 0), (5, 0, 0, 0), (5, 0, 0, 0)),
        discarded=(0,) * 4,
        events_per_setting=5,
        mode="Switched",
        settings=TEXTBOOK,
    )
    estimate = estimate_chsh(table)
    assert estimate.s_value == 4.0
    assert estimate.exceeds_tsirelson and estimate.violated
    assert estimate.visibility == 1.0
    with pytest.raises(ValidationError):  # beyond the algebraic maximum
        replace(estimate, s_value=4.5)


def test_spin_textbook_run_estimate():
    estimate = estimate_chsh(
        run(spin_correlator, RunConfig(100_000, 12345, "Switched", TEXTBOOK))
    )
    assert abs(estimate.s_value - TSIRELSON_BOUND) < 5.0 * estimate.stderr
    assert estimate.s_value == pytest.approx(2.8268199999999997, abs=1e-12)
    assert estimate.stderr == pytest.approx(0.004474674466371828, abs=1e-12)
    assert estimate.violated


def test_reference_scenario_seeded_repetitions(reference_setup):
    correlator, chsh_settings, e_true = reference_setup
    all_e_ok = 0
    violations = 0
    for seed in range(100):
        estimate = estimate_chsh(
            run(correlator, RunConfig(10_000, seed, "Switched", chsh_settings))
        )
        z_scores = [
            abs(e_hat - e) / stderr
            for e_hat, e, stderr in zip(estimate.e_values, e_true, estimate.e_stderr)
        ]
        if all(z <= 4.0 for z in z_scores):
            all_e_ok += 1
        if estimate.s_value > 2.0:
            violations += 1
    assert all_e_ok >= 95
    assert violations >= 95
    assert violations == 96  # frozen for this seed set; guards the RNG contract


def test_stderr_scaling(reference_setup):
    correlator, chsh_settings, e_true = reference_setup
    scaled = {}
    for n in (100, 10_000, 1_000_000):
        estimate = estimate_chsh(
            run(correlator, RunConfig(n, 0, "Switched", chsh_settings))
        )
        scaled[n] = estimate.stderr * math.sqrt(n)
    values = list(scaled.values())
    assert max(values) / min(values) < 1.10
    expected = math.sqrt(sum(1.0 - e * e for e in e_true))
    for value in values:
        assert abs(value - expected) / expected < 0.05


def test_estimator_consistency_large_n(reference_setup):
    correlator, chsh_settings, e_true = reference_setup
    estimate = estimate_chsh(
        run(correlator, RunConfig(1_000_000, 7, "Switched", chsh_settings))
    )
    for e_hat, e, stderr in zip(estimate.e_values, e_true, estimate.e_stderr):
        assert abs(e_hat - e) <= 4.0 * stderr


def test_beamsplitter_unbiased(reference_setup):
    correlator, chsh_settings, _ = reference_setup
    switched = estimate_chsh(
        run(correlator, RunConfig(1_000_000, 11, "Switched", chsh_settings))
    )
    beamsplit = estimate_chsh(
        run(correlator, RunConfig(1_000_000, 11, "BeamSplitter", chsh_settings))
    )
    for i in range(4):
        combined = math.hypot(switched.e_stderr[i], beamsplit.e_stderr[i])
        assert abs(switched.e_values[i] - beamsplit.e_values[i]) <= 4.0 * combined
    combined_s = math.hypot(switched.stderr, beamsplit.stderr)
    assert abs(switched.s_value - beamsplit.s_value) <= 4.0 * combined_s


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 400), st.integers(0, 400), st.integers(0, 400), st.integers(0, 400)
        ).filter(lambda row: sum(row) >= 2),
        min_size=4,
        max_size=4,
    )
)
def test_estimator_algebra(rows):
    total = max(sum(row) for row in rows)
    table = CountTable(
        counts=tuple(tuple(row) for row in rows),
        discarded=tuple(total - sum(row) for row in rows),
        events_per_setting=total,
        mode="BeamSplitter",
        settings=TEXTBOOK,
    )
    e_expected = [
        (row[0] + row[3] - row[1] - row[2]) / sum(row) for row in rows
    ]
    s_expected = abs(e_expected[0] - e_expected[1] + e_expected[2] + e_expected[3])
    estimate = estimate_chsh(table)
    assert estimate.exceeds_tsirelson == (s_expected > TSIRELSON_BOUND + 1e-9)
    assert estimate.violated == (s_expected > 2.0)
    assert estimate.visibility == min(1.0, s_expected / TSIRELSON_BOUND)
    assert estimate.e_values == tuple(e_expected)
    assert estimate.s_value == s_expected
    variances = [
        (2.0 / (sum(row) + 1)) ** 2 if abs(e) == 1.0 else (1 - e * e) / sum(row)
        for e, row in zip(e_expected, rows)
    ]
    assert estimate.stderr == pytest.approx(math.sqrt(sum(variances)), rel=1e-12)
    assert all(-1.0 <= e <= 1.0 for e in estimate.e_values)


# ------------------------------------------------------ multi-molecule rate


def test_multi_dissociation_rate():
    assert multi_dissociation_rate(0.0, 5) == 0.0
    assert multi_dissociation_rate(1.0, 2) == 1.0
    # small p: dominated by the pair term C(n,2) p^2
    p = 1e-4
    assert multi_dissociation_rate(p, 10) == pytest.approx(45.0 * p * p, rel=1e-2)
    assert multi_dissociation_rate(0.3, 4) > multi_dissociation_rate(0.3, 2)
    with pytest.raises(ValidationError):
        multi_dissociation_rate(1.5, 2)
    with pytest.raises(ValidationError):
        multi_dissociation_rate(0.5, 0)

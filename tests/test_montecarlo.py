"""Finite-statistics run simulation and CHSH estimation."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dtebell.bell import (
    TSIRELSON_BOUND,
    closed_form_correlator,
    optimize_settings,
    seed_settings,
)
from dtebell.correlation import CorrelationResult, DtePair
from dtebell.dissociation import phi_tau
from dtebell.montecarlo import (
    _multinomial,
    _philox_uniforms,
    _philox_words,
    MODES,
    OUTCOMES,
    ChshEstimate,
    CountTable,
    InsufficientDataError,
    RunConfig,
    estimate_chsh,
    multi_dissociation_rate,
    run,
)
from dtebell.scenario import ValidationError, reference_scenario, scales_from_scenario
from reference_models import TEXTBOOK, angle_settings, replace, spin_correlation as spin_correlator

# Golden tallies pin the RNG contract: Philox keyed by (seed, pair), one
# multinomial draw per pair, the BeamSplitter discard as its fifth cell.
# The sampler is an in-package port of numpy 2.4's, so a numpy release
# cannot move them; should numpy change its binomial sampler (NEP 19 lets a
# feature release do so), the numpy oracle tests below flag it.
GOLDEN_SWITCHED = (
    (208, 30, 38, 224),
    (29, 232, 195, 44),
    (227, 38, 40, 195),
    (203, 36, 35, 226),
)
GOLDEN_BEAMSPLITTER = (
    (104, 17, 19, 103),
    (27, 105, 109, 17),
    (103, 18, 13, 105),
    (99, 21, 19, 120),
)
GOLDEN_BS_DISCARDED = (257, 242, 261, 241)


@pytest.fixture(scope="module")
def reference_setup():
    scenario = reference_scenario()
    pair = DtePair(
        distribution=scales_from_scenario(scenario), tau=scenario.pulses.pulse_separation,
        phi_tau=phi_tau(scenario), species=scenario.species,
    )
    correlator = closed_form_correlator(pair)
    optimized = optimize_settings(correlator, seed_settings(pair))
    e_true = [correlator(x, y).e_value for x, y, _ in optimized.settings.pairs()]
    return correlator, optimized.settings, e_true


def fixed_correlator(probabilities):
    """A correlator returning the same four probabilities at every pair."""
    p = dict(zip(OUTCOMES, probabilities))
    result = CorrelationResult(p=p, e_value=p[(1, 1)] + p[(-1, -1)] - p[(1, -1)] - p[(-1, 1)],
                               quadrature_error_estimate=0.0, visibility=0.0)
    return lambda _x, _y: result


# ------------------------------------------------------------- config/table


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(0, 1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10.5, 1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):  # a tally is an int64 count
        RunConfig(2**63, 1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, -1, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 2**64, "Switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 1, "switched", TEXTBOOK)
    with pytest.raises(ValidationError):
        RunConfig(10, 1, "Switched", (0.0, 1.0, 2.0, 3.0))
    RunConfig(10, 2**64 - 1, "BeamSplitter", TEXTBOOK)
    RunConfig(2**63 - 1, 0, "Switched", TEXTBOOK)


INTEGER_SITES = {
    "events_per_setting": lambda n: RunConfig(n, 1, "Switched", TEXTBOOK),
    "seed": lambda n: RunConfig(10, n, "Switched", TEXTBOOK),
    "n_molecules": lambda n: multi_dissociation_rate(0.5, n),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_inputs_accept_ints_and_numpy_integers(site):
    # one rule at every integer input: ints, bools and numpy integer scalars
    for value in (3, True, np.int64(3), np.uint8(3)):
        INTEGER_SITES[site](value)
    for value in (3.0, np.float64(3.0), np.bool_(True), "3", None):
        with pytest.raises(ValidationError, match=f"{site} must be an integer"):
            INTEGER_SITES[site](value)


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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 7, 10_000, 2**63 - 1])
def test_run_tallies_sum_to_n(mode, n):
    table = run(spin_correlator, RunConfig(n, 19, mode, TEXTBOOK))
    for i in range(4):
        assert table.kept(i) + table.discarded[i] == n
        assert all(isinstance(k, int) and k >= 0 for k in table.counts[i])
        if mode == "Switched":
            assert table.discarded[i] == 0


def test_run_degenerate_distribution():
    for mode in MODES:
        for cell, outcome in enumerate(OUTCOMES):
            probabilities = [0.0] * 4
            probabilities[cell] = 1.0
            table = run(fixed_correlator(probabilities), RunConfig(1000, 0, mode, TEXTBOOK))
            for i in range(4):
                assert table.count(i, outcome) == table.kept(i)
                assert table.kept(i) + table.discarded[i] == 1000


def test_sample_event_mode_validation():
    """An unknown mode is refused by RunConfig and, should a config slip
    past it, by the CountTable run() builds, before any tally escapes."""
    with pytest.raises(ValidationError):
        RunConfig(10, 0, "both", TEXTBOOK)
    config = RunConfig(10, 0, "Switched", TEXTBOOK)
    object.__setattr__(config, "mode", "both")
    with pytest.raises(ValidationError):
        run(spin_correlator, config)


def test_run_rejects_unnormalized():
    bad = fixed_correlator([1.0, 0.0, 0.0, 0.0])(None, None)
    for p in ({pair: 0.3 for pair in OUTCOMES}, {pair: math.nan for pair in OUTCOMES}):
        object.__setattr__(bad, "p", p)
        with pytest.raises(ValidationError):
            run(lambda _x, _y: bad, RunConfig(10, 0, "Switched", TEXTBOOK))


def test_run_uniform_frequencies():
    # spin model at a quarter turn: all four ports equally likely
    uniform = angle_settings(0.0, 0.0, 0.5 * math.pi, 0.5 * math.pi)
    table = run(spin_correlator, RunConfig(1_000_000, 2024, "Switched", uniform))
    band = 4.0 * math.sqrt(0.25 * 0.75 / 1_000_000)
    for i in range(4):
        for n in table.counts[i]:
            assert abs(n / 1_000_000 - 0.25) < band


def test_beamsplitter_discard_fraction():
    table = run(spin_correlator, RunConfig(1_000_000, 11, "BeamSplitter", TEXTBOOK))
    band = 4.0 * math.sqrt(0.25 / 1_000_000)
    for dropped in table.discarded:
        assert abs(dropped / 1_000_000 - 0.5) < band


@pytest.mark.parametrize("mode", MODES)
def test_run_cells_follow_binomial(mode):
    """Over many seeds each cell's tally has the mean n p_k and the
    variance n p_k (1 - p_k) of Binomial(n, p_k); in BeamSplitter mode the
    port cells carry p_k / 2 and the discard cell 1/2."""
    n, seeds = 1000, 400
    tallies = np.array([
        [(*row, dropped) for row, dropped in zip(table.counts, table.discarded)]
        for table in (run(spin_correlator, RunConfig(n, seed, mode, TEXTBOOK))
                      for seed in range(seeds))
    ])  # (seed, pair, cell)
    for i, (x, y, _sign) in enumerate(TEXTBOOK.pairs()):
        p = np.array([spin_correlator(x, y).p[outcome] for outcome in OUTCOMES] + [0.0])
        if mode == "BeamSplitter":
            p = np.append(0.5 * p[:4], 0.5)
        for k in range(5):
            mean, variance = n * p[k], n * p[k] * (1.0 - p[k])
            cell = tallies[:, i, k]
            if variance == 0.0:
                assert np.all(cell == mean)
                continue
            assert abs(cell.mean() - mean) < 4.0 * math.sqrt(variance / seeds)
            assert abs(cell.var(ddof=1) / variance - 1.0) < 4.0 * math.sqrt(2.0 / (seeds - 1))


def numpy_multinomial(seed, index, n, cells):
    stream = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    return np.random.Generator(stream).multinomial(n, cells).tolist()


def numpy_tallies(correlator, config):
    """(counts, discarded) as run drew them with numpy itself: the cells
    clipped at 0 and renormalized, the BeamSplitter fifth cell, and a cell
    of probability 0 left out of the draw."""
    counts, discarded = [], []
    for index, (x, y, _sign) in enumerate(config.settings.pairs()):
        p = correlator(x, y).p
        cells = np.clip(np.array([p[outcome] for outcome in OUTCOMES], dtype=float), 0.0, None)
        cells /= cells.sum()
        if config.mode == "BeamSplitter":
            cells = np.append(0.5 * cells, 0.5)
        drawn = cells > 0.0
        tally = np.zeros(len(cells), dtype=np.int64)
        tally[drawn] = numpy_multinomial(
            config.seed, index, config.events_per_setting, cells[drawn]
        )
        counts.append(tuple(tally[:4].tolist()))
        discarded.append(int(tally[4:].sum()))
    return tuple(counts), tuple(discarded)


SMALL = st.sampled_from([0.0, 1e-300, 1e-16, 1e-12, 1e-9, 1e-3])
# round-off negatives, down to the -1e-9 that CorrelationResult admits
NEGATIVE = st.sampled_from([-1e-12, -1e-10, -5e-10, -1e-9])


@settings(max_examples=80, deadline=None)
@given(
    dominant=st.integers(0, 3),
    minor=st.tuples(*[st.one_of(SMALL, NEGATIVE)] * 3),
    slack=st.sampled_from([0.0, -0.99e-9, 0.99e-9]),
    n=st.one_of(st.integers(1, 50), st.integers(1, 2**63 - 1)),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(MODES),
)
def test_run_probability_edge_cases(dominant, minor, slack, n, seed, mode):
    """P near 0, near 1, with the round-off negatives and the 1e-9 sum
    slack that CorrelationResult admits: the draw always succeeds, a cell
    of probability <= 0 tallies nothing, and the tallies are numpy's."""
    probabilities = [*minor[:dominant], 1.0 - sum(minor) + slack, *minor[dominant:]]
    assume(probabilities[dominant] <= 1.0 + 1e-9)  # negatives push the dominant cell up
    config = RunConfig(n, seed, mode, TEXTBOOK)
    correlator = fixed_correlator(probabilities)
    table = run(correlator, config)
    assert (table.counts, table.discarded) == numpy_tallies(correlator, config)
    for i in range(4):
        assert table.kept(i) + table.discarded[i] == n
        for cell, p in enumerate(probabilities):
            if p <= 0.0:
                assert table.counts[i][cell] == 0


@pytest.mark.parametrize("mode", MODES)
def test_run_tallies_every_table_correlation_result_accepts(mode):
    """P = -5e-10 passes CorrelationResult's check, so run draws it as a
    cell of probability 0 instead of refusing the table."""
    table = run(fixed_correlator([0.5, -5e-10, 5e-10, 0.5]), RunConfig(1000, 5, mode, TEXTBOOK))
    for i in range(4):
        assert table.counts[i][1] == 0
        assert table.kept(i) + table.discarded[i] == 1000


@pytest.mark.parametrize("mode", MODES)
def test_run_memory_and_time_bounded(mode):
    """Tallies are drawn, not events: 10**15 events per setting take
    neither memory nor time that grows with the event count."""
    config = RunConfig(10**15, 3, mode, TEXTBOOK)
    run(spin_correlator, config)  # warm: first-call costs stay out of the timing
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = run(spin_correlator, config)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.kept(0) + table.discarded[0] == 10**15
    assert peak < 2**20
    assert elapsed < 0.25


# ------------------------------------------------------------ numpy oracle
# The sampler ports numpy 2.4's Generator(Philox(key=[seed, pair])).multinomial:
# these tests hold it to numpy bit for bit, and fail should numpy change it.


def test_philox_words_match_numpy():
    # 41 words span eleven 4-word blocks
    for key in ((0, 0), (7, 3), (4242, 2), (2**64 - 1, 2**64 - 1)):
        words = _philox_words(*key)
        expected = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(41)
        assert [next(words) for _ in range(41)] == expected.tolist()


def _normalized(cells):
    total = 0.0
    for cell in cells:
        total += cell
    return [cell / total for cell in cells]


def _any_case(rng):
    """4 or 5 cells, some 0 and some tiny, n log-uniform from 1 to 2**63 - 1."""
    cells = [rng.choice((0.0, rng.random(), 10.0 ** rng.uniform(-20.0, 0.0)))
             for _ in range(rng.choice((4, 5)))]
    if not any(cells):
        cells[rng.randrange(len(cells))] = 1.0
    return min(int(2.0 ** rng.uniform(0.0, 63.0)), 2**63 - 1), _normalized(cells)


def _btpe_case(rng, n):
    """BTPE at n with the first cell's n p in [30, 2e4]: its squeeze and
    Stirling tests in double (n > 2**53 rounds), or the explicit ratio
    f(y)/f(m) over s (n + 1) (wrapped to int64 at n = 2**63 - 1)."""
    p = 10.0 ** rng.uniform(math.log10(30.5), 4.3) / n
    rest = _normalized([rng.random() for _ in range(rng.choice((3, 4)))])
    return n, _normalized([p] + [(1.0 - p) * cell for cell in rest])


def _tiny_p_case(rng):
    """Inversion at p near 1e-18 and n up to 2**63 - 1, p n <= 30: q**n as
    exp(n log1p(-p))."""
    n = rng.randint(2**40, 2**63 - 1)
    p = 10.0 ** rng.uniform(-19.0, -17.5)
    while p * n > 30.0:
        p /= 2.0
    return n, [p] + _normalized([rng.random() for _ in range(rng.choice((3, 4)))])


def _conditional_p_above_one_case(rng):
    """Cells whose chain divides a cell by a smaller round-off remainder,
    p_j / (1 - p_0 - ... - p_{j-1}) > 1: the draw takes what is left."""
    while True:
        head = _normalized([rng.random() for _ in range(rng.choice((2, 3, 4)))])
        cells = _normalized(head + [10.0 ** rng.uniform(-19.0, -15.0)])
        remaining, above_one = 1.0, False
        for cell in cells[:-1]:
            above_one = above_one or cell / remaining > 1.0
            remaining -= cell
        if above_one:
            return rng.choice((rng.randint(1, 10**6), rng.randint(1, 2**63 - 1))), cells


ORACLE_REGIMES = (
    _any_case,
    lambda rng: _btpe_case(rng, rng.randint(2**53 + 1, 2**63 - 1)),
    lambda rng: _btpe_case(rng, 2**63 - 1),
    _tiny_p_case,
    _conditional_p_above_one_case,
)


def test_multinomial_matches_numpy():
    rng = random.Random(39)
    mismatches = []
    for case in range(21_000):
        n, cells = ORACLE_REGIMES[case % len(ORACLE_REGIMES)](rng)
        seed, index = rng.getrandbits(64), rng.randrange(4)
        tally = _multinomial(_philox_uniforms(seed, index), n, cells)
        if tally != numpy_multinomial(seed, index, n, cells):
            mismatches.append((case, n, cells, seed, index))
    assert mismatches == []


@pytest.mark.parametrize("seed", [30956, 118129, 84360])
def test_multinomial_matches_numpy_past_the_tails(seed):
    # BTPE at n p = 30.5: these streams (found by search) draw from an
    # exponential tail past 0 (the first two) or past n (the last), which
    # is rejected; the random cases above reach neither
    cells = [0.5, 0.25, 0.125, 0.125]
    assert _multinomial(_philox_uniforms(seed, 0), 61, cells) == numpy_multinomial(
        seed, 0, 61, cells
    )


def test_run_draws_on_python_ints():
    # numpy integers in the config reach the draw as ints: no uint8 n + 1 wraps
    for mode in MODES:
        expected = run(spin_correlator, RunConfig(255, 2**64 - 1, mode, TEXTBOOK))
        assert run(spin_correlator, RunConfig(np.uint8(255), np.uint64(2**64 - 1), mode,
                                              TEXTBOOK)) == expected


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
    assert bs == run(spin_correlator, RunConfig(500, 4242, "BeamSplitter", TEXTBOOK))
    assert bs.counts == GOLDEN_BEAMSPLITTER
    assert bs.discarded == GOLDEN_BS_DISCARDED


def test_run_propagates_correlator_errors():
    def failing(_x, _y):
        raise ValidationError("broken correlator")

    with pytest.raises(ValidationError):
        run(failing, RunConfig(10, 0, "Switched", TEXTBOOK))


# --------------------------------------------------------------- estimation


def test_estimate_all_plus_plus():
    # one kept event per pair is estimated too, with stderr 2/(1 + 1) each
    for n, e_stderr, stderr in ((7, 0.25, 0.5), (1, 1.0, 2.0)):
        table = CountTable(((n, 0, 0, 0),) * 4, (0,) * 4, n, "Switched", TEXTBOOK)
        estimate = estimate_chsh(table)
        assert estimate.e_values == (1.0, 1.0, 1.0, 1.0)
        assert estimate.s_value == 2.0  # |1 - 1 + 1 + 1|
        # E_hat = 1 is not exact: 2/(n + 1) from the z = 1 Wilson interval
        assert estimate.e_stderr == (e_stderr,) * 4
        assert estimate.stderr == stderr
        assert not estimate.violated


def test_estimate_insufficient_data():
    table = CountTable(
        counts=((0, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0)),
        discarded=(3, 0, 0, 0),
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
    assert estimate.s_value == pytest.approx(2.8308, abs=1e-12)
    assert estimate.stderr == pytest.approx(0.004468345584665537, abs=1e-12)
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


def test_multi_dissociation_rate_matches_mpmath():
    """Relative error <= 1e-12 against 50-digit arithmetic, over p log-uniform
    in [1e-15, 1] and n log-uniform up to 1e6, plus the small-p cases where
    1 - q^n - n p q^(n-1) cancels to a negative number."""
    import random

    import mpmath

    def exact(p, n):
        with mpmath.workdps(50):
            p = mpmath.mpf(p)
            q = 1 - p
            return float(1 - q**n - n * p * q ** (n - 1))

    rng = random.Random(20081)
    cases = [(1e-12, 100), (1e-9, 100), (1e-3, 2), (1e-8, 10**6), (0.1, 1), (1.0, 1),
             (1e-6, 10**6), (0.5, 2), (1.0, 2), (1e-15, 2), (1.0 - 2.0**-53, 10**6)]
    cases += [
        (10.0 ** rng.uniform(-15.0, 0.0), int(10.0 ** rng.uniform(0.0, 6.0)))
        for _ in range(2000)
    ]
    for p, n in cases:
        value = multi_dissociation_rate(p, n)
        assert 0.0 <= value <= 1.0, (p, n)
        if n == 1:
            assert value == 0.0, (p, n)
        else:
            reference = exact(p, n)
            assert abs(value - reference) <= 1e-12 * reference, (p, n)

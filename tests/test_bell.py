"""Bell-verdict layer: visibility, feasibility, CHSH, settings optimization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from dtebell.bell import (
    TSIRELSON_BOUND,
    _bounded_minimize,
    _linspace,
    BellOutcome,
    ChshSettings,
    chsh_value,
    closed_form_correlator,
    crossing_tau,
    feasible,
    optimize_settings,
    periods_above_threshold,
    seed_settings,
    visibility,
)
from dtebell.cli import _pair_for
from dtebell.correlation import (
    InterferometerSetting,
    QuadratureError,
    closed_form_parts,
    correlate_closed_form,
)
from dtebell.dissociation import phi_tau
from dtebell.scenario import (
    TimescaleSummary,
    ValidationError,
    derive_scales,
    load_config,
    reference_scenario,
    scales_from_scenario,
)
from reference_models import TEXTBOOK, angle_settings, spin_correlation as spin_correlator

# Frozen reference values (dispersion product and its consequences at
# tau = 1 s, plus the optimizer's converged CHSH value).
V_REF = 0.7178682251780976
PRODUCT_REF = 3.765486346780854
LAMBDA_RATIO_REF = 1.844796005393443e-4
S_OPT_REF = 2.0303670957011324
S_TAU2_REF = 1.4466367803333746
PERIODS_REF = 7.83909857087312


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario()


@pytest.fixture(scope="module")
def scales(scenario):
    return scales_from_scenario(scenario)


@pytest.fixture(scope="module")
def pulse_phase(scenario):
    return phi_tau(scenario)


@pytest.fixture(scope="module")
def reference_correlator(scenario, scales, pulse_phase):
    return closed_form_correlator(scales, scenario.pulses.pulse_separation, pulse_phase)


@pytest.fixture(scope="module")
def seeded(scenario, scales, pulse_phase):
    return seed_settings(scales, scenario.pulses.pulse_separation, pulse_phase)


@pytest.fixture(scope="module")
def optimized(reference_correlator, seeded):
    return optimize_settings(reference_correlator, seeded)


# ---------------------------------------------------------------- spin model


def test_spin_reference_equal_angles():
    result = spin_correlator(InterferometerSetting(ell=0.7), InterferometerSetting(ell=0.7))
    assert result.p[(1, 1)] == pytest.approx(0.5, abs=1e-15)
    assert result.p[(1, -1)] == pytest.approx(0.0, abs=1e-15)
    assert result.p[(-1, -1)] == pytest.approx(0.5, abs=1e-15)


def test_spin_reference_quarter_turn():
    result = spin_correlator(
        InterferometerSetting(ell=0.3), InterferometerSetting(ell=0.3 + 0.5 * math.pi)
    )
    for sign_pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert result.p[sign_pair] == pytest.approx(0.25, abs=1e-15)


def test_spin_reference_validation():
    # an angle setting is an InterferometerSetting, which refuses non-finite ell
    with pytest.raises(ValidationError):
        angle_settings(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        angle_settings(0.0, 0.0, 0.0, math.inf)


def test_spin_textbook_chsh():
    outcome = chsh_value(spin_correlator, TEXTBOOK)
    assert outcome.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert outcome.visibility == pytest.approx(1.0, abs=1e-12)
    assert outcome.violated
    assert outcome.margin == outcome.s_value - 2.0


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-10, 10),
    ap=st.floats(-10, 10),
    b=st.floats(-10, 10),
    bp=st.floats(-10, 10),
)
def test_spin_chsh_matches_analytic(a, ap, b, bp):
    outcome = chsh_value(spin_correlator, angle_settings(a, ap, b, bp))
    expected = abs(
        math.cos(a - b) - math.cos(a - bp) + math.cos(ap - b) + math.cos(ap - bp)
    )
    assert outcome.s_value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- visibility


def test_visibility_zero_tau(scales):
    assert visibility(scales, 0.0) == 1.0


def test_visibility_reference(scales):
    v = visibility(scales, 1.0)
    assert v == pytest.approx(V_REF, abs=1e-12)
    assert abs(v - 0.72) < 0.01
    assert v > 1.0 / math.sqrt(2.0)


def test_visibility_threshold_identity():
    scales = TimescaleSummary(
        t_cm=1.0, t_rel=1.0, lambda_bar_rel=1e-6, v_rel=1e-2,
        sigma_p_cm=1e-30, sigma_p_rel=1e-31, p0_rel=1e-28,
    )
    # product (1+1)(1+1) = 4 exactly at tau = t_cm = t_rel
    assert visibility(scales, 1.0) == pytest.approx(2.0**-0.5, abs=1e-15)
    assert not feasible(scales, 1.0)
    assert feasible(scales, 1.0).product == 4.0


def test_visibility_validation(scales):
    with pytest.raises(ValidationError):
        visibility(scales, -0.1)
    with pytest.raises(ValidationError):
        visibility(scales, math.nan)


@settings(max_examples=80, deadline=None)
@given(
    tau1=st.floats(0.01, 10.0),
    step=st.floats(1e-3, 5.0),
)
def test_visibility_strictly_decreasing(scales, tau1, step):
    assert visibility(scales, tau1 + step) < visibility(scales, tau1)


# ---------------------------------------------------------------- feasibility


def test_feasible_reference(scales):
    report = feasible(scales, 1.0)
    assert bool(report)
    assert report.feasible
    assert report.product == pytest.approx(PRODUCT_REF, rel=1e-12)
    assert report.product == pytest.approx(3.77, abs=0.01)
    assert report.lambda_ratio == pytest.approx(LAMBDA_RATIO_REF, rel=1e-12)
    assert report.lambda_ratio < 1e-3
    assert report.product_ok and report.side_condition_ok


def test_feasible_guard_small_tau(scales):
    report = feasible(scales, 0.0)
    assert not report
    assert report.product_ok  # product = 1 at tau = 0
    assert not report.side_condition_ok
    assert math.isinf(report.lambda_ratio)


def _with_times(t_cm, t_rel):
    return TimescaleSummary(t_cm=t_cm, t_rel=t_rel, lambda_bar_rel=1.0, v_rel=1.0,
                            sigma_p_cm=1.0, sigma_p_rel=1.0, p0_rel=1.0)


@pytest.mark.parametrize(
    "times",
    [None, (1.0, 1.0), (1e-6, 1.0)],
    ids=["bundled", "equal-times", "skewed"],
)
def test_crossing_tau_brackets_the_threshold(scales, times):
    # the skewed case is where the textbook root (-(a+b) + sqrt(...))/2 cancels
    chosen = scales if times is None else _with_times(*times)
    tau_star = crossing_tau(chosen)
    threshold = 1.0 / math.sqrt(2.0)
    assert visibility(chosen, tau_star * (1.0 - 1e-12)) > threshold
    assert threshold >= visibility(chosen, tau_star * (1.0 + 1e-12))
    assert feasible(chosen, tau_star * (1.0 - 1e-12)).product_ok
    if times == (1.0, 1.0):
        assert tau_star == 1.0


def test_feasible_guard_validation(scales):
    with pytest.raises(ValidationError):
        feasible(scales, -1.0)


# ---------------------------------------------------------------- outcome types


def test_bell_outcome_derived_fields():
    outcome = BellOutcome(s_value=2.5, visibility=0.9, settings=TEXTBOOK)
    assert outcome.violated
    assert outcome.margin == 0.5
    quiet = BellOutcome(s_value=1.5, visibility=0.5, settings=TEXTBOOK)
    assert not quiet.violated
    assert quiet.margin == -0.5


def test_bell_outcome_tsirelson_guard():
    with pytest.raises(ValidationError):
        BellOutcome(s_value=TSIRELSON_BOUND + 1e-6, visibility=1.0, settings=TEXTBOOK)
    with pytest.raises(ValidationError):
        BellOutcome(s_value=-0.1, visibility=1.0, settings=TEXTBOOK)
    # right at the tolerance edge is accepted
    BellOutcome(s_value=TSIRELSON_BOUND + 0.9e-9, visibility=1.0, settings=TEXTBOOK)


def test_bell_outcome_consistency_guards():
    with pytest.raises(ValidationError):
        BellOutcome(s_value=2.5, visibility=1.2, settings=TEXTBOOK)


def test_chsh_settings_validation():
    with pytest.raises(ValidationError, match="InterferometerSetting"):
        ChshSettings(a=InterferometerSetting(ell=0.0), a_prime=0.1, b=0.2, b_prime=0.3)
    with pytest.raises(ValidationError, match="InterferometerSetting"):
        ChshSettings(a=0.0, a_prime=0.5, b=0.2, b_prime=0.3)
    lengths = ChshSettings(*(InterferometerSetting(ell=x * 1e-6) for x in range(4)))
    assert [s.ell for s in lengths.as_tuple()] == [x * 1e-6 for x in range(4)]


def test_chsh_value_propagates_quadrature_failure():
    def failing(_x, _y):
        raise QuadratureError("unconverged", estimate=1.0)

    with pytest.raises(QuadratureError):
        chsh_value(failing, TEXTBOOK)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-7, 7),
    ap=st.floats(-7, 7),
    b=st.floats(-7, 7),
    bp=st.floats(-7, 7),
)
def test_tsirelson_bound_always_holds(a, ap, b, bp):
    outcome = chsh_value(spin_correlator, angle_settings(a, ap, b, bp))
    assert outcome.s_value <= TSIRELSON_BOUND + 1e-9


# ---------------------------------------------------------------- CHSH on the closed form


def test_seeded_settings_quality(reference_correlator, seeded, scales):
    outcome = chsh_value(reference_correlator, seeded)
    target = TSIRELSON_BOUND * V_REF
    assert outcome.s_value > 2.029
    assert abs(outcome.s_value - target) < 1e-3
    period = 2.0 * math.pi * scales.lambda_bar_rel
    center = 0.5 * scales.v_rel
    for setting, sign in zip(seeded.as_tuple(), (1, 1, -1, -1)):
        assert abs(setting.ell - sign * center) < period


def test_optimized_chsh_reference(optimized, scales):
    assert optimized.converged
    assert optimized.s_value == pytest.approx(S_OPT_REF, abs=5e-8)
    target = TSIRELSON_BOUND * visibility(scales, 1.0)
    gap = target - optimized.s_value
    assert 0.0 < gap < 1e-3
    assert optimized.outcome.violated
    assert optimized.s_value > 2.03


def test_optimized_settings_near_fringe_center(optimized, scales):
    period = 2.0 * math.pi * scales.lambda_bar_rel
    center_diff = scales.v_rel  # tau = 1: ell1 - ell2 at envelope center
    for ell1 in (optimized.settings.a.ell, optimized.settings.a_prime.ell):
        for ell2 in (optimized.settings.b.ell, optimized.settings.b_prime.ell):
            assert abs((ell1 - ell2) - center_diff) < 1.5 * period


def test_optimizer_visibility_scan(reference_correlator, optimized,
                                   scenario, scales, pulse_phase):
    outcome = chsh_value(reference_correlator, optimized.settings)
    assert outcome.visibility == pytest.approx(V_REF, abs=5e-4)
    # the visibility is the closed-form fringe amplitude at (a, b)
    prefactor, envelope, _ = closed_form_parts(
        scales, scenario.pulses.pulse_separation, pulse_phase,
        optimized.settings.a.ell, optimized.settings.b.ell,
    )
    assert outcome.visibility == prefactor * envelope


def test_chsh_value_makes_four_correlator_calls(reference_correlator, optimized):
    for correlator, chsh in ((spin_correlator, TEXTBOOK),
                             (reference_correlator, optimized.settings)):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return correlator(x, y)

        outcome = chsh_value(counted, chsh)
        assert calls == [(x, y) for x, y, _ in chsh.pairs()]
        assert outcome.visibility == correlator(chsh.a, chsh.b).visibility


def test_optimize_no_dispersion_recovers_tsirelson(scenario, scales, pulse_phase):
    shrink = 1e-6
    narrow = derive_scales(
        scenario.species,
        sigma_p_cm=scales.sigma_p_cm * shrink,
        sigma_p_rel=scales.sigma_p_rel * shrink,
        p0_rel=scales.p0_rel,
    )
    tau = scenario.pulses.pulse_separation
    correlator = closed_form_correlator(narrow, tau, pulse_phase)
    result = optimize_settings(correlator, seed_settings(narrow, tau, pulse_phase))
    assert abs(result.s_value - TSIRELSON_BOUND) < 1e-9


def test_optimize_angle_mode_spin():
    perturbed = angle_settings(0.05, 0.5 * math.pi - 0.04, 0.25 * math.pi + 0.03,
                               0.75 * math.pi - 0.02)
    result = optimize_settings(spin_correlator, perturbed)
    assert abs(result.s_value - TSIRELSON_BOUND) < 1e-9


def test_optimize_determinism(reference_correlator, seeded, optimized):
    again = optimize_settings(reference_correlator, seeded)
    for s1, s2 in zip(again.settings.as_tuple(), optimized.settings.as_tuple()):
        assert s1.ell == s2.ell
    assert again.s_value == optimized.s_value


def test_optimize_tau2_no_violation(scenario):
    import dataclasses

    scn2 = dataclasses.replace(
        scenario,
        pulses=dataclasses.replace(scenario.pulses, pulse_separation=2.0),
    )
    scales2 = scales_from_scenario(scn2)
    phase2 = phi_tau(scn2)
    correlator = closed_form_correlator(scales2, 2.0, phase2)
    result = optimize_settings(correlator, seed_settings(scales2, 2.0, phase2))
    assert result.s_value == pytest.approx(S_TAU2_REF, abs=1e-6)
    assert result.s_value < 2.0
    assert not result.outcome.violated
    assert visibility(scales2, 2.0) < 1.0 / math.sqrt(2.0)
    assert not feasible(scales2, 2.0)


@pytest.mark.parametrize("tau", [0.7, 0.8, 0.9187, 1.0, 1.0147, 1.2, 1.3, 2.0])
def test_optimize_converges_on_cli_tau_path(tau):
    # as `bell --optimize --tau`: phi_tau follows tau
    document = load_config(None).replace("pulses", "separation_s", tau)
    pair = _pair_for(document.to_scenario())
    correlator = closed_form_correlator(pair.distribution, pair.tau, pair.phi_tau)
    seed = seed_settings(pair.distribution, pair.tau, pair.phi_tau)
    result = optimize_settings(correlator, seed)
    assert result.converged
    assert result.sweeps <= 5


# ------------------------------------------------- bounded Brent search


def _line_function(kind, c, k):
    if kind == "cosine":
        return lambda x: -math.cos(k * (x - c))
    if kind == "quartic":
        return lambda x: (x - c) ** 4 - k * (x - c) ** 2
    return lambda x: k * x  # linear: minimized at a bound


@settings(max_examples=150, deadline=None)
@given(
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-6, 10.0),
    log_xatol=st.floats(-14.0, -1.0),
    kind=st.sampled_from(["cosine", "quartic", "linear"]),
    c_frac=st.floats(-0.5, 1.5),
    k=st.floats(-3.0, 3.0).filter(lambda k: abs(k) > 1e-3),
)
def test_bounded_search_matches_scipy(lo, width, log_xatol, kind, c_frac, k):
    hi = lo + width
    xatol = 10.0**log_xatol
    g = _line_function(kind, lo + c_frac * width, k)
    res = minimize_scalar(
        lambda x: g(float(x)), bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    x, fx = _bounded_minimize(g, lo, hi, xatol)
    assert (x.hex(), fx.hex()) == (float(res.x).hex(), float(res.fun).hex())


def test_bounded_search_matches_scipy_at_maxfun():
    # |x| with a vanishing xatol keeps shrinking the bracket towards 0
    # until the 500-call limit stops both searches.
    res = minimize_scalar(abs, bounds=(-1.0, 2.0), method="bounded", options={"xatol": 1e-300})
    assert res.nfev == 500 and res.status == 1
    x, fx = _bounded_minimize(abs, -1.0, 2.0, 1e-300)
    assert (x.hex(), fx.hex()) == (float(res.x).hex(), float(res.fun).hex())


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(start=finite, stop=finite, num=st.integers(2, 10_001), endpoint=st.booleans())
@example(start=0.0, stop=5e-324, num=10_001, endpoint=True)  # step underflows to 0
@example(start=0.0, stop=2.0 * math.pi, num=64, endpoint=False)  # seed_settings' gauge
@example(start=-1.7e308, stop=1.7e308, num=5, endpoint=True)  # stop - start overflows
def test_linspace_matches_numpy_bit_for_bit(start, stop, num, endpoint):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, num, endpoint=endpoint)
    points = _linspace(start, stop, num, endpoint)
    assert all(type(x) is float for x in points)
    assert [x.hex() for x in points] == [float(x).hex() for x in expected]


# ------------------------------------------------- dense grid-search oracle


def _grid_powell_oracle(tau, phase, scales, n_coarse=61, top_k=24):
    """Independent maximizer: coarse 4D grid, then Powell from the
    strongest well-separated cells. Works in fringe-period units."""
    lam = scales.lambda_bar_rel
    period = 2.0 * math.pi * lam
    c1 = 0.5 * tau * scales.v_rel
    centers = np.array([c1, c1, -c1, -c1])

    def e_val(l1, l2):
        return correlate_closed_form(scales, tau, phase, l1, l2).e_value

    half = 0.75 * period
    axes = [np.linspace(c - half, c + half, n_coarse) for c in centers]
    side1 = np.concatenate([axes[0], axes[1]])
    side2 = np.concatenate([axes[2], axes[3]])
    e = np.array([[e_val(x, y) for y in side2] for x in side1])
    n = n_coarse
    candidates = []
    for i in range(n):
        s = np.abs(
            e[i, :n][None, :, None]
            - e[i, n:][None, None, :]
            + e[n:, :n][:, :, None]
            + e[n:, n:][:, None, :]
        )
        for flat in np.argsort(s, axis=None)[-top_k:]:
            idx = np.unravel_index(flat, s.shape)
            candidates.append((float(s[idx]), (i,) + tuple(int(v) for v in idx)))
    candidates.sort(reverse=True)
    starts = []
    for _, idx in candidates:
        u = np.array([(axes[k][idx[k]] - centers[k]) / lam for k in range(4)])
        if all(np.max(np.abs(u - u0)) > 0.5 for u0 in starts):
            starts.append(u)
        if len(starts) >= top_k:
            break

    def neg_s(u):
        x = centers + np.asarray(u) * lam
        return -abs(
            e_val(x[0], x[2]) - e_val(x[0], x[3]) + e_val(x[1], x[2]) + e_val(x[1], x[3])
        )

    best = -np.inf
    for u0 in starts:
        res = minimize(
            neg_s, u0, method="Powell",
            options={"xtol": 1e-12, "ftol": 1e-14, "maxfev": 40000},
        )
        best = max(best, -res.fun)
    return best


def test_optimizer_matches_grid_oracle(scenario, pulse_phase, scales, optimized):
    s_oracle = _grid_powell_oracle(scenario.pulses.pulse_separation, pulse_phase, scales)
    assert abs(optimized.s_value - s_oracle) <= 1e-4
    assert s_oracle >= optimized.s_value - 1e-6


# ------------------------------------------------- feasible <=> violation


@settings(max_examples=12, deadline=None)
@given(
    scm_frac=st.floats(0.01, 0.08),
    srel_frac=st.floats(0.002, 0.02),
    tau=st.floats(0.3, 2.5),
)
def test_feasibility_equivalence(scenario, scales, pulse_phase, scm_frac, srel_frac, tau):
    from hypothesis import assume

    p0 = scales.p0_rel
    synthetic = derive_scales(scenario.species, scm_frac * p0, srel_frac * p0, p0)
    product = (1.0 + (tau / synthetic.t_cm) ** 2) * (1.0 + (tau / synthetic.t_rel) ** 2)
    assume(not 3.75 < product < 4.1)  # skip hairline cases near the boundary
    correlator = closed_form_correlator(synthetic, tau, pulse_phase)
    result = optimize_settings(correlator, seed_settings(synthetic, tau, pulse_phase))
    assert result.converged
    assert (result.s_value > 2.0) == bool(feasible(synthetic, tau))


# ------------------------------------------------- fringe periods reporter


def test_periods_above_threshold_reference(pulse_phase, scales):
    reported = periods_above_threshold(scales, 1.0)
    assert reported == pytest.approx(PERIODS_REF, rel=1e-9)
    assert 5.0 < reported < 12.0  # "a few periods" at the reference point

    # independent check: bisect the envelope-adjusted visibility crossing
    lam = scales.lambda_bar_rel
    c1 = 0.5 * scales.v_rel
    threshold = 1.0 / math.sqrt(2.0)

    def adjusted(delta):
        pref, env, _ = closed_form_parts(
            scales, 1.0, pulse_phase, c1 + 0.5 * delta, -c1 - 0.5 * delta
        )
        return pref * env

    lo, hi = 0.0, 1e-3
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if adjusted(mid) > threshold:
            lo = mid
        else:
            hi = mid
    oracle = 2.0 * lo / (2.0 * math.pi * lam)
    assert reported == pytest.approx(oracle, rel=1e-6)


def test_periods_zero_below_threshold(scales):
    assert periods_above_threshold(scales, 2.0) == 0.0


def test_closed_form_correlator_adapter(scales, pulse_phase):
    correlator = closed_form_correlator(scales, 1.0, pulse_phase)
    s1 = InterferometerSetting(ell=5.3e-3)
    s2 = InterferometerSetting(ell=-5.35e-3)
    direct = correlate_closed_form(scales, 1.0, pulse_phase, s1.ell, s2.ell)
    assert correlator(s1, s2).e_value == direct.e_value

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtebell import _quadrature as quad
from dtebell import dissociation as dis
from dtebell.scenario import (
    CONSTANTS,
    SINC_WIDTH_FACTOR,
    PulseSequence,
    Scenario,
    ValidationError,
    reference_scenario,
    scales_from_scenario,
)
from reference_models import line_values_one_block, record_fields, replace

# Frozen oracle values, recomputed independently before implementation.
KAPPA_REF = 81.3098
B_REF = 12.9787
X_CUT_REF = 9758.6
PHI_TAU_REF = 30355.489448984605
DRIFTS_REF = {
    "base_field": 477.696,
    "pulse_height": 0.0211058,
    "resonance_position": 477.739,
    "pulse_duration": 0.0211058,
    "pulse_separation": 0.324661,
    "trap_depth": 0.261841,
}


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario()


@pytest.fixture(scope="module")
def dist(scenario):
    return dis.distribution_from_scenario(scenario)


def _with_pulses(scn, **kw):
    return Scenario(
        species=scn.species,
        trap_guide=scn.trap_guide,
        resonance=scn.resonance,
        pulses=replace(scn.pulses, **kw),
    )


def simpson_mass(d, n_c=None, n_r=160001):
    """Independent normalization oracle: Gauss-Legendre in p_cm (different
    order than the implementation), composite Simpson in p_rel (different
    quadrature family), over the same truncated support."""
    from scipy.integrate import simpson

    p0 = d.p0
    sc = d.sigma_p_cm / p0
    if n_c is None:
        # the inner mass oscillates in c^2/4 with period 2pi/kappa
        cycles = (8.5 * sc) ** 2 / 4.0 * d.kappa / (2.0 * math.pi)
        n_c = max(64, 16 * int(math.ceil(cycles)) + 48)
    x, w = np.polynomial.legendre.leggauss(n_c)
    c = 8.5 * sc * x
    r = np.linspace(0.0, d.r_hi(), n_r)
    total = 0.0
    for ci, wi in zip(c, w):
        line = d.density(ci * p0, r * p0)
        total += wi * simpson(line, x=r * p0)
    return 2.0 * total * 8.5 * sc * p0  # both p_rel signs


class TestFeshbachDistribution:
    def test_scaled_parameters(self, dist):
        assert dist.kappa == pytest.approx(KAPPA_REF, rel=1e-4)
        assert dist.b == pytest.approx(B_REF, rel=1e-4)
        assert dist.x_cut == pytest.approx(X_CUT_REF, rel=1e-3)
        # spectral preconditions of the model hold comfortably here
        assert dist.delta_p / dist.p0 == pytest.approx(0.1109, rel=1e-3)
        assert dist.sigma_p_cm / dist.p0 == pytest.approx(0.03405, rel=1e-3)

    def test_normalization_independent_oracle(self, dist):
        assert simpson_mass(dist) == pytest.approx(1.0, abs=1e-6)

    def test_normalization_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            p0 = 10 ** rng.uniform(-29, -28)
            kappa = rng.uniform(30, 300)
            b = rng.uniform(1.5, 25.0)
            d = dis.FeshbachDistribution(
                p0=p0,
                p_bar=math.sqrt(b) * p0,
                delta_p=p0 / math.sqrt(kappa),
                sigma_p_cm=rng.uniform(0.01, 0.2) * p0,
            )
            assert simpson_mass(d) == pytest.approx(1.0, abs=1e-6)

    def test_density_parity(self, dist):
        rng = np.random.default_rng(3)
        p0 = dist.p0
        pc = rng.uniform(-0.15, 0.15, 40) * p0
        pr = rng.uniform(-3.0, 3.0, 40) * p0
        np.testing.assert_allclose(dist.density(pc, pr), dist.density(pc, -pr), rtol=1e-13)
        np.testing.assert_allclose(dist.density(pc, pr), dist.density(-pc, pr), rtol=1e-13)

    def test_density_maxima_on_shell(self, dist):
        # global maxima at (p_cm, p_rel) = (0, +-p0) to grid accuracy
        p0 = dist.p0
        r = np.linspace(-1.5, 1.5, 2001) * p0
        c = np.linspace(-0.12, 0.12, 41) * p0
        vals = dist.density(c[:, None], r[None, :])
        ic, ir = np.unravel_index(np.argmax(vals), vals.shape)
        assert abs(c[ic]) <= 0.004 * p0
        assert abs(abs(r[ir]) - p0) <= 0.002 * p0
        # mirrored lobe has the same height
        mirrored = dist.density(c[ic], -r[ir])
        assert mirrored == pytest.approx(vals[ic, ir], rel=1e-12)

    def test_sinc_zero_is_regular(self, dist):
        # sinc(0) = 1: on-shell density finite and maximal, no 0/0 artifact
        val = float(dist.density(0.0, dist.p0))
        assert math.isfinite(val) and val > 0.0

    def test_precondition_violations(self, dist):
        good = dict(p0=dist.p0, p_bar=dist.p_bar, delta_p=dist.delta_p,
                    sigma_p_cm=dist.sigma_p_cm)
        with pytest.raises(ValidationError, match="delta_p/p0"):
            dis.FeshbachDistribution(**{**good, "delta_p": 0.3 * dist.p0})
        with pytest.raises(ValidationError, match="sigma_p_cm/p0"):
            dis.FeshbachDistribution(**{**good, "sigma_p_cm": 0.25 * dist.p0})
        with pytest.raises(ValidationError, match="pole"):
            dis.FeshbachDistribution(**{**good, "p_bar": 0.9 * dist.p0})

    def test_sigma_p_cm_validation(self, dist):
        good = dict(p0=dist.p0, p_bar=dist.p_bar, delta_p=dist.delta_p)
        for sigma_p_cm in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="sigma_p_cm must be positive"):
                dis.FeshbachDistribution(**good, sigma_p_cm=sigma_p_cm)

    def test_truncation_bookkeeping(self, dist):
        assert dist.tail_bound() < 1e-6
        assert dist.norm_error_estimate < 1e-6
        assert dist.r_hi() == pytest.approx(11.0, rel=1e-2)


class TestLazyNormalization:
    """The sinc^2 normalization is built on first use, once, in bounded memory."""

    @pytest.fixture
    def raw_calls(self, monkeypatch):
        calls = []
        original = dis._raw_mass

        def counting(dist, *args, **kwargs):
            calls.append(dist)
            return original(dist, *args, **kwargs)

        monkeypatch.setattr(dis, "_raw_mass", counting)
        return calls

    def test_gaussian_route_never_normalizes(self, scenario, raw_calls):
        from dtebell.correlation import DtePair

        fresh = dis.distribution_from_scenario(scenario)
        scales = dis.gaussian_approximation(fresh, scenario.species)
        for source in (scales, fresh):
            DtePair(
                distribution=source,
                tau=scenario.pulses.pulse_separation,
                phi_tau=dis.phi_tau(scenario),
                species=scenario.species,
            )
        assert raw_calls == []

    def test_normalization_computed_once(self, scenario, raw_calls):
        fresh = dis.distribution_from_scenario(scenario)
        first = fresh.normalization
        for _ in range(3):
            assert fresh.normalization == first
            assert fresh.norm_error_estimate < 1e-6
        assert len(raw_calls) == 1

    def test_normalization_peak_memory(self, scenario):
        import tracemalloc

        quad._legendre_table()  # keep the table read out of the trace
        tracemalloc.start()
        try:
            dis.distribution_from_scenario(scenario).normalization
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each pass evaluates only the panels below the zero-phase cut
        assert peak < 8 * 2**20

    def test_blocked_rel_integral_matches_one_pass(self, dist):
        # zero phase, the line values the normalization integrates: the
        # rows one at a time match them all in one block
        u = np.linspace(0.0, 3e-3, 11)
        one_block = line_values_one_block(dist, u, 0.0, 0.0, 1.0)
        np.testing.assert_array_equal(quad._line_values(dist, u, 0.0, 0.0)[0], one_block)

    @pytest.mark.parametrize("level", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_u", [6, 7, 12, 24])
    def test_blocked_interference_matches_one_block(self, dist, n_u, level):
        # a tenth of the bundled fringe-centre phase a r - b r^2 still mixes
        # node buckets of 8 to 256 at a tenth of the cost; the rows one at
        # a time match them all in one (u, panel, node) block
        u = np.linspace(0.0, 3e-3, n_u)
        a_lin, b_quad = 542.3, 271.0
        by_row, _ = quad._line_values(dist, u, a_lin, b_quad, level)
        np.testing.assert_array_equal(by_row, line_values_one_block(dist, u, a_lin, b_quad, level))

    def test_normalization_matches_reference(self, dist):
        # value of the former 48 -> 96 row outer Gauss-Legendre scheme
        assert abs(dist.normalization - 0.9995039728673273) < dist.norm_error_estimate

    def test_capped_normalization_raises(self, scenario, monkeypatch):
        import dtebell
        from dtebell import correlation

        assert correlation.QuadratureError is quad.QuadratureError
        assert dtebell.QuadratureError is quad.QuadratureError
        # with the former 32-node window floor the level-0.5 pass has 16
        # nodes, so levels 0.5 and 1 disagree by ~1e-3 and a cap at level 1
        # must raise
        monkeypatch.setattr(quad, "MIN_NODES", 32)
        monkeypatch.setattr(quad, "MAX_LEVEL", 1.0)
        fresh = dis.distribution_from_scenario(scenario)
        with pytest.raises(quad.QuadratureError) as excinfo:
            fresh.normalization
        assert excinfo.value.estimate > dis.NORM_TARGET


class TestZeroPhaseCut:
    """The normalization's lines stop at the zero-phase tail cut and add the
    kernel's smooth mean past it; what they leave out is the bound charged."""

    # the bundled source and one source at each edge of the model's domain
    EDGES = {
        "bundled": {},
        "delta_p_0.2": {"delta_p": 0.2},
        "sigma_cm_0.2": {"sigma_p_cm": 0.2},
        "p_bar_1.01": {"p_bar": 1.01},
    }

    @pytest.mark.parametrize("level", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_split_matches_the_uncut_pass(self, dist, edge, level, monkeypatch):
        source = replace(dist, **{k: v * dist.p0 for k, v in self.EDGES[edge].items()})
        r_cut, bound = quad._tail_cut(source, 0.0, 0.0, level)
        assert r_cut is not None and r_cut < source.r_hi()
        assert bound == 0.125 * source.tail_bound()
        pref = source.kappa * source.b**2 / math.pi
        cut, _ = quad._pair_integral(source, 0.0, 0.0, 0.0, 0.0, level)
        # the uncut pass: every line runs over all panels to r_hi
        monkeypatch.setattr(quad, "_tail_cut", lambda *args: (None, 0.0))
        full, _ = quad._pair_integral(source, 0.0, 0.0, 0.0, 0.0, level)
        assert abs(pref * (cut - full)) <= bound


class TestPanelEdgesToTheCut:
    """A cut line builds only the panels below its radius: the kept prefix
    of the full edge array, bit for bit."""

    @staticmethod
    def _full_edges(d, u):
        # the sinc zeros x = k pi in r, clipped to [0, r_hi(u)], between 0 and r_hi(u)
        k = np.arange(math.floor(-d.kappa / math.pi) - 1, math.ceil(d.x_cut / math.pi) + 1,
                      dtype=float)
        hi = np.sqrt(1.0 - u + d.x_cut / d.kappa)[:, None]
        edges = np.clip(np.sqrt(np.clip(1.0 - u[:, None] + (k * math.pi) / d.kappa, 0.0, None)),
                        0.0, hi)
        return np.concatenate([np.zeros((len(u), 1)), edges, hi], axis=1)

    @staticmethod
    def _centre_phase(d, scenario):
        ell = 0.5 * scales_from_scenario(scenario).v_rel
        m_int, _, dl_int = quad._internal_units(
            d.p0, scenario.pulses.pulse_separation, scenario.species.atom_mass, ell, -ell
        )
        return dl_int, 1.0 / m_int

    # every TestZeroPhaseCut source at zero phase, and the bundled one at
    # the fringe-centre phase of its pair
    @pytest.mark.parametrize(
        "edge, phase", [(edge, "zero") for edge in sorted(TestZeroPhaseCut.EDGES)]
        + [("bundled", "centre")],
    )
    def test_cut_edges_are_the_kept_prefix(self, dist, scenario, edge, phase):
        source = replace(dist, **{k: v * dist.p0 for k, v in TestZeroPhaseCut.EDGES[edge].items()})
        a, b = (0.0, 0.0) if phase == "zero" else self._centre_phase(source, scenario)
        u_hi, rows = quad._cm_window(source)
        for level in (0.5, 1.0):
            n_u = math.ceil(rows * level)
            u = 0.5 * u_hi + 0.5 * u_hi * np.cos(math.pi * (2.0 * np.arange(n_u) + 1.0) / (2.0 * n_u))
            full = source.rel_panel_edges(u)
            assert full.tobytes() == self._full_edges(source, u).tobytes()
            r_cut, _ = quad._tail_cut(source, a, b, level)
            assert r_cut is not None
            kept = int((full[:, :-1] < r_cut).any(axis=0).sum())
            assert kept < full.shape[1] - 1
            assert source.rel_panel_edges(u, r_cut).tobytes() == full[:, : kept + 1].tobytes()

    def test_scaled_kernel_in_place_is_np_sinc_bit_for_bit(self, dist):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 3e-3, (3, 1, 1))
        r = rng.uniform(0.0, 4.0, (3, 40, 16))
        r[0, 0, 0], u[0] = 1.0, 0.0  # x = 0 exactly: sinc(0) = 1
        x = dist.kappa * (u + r * r - 1.0)
        denom = u + r * r - 1.0 + dist.b
        with np.errstate(invalid="ignore"):
            expected = (np.sin(x) / x) ** 2 / (denom * denom)
        expected[0, 0, 0] = 1.0 / dist.b**2
        assert dist._scaled_kernel(u, r).tobytes() == expected.tobytes()
        # one u row into (panel, node) work arrays, as _line_values passes them
        work = np.empty((40, 16)), np.empty((40, 16))
        row = dist._scaled_kernel(u[1, 0, 0], r[1], out=work)
        assert row.tobytes() == expected[1].tobytes()
        assert dist._scaled_kernel(u, r)[0, 0, 0] == 1.0 / dist.b**2


def _seeded_sources(seed, count):
    """Source overrides in units of p0, drawn inside the model's domain.
    Their c.m. windows span at most a few oscillation cycles, so that a
    level-4 reference pass stays cheap; TestZeroPhaseCut's sigma_cm edge
    holds the widest window."""
    rng = np.random.default_rng(seed)
    return {
        f"seed{seed}_{i}": {
            "delta_p": rng.uniform(0.07, 0.2),
            "sigma_p_cm": rng.uniform(0.01, 0.1),
            "p_bar": math.sqrt(rng.uniform(1.05, 25.0)),
        }
        for i in range(count)
    }


class TestNormalizationEstimate:
    """Every normalization runs levels 0.5 and 1 only, and its estimate
    bounds its distance to a level-4 pass."""

    SOURCES = {**TestZeroPhaseCut.EDGES, **_seeded_sources(7, 5)}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_estimate_bounds_a_level_4_pass(self, dist, name, monkeypatch):
        source = replace(dist, **{k: v * dist.p0 for k, v in self.SOURCES[name].items()})
        levels = []
        original = quad._pair_integral

        def recording(*args):
            levels.append(args[-1])
            return original(*args)

        monkeypatch.setattr(quad, "_pair_integral", recording)
        normalization = source.normalization
        assert levels == [0.5, 1.0]
        pref = source.kappa * source.b**2 / math.pi
        raw, _ = original(source, 0.0, 0.0, 0.0, 0.0, 4.0)
        assert abs(normalization - 1.0 / (pref * raw.real)) <= source.norm_error_estimate


class TestConverge:
    """The doubling loop on synthetic passes {level: value}."""

    @staticmethod
    def run(values, target, capped_from=math.inf):
        levels = []

        def compute(level):
            levels.append(level)
            return values[level], level >= capped_from

        value, estimate = quad._converge(compute, lambda error: error, target)
        return value, estimate, levels

    # differences 1e-6, 1e-8: each doubling shrinks by 1e-2
    FAST = {0.5: 1.0 + 1.01e-6, 1.0: 1.0 + 1e-8, 2.0: 1.0}

    def test_plain_difference_without_rate(self):
        value, estimate, levels = self.run(self.FAST, 5e-7)
        assert value == self.FAST[2.0] and levels == [0.5, 1.0, 2.0]
        assert estimate == pytest.approx(1e-8, rel=1e-6)

    def test_capped_pass_is_never_rate_corrected(self):
        # a capped pass that misses the target raises with the plain difference
        with pytest.raises(quad.QuadratureError) as excinfo:
            self.run(self.FAST, 5e-7, capped_from=1.0)
        assert excinfo.value.estimate == abs(self.FAST[1.0] - self.FAST[0.5])

    def test_capped_half_level_pass_raises(self):
        # a half-level pass at its node ceiling gets the same nodes at every
        # finer level, so no pass difference can speak for its error
        with pytest.raises(quad.QuadratureError):
            quad._converge(lambda level: (1.0, True), lambda error: error, 1e-6)
        with pytest.raises(quad.QuadratureError) as excinfo:
            self.run(self.FAST, 5e-7, capped_from=0.5)
        assert excinfo.value.estimate == math.inf


def _mantissa_half_examples(test):
    """need * level = 2^k has mantissa 0.5: every power-of-two need up to
    2^13, at levels 0.125 and 0.25.  The doubling loop runs no level
    below 0.5; these cover the rule itself.  A need of 4 at level 0.125
    is half a node, which takes one."""
    for k in range(2, 14):
        test = example(2**k, 0.25, quad.NODE_CAP)(test)
        test = example(2**k, 0.125, quad.NODE_CAP)(test)
    return test


class TestNodeCount:
    @given(
        st.one_of(st.integers(1, 100_000), st.floats(1.0, 100_000.0)),
        # ordinary levels, scaled needs below one node, and products that overflow
        st.one_of(st.floats(0.5, 8.0), st.floats(2.0**-20, 0.5), st.floats(2.0**1000, 2.0**1023)),
        st.sampled_from([16, 1024, quad.NODE_CAP]),
    )
    @_mantissa_half_examples
    @example(32, 2.0**1020, quad.NODE_CAP)  # 2^1025 overflows to inf
    def test_one_power_of_two_rule(self, need, level, cap):
        with mock.patch.object(quad, "NODE_CAP", cap):
            nodes, capped = quad._node_count(need, level)
            doubled = quad._node_count(need, 2.0 * level)[0]
            half_start_capped = quad._node_count(need, 0.5)[1]
        assert type(nodes) is int and type(capped) is bool
        scaled = min(need, cap) * level
        assert nodes & (nodes - 1) == 0 and 1 <= nodes <= cap
        assert capped == (nodes == cap)
        if scaled <= 1.0:
            assert nodes == 1
            assert doubled == (1 if 2.0 * scaled <= 1.0 else 2)
        else:
            # the smallest power of two covering the scaled need, or the cap
            assert nodes // 2 < scaled and (nodes >= scaled or capped)
            assert doubled == min(2 * nodes, cap)
        assert capped or math.isfinite(scaled)
        assert not half_start_capped


def fit_sinc_width_factor(dist, n_samples=201):
    """Least-squares Gaussian width of the central momentum lobe.

    Samples the relative profile at p_cm = 0 on a uniform grid across
    the main lobe (|x| < pi), normalizes to the on-shell peak, and fits
    exp(-dp^2 / 2 sigma^2) with the amplitude pinned at one; returns the
    width as the dimensionless factor sigma * 2 kappa / p0, comparable
    to SINC_WIDTH_FACTOR.
    """
    from scipy.optimize import curve_fit

    kappa = dist.kappa
    r_lo = math.sqrt(1.0 - math.pi / kappa)
    r_hi = math.sqrt(1.0 + math.pi / kappa)
    r = np.linspace(r_lo, r_hi, n_samples)
    profile = dist.density(0.0, r * dist.p0)
    profile = profile / dist.density(0.0, dist.p0)
    dp = r - 1.0

    def model(x, sigma):
        return np.exp(-0.5 * (x / sigma) ** 2)

    sigma0 = SINC_WIDTH_FACTOR / (2.0 * kappa)
    (sigma_fit,), _ = curve_fit(model, dp, profile, p0=[sigma0])
    return float(abs(sigma_fit) * 2.0 * kappa)


def _correlator_scales(scn):
    """The scales the quadrature reads for a scenario's sinc^2 source."""
    return dis.gaussian_approximation(dis.distribution_from_scenario(scn), scn.species)


class TestGaussianApproximation:
    def test_matches_scenario_scales(self, scenario, dist):
        # `scales` and `feasibility` read the correlators' widths, bit for bit
        assert record_fields(scales_from_scenario(scenario)) == record_fields(
            _correlator_scales(scenario)
        )

    @given(
        st.floats(0.03, 0.5),
        st.floats(4e-5, 8e-5),
        st.floats(0.05432, 0.054324),  # below the resonance, so p_bar > p0
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scenario_scales_randomized(self, scenario, duration, height, base):
        scn = _with_pulses(
            scenario, pulse_duration=duration, pulse_height=height, base_field=base
        )
        assert record_fields(scales_from_scenario(scn)) == record_fields(
            _correlator_scales(scn)
        )

    def test_fit_factor_validates_pinned_value(self, dist):
        factor = fit_sinc_width_factor(dist)
        assert 1.1 <= factor <= 1.3
        # amplitude-pinned least squares over the main lobe lands ~4.3%
        # below the pinned 1.196; the criterion difference is documented
        assert abs(factor - 1.196) / 1.196 < 0.05


class TestPhiTau:
    def test_reference_value(self, scenario):
        assert dis.phi_tau(scenario) == pytest.approx(PHI_TAU_REF, rel=1e-8)

    def test_linear_in_trap_depth(self, scenario):
        # phase is affine in each single parameter
        base = dis.phi_tau(scenario)
        g = scenario.trap_guide
        bumped = Scenario(
            species=scenario.species,
            trap_guide=replace(g, trap_depth=2.0 * g.trap_depth),
            resonance=scenario.resonance,
            pulses=scenario.pulses,
        )
        delta = dis.phi_tau(bumped) - base
        expected = 2.0 * g.trap_depth * scenario.pulses.pulse_separation / CONSTANTS.hbar
        assert delta == pytest.approx(expected, rel=1e-9)


class TestPhaseStability:
    def test_reference_drifts(self, scenario):
        rep = dis.phase_stability(scenario, 1e-5)
        for name, ref in DRIFTS_REF.items():
            assert rep.drifts[name] == pytest.approx(ref, rel=1e-4), name
            assert rep.passes[name] == (ref <= 0.05), name
        assert not rep.all_pass
        assert dis.PHASE_BUDGET == 0.05

    def test_symmetric_sensitivities(self, scenario):
        rep = dis.phase_stability(scenario, 1e-5)
        # height and duration drifts both equal mu*dB*T*r/hbar
        assert rep.drifts["pulse_height"] == rep.drifts["pulse_duration"]
        # base field and resonance position enter only as a difference
        assert rep.common_mode_field_drift == 0.0
        assert rep.sensitivities["base_field"] == -rep.sensitivities["resonance_position"]

    def test_matches_finite_differences(self, scenario):
        rep = dis.phase_stability(scenario, 1e-5)
        h = 1e-6
        sens_fd = {}

        def scn_with(**kw):
            pu = {k: v for k, v in kw.items()
                  if k in ("base_field", "pulse_height", "pulse_duration", "pulse_separation")}
            scn = _with_pulses(scenario, **pu) if pu else scenario
            if "resonance_position" in kw:
                scn = Scenario(species=scn.species, trap_guide=scn.trap_guide,
                               resonance=replace(scn.resonance, position=kw["resonance_position"]),
                               pulses=scn.pulses)
            if "trap_depth" in kw:
                scn = Scenario(species=scn.species,
                               trap_guide=replace(scn.trap_guide, trap_depth=kw["trap_depth"]),
                               resonance=scn.resonance, pulses=scn.pulses)
            return scn

        values = {
            "base_field": scenario.pulses.base_field,
            "pulse_height": scenario.pulses.pulse_height,
            "resonance_position": scenario.resonance.position,
            "pulse_duration": scenario.pulses.pulse_duration,
            "pulse_separation": scenario.pulses.pulse_separation,
            "trap_depth": scenario.trap_guide.trap_depth,
        }
        for name, x in values.items():
            hi = dis.phi_tau(scn_with(**{name: x * (1.0 + h)}))
            lo = dis.phi_tau(scn_with(**{name: x * (1.0 - h)}))
            sens_fd[name] = (hi - lo) / (2.0 * x * h)
        for name in values:
            assert rep.sensitivities[name] == pytest.approx(sens_fd[name], rel=1e-8), name

    def test_homogeneous_degree_one(self, scenario):
        r1 = dis.phase_stability(scenario, 1e-5)
        r2 = dis.phase_stability(scenario, 3e-5)
        assert r2.total == pytest.approx(3.0 * r1.total, rel=1e-12)
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            dis.phase_stability(scenario, -1e-5)


class TestDissociationProbability:
    def test_zero_input(self, scenario):
        assert dis.dissociation_probability(scenario, 0.0) == 0.0

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_scaling(self, factor):
        scn = reference_scenario()
        base = dis.dissociation_probability(scn, 1e-33)
        assert dis.dissociation_probability(scn, factor * 1e-33) == pytest.approx(
            factor * base, rel=1e-12
        )
        wider = Scenario(
            species=scn.species, trap_guide=scn.trap_guide,
            resonance=replace(scn.resonance, width=factor * scn.resonance.width),
            pulses=scn.pulses,
        )
        assert dis.dissociation_probability(wider, 1e-33) == pytest.approx(
            factor * base, rel=1e-12
        )

    def test_single_molecule_inversion(self, scenario):
        ct = dis.required_c_tilde_norm_sq(scenario, 100)
        assert 100 * dis.dissociation_probability(scenario, ct) == pytest.approx(1.0, rel=1e-12)
        assert dis.dissociation_probability(scenario, 3.777e-33) == pytest.approx(0.01, rel=1e-3)

    def test_validation(self, scenario):
        with pytest.raises(ValidationError, match="c_tilde_norm_sq"):
            dis.dissociation_probability(scenario, -1.0)
        with pytest.raises(ValidationError, match="n_molecules"):
            dis.required_c_tilde_norm_sq(scenario, 0)

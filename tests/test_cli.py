"""Command-line interface tests.

Everything runs in-process through main(argv, stdout, stderr); the CSV
contract is checked by parsing the emitted text back with the csv module.
"""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtebell.cli import (
    CONFIG_SCHEMA,
    FEASIBILITY_COLUMNS,
    BUNDLED_DEFAULTS,
    RESULT_COLUMNS,
    ConfigError,
    load_config,
    main,
)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def write_cfg(tmp_path, body, name="case.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------- config


class TestConfig:
    def test_bundled_defaults_match_table(self):
        document = load_config(None)
        assert document.values == BUNDLED_DEFAULTS

    def test_partial_override_keeps_rest(self, tmp_path):
        path = write_cfg(tmp_path, "[pulses]\nseparation_s = 2.0\n")
        document = load_config(path)
        assert document.get("pulses", "separation_s") == 2.0
        assert document.get("pulses", "height_mG") == 400.0
        assert document.get("scenario", "mass_amu") == 6.0151228

    def test_unknown_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[scenario]\nmass_kg = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[pulses]\nseparation_s = soon\n")
        with pytest.raises(ConfigError, match="invalid value"):
            load_config(path)

    def test_bad_mode_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[interferometer]\nmode = Sometimes\n")
        with pytest.raises(ConfigError, match="mode"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/no/such/file.cfg")

    def test_directory_as_config_exits_2(self, tmp_path):
        code, _, err = invoke("scales", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_undecodable_config_exits_2(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"[pulses]\nseparation_s = 1.0\xff\n")
        code, _, err = invoke("scales", str(path))
        assert code == 2
        assert err.startswith("error: ") and str(path) in err

    def test_schema_covers_defaults(self):
        assert {s: set(v) for s, v in CONFIG_SCHEMA.items()} == {
            s: set(v) for s, v in BUNDLED_DEFAULTS.items()
        }

    def test_to_scenario_si_conversion(self):
        scenario = load_config(None).to_scenario()
        assert scenario.pulses.base_field == pytest.approx(543.20e-4, rel=1e-12)
        assert scenario.pulses.pulse_height == pytest.approx(400e-7, rel=1e-12)
        assert scenario.pulses.pulse_duration == pytest.approx(60e-3, rel=1e-12)
        assert scenario.resonance.position == pytest.approx(543.25e-4, rel=1e-12)
        assert scenario.trap_guide.omega_guide == pytest.approx(
            2 * math.pi * 300.0, rel=1e-12
        )

    @pytest.mark.parametrize("key, angle", [
        ("theta1_deg", "120"), ("theta2_deg", "-1"), ("theta1_deg", "90.5"),
    ])
    @pytest.mark.parametrize("argv", [
        ("scales",),
        ("feasibility",),
        ("bell", "--optimize"),
        ("montecarlo", "--events", "10"),
        ("scan", "--axis", "tau", "--start", "0.9", "--stop", "1.1", "--steps", "2",
         "--method", "quad"),
    ], ids=lambda argv: argv[0])
    def test_theta_outside_0_to_90_exits_2(self, tmp_path, argv, key, angle):
        path = write_cfg(tmp_path, f"[interferometer]\n{key} = {angle}\n")
        code, out, err = invoke(argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        assert err == (
            f"error: invalid value for interferometer.{key}: {float(angle)} "
            "(expected 0 to 90 degrees)\n"
        )


# ------------------------------------------------------------------- scales


class TestScales:
    def test_refuses_scenario_outside_source_domain(self, tmp_path):
        path = write_cfg(tmp_path, "[pulses]\nbase_field_mG = 543800\n")
        _, _, bell_err = invoke("bell", path, "--optimize")
        assert "resonance pole inside the momentum domain" in bell_err
        for command in ("scales", "feasibility"):
            code, out, err = invoke(command, path)
            assert (code, out, err) == (1, "", bell_err)

    @given(
        field=st.floats(543150.0, 544000.0),
        duration=st.floats(-3.0, 3.1).map(lambda e: 10.0**e),
    )
    @example(field=543800.0, duration=60.0)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:wave-packet separation margin")
    def test_scales_refuses_exactly_what_bell_refuses(self, tmp_path_factory, field, duration):
        """scales and bell share the source validity domain; only bell,
        which correlates, also checks wave-packet separation."""
        path = tmp_path_factory.mktemp("domain") / "case.cfg"
        path.write_text(
            f"[pulses]\nbase_field_mG = {field!r}\nduration_ms = {duration!r}\n",
            encoding="utf-8",
        )
        code, _, err = invoke("scales", str(path))
        bell_code, _, bell_err = invoke("bell", str(path), "--settings", *SETTINGS_UM)
        assert code == bell_code
        if code:
            assert err.splitlines()[0] == bell_err.splitlines()[0]

    def test_text_output(self):
        code, out, err = invoke("scales")
        assert code == 0
        values = dict(line.split(" = ") for line in out.splitlines())
        assert float(values["t_rel_s"]) == pytest.approx(3.41, abs=0.01)
        assert float(values["t_cm_s"]) == pytest.approx(0.637, abs=0.001)
        assert values["feasible"] == "true"

    def test_json_output(self):
        import json

        code, out, err = invoke("scales", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["visibility"] == pytest.approx(0.7179, abs=1e-3)
        assert payload["dispersion_product"] < 4
        assert payload["feasible"] is True

    def test_numbers_round_trip_exactly(self):
        import json

        code, text_out, _ = invoke("scales")
        _, json_out, _ = invoke("scales", "--json")
        text_values = dict(line.split(" = ") for line in text_out.splitlines())
        payload = json.loads(json_out)
        for key, value in payload.items():
            if isinstance(value, float):
                assert float(text_values[key]) == value

    def test_below_threshold_exits_2(self, tmp_path):
        path = write_cfg(tmp_path, "[pulses]\nheight_mG = 0.001\n")
        code, out, err = invoke("scales", path)
        assert code == 2
        assert "below-threshold pulse" in err

    def test_bad_config_exits_2(self, tmp_path):
        path = write_cfg(tmp_path, "[scenario]\nmass_amu = heavy\n")
        code, out, err = invoke("scales", path)
        assert code == 2
        assert "error:" in err


# --------------------------------------------------------------------- scan


class TestScan:
    def test_header_and_row_shape(self):
        code, out, _ = invoke(
            "scan", "--axis", "ell1", "--start", "5340", "--stop", "5360",
            "--steps", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 4

    def test_probabilities_consistent(self):
        code, out, _ = invoke(
            "scan", "--axis", "ell1", "--start", "5330", "--stop", "5370",
            "--steps", "9",
        )
        rows = parse_csv(out)
        for row in rows:
            p = [float(row[k]) for k in ("P_pp", "P_pm", "P_mp", "P_mm")]
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            e = p[0] - p[1] - p[2] + p[3]
            assert float(row["E"]) == pytest.approx(e, abs=1e-9)

    def test_fringe_period_matches_de_broglie(self):
        """FFT of an ell1 scan recovers the fringe period 2*pi*lambda_bar."""
        code, scales_json, _ = invoke("scales", "--json")
        import json

        lam = json.loads(scales_json)["lambda_bar_rel_m"]
        period_um = 2 * math.pi * lam * 1e6
        start, n = 5349.36, 128
        stop = start + 4 * period_um * (n - 1) / n  # 4 whole periods
        code, out, _ = invoke(
            "scan", "--axis", "ell1", "--start", repr(start), "--stop",
            repr(stop), "--steps", str(n),
        )
        assert code == 0
        e = np.array([float(r["E"]) for r in parse_csv(out)])
        spectrum = np.abs(np.fft.rfft(e - e.mean()))
        k = int(np.argmax(spectrum))
        assert k == 4
        measured = 4 * period_um * (n - 1) / n / k
        assert measured == pytest.approx(period_um, rel=0.02)

    def test_quad_matches_closed(self):
        args = ("--axis", "ell1", "--start", "5340", "--stop", "5360",
                "--steps", "3")
        _, out_c, _ = invoke("scan", *args, "--method", "closed")
        _, out_q, _ = invoke("scan", *args, "--method", "quad")
        for rc, rq in zip(parse_csv(out_c), parse_csv(out_q)):
            for key in ("P_pp", "P_pm", "P_mp", "P_mm", "E"):
                assert float(rc[key]) == pytest.approx(float(rq[key]), abs=1e-6)

    def test_tau_axis_rows_bounded_by_local_visibility(self):
        """V is the fringe amplitude at the configured lengths, so |E| <= V.

        It is not monotone in tau: the envelope center moves with tau while
        the configured lengths stay put.
        """
        code, out, _ = invoke(
            "scan", "--axis", "tau", "--start", "0.5", "--stop", "2.0",
            "--steps", "4",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["axis_value"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for row in rows:
            v = float(row["V"])
            assert 0.0 <= v <= 1.0
            assert abs(float(row["E"])) <= v + 1e-12
            assert float(row["tau_s"]) == float(row["axis_value"])

    def test_field_axis_errors_stay_in_rows(self):
        code, out, _ = invoke(
            "scan", "--axis", "field", "--start", "543150", "--stop", "543210",
            "--steps", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        assert "below-threshold pulse" in rows[0]["error"]
        assert rows[0]["E"] == ""
        assert rows[1]["error"] == "" and rows[1]["E"] != ""

    def test_bad_ranges_exit_2(self):
        code, _, err = invoke(
            "scan", "--axis", "ell1", "--start", "1", "--stop", "1",
            "--steps", "3",
        )
        assert code == 2 and "degenerate" in err
        code, _, err = invoke(
            "scan", "--axis", "ell1", "--start", "0", "--stop", "1",
            "--steps", "1",
        )
        assert code == 2 and "steps" in err

    @pytest.mark.parametrize("method", ["closed", "quad"])
    def test_accepts_tilted_analyzers(self, tmp_path, method):
        """Both methods read the analyzer angles and agree on them."""
        path = write_cfg(tmp_path, "[interferometer]\ntheta1_deg = 30\n")
        argv = ("scan", path, "--axis", "ell1", "--start", "5345", "--stop", "5355",
                "--steps", "2", "--method")
        code, out, _ = invoke(*argv, method)
        assert code == 0
        _, other, _ = invoke(*argv, "quad" if method == "closed" else "closed")
        for row, reference in zip(parse_csv(out), parse_csv(other), strict=True):
            assert row["error"] == "" and row["theta1_deg"] == "30.0"
            assert abs(float(row["E"])) <= 1.0
            for key in ("P_pp", "P_pm", "P_mp", "P_mm", "E", "V"):
                assert float(row[key]) == pytest.approx(float(reference[key]), abs=1e-6)


# --------------------------------------------------------------------- bell


SETTINGS_UM = (
    "5346.821194758838",
    "5349.921318280931",
    "-5349.944715379622",
    "-5346.844603893447",
)


class TestBell:
    def test_optimize_reaches_reference_violation(self):
        code, out, err = invoke("bell", "--optimize")
        assert code == 0
        rows = parse_csv(out)
        summary = rows[-1]
        assert summary["source"] == "bell_summary"
        s = float(summary["S"])
        assert s == pytest.approx(2.03037, abs=1e-4)
        assert "violated = true" in err

    @pytest.mark.parametrize("command", ["bell", "montecarlo"])
    def test_explicit_settings_echoed_exactly(self, command):
        # 4029.18 um does not survive the m <-> um round trip
        a, a_prime, b, b_prime = "4029.18", *SETTINGS_UM[1:]
        assert float(a) / 1e6 * 1e6 != float(a)
        events = ("--events", "10") if command == "montecarlo" else ()
        code, out, _ = invoke(command, *events, "--settings", a, a_prime, b, b_prime)
        assert code == 0
        echoed = [(row["ell1_um"], row["ell2_um"]) for row in parse_csv(out)[:4]]
        assert echoed == [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]

    @pytest.mark.parametrize("length", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["bell", "montecarlo"])
    def test_non_finite_settings_exit_2(self, tmp_path, command, length):
        # refused as a usage error before the scenario is built
        path = write_cfg(tmp_path, "[interferometer]\ntheta1_deg = 30\n")
        code, out, err = invoke(command, path, "--settings", SETTINGS_UM[0], length,
                                *SETTINGS_UM[2:])
        assert (code, out) == (2, "")
        assert err.startswith("error: --settings lengths must be finite, got ")

    def test_s_matches_pair_correlations(self):
        code, out, _ = invoke("bell", "--settings", *SETTINGS_UM)
        rows = parse_csv(out)
        e = [float(r["E"]) for r in rows[:4]]
        s = abs(e[0] - e[1] + e[2] + e[3])
        assert float(rows[4]["S"]) == pytest.approx(s, abs=1e-12)

    def test_tau_override_kills_violation(self):
        code, out, err = invoke("bell", "--optimize", "--tau", "2.0")
        assert code == 0
        summary = parse_csv(out)[-1]
        assert float(summary["S"]) < 2.0
        assert "violated = false" in err

    def test_requires_optimize_or_settings(self):
        with pytest.raises(SystemExit):
            invoke("bell")

    def test_bad_tau_exits_2(self):
        code, _, err = invoke("bell", "--optimize", "--tau", "-1")
        assert code == 2 and "--tau" in err

    def test_optimize_accepts_tilted_analyzers(self, tmp_path):
        # theta1 = 30 degrees scales every fringe by sin 60 degrees, and
        # cos 60 * cos 90 adds nothing, so S shrinks by sin 60 degrees
        path = write_cfg(tmp_path, "[interferometer]\ntheta1_deg = 30\n")
        code, out, err = invoke("bell", path, "--optimize")
        assert code == 0 and "violated = false" in err
        rows = parse_csv(out)
        assert [row["theta1_deg"] for row in rows[:4]] == ["30.0"] * 4
        _, reference, _ = invoke("bell", "--optimize")
        s_45 = float(parse_csv(reference)[-1]["S"])
        assert float(rows[-1]["S"]) == pytest.approx(math.sin(math.pi / 3.0) * s_45, rel=1e-6)

    @pytest.mark.parametrize("angle", ["225", "-135"])
    @pytest.mark.parametrize(
        "argv",
        [("bell", "--optimize"),
         ("scan", "--axis", "tau", "--start", "0.9", "--stop", "1.1", "--steps", "2")],
        ids=["bell-optimize", "scan-tau"],
    )
    def test_closed_routes_reject_45_plus_half_turns(self, tmp_path, argv, angle):
        # equal to 45 modulo 180, but not a 45-degree analyzer
        path = write_cfg(tmp_path, f"[interferometer]\ntheta1_deg = {angle}\n")
        code, out, err = invoke(argv[0], path, *argv[1:])
        assert code == 2 and out == ""
        # outside [0, 90], so the range check at config load refuses it first
        assert err == (
            f"error: invalid value for interferometer.theta1_deg: {float(angle)} "
            "(expected 0 to 90 degrees)\n"
        )


# --------------------------------------------------------------- montecarlo


class TestMonteCarlo:
    def test_counts_reproduce_library_run(self):
        """CLI counts equal a direct library run with the same settings."""
        from dtebell.bell import ChshSettings
        from dtebell.cli import load_config
        from dtebell.correlation import InterferometerSetting
        from dtebell.montecarlo import RunConfig, run
        from dtebell.bell import closed_form_correlator
        from dtebell.dissociation import phi_tau
        from dtebell.scenario import scales_from_scenario

        code, out, _ = invoke(
            "montecarlo", "--events", "400", "--seed", "11",
            "--settings", *SETTINGS_UM,
        )
        assert code == 0
        rows = parse_csv(out)

        scenario = load_config(None).to_scenario()
        correlator = closed_form_correlator(
            scales_from_scenario(scenario), scenario.pulses.pulse_separation,
            phi_tau(scenario),
        )
        chosen = ChshSettings(
            *(InterferometerSetting(ell=float(u) * 1e-6) for u in SETTINGS_UM)
        )
        table = run(
            correlator,
            RunConfig(events_per_setting=400, seed=11, mode="Switched",
                      settings=chosen),
        )
        for i, row in enumerate(rows[:4]):
            kept = table.kept(i)
            for j, key in enumerate(("P_pp", "P_pm", "P_mp", "P_mm")):
                assert float(row[key]) == pytest.approx(
                    table.counts[i][j] / kept, abs=1e-12
                )

    def test_accepts_tilted_analyzers(self, tmp_path):
        path = write_cfg(tmp_path, "[interferometer]\ntheta1_deg = 30\n")
        code, out, _ = invoke("montecarlo", path, "--events", "100")
        assert code == 0
        assert [row["theta1_deg"] for row in parse_csv(out)[:4]] == ["30.0"] * 4

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_bad_seed_exits_2_before_output(self, seed):
        # the range load_config applies to run.seed
        code, out, err = invoke("montecarlo", "--events", "10", "--seed", str(seed))
        assert (code, out) == (2, "")
        assert err == f"error: --seed must fit in 64 bits, got {seed}\n"

    def test_byte_identical_reruns(self):
        first = invoke("montecarlo", "--events", "500", "--seed", "7")
        second = invoke("montecarlo", "--events", "500", "--seed", "7")
        assert first == second

    def test_seed_changes_output(self):
        _, out_a, _ = invoke("montecarlo", "--events", "500", "--seed", "7")
        _, out_b, _ = invoke("montecarlo", "--events", "500", "--seed", "8")
        assert out_a != out_b

    def test_summary_algebra(self):
        code, out, _ = invoke("montecarlo", "--events", "2000", "--seed", "5")
        assert code == 0
        rows = parse_csv(out)
        e = [float(r["E"]) for r in rows[:4]]
        s = abs(e[0] - e[1] + e[2] + e[3])
        summary = rows[4]
        assert float(summary["S"]) == pytest.approx(s, abs=1e-12)
        var = sum(float(r["stderr"]) ** 2 for r in rows[:4])
        assert float(summary["stderr"]) == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_beamsplitter_discards_half(self, tmp_path):
        path = write_cfg(tmp_path, "[interferometer]\nmode = BeamSplitter\n")
        code, out, _ = invoke(
            "montecarlo", path, "--events", "4000", "--seed", "2",
            "--settings", *SETTINGS_UM,
        )
        assert code == 0
        rows = parse_csv(out)
        for row in rows[:4]:
            assert row["switch_mode"] == "BeamSplitter"
            discarded = int(row["discarded"])
            assert discarded == pytest.approx(2000, abs=4 * math.sqrt(1000))

    def test_events_from_config_cli_overrides(self, tmp_path):
        path = write_cfg(tmp_path, "[run]\nevents = 250\nseed = 9\n")
        code, out, _ = invoke("montecarlo", path, "--settings", *SETTINGS_UM)
        assert code == 0
        summary = parse_csv(out)[-1]
        assert summary["events"] == "250" and summary["seed"] == "9"
        code, out, _ = invoke(
            "montecarlo", path, "--events", "300", "--settings", *SETTINGS_UM
        )
        summary = parse_csv(out)[-1]
        assert summary["events"] == "300" and summary["seed"] == "9"

    def test_fluctuation_past_tsirelson_exits_0(self):
        """Five events at seed 49 give S_hat = 3.2 > 2*sqrt(2): a fluke of
        the sample, reported like any other run."""
        code, out, err = invoke("montecarlo", "--events", "5", "--seed", "49")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5 and not any(row["error"] for row in rows)
        for row in rows:
            assert row["events"] == "5" and row["switch_mode"] == "Switched"
        for row in rows[:4]:
            assert row["discarded"] == "0"
            counts = [float(row[key]) * 5 for key in ("P_pp", "P_pm", "P_mp", "P_mm")]
            assert all(abs(c - round(c)) < 1e-6 for c in counts)
            assert sum(round(c) for c in counts) == 5
        assert float(rows[4]["S"]) > 2.0 * math.sqrt(2.0)
        assert float(rows[4]["V"]) == 1.0
        assert "exceeds 2*sqrt(2)" in err

    def test_degenerate_pair_has_wilson_stderr(self):
        """Both a' pairs of seed 49 tally E = 1 from 5 events; their
        stderr is 2/(5 + 1), not the 0 of (1 - E^2)/n."""
        code, out, _ = invoke("montecarlo", "--events", "5", "--seed", "49")
        assert code == 0
        for line in out.splitlines()[3:5]:
            assert line.startswith("montecarlo_a_prime_b")
            assert line.split(",")[-2] == "0.3333333333333333"

    def test_bad_events_exit_2(self):
        code, _, err = invoke("montecarlo", "--events", "0")
        assert code == 2 and "--events" in err

    @pytest.mark.parametrize("events", [2**63, 10**23])
    def test_events_past_int64_exit_2_before_output(self, events, tmp_path):
        # a tally is an int64 count; the same bound holds for run.events
        code, out, err = invoke("montecarlo", "--events", str(events))
        assert (code, out) == (2, "")
        assert err == f"error: --events must be from 1 to 2**63 - 1, got {events}\n"
        path = write_cfg(tmp_path, f"[run]\nevents = {events}\n")
        code, out, err = invoke("montecarlo", path)
        assert (code, out) == (2, "")
        assert err == f"error: run.events must be from 1 to 2**63 - 1, got {events}\n"

    def test_largest_event_count_exits_0(self):
        code, out, _ = invoke("montecarlo", "--events", str(2**63 - 1), "--seed", "1")
        assert code == 0
        rows = parse_csv(out)
        assert all(row["events"] == str(2**63 - 1) for row in rows)
        assert not any(row["error"] for row in rows)


# -------------------------------------------------------------- feasibility


class TestFeasibility:
    def test_header_and_crossing(self):
        code, out, err = invoke("feasibility", "--steps", "13")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(FEASIBILITY_COLUMNS)
        rows = parse_csv(out)
        assert len(rows) == 13
        # violation window closes between 1 s and 1.25 s
        by_tau = {float(r["tau_s"]): r for r in rows}
        assert by_tau[1.0]["feasible"] == "true"
        assert by_tau[1.25]["feasible"] == "false"
        assert "crosses 1/sqrt(2) at tau = 1.038" in err

    def test_periods_column_tracks_visibility(self):
        code, out, _ = invoke("feasibility", "--steps", "13")
        rows = parse_csv(out)
        for row in rows:
            v = float(row["visibility"])
            periods = float(row["periods_above_threshold"])
            if v > 1 / math.sqrt(2):
                assert periods > 0
            else:
                assert periods == 0.0

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_stability_rel_exits_2_before_output(self, value):
        code, out, err = invoke("feasibility", "--stability-rel", value)
        assert (code, out) == (2, "")
        assert err == f"error: --stability-rel must be finite and >= 0, got {float(value)}\n"

    def test_stability_report_lists_all_parameters(self):
        code, _, err = invoke("feasibility", "--steps", "3")
        assert code == 0
        for name in ("base_field", "pulse_height", "resonance_position",
                     "pulse_duration", "pulse_separation", "trap_depth"):
            assert name in err
        assert "common-mode field drift" in err

    def test_no_crossing_reported_when_out_of_range(self):
        code, _, err = invoke(
            "feasibility", "--start", "1.5", "--stop", "3.0", "--steps", "4"
        )
        assert code == 0
        assert "does not cross" in err

    def test_source_model_check(self):
        code, _, err = invoke(
            "feasibility", "--steps", "3", "--source-model-check"
        )
        assert code == 0
        line = [l for l in err.splitlines() if "two-pulse source" in l]
        assert len(line) == 1
        amplitude = float(line[0].split("center: ")[1].split(" ")[0])
        assert 0.6 < amplitude < 1 / math.sqrt(2)

    def test_source_model_check_is_one_sinc2_call(self, monkeypatch):
        import dtebell.cli as cli

        original = cli.correlate_quadrature
        results = []

        def counted(pair, *args, **kwargs):
            result = original(pair, *args, **kwargs)
            results.append((type(pair.distribution).__name__, result))
            return result

        monkeypatch.setattr(cli, "correlate_quadrature", counted)
        code, _, err = invoke("feasibility", "--steps", "3", "--source-model-check")
        assert code == 0
        assert [route for route, _ in results] == ["FeshbachDistribution"]
        assert f"center: {results[0][1].visibility:.6f} " in err

    def test_capped_normalization_exits_1(self, monkeypatch):
        import dtebell._quadrature as quad

        monkeypatch.setattr(quad, "MAX_LEVEL", 1.0)
        code, _, err = invoke(
            "feasibility", "--steps", "3", "--source-model-check"
        )
        assert code == 1
        assert "exceeds 3e-07" in err.splitlines()[-1]

    def test_bad_sweep_exits_2(self):
        with pytest.raises(SystemExit):  # feasibility sweeps tau only, and has no --sweep
            invoke("feasibility", "--sweep", "field")
        code, _, err = invoke("feasibility", "--start", "2", "--stop", "1")
        assert code == 2


# ------------------------------------------------------------ source builds


_BUILD_CASES = (
    (("bell", "--optimize"), 0, 1),
    (("bell", "--settings", *SETTINGS_UM), 0, 1),
    (("montecarlo", "--events", "100"), 0, 1),
    (("scan", "--axis", "ell1", "--start", "5340", "--stop", "5360",
      "--steps", "3"), 0, 1),
    (("scan", "--axis", "ell2", "--start", "-5360", "--stop", "-5340",
      "--steps", "3"), 0, 1),
    (("scan", "--axis", "tau", "--start", "0.9", "--stop", "1.1",
      "--steps", "3"), 0, 3),
    (("scan", "--axis", "field", "--start", "543199.9", "--stop", "543200.1",
      "--steps", "3"), 0, 3),
    (("scan", "--axis", "ell1", "--start", "5340", "--stop", "5360",
      "--steps", "3", "--method", "quad"), 0, 1),
    (("scan", "--axis", "tau", "--start", "0.9", "--stop", "1.1",
      "--steps", "3", "--method", "quad"), 0, 3),
    (("feasibility", "--steps", "3", "--source-model-check"), 1, 1),
)


class TestSourceBuilds:
    """The closed form and the Gaussian quadrature read the dispersion
    scales, so only the sinc^2 route (--source-model-check) builds a
    FeshbachDistribution: once per scenario.  Every correlating route
    reads one DtePair per scenario, so each runs the separation check."""

    @pytest.mark.parametrize(
        "argv, builds, pairs",
        _BUILD_CASES,
        # ids name the command and its source builds
        ids=[f"{' '.join(argv)}-{builds}" for argv, builds, _ in _BUILD_CASES],
    )
    def test_only_quadrature_routes_build_the_source(self, monkeypatch, argv, builds,
                                                     pairs):
        import dtebell.correlation as cor
        import dtebell.dissociation as dis

        calls = {dis.FeshbachDistribution: [], cor.DtePair: []}
        for cls, seen in calls.items():
            def counting(self, original=cls.__post_init__, seen=seen):
                seen.append(self)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        code, out, _ = invoke(*argv)
        assert code == 0
        assert not any(row.get("error") for row in parse_csv(out))
        assert len(calls[dis.FeshbachDistribution]) == builds
        assert len(calls[cor.DtePair]) == pairs

    @pytest.mark.parametrize(
        "argv",
        [
            ("bell", "--optimize"),
            ("bell", "--settings", *SETTINGS_UM),
            ("montecarlo", "--events", "100"),
            ("scan", "--axis", "ell1", "--start", "340", "--stop", "350", "--steps", "2"),
            ("scan", "--axis", "ell1", "--start", "340", "--stop", "350", "--steps", "2",
             "--method", "quad"),
            ("scan", "--axis", "tau", "--start", "0.065", "--stop", "0.1", "--steps", "2"),
            ("scan", "--axis", "tau", "--start", "0.065", "--stop", "0.1", "--steps", "2",
             "--method", "quad"),
        ],
        ids=" ".join,
    )
    def test_unseparated_pair_fails_every_correlating_route(self, tmp_path, argv):
        # separation margin 1.17 at tau = 0.065 s, below DtePair's refusal at 2
        path = write_cfg(tmp_path, "[scenario]\nomega_trap_hz = 0.005\n"
                                   "[pulses]\nseparation_s = 0.065\n"
                                   "[interferometer]\nell1_um = 345\nell2_um = -345\n")
        code, out, err = invoke(argv[0], path, *argv[1:])
        message = "wave packets not separated"
        if "tau" in argv:
            assert code == 0
            rows = parse_csv(out)
            assert len(rows) == 2
            assert all(message in row["error"] for row in rows)
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {message}")

    def test_quad_scan_derives_the_scales_once(self, monkeypatch):
        # every row's DtePair reads the scenario's scales; none derives its own
        import sys

        import dtebell.scenario as scn

        original = scn.derive_scales
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("dtebell") and getattr(module, "derive_scales", None) is original:
                monkeypatch.setattr(module, "derive_scales", counting)
        code, out, _ = invoke("scan", "--axis", "ell1", "--start", "5340", "--stop", "5360",
                              "--steps", "5", "--method", "quad")
        assert code == 0
        assert len(parse_csv(out)) == 5
        assert len(calls) == 1


# ------------------------------------------------------------------ parsing


class TestRoundTrip:
    def test_csv_floats_parse_to_exact_values(self):
        """repr formatting means float(cell) reproduces the binary value."""
        import json

        _, out, _ = invoke("scan", "--axis", "ell1", "--start", "5340",
                           "--stop", "5360", "--steps", "3")
        _, js, _ = invoke("scales", "--json")
        lam = json.loads(js)["lambda_bar_rel_m"]
        row = parse_csv(out)[0]
        value = float(row["P_pp"])
        assert repr(value) == row["P_pp"]
        assert 0 < lam < 1e-5

    @pytest.mark.parametrize(
        "exponent, plain",
        [
            (("scan", "--axis", "ell2", "--start", "-5.37e3", "--stop", "-5.33e3",
              "--steps", "2"),
             ("scan", "--axis", "ell2", "--start", "-5370", "--stop", "-5330",
              "--steps", "2")),
            (("bell", "--settings", "5346.82", "5349.92", "-5.34994e3", "-5346.84"),
             ("bell", "--settings", "5346.82", "5349.92", "-5349.94", "-5346.84")),
        ],
        ids=["scan-start", "bell-settings"],
    )
    def test_negative_numbers_in_exponent_form(self, exponent, plain):
        result = invoke(*exponent)
        assert result[0] == 0
        assert result == invoke(*plain)

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            invoke("transmogrify")


# -------------------------------------------------------------- float range


_FLOAT_FIELDS = sorted(
    (section, key) for section, keys in CONFIG_SCHEMA.items()
    for key, kind in keys.items() if kind == "float"
)


def _fuzz_commands(values):
    tau = values["pulses"]["separation_s"]
    ell1 = values["interferometer"]["ell1_um"]
    return (
        ("scales",),
        ("feasibility",),
        ("bell", "--optimize"),
        ("bell", "--settings", *SETTINGS_UM),
        ("scan", "--axis", "tau", "--start", repr(tau), "--stop", repr(2.0 * tau),
         "--steps", "3"),
        ("scan", "--axis", "ell1", "--start", repr(ell1), "--stop", repr(ell1 + 10.0),
         "--steps", "3", "--method", "quad"),
        ("montecarlo", "--events", "10"),
    )


class TestFloatRange:
    # (section, key), decimal exponent, negate
    @given(st.lists(
        st.tuples(st.sampled_from(_FLOAT_FIELDS), st.floats(-300.0, 300.0), st.booleans()),
        min_size=1, max_size=3, unique_by=lambda scaled: scaled[0],
    ))
    # the four sites a finite config used to escape from: p0 underflows;
    # sigma_p_rel^2 underflows; t_cm^2 and t_rel^2 overflow
    @example([(("scenario", "mass_amu"), -277.3, False)])
    @example([(("pulses", "base_field_mG"), -5.73, False), (("pulses", "height_mG"), 277.7, False),
              (("resonance", "position_mG"), 274.27, False)])
    @example([(("scenario", "omega_trap_hz"), -160.0, False)])
    @example([(("pulses", "duration_ms"), 78.22, False),
              (("pulses", "separation_s"), 78.0, False)])
    @settings(max_examples=25, deadline=None)
    def test_every_finite_config_ends_in_a_documented_exit(self, tmp_path_factory, scaled):
        """Fields scaled by up to 10^+-300: each command exits 0, 1 or 2,
        nothing escapes main, and a failure is one error: line."""
        values = {section: dict(body) for section, body in BUNDLED_DEFAULTS.items()}
        for (section, key), exponent, negate in scaled:
            value = values[section][key] * 10.0**exponent
            values[section][key] = -value if negate else value
        path = tmp_path_factory.mktemp("float_range") / "case.cfg"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
            for section, body in values.items()
        ), encoding="utf-8")
        for command, *flags in _fuzz_commands(values):
            code, _, err = invoke(command, str(path), *flags)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), (command, flags, err)
            assert len(errors) == (code != 0), (command, flags, err)

import errno
import json
import math
import os
import sys

import numpy as np
import pytest

from genrabi.cli import _serialize, main
from genrabi.errors import ConfigError
from genrabi.modes import COUPLING_FAMILIES, coupling_from_config
from genrabi.propagator import SCHEMES, PropagatorConfig
from genrabi.scenarios import (FAMILIES, ScenarioParams, default_ansatz,
                               default_window, make_scenario,
                               scenario_time_scale)
from genrabi.theta import (ANSATZ_NAMES, case2_ansatz, named_ansatz,
                           verify_ansatz)

RUN_HEADER = ("t,omega_z,omega_mag,phi_omega,detuning,re_a,im_a,re_b,im_b,"
              "p_flip,sigma_x,sigma_y,sigma_z")
MODE_HEADER = "z,re_A,im_A,re_B,im_B,powerA,powerB,total"


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def column(text, name):
    header, rows = parse_csv(text)
    return rows[:, header.index(name)]


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for family in ("rabi", "sech_resonant", "exp_resonant",
                   "modulated_resonant", "constant_beta0", "case1", "case2"):
        assert family in out
    assert "axis:" in out
    assert "defaults:" in out


def test_list_scenarios_prints_exactly_the_catalog(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if not ln.startswith(" ")] == \
        list(FAMILIES)


def test_run_csv_to_stdout(capsys):
    assert main(["run", "--scenario", "sech_resonant", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert ",".join(header) == RUN_HEADER
    assert rows.shape == (5, 13)
    assert rows[0, 0] == 0.0
    assert rows[0, header.index("re_a")] == 1.0
    assert rows[0, header.index("p_flip")] == 0.0
    assert out.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "case2", "--samples", "41", "--engine", "both"],
    ["modes", "--coupling", "sech", "--delta", "0.5", "--z-max", "2",
     "--samples", "21"]])
def test_stdout_and_out_file_are_the_same_bytes(argv, tmp_path, capsysbinary):
    path = tmp_path / "series.csv"
    assert main(argv + ["--out", str(path)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


def test_run_output_is_deterministic(tmp_path, capsys):
    argv = ["run", "--scenario", "modulated_resonant", "--samples", "101",
            "--engine", "both"]
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    dev_one = (tmp_path / "one.csv.deviation.json").read_text()
    dev_two = (tmp_path / "two.csv.deviation.json").read_text()
    assert dev_one == dev_two
    assert json.loads(dev_one)["max_abs_dP"] < 1e-6


def test_run_both_engines_reports_deviation_inline(capsys):
    assert main(["run", "--scenario", "sech_resonant", "--samples", "61",
                 "--t-max", "3", "--engine", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(RUN_HEADER)
    assert "# deviation closed_form vs oracle" in captured.err
    assert "max|dP|" in captured.err


def test_run_json_format(capsys):
    assert main(["run", "--scenario", "case2", "--samples", "7",
                 "--t-max", "2", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    assert list(records[0]) == RUN_HEADER.split(",")
    assert records[0]["p_flip"] == 0.0
    assert records[-1]["t"] == pytest.approx(2.0)


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "case2", "--samples", "5", "--engine", "both"],
    ["run", "--scenario", "case2", "--samples", "8200"],  # three blocks
    ["modes", "--coupling", "sech", "--delta", "0.5", "--z-max", "2",
     "--samples", "4"]])
def test_streamed_json_is_the_indent_1_dump_of_its_records(argv, capsys):
    # JSON is written in blocks of records; the bytes must still be those
    # of one json.dumps(records, indent=1) call
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_serialized_block_writes_the_tokens_of_json_and_format(tmp_path):
    # one %-template per block must write what json.dumps and format(x,
    # ".17g") write, NaN, infinities and the sign of zero included
    columns = {"x": np.array([0.0, -0.0, math.nan, 1e-300, 0.1]),
               "y": np.array([math.inf, -math.inf, 2.0 / 3.0, -5e17, 1.0])}
    rows = list(zip(*columns.values()))
    records = [dict(zip(columns, map(float, row))) for row in rows]
    _serialize(columns, "json", str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text() == \
        json.dumps(records, indent=1) + "\n"
    _serialize(columns, "csv", str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").read_text() == "x,y\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n"
        for row in rows)


def test_run_time_column_uses_dimensionless_axis(capsys):
    # gamma t axis: t-max 2 means physical time 2/gamma
    assert main(["run", "--scenario", "exp_resonant", "--t-max", "2",
                 "--samples", "5"]) == 0
    out = capsys.readouterr().out
    ts = column(out, "t")
    assert ts[-1] == pytest.approx(2.0, abs=1e-12)
    # the drive has decayed by e^-2 at the window end
    mags = column(out, "omega_mag")
    assert mags[-1] == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_run_closed_form_matches_modulated_law(capsys):
    assert main(["run", "--scenario", "modulated_resonant", "--t-max",
                 "12.566", "--samples", "201",
                 "--params", "C=1,k=1,n=10"]) == 0
    out = capsys.readouterr().out
    ts = column(out, "t")
    p = column(out, "p_flip")
    law = np.sin(ts + 0.1 * np.sin(10.0 * ts)) ** 2
    assert np.max(np.abs(p - law)) < 1e-10


def test_run_case1_long_window_approaches_half(capsys):
    assert main(["run", "--scenario", "case1", "--t-max", "50",
                 "--samples", "5000"]) == 0
    p = column(capsys.readouterr().out, "p_flip")
    assert abs(p[-1] - 0.5) < 0.01


def test_config_file_and_flags_are_equivalent(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "family": "case2",
        "params": {"omega_mag0": 1.0},
        "window": {"t_max": 4.0, "samples": 11},
        "split_fraction": 0.5,
    }))
    from_cfg = tmp_path / "cfg.csv"
    from_flags = tmp_path / "flags.csv"
    assert main(["run", "--config", str(cfg), "--out", str(from_cfg)]) == 0
    assert main(["run", "--scenario", "case2", "--t-max", "4", "--samples",
                 "11", "--params", "omega_mag0=1,split_fraction=0.5",
                 "--out", str(from_flags)]) == 0
    capsys.readouterr()
    assert from_cfg.read_bytes() == from_flags.read_bytes()


def test_cli_flags_override_config_window(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "family": "case2", "window": {"t_max": 4.0, "samples": 9}}))
    assert main(["run", "--config", str(cfg), "--t-max", "2"]) == 0
    ts = column(capsys.readouterr().out, "t")
    assert ts[-1] == pytest.approx(2.0)
    assert ts.size == 9


def test_config_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"family": "case2", "tmax": 4.0}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key 'tmax' for the scenario config" in \
        capsys.readouterr().err


def test_unknown_scenario_suggests_candidates(capsys):
    assert main(["run", "--scenario", "sech"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "sech_resonant" in err


# per catalog: (a call with an unknown name, the message's opening, a close
# match or None, every choice); a list is a CLI command line
UNKNOWN_NAMES = {
    "scenario_cli": (["run", "--scenario", "case3"],
                     "unknown scenario 'case3'", "case1", FAMILIES),
    "scenario": (lambda: ScenarioParams("case3"), "unknown scenario 'case3'",
                 "case1", FAMILIES),
    "default_window": (lambda: default_window("nope"),
                       "unknown scenario 'nope'", None, FAMILIES),
    "key": (lambda: ScenarioParams(
        "sech_resonant", {"omega_mag": 1.0}), "unknown key 'omega_mag' for "
        "family 'sech_resonant'", "omega_mag0", ("omega_mag0", "phi_dot0")),
    "coupling_family": (lambda: coupling_from_config(
        {"delta": 0.0, "coupling": {"family": "sec"}}),
        "unknown coupling family 'sec'", "sech", COUPLING_FAMILIES),
    "scheme": (lambda: PropagatorConfig(scheme="midpoint"),
               "unknown scheme 'midpoint'", "midpoint_exponential", SCHEMES),
    "ansatz": (lambda: named_ansatz("cse2"), "unknown ansatz 'cse2'",
               "case2", ANSATZ_NAMES),
}


@pytest.mark.parametrize("site", sorted(UNKNOWN_NAMES))
def test_every_unknown_name_offers_close_matches_and_choices(site, capsys):
    call, opening, near, choices = UNKNOWN_NAMES[site]
    if isinstance(call, list):
        assert main(call) == 2
        message = capsys.readouterr().err.removeprefix("error: ")
    else:
        with pytest.raises(ConfigError) as err:
            call()
        message = str(err.value)
    head, *hint, tail = message.strip().split("; ")
    assert head == opening
    assert tail == f"choose from {', '.join(choices)}"
    if near is None:
        assert hint == []
    else:
        [matches] = hint
        assert matches.startswith("did you mean: ")
        assert near in matches.removeprefix("did you mean: ").split(", ")


def test_scenario_and_config_are_mutually_exclusive(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"family": "case2"}))
    assert main(["run", "--scenario", "case2", "--config", str(cfg)]) == 2
    assert main(["run"]) == 2
    capsys.readouterr()


def test_bad_params_exit_code(capsys):
    assert main(["run", "--scenario", "sech_resonant",
                 "--params", "omega"]) == 2
    assert main(["run", "--scenario", "sech_resonant",
                 "--params", "bogus=1"]) == 2
    assert main(["run", "--scenario", "sech_resonant",
                 "--params", "split_fraction=0.5"]) == 2
    capsys.readouterr()


def test_unresolvable_step_is_a_numeric_failure(capsys):
    assert main(["run", "--scenario", "rabi", "--engine", "oracle",
                 "--samples", "3", "--step", "10"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_verify_pass_and_fail_paths(capsys):
    assert main(["verify", "--scenario", "case2", "--t-max", "5",
                 "--samples", "65"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "residual_max" in out
    assert main(["verify", "--scenario", "constant_beta0", "--ansatz",
                 "zero", "--t-max", "4", "--samples", "33"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert main(["verify", "--scenario", "constant_beta0", "--t-max", "4",
                 "--samples", "33"]) == 0
    capsys.readouterr()
    assert main(["verify", "--scenario", "case1", "--ansatz", "missing"]) == 2
    capsys.readouterr()


def test_verify_passes_a_zero_table_past_a_quarter_turn(tmp_path, capsys):
    # Theta = 0 gives phi_int = tau, past pi/2 on this window, where
    # sin(2 phi_int) < 0 but sin(Theta) = 0: a regular point, not singular
    table = tmp_path / "zeros.csv"
    table.write_text("tau,theta\n0,0\n3,0\n30,0\n")
    assert main(["verify", "--scenario", "exp_resonant", "--ansatz",
                 str(table)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "note" not in out


@pytest.mark.parametrize("family", ["exp_resonant", "rabi"])
def test_verify_defaults_to_the_oracle_of_verify_ansatz(family, capsys):
    # the CLI once defaulted to midpoint (deviation 3.7e-7 on exp_resonant
    # at 1001 samples) while verify_ansatz defaults to CF4 (about 1e-9 at
    # its own automatic step)
    assert main(["verify", "--scenario", family, "--samples", "65"]) == 0
    out = capsys.readouterr().out
    params = ScenarioParams(family, {})
    t_max = default_window(family)[0] / scenario_time_scale(params)
    report = verify_ansatz(default_ansatz(params), make_scenario(params),
                           t_max, samples=65)
    assert f"entries_deviation_max={report.entries_deviation_max:.3e} " in out
    assert report.entries_deviation_max < 1e-7


def test_verify_accepts_table_ansatz(tmp_path, capsys):
    taus = np.linspace(0.0, 3.0, 1201)
    thetas = case2_ansatz().theta(taus)
    path = tmp_path / "case2_sampled.csv"
    # an inline comment was once read as part of a cell
    path.write_text("tau,theta\n0,0 # start\n" + "".join(
        f"{x:.17g},{y:.17g}\n" for x, y in zip(taus[1:], thetas[1:])))
    assert main(["verify", "--scenario", "case2", "--ansatz", str(path),
                 "--t-max", "2", "--samples", "17",
                 "--residual-tol", "1e-2", "--entries-tol", "1e-3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_modes_csv_and_full_transfer(capsys):
    z_end = repr(math.pi / 2.0)
    assert main(["modes", "--coupling", "constant", "--params", "k0=1",
                 "--delta", "0", "--z-max", z_end, "--samples", "11"]) == 0
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert ",".join(header) == MODE_HEADER
    assert rows[-1, header.index("powerB")] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(rows[:, header.index("total")] - 1.0)) < 1e-10


def test_modes_config_file_equivalence(tmp_path, capsys):
    cfg = tmp_path / "modes.json"
    cfg.write_text(json.dumps({
        "delta": 0.0,
        "coupling": {"family": "constant", "params": {"k0": 1.0}}}))
    by_cfg = tmp_path / "cfg.csv"
    by_flags = tmp_path / "flags.csv"
    assert main(["modes", "--config", str(cfg), "--z-max", "1",
                 "--samples", "9", "--out", str(by_cfg)]) == 0
    assert main(["modes", "--coupling", "constant", "--params", "k0=1",
                 "--delta", "0", "--z-max", "1", "--samples", "9",
                 "--out", str(by_flags)]) == 0
    capsys.readouterr()
    assert by_cfg.read_bytes() == by_flags.read_bytes()


# per command: a config document, the command line that reads it (the
# --config flag is added) and the flags-only command line it must equal
FLAGS_OVER_CONFIG = {
    "run": ({"family": "case2", "params": {"omega_mag0": 2.0},
             "window": {"t_max": 4.0, "samples": 9}, "split_fraction": 0.5},
            ["run", "--t-max", "2", "--params",
             "omega_mag0=1,split_fraction=0.25"],
            ["run", "--scenario", "case2", "--t-max", "2", "--samples", "9",
             "--params", "omega_mag0=1,split_fraction=0.25"]),
    "verify": ({"family": "exp_resonant", "params": {"alpha": 3.0},
                "window": {"t_max": 4.0, "samples": 17}},
               ["verify", "--samples", "9", "--params", "alpha=2"],
               ["verify", "--scenario", "exp_resonant", "--t-max", "4",
                "--samples", "9", "--params", "alpha=2"]),
    # --delta and --params with --config were once dropped silently
    "modes": ({"delta": 0.5, "coupling": {"family": "sech",
                                          "params": {"k0": 1.0}}},
              ["modes", "--delta", "5", "--params", "k0=3", "--z-max", "1",
               "--samples", "9"],
              ["modes", "--coupling", "sech", "--delta", "5", "--params",
               "k0=3", "--z-max", "1", "--samples", "9"]),
}


@pytest.mark.parametrize("command", sorted(FLAGS_OVER_CONFIG))
def test_flags_override_the_config_of_every_command(command, tmp_path,
                                                    capsys):
    doc, with_config, flags_only = FLAGS_OVER_CONFIG[command]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(with_config + ["--config", str(cfg)]) == 0
    by_config = capsys.readouterr()
    assert main(flags_only) == 0
    assert capsys.readouterr() == by_config


def test_modes_reverse_launch_and_power_note(capsys):
    z_end = repr(math.pi / 2.0)
    assert main(["modes", "--coupling", "constant", "--params", "k0=1",
                 "--delta", "0", "--z-max", z_end, "--samples", "11",
                 "--initial", "0,0,1,0"]) == 0
    captured = capsys.readouterr()
    header, rows = parse_csv(captured.out)
    assert rows[-1, header.index("powerA")] == pytest.approx(1.0, abs=1e-6)
    assert main(["modes", "--coupling", "constant", "--params", "k0=1",
                 "--delta", "0", "--z-max", "1", "--samples", "5",
                 "--initial", "2,0,0,0"]) == 0
    captured = capsys.readouterr()
    assert "normalized to 1" in captured.err


def test_modes_argument_validation(tmp_path, capsys):
    cfg = tmp_path / "modes.json"
    cfg.write_text(json.dumps({
        "delta": 0.0,
        "coupling": {"family": "constant", "params": {"k0": 1.0}}}))
    assert main(["modes", "--config", str(cfg), "--coupling", "constant",
                 "--z-max", "1"]) == 2
    assert main(["modes", "--coupling", "constant", "--z-max", "1"]) == 2
    assert main(["modes", "--config", str(cfg)]) == 2
    assert main(["modes", "--config", str(cfg), "--z-max", "-1"]) == 2
    assert main(["modes", "--coupling", "constant", "--delta", "0",
                 "--z-max", "1", "--initial", "1,2,3"]) == 2
    capsys.readouterr()


def _modes_config(tmp_path, coupling):
    cfg = tmp_path / "modes.json"
    cfg.write_text(json.dumps({"delta": 0.0, "coupling": coupling}))
    return ["modes", "--config", str(cfg), "--z-max", "1", "--samples", "5"]


def _modes_delta(tmp_path, text):
    # delta spelled as raw JSON text, so NaN and true reach the parser
    cfg = tmp_path / "modes.json"
    cfg.write_text('{"delta": %s, "coupling": {"family": "constant"}}' % text)
    return ["modes", "--config", str(cfg), "--z-max", "1", "--samples", "5"]


def _run_samples(tmp_path, text):
    # samples spelled as raw JSON text, so Infinity and NaN reach the parser
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"family": "case2", "window": {"samples": %s}}' % text)
    return ["run", "--config", str(cfg)]


def _run_config(tmp_path, doc):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    return ["run", "--config", str(cfg)]


def _modes_initial(text):
    return ["modes", "--coupling", "sech", "--delta", "0", "--z-max", "1",
            "--initial", text]


def _table(tmp_path, text):
    path = tmp_path / "k.csv"
    path.write_text(text)
    return str(path)


def _binary(tmp_path):
    path = tmp_path / "theta.bin"
    path.write_bytes(bytes(range(128, 256)) * 4)
    return str(path)


BAD_INPUTS = {
    "missing_table": lambda p: _modes_config(p, {
        "family": "custom_table", "params": {"path": str(p / "none.csv")}}),
    "numeric_table_path": lambda p: _modes_config(p, {
        "family": "custom_table", "params": {"path": 5}}),
    "ragged_table": lambda p: _modes_config(p, {
        "family": "custom_table",
        "params": {"path": _table(p, "0,1\n1,1,0,7\n2,1\n")}}),
    # a fourth column was once dropped without a word
    "four_column_table": lambda p: _modes_config(p, {
        "family": "custom_table",
        "params": {"path": _table(p, "0,1,0,7\n1,1,0,7\n2,1,0,7\n")}}),
    # a non-finite cell once ran to NaN amplitudes with exit 0
    "nan_cell": lambda p: _modes_config(p, {
        "family": "custom_table",
        "params": {"path": _table(p, "0,1\n1,nan\n2,1\n")}}) + [
        "--step", "0.01"],
    "empty_cell": lambda p: _modes_config(p, {
        "family": "custom_table",
        "params": {"path": _table(p, "0,1\n1,\n2,1\n")}}) + [
        "--step", "0.01"],
    # once dropped as a header, leaving k(0) clamped to the next row
    "nan_first_row": lambda p: _modes_config(p, {
        "family": "custom_table",
        "params": {"path": _table(p, "0,nan\n1,1\n2,1\n")}}),
    # ragged rows and parameter typos were accepted by one reader or
    # parameter rule and refused by the other
    "ansatz_ragged_row": lambda p: [
        "verify", "--scenario", "case2", "--ansatz",
        _table(p, "tau,theta\n0,0\n1,0.2,9\n")],
    "modes_param_typo": lambda p: [
        "modes", "--coupling", "sech", "--params", "kO=3", "--delta", "0",
        "--z-max", "1", "--samples", "3"],
    "modes_config_unknown_field": lambda p: _modes_delta(p, '0, "z_max": 3'),
    # --params with --config was once dropped silently (exit 0)
    "modes_config_param_typo": lambda p: _modes_config(
        p, {"family": "sech"}) + ["--params", "bogus=1"],
    # float() takes a string and a bool, so the window needs its own
    # number rule, checked before float() sees a word or an object
    "run_config_t_max_string": lambda p: _run_config(
        p, {"family": "case2", "window": {"t_max": "4"}}),
    "run_config_t_max_true": lambda p: _run_config(
        p, {"family": "case2", "window": {"t_max": True}}),
    "run_config_t_max_word": lambda p: _run_config(
        p, {"family": "case2", "window": {"t_max": "abc"}}),
    "run_config_t_max_object": lambda p: _run_config(
        p, {"family": "case2", "window": {"t_max": {}}}),
    "run_config_split_string": lambda p: _run_config(
        p, {"family": "case2", "split_fraction": "0.5"}),
    "run_config_unknown_window_field": lambda p: _run_samples(
        p, '5, "t_mx": 4'),
    "string_k0": lambda p: _modes_config(p, {
        "family": "sech", "params": {"k0": "fast"}}),
    "ansatz_directory": lambda p: [
        "verify", "--scenario", "case2", "--ansatz", str(p)],
    "ansatz_binary": lambda p: [
        "verify", "--scenario", "case2", "--ansatz", _binary(p)],
    "out_missing_dir": lambda p: [
        "run", "--scenario", "case2", "--samples", "5",
        "--out", str(p / "missing" / "x.csv")],
    "both_out_directory": lambda p: [
        "run", "--scenario", "case2", "--engine", "both", "--t-max", "1",
        "--samples", "5", "--out", str(p)],
    "t_max_inf": lambda p: [
        "run", "--scenario", "sech_resonant", "--t-max", "inf"],
    "z_max_inf": lambda p: [
        "modes", "--coupling", "constant", "--delta", "0", "--z-max", "inf"],
    # substep counts past the propagator's ceiling, before any allocation
    "step_1e-300": lambda p: [
        "run", "--scenario", "sech_resonant", "--samples", "3", "--engine",
        "oracle", "--step", "1e-300"],
    "step_subnormal": lambda p: [
        "run", "--scenario", "sech_resonant", "--samples", "3", "--engine",
        "oracle", "--step", "5e-324"],
    # a non-finite delta once failed as a numeric error (exit 3), and a
    # JSON true ran as delta = 1
    "modes_delta_nan": lambda p: [
        "modes", "--coupling", "constant", "--delta", "nan", "--z-max", "1"],
    "modes_delta_inf": lambda p: [
        "modes", "--coupling", "constant", "--delta", "inf", "--z-max", "1"],
    "modes_delta_json_nan": lambda p: _modes_delta(p, "NaN"),
    "modes_delta_json_true": lambda p: _modes_delta(p, "true"),
    "coupling_param_true": lambda p: _modes_config(p, {
        "family": "sech", "params": {"k0": True}}),
    "modes_delta_1e300": lambda p: [
        "modes", "--coupling", "constant", "--delta", "1e300", "--z-max",
        "1", "--samples", "3"],
    # a non-finite initial power once ran to an all-NaN CSV with exit 0, and
    # one whose square overflows raised OverflowError (exit 1)
    "modes_initial_nan": lambda p: _modes_initial("nan,0,0,0"),
    "modes_initial_inf": lambda p: _modes_initial("inf,0,0,0"),
    "modes_initial_1e200": lambda p: _modes_initial("1e200,0,1e200,0"),
    # sample counts that once raised OverflowError, ValueError or a
    # "Maximum allowed size exceeded" allocation error (exit 1)
    "samples_json_infinity": lambda p: _run_samples(p, "Infinity"),
    "samples_json_nan": lambda p: _run_samples(p, "NaN"),
    "samples_json_1e300": lambda p: _run_samples(p, "1e300"),
    "samples_1e20": lambda p: [
        "run", "--scenario", "case2", "--samples", "100000000000000000000"],
    # modes once quoted a wrong substep count, or "samples must be >= 2"
    "modes_samples_1e20": lambda p: [
        "modes", "--coupling", "sech", "--delta", "0", "--z-max", "1",
        "--samples", "100000000000000000000"],
    "modes_samples_1": lambda p: [
        "modes", "--coupling", "sech", "--delta", "0", "--z-max", "1",
        "--samples", "1"],
    # an infinite tolerance once passed a failed oracle comparison (exit
    # 0), and a NaN or negative one was a numeric failure (exit 3)
    "verify_entries_tol_inf": lambda p: [
        "verify", "--scenario", "case2", "--step", "5", "--entries-tol",
        "inf"],
    "verify_residual_tol_nan": lambda p: [
        "verify", "--scenario", "case2", "--residual-tol", "nan"],
    "verify_entries_tol_negative": lambda p: [
        "verify", "--scenario", "case2", "--entries-tol", "-1"],
    # --step was once checked only when an oracle ran (exit 0)
    "closed_form_negative_step": lambda p: [
        "run", "--scenario", "case2", "--engine", "closed_form",
        "--step", "-1"],
}

SAMPLES_RANGE = "samples must be an integer in [2, 16777217]"
BAD_INPUT_MESSAGES = {"modes_config_param_typo": "unknown key 'bogus'",
                      "four_column_table": "k.csv: more than 3 columns",
                      "run_config_t_max_string": "t_max",
                      "run_config_t_max_true": "t_max",
                      "run_config_t_max_word": "t_max",
                      "run_config_t_max_object": "t_max",
                      "run_config_split_string": "split_fraction",
                      "modes_samples_1e20": SAMPLES_RANGE,
                      "modes_samples_1": SAMPLES_RANGE,
                      "samples_1e20": SAMPLES_RANGE,
                      "verify_entries_tol_inf":
                          "--entries-tol must be finite and > 0, got inf",
                      "verify_residual_tol_nan":
                          "--residual-tol must be finite and > 0, got nan",
                      "verify_entries_tol_negative":
                          "--entries-tol must be finite and > 0, got -1.0"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_config_error_without_traceback(case, tmp_path,
                                                       capsys):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert BAD_INPUT_MESSAGES.get(case, "") in err


def test_huge_locked_ratio_keeps_finite_entries(capsys):
    # beta = 1e300: sqrt(1 + beta^2) overflowed to an all-NaN CSV
    assert main(["run", "--scenario", "rabi", "--params", "omega_mag0=1e-300",
                 "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert np.all(np.isfinite(parse_csv(out)[1]))
    assert np.max(column(out, "p_flip")) <= 1e-300


# a numpy warning would print to stderr outside pytest
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_entries_are_a_numeric_failure(capsys):
    # the stretched clock overflows: entries must not come out as NaN
    assert main(["run", "--scenario", "rabi", "--params", "phi_dot0=1e308",
                 "--samples", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "not finite" in err
    # one line: numpy's overflow warnings would only repeat the failure
    assert err.count("\n") == 1 and err.endswith("\n")


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError,
    or with buffered=True only the flush does."""

    def __init__(self, fd, buffered):
        self.fd, self.buffered = fd, buffered

    def fileno(self):
        return self.fd

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv, buffered", [
    (["run", "--scenario", "case2"], False),
    (["modes", "--coupling", "sech", "--delta", "0.5", "--z-max", "6"], False),
    (["list-scenarios"], True),  # all of it fits the buffer: the flush fails
])
def test_closed_stdout_exits_quietly(argv, buffered, tmp_path, monkeypatch,
                                     capsys):
    # `genrabi run --scenario case2 | head -1` once printed a
    # BrokenPipeError traceback and exited 1
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fh.fileno(), buffered))
        assert main(argv) == 141
        # stdout's descriptor now leads to os.devnull, so the interpreter's
        # flush at exit cannot fail again
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


# imports genrabi.cli, then runs cli.main on each argv of the JSON list in
# argv[2]; the package named in argv[1] and its submodules must stay out of
# sys.modules throughout
STAYS_UNLOADED = """
import json, sys
import genrabi.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m == sys.argv[1] or m.startswith(sys.argv[1] + "."))
assert not loaded(), ("import genrabi.cli", loaded())
for argv in json.loads(sys.argv[2]):
    code = genrabi.cli.main(argv)
    assert code == 0, (argv, code)
    assert not loaded(), (argv, loaded())
"""


def test_cli_commands_never_import_scipy(tmp_path, run_python):
    # every integral runs on quadrature.panel_quad; scipy's import alone
    # once took most of a CLI process's time
    table = _table(tmp_path, "0,1\n1,0.5\n2,1\n")
    argvs = [
        ["run", "--scenario", "case2", "--samples", "21"],
        ["run", "--scenario", "exp_resonant", "--engine", "both",
         "--samples", "21", "--out", str(tmp_path / "both.csv")],
        ["verify", "--scenario", "case1"],
        ["modes", "--coupling", "sech", "--delta", "0.5", "--z-max", "2",
         "--samples", "21"],
        _modes_config(tmp_path, {"family": "custom_table",
                                 "params": {"path": table}}),
        ["list-scenarios"],
    ]
    proc = run_python(STAYS_UNLOADED, "scipy", json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr


def test_run_never_imports_difflib(tmp_path, run_python):
    # only an unknown scenario name needs difflib's close matches
    argvs = [["run", "--scenario", "case2", "--samples", "21"],
             ["run", "--scenario", "case1", "--samples", "21", "--format",
              "json", "--out", str(tmp_path / "case1.json")]]
    proc = run_python(STAYS_UNLOADED, "difflib", json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr


def test_case1_commands_never_import_numpy_ma(tmp_path, run_python):
    # np.unique and np.union1d import numpy.ma on their first call; the
    # quadrature edges come from quadrature.distinct_sorted instead
    argvs = [["run", "--scenario", "case1", "--samples", "21"],
             ["verify", "--scenario", "case1"]]
    proc = run_python(STAYS_UNLOADED, "numpy.ma", json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr

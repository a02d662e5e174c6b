import json
import os
import re

import numpy as np
import pytest

from wallflow import coupling, driver, energy, shell
from wallflow.cli import main
from wallflow.energy import (CSV_HEADER_TAG, LEDGER_COLUMNS, EnergyLedger,
                             load_ledger)
from wallflow.errors import SolverError

from test_driver import count_calls

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, name="run.json", **overrides):
    raw = {
        "geometry": {"radius": 0.5, "length": 6.0},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1,
                 "viscous_modulus": 1000.0, "viscous_poisson": 0.5},
        "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
        "time": {"t_final": 0.001, "n_steps": 5},
        "waveform": {"inlet": {"kind": "pulse", "amplitude": 5.0e3,
                               "duration": 0.001},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "output": {"directory": str(tmp_path / "out"), "cadence": 5,
                   "fields": "none", "ledger": "csv"},
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_and_verify_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "status: completed" in out
    assert re.search(r"solver: \d+ factorizations, \d+ reused solves", out)
    assert re.search(r"LU fill [1-9]\d*$", out, re.MULTILINE)
    ledger = str(tmp_path / "out" / "ledger.csv")
    assert os.path.exists(ledger)
    assert main(["verify", ledger]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_cfg(tmp_path, name="bad.json",
                    wall={"youngs_modulus": 7.5e5, "poisson_ratio": 1.5,
                          "thickness": 0.1, "density": 1.1})
    assert main(["run", bad]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "radius", float("inf")),
    ("fluid", "viscosity", float("inf")),
    ("waveform", "inlet", {"kind": "pulse", "amplitude": float("nan"),
                           "duration": 0.001}),
    pytest.param("geometry", "radius", 10**400,    # too large for a float
                 id="geometry-radius-huge-int"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, section, key,
                                              value):
    write_cfg(tmp_path)
    raw = json.loads((tmp_path / "run.json").read_text())
    raw[section][key] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(raw))    # writes the NaN / Infinity literals
    assert main(["run", str(path)]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, problem", [
    ({"solver": [1e-10]}, "unknown key <top>.solver"),
    ({"output": "out"}, "section 'output' must be an object"),
    ({"initial_data": "zero"}, "section 'initial_data' must be an object"),
    ({"output": {"directory": 5}}, "output.directory must be a string"),
    ({"output": {"cadence": True}}, "output.cadence must be a positive integer"),
    ({"output": {"directory": ""}}, "output.directory must not be empty"),
    # an existing file where the directory should be: the run completes,
    # then writing its outputs fails
    ({"output": {"directory": os.path.join(CONFIG_DIR, "pulse.json")}},
     "error: cannot write output to"),
    ({"mode": []}, "mode must be one of"),
    ({"waveform": {"inlet": {"kind": ["pulse"]},
                   "outlet": {"kind": "constant", "value": 0.0}}},
     "waveform.inlet.kind must be one of"),
], ids=["solver-list", "output-string", "initial-data-string",
        "directory-number", "cadence-bool", "directory-empty",
        "directory-is-a-file", "mode-list", "waveform-kind-list"])
def test_malformed_sections_are_config_errors(tmp_path, capsys, overrides,
                                              problem):
    cfg = write_cfg(tmp_path, name="malformed.json", **overrides)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    prefix = "error:" if problem.startswith("error:") else "configuration error:"
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert problem in lines[0]
    assert "status:" not in captured.out     # no run summary, no outputs


@pytest.mark.parametrize("key, value, says", [
    ("solver", {"fluid_tol": 1e-10}, "unknown key <top>.solver"),
    ("contact_threshold_factor", 1e-6,
     "unknown key <top>.contact_threshold_factor"),
    ("compatibility_tol", 1e-10, "unknown key <top>.compatibility_tol"),
    ("output.ledger", "jsonl", "the ledger is written as CSV"),
    ("output.ledger", "both", "the ledger is written as CSV"),
], ids=["solver", "contact-threshold-factor", "compatibility-tol",
        "ledger-jsonl", "ledger-both"])
def test_retired_key_is_config_error(tmp_path, capsys, key, value, says):
    path = write_cfg(tmp_path)
    raw = json.loads((tmp_path / "run.json").read_text())
    section, _, name = key.rpartition(".")
    (raw[section] if section else raw)[name] = value
    (tmp_path / "run.json").write_text(json.dumps(raw))
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert key in lines[0] and says in lines[0]
    assert "status:" not in captured.out     # rejected before the run
    assert not (tmp_path / "out").exists()


def test_wall_contact_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # shipped config writes a relative out dir
    cfg = os.path.abspath(os.path.join(CONFIG_DIR, "contact_suction.json"))
    code = main(["run", cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert "wall contact at t" in out


def test_a_wall_step_failure_leaves_a_verifiable_ledger(tmp_path,
                                                      monkeypatch, capsys):
    # the wall half step of step 3 (counting from 0) fails: the run ends as
    # a solver failure with the ledger rows of steps 0-2 written
    wall_step, calls = shell.structure_step, []

    def failing(setup, state, solver):
        calls.append(state)
        if len(calls) == 4:
            raise SolverError("injected wall-step failure")
        return wall_step(setup, state, solver)

    monkeypatch.setattr(shell, "structure_step", failing)
    assert main(["run", write_cfg(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "status: solver-failure" in out
    assert "failure: injected wall-step failure" in out
    assert "steps completed: 3" in out
    ledger = str(tmp_path / "out" / "ledger.csv")
    assert len(load_ledger(ledger)) == 3
    assert main(["verify", ledger]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_a_wall_solve_that_misses_its_contract_writes_its_ledger(
        tmp_path, monkeypatch, capsys):
    # the wall solve of step 0 misses its contract: the run still writes
    # its (empty) ledger, and that ledger verifies
    def failing(setup, state, solver):
        raise SolverError("gmres missed 1.0e-12 * ||b|| within 20 iterations")

    monkeypatch.setattr(shell, "structure_step", failing)
    assert main(["run", write_cfg(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "status: solver-failure" in out and "failure: gmres missed" in out
    ledger = tmp_path / "out" / "ledger.csv"
    assert ledger.exists()
    assert main(["verify", str(ledger)]) == 0


# property-replay draw 3889, whose wall velocity of -4.2e-161 gives right-hand
# sides far below 1e-154, where np.linalg.norm underflows
DRAW_3889 = dict(
    geometry={"radius": 0.736137072807026, "length": 6.430841916762859},
    fluid={"density": 1.9337980736525224, "viscosity": 0.978633464700345},
    wall={"youngs_modulus": 22103.51011176426,
          "poisson_ratio": 0.03835038121007062,
          "thickness": 0.10008778507519914, "density": 0.6471845697974208,
          "viscous_modulus": 13.081552795664173,
          "viscous_poisson": 2.225073858507203e-309},
    mesh={"n_z": 6, "n_r": 1, "wall_elements": 6},
    time={"t_final": 2.0, "n_steps": 2}, mode="viscoelastic",
    waveform={"inlet": {"kind": "constant", "value": -1868.103057942647},
              "outlet": {"kind": "constant", "value": 0.0}})


@pytest.mark.parametrize("initial_data", [
    {"kind": "bump", "eta_amplitude": 6.358034283727677e-195,
     "v_amplitude": -4.16727592386706e-161},
    {"kind": "bump", "eta_amplitude": 0.0,
     "v_amplitude": -2.2250738585072014e-308},
], ids=["draw-3889", "smallest-normal-v"])
def test_a_wall_velocity_far_below_1e_154_runs_and_verifies(
        tmp_path, capsys, initial_data):
    # draw 3889 missed its wall-solve contract; with the smallest normal
    # wall velocity a stored solution of subnormal entries sent the next
    # start's fit to NaN
    path = write_cfg(tmp_path, **DRAW_3889, initial_data=initial_data)
    assert main(["run", path]) == 0
    assert "status: completed" in capsys.readouterr().out
    assert main(["verify", str(tmp_path / "out" / "ledger.csv")]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_shipped_configs_parse(name):
    from wallflow.config import load_config
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    assert cfg["mode"] in ("viscoelastic", "elastic", "rigid")


def write_rigid_cfg(tmp_path):
    return write_cfg(
        tmp_path, name="poiseuille.json", mode="rigid",
        geometry={"radius": 0.5, "length": 5.0},
        fluid={"density": 1.0, "viscosity": 1.0},
        wall={"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
              "thickness": 0.1, "density": 1.1},
        mesh={"n_z": 16, "n_r": 8, "wall_elements": 16},
        time={"t_final": 10.0, "n_steps": 200},
        waveform={"inlet": {"kind": "constant", "value": 1.0},
                  "outlet": {"kind": "constant", "value": 0.0}})


def test_poiseuille_command(tmp_path, capsys):
    cfg = write_rigid_cfg(tmp_path)
    assert main(["poiseuille", cfg]) == 0
    assert "profile L2 relative error" in capsys.readouterr().out


def test_poiseuille_prints_the_shipped_regression_lines(capsys):
    # the benchmark's rigid gate parses the first line
    cfg = os.path.join(CONFIG_DIR, "poiseuille_rigid.json")
    assert main(["poiseuille", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "steady after 56 steps (relative increment 8.674e-11)",
        "mid-channel profile L2 relative error: 0.0000%"]


def test_a_missed_tolerance_is_named(capsys):
    # a steady profile over the tolerance: the two regression lines as they
    # are, then a third naming the error and the tolerance it missed
    cfg = os.path.join(CONFIG_DIR, "poiseuille_rigid.json")
    assert main(["poiseuille", cfg, "--tolerance", "1e-9"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "steady after 56 steps (relative increment 8.674e-11)",
        "mid-channel profile L2 relative error: 0.0000%"]
    missed = re.fullmatch(r"profile error (\S+) exceeds --tolerance 1e-09",
                          lines[2])
    assert missed and float(missed[1]) > 1e-9 and len(lines) == 3


def test_a_march_that_runs_out_of_steps_is_not_steady(tmp_path, capsys):
    # the shipped regression on a 4x2 mesh, stopped after 4 of its steps
    with open(os.path.join(CONFIG_DIR, "poiseuille_rigid.json")) as f:
        raw = json.load(f)
    raw.update(json.loads('{"mesh": {"n_z": 4, "n_r": 2, "wall_elements": 4}, '
                          '"time": {"t_final": 1, "n_steps": 4}}'))
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    assert main(["poiseuille", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "not steady after 4 steps (relative increment 1.728e-02)",
        "mid-channel profile L2 relative error: 0.6903%"]


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_a_bad_poiseuille_tolerance_is_a_config_error(tmp_path, monkeypatch,
                                                      capsys, value):
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    assert main(["poiseuille", write_rigid_cfg(tmp_path), "--tolerance",
                 value]) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "--tolerance" in lines[0] and out == ""
    assert setups == []     # rejected before any run


def test_converge_rejects_a_rigid_config_before_any_run(tmp_path,
                                                         monkeypatch, capsys):
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    assert main(["converge", write_rigid_cfg(tmp_path), "--ladder", "2",
                 "--reference-refinement", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert "rigid" in lines[0]
    assert setups == []


def test_csv_samples_that_stop_short_are_rejected_before_any_step(
        tmp_path, monkeypatch, capsys):
    # with no ledger, no norm over (0, t_final) asks for the samples first
    (tmp_path / "inlet.csv").write_text("0.0,1000.0\n0.001,0.0\n")
    cfg = write_cfg(tmp_path, time={"t_final": 0.002, "n_steps": 20},
                    waveform={"inlet": {"kind": "csv", "path": "inlet.csv"},
                              "outlet": {"kind": "constant", "value": 0.0}},
                    output={"directory": str(tmp_path / "out"),
                            "ledger": "none"})
    steps = count_calls(monkeypatch, coupling, "fluid_step")
    assert main(["run", cfg]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert lines[0].endswith("covers [0, 0.001] but the run asks for "
                             "[0, 0.002]")
    assert steps == [] and not (tmp_path / "out").exists()


def test_a_rigid_run_writes_a_ledger_that_verifies(tmp_path, capsys):
    # the one time loop forms a rigid run's rows too; the ledger ends at
    # the steady step, short of the header's n_steps, and verifies as a
    # prefix
    assert main(["run", write_rigid_cfg(tmp_path)]) == 0
    path = str(tmp_path / "out" / "ledger.csv")
    assert main(["verify", path]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    ledger = load_ledger(path)
    assert 1 < len(ledger) < ledger.header["n_steps"] == 200
    assert ledger.header["mode"] == "rigid"


def test_poiseuille_requires_rigid_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["poiseuille", cfg]) == 1
    assert "rigid-mode" in capsys.readouterr().err


def test_converge_command_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, time={"t_final": 0.001, "n_steps": 5})
    assert main(["converge", cfg, "--ladder", "2",
                 "--reference-refinement", "4"]) == 0
    out = capsys.readouterr().out
    assert "dt ladder" in out and "order" in out


@pytest.mark.parametrize("flag, value", [
    ("--ladder", "0"), ("--ladder", "-1"), ("--ladder", "1"),
    ("--reference-refinement", "0"), ("--reference-refinement", "1")])
def test_bad_converge_arguments_are_config_errors(tmp_path, monkeypatch,
                                                  capsys, flag, value):
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    assert main(["converge", write_cfg(tmp_path), flag, value]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert flag in lines[0]
    assert setups == []     # rejected before any run


UNREADABLE_CONFIGS = {   # case -> file contents
    "utf16-bom": b"\xff\xfe" + "{}".encode("utf-16-le"),
    "deeply-nested": b"[" * 100000,
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
def test_an_unreadable_config_is_a_clean_error(tmp_path, capsys, case):
    path = tmp_path / "run.json"
    path.write_bytes(UNREADABLE_CONFIGS[case])
    assert main(["run", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"configuration error: {path} is not valid "
                               "JSON: ")


UNREADABLE_WAVEFORMS = {    # case -> csv file contents
    "not-utf8": b"0.0,1.0\n0.5,\xff2.0\n1.0,0.0\n",
    "overlong-cell": b"0.0,1.0\n0.5," + b"2" * 200000 + b"\n1.0,0.0\n",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_WAVEFORMS))
def test_an_unreadable_waveform_csv_is_a_clean_error(tmp_path, capsys, case):
    (tmp_path / "inlet.csv").write_bytes(UNREADABLE_WAVEFORMS[case])
    cfg = write_cfg(tmp_path, waveform={
        "inlet": {"kind": "csv", "path": "inlet.csv"},
        "outlet": {"kind": "constant", "value": 0.0}})
    assert main(["run", cfg]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"configuration error: {tmp_path / 'inlet.csv'}"
                               ": malformed waveform csv: ")


def test_missing_file_is_config_error(capsys):
    assert main(["run", "/nonexistent/cfg.json"]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, rigid", [("run", False), ("run", True),
                                             ("poiseuille", True)])
def test_one_setup_per_command(tmp_path, monkeypatch, command, rigid):
    calls = []
    original = driver.RunSetup.__init__

    def counted(self, cfg):
        calls.append(cfg)
        original(self, cfg)

    monkeypatch.setattr(driver.RunSetup, "__init__", counted)
    cfg = write_rigid_cfg(tmp_path) if rigid else write_cfg(tmp_path)
    assert main([command, cfg]) == 0
    assert len(calls) == 1


def test_trace_constant_fallback_is_recorded_and_reported(tmp_path,
                                                          monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("forced trace-constant factorization failure")

    monkeypatch.setattr(energy, "discrete_trace_constant", fail)
    assert main(["run", write_cfg(tmp_path)]) == 0
    ledger = str(tmp_path / "out" / "ledger.csv")
    header = load_ledger(ledger).header
    assert header["c_ref_computed"] is False and header["c_ref"] == 0.0
    capsys.readouterr()
    main(["verify", ledger])
    assert "c_ref was not computed" in capsys.readouterr().out


def test_ledger_without_trace_flag_still_verifies(tmp_path, capsys):
    assert main(["run", write_cfg(tmp_path)]) == 0
    path = tmp_path / "out" / "ledger.csv"
    assert load_ledger(str(path)).header["c_ref_computed"] is True
    first, rest = path.read_text().split("\n", 1)
    header = json.loads(first.split(":", 1)[1])
    del header["c_ref_computed"]
    older = tmp_path / "older.csv"
    older.write_text("# wallflow-ledger-header: "
                     + json.dumps(header, sort_keys=True) + "\n" + rest)
    capsys.readouterr()
    assert main(["verify", str(older)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out and "not computed" not in out


def drop_column(lines, name):
    at = lines[1].split(",").index(name)
    return lines[:1] + [",".join(c for k, c in enumerate(line.split(","))
                                 if k != at) for line in lines[1:]]


def set_cell(lines, row, name, value):
    cells = lines[2 + row].split(",")
    cells[lines[1].split(",").index(name)] = value
    return lines[:2 + row] + [",".join(cells)] + lines[3 + row:]


def as_jsonl(lines):
    """A CSV ledger's lines in the JSONL layout of old versions: a header
    object, then one object per row."""
    header = json.loads(lines[0][len(CSV_HEADER_TAG):])
    names = lines[1].split(",")
    rows = [dict(zip(names, map(float, line.split(","))))
            for line in lines[2:]]
    return ([json.dumps({"kind": "header", **header})]
            + [json.dumps({"kind": "row", **row}) for row in rows])


MALFORMED_LEDGERS = {     # case -> (ledger format, edit of its lines)
    "missing-file": ("csv", None),
    "bad-header-json": ("csv", lambda lines: [CSV_HEADER_TAG + ' {"dt": ']
                        + lines[1:]),
    "non-numeric-cell": ("csv",
                         lambda lines: set_cell(lines, 1, "e_full", "abc")),
    "truncated-row": ("csv", lambda lines: lines[:-1] + [lines[-1][:20]]),
    "missing-column": ("csv", lambda lines: drop_column(lines, "pwork")),
    "header-missing-rho_s_h": ("csv", lambda lines: [
        CSV_HEADER_TAG + ' {"dt": 0.001, "e0": 1.0}'] + lines[1:]),
    "header-non-numeric-dt": ("csv", lambda lines: [
        CSV_HEADER_TAG + ' {"dt": "abc", "e0": 1.0, "rho_s_h": 1.0}']
        + lines[1:]),
    "header-overflowing-dt": ("csv", lambda lines: [
        CSV_HEADER_TAG + f' {{"dt": {10**400}, "e0": 1.0, "rho_s_h": 1.0}}']
        + lines[1:]),
    "header-zero-dt": ("csv", lambda lines: [
        CSV_HEADER_TAG + ' {"dt": 0, "e0": 1.0, "rho_s_h": 1.0}']
        + lines[1:]),
    "header-negative-rho_s_h": ("csv", lambda lines: [
        CSV_HEADER_TAG + ' {"dt": 0.001, "e0": 1.0, "rho_s_h": -1.0}']
        + lines[1:]),
    "overlong-cell": ("csv", lambda lines: set_cell(lines, 1, "e_full",
                                                    "1" * 131073)),
    "deeply-nested-header": ("csv", lambda lines: [
        CSV_HEADER_TAG + " " + "[" * 100000] + lines[1:]),
    "jsonl-ledger": ("jsonl", as_jsonl),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
def test_malformed_ledger_is_a_clean_error(tmp_path, capsys, case):
    led = EnergyLedger({"dt": 1e-3, "rho_s_h": 1.0, "e0": 1.0})
    for k in range(3):
        led.append({c: k if c == "step" else 0.5 for c in LEDGER_COLUMNS})
    fmt, edit = MALFORMED_LEDGERS[case]
    path = tmp_path / f"ledger.{fmt}"
    led.to_csv(path)
    if edit is None:
        path.unlink()
    else:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0]


NOT_UTF8 = {    # case -> file contents that do not decode as UTF-8
    "random-bytes": np.random.default_rng(11).integers(
        0, 256, size=300, dtype=np.uint8).tobytes(),
    "utf16-bom": b"\xff\xfe" + "# wallflow".encode("utf-16-le"),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_ledger_that_is_not_utf8_is_a_clean_error(tmp_path, capsys, case):
    path = tmp_path / "ledger.csv"
    path.write_bytes(NOT_UTF8[case])
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path} is not a ledger CSV"]

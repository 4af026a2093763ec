import json
import math
import re
import shutil
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

from bfamily2c import (CaseTag, Framework, InitKind, RunReport, RunStatus,
                       SymmetryMode, make_params)
from bfamily2c import cli
from bfamily2c.cli import (SWEEP_COLUMNS, ConfigError, config_echo, main,
                           parse_config, read_records, slope_bound_payload,
                           write_diagnostics_csv, write_extras_csv)
from bfamily2c.diagnostics import DIAG_COLUMNS


def base_config(**overrides):
    cfg = {
        "model": {"case": "case_i", "b": 2.0},
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.1},
        "initial": {
            "u": {"kind": "gaussian"},
            "rho": {"kind": "gaussian", "amplitude": 0.5},
        },
    }
    cfg.update(overrides)
    return cfg


# ----------------------------------------------------------------------
# config parsing

def test_parse_config_defaults():
    setup = parse_config(base_config())
    assert setup.params.case_tag is CaseTag.CASE_I
    assert (setup.params.k1, setup.params.k2, setup.params.k3) == (2.0, 4.0, 1.0)
    assert setup.grid.N == 256
    assert setup.control.cfl == 0.3
    assert setup.control.framework is Framework.HS
    assert setup.spec_u.kind is InitKind.GAUSSIAN
    assert setup.outputs.directory == "out"
    assert setup.checks.conservation is True
    assert setup.checks.transport is True  # characteristics on by default
    assert setup.checks.symmetry is False  # no symmetry_mode set


def test_parse_config_custom_model():
    cfg = base_config(model={"case": "custom", "k1": 0.25, "k2": -1.0,
                             "k3": -2.0})
    p = parse_config(cfg).params
    assert p.case_tag is CaseTag.CUSTOM
    assert (p.k1, p.k2, p.k3) == (0.25, -1.0, -2.0)


def test_parse_config_nested_m0():
    cfg = base_config()
    cfg["initial"]["u"] = {"kind": "from_m0",
                           "m0": {"kind": "odd_gaussian", "amplitude": 0.5}}
    setup = parse_config(cfg)
    assert setup.spec_u.kind is InitKind.FROM_M0
    assert setup.spec_u.m0_spec.kind is InitKind.ODD_GAUSSIAN


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c.pop("model"), "model"),
    (lambda c: c["model"].pop("b"), "model.b"),
    (lambda c: c["model"].update(b="two"), "model.b"),
    (lambda c: c["model"].update(case="case_iii"), "model.case"),
    (lambda c: c["grid"].update(N=3.5), "grid.N"),
    (lambda c: c["grid"].update(N=15), "grid"),
    (lambda c: c["control"].update(t_end=True), "control.t_end"),
    (lambda c: c["control"].update(framework="h9"), "control.framework"),
    (lambda c: c["initial"]["u"].update(kind="blob"), "initial.u.kind"),
    (lambda c: c["initial"]["rho"].update(width=-1), "initial.rho"),
    (lambda c: c["model"].update(extra=1), "model.extra"),
    (lambda c: c.update(mystery={}), "mystery"),
    (lambda c: c.update(checks={"symmetry": True}), "symmetry_mode"),
    (lambda c: c.update(outputs={"char_label_stride": 0},
                        checks={"transport": True}), "transport"),
])
def test_parse_config_errors_name_the_field(mutate, needle):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=needle):
        parse_config(cfg)


def test_explicit_null_means_default():
    cfg = base_config(checks={"symmetry_mode": None})
    assert parse_config(cfg).checks.symmetry_mode is None


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_config(name: str) -> dict:
    """A config file of the repo; `sweep` gives the sweep's first member."""
    if name != "sweep":
        return json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = json.loads((CONFIGS / "sweep.json").read_text())
    sweep = cfg.pop("sweep")
    cfg["model"] = {"case": sweep["case"][0], "b": sweep["b"][0]}
    cfg["initial"]["u"]["amplitude"] = sweep["amplitude"][0]
    return cfg


def assert_echoes(given: dict, echo: dict):
    for key, val in given.items():
        if isinstance(val, dict):
            assert_echoes(val, echo[key])
        else:
            assert echo[key] == val, key


def test_config_echo_round_trips():
    base = base_config(checks={"symmetry_mode": "u_odd_rho_even"},
                       outputs={"snapshot_every": 5})
    for cfg in (base, *map(shipped_config, ("smooth", "breaking", "sweep"))):
        echo = config_echo(parse_config(cfg))
        assert_echoes(cfg, echo)  # every field the config sets, as set
        again = parse_config(json.loads(json.dumps(echo)))
        assert config_echo(again) == echo
    assert parse_config(config_echo(parse_config(base))).checks.symmetry_mode \
        is SymmetryMode.U_ODD_RHO_EVEN


def test_riccati_needs_admissible_coefficients():
    cfg = base_config(model={"case": "case_i", "b": 0.5},
                      checks={"riccati": True})
    with pytest.raises(ConfigError, match="riccati"):
        parse_config(cfg)


# ----------------------------------------------------------------------
# records CSV round trip

def test_records_csv_round_trip(tmp_path, grid20, params_b2):
    import numpy as np

    from bfamily2c import DiagSettings, StepControl, State, SymmetryMode, run
    s0 = State(0.0, np.stack([grid20.x * np.exp(-grid20.x**2),
                              np.exp(-grid20.x**2)]))
    traj, _ = run(s0, params_b2, StepControl(t_end=0.05), grid20,
                  diag=DiagSettings(char_stride=4,
                                    symmetry_mode=SymmetryMode.U_ODD_RHO_EVEN))
    dpath, epath = tmp_path / "d.csv", tmp_path / "e.csv"
    write_diagnostics_csv(dpath, traj.records)
    write_extras_csv(epath, traj.records)
    back = read_records(dpath, epath)
    assert len(back) == len(traj.records)
    for a, b in zip(traj.records, back):
        for col in ("t", "dt", "hs_u", "min_ux", "e1", "e2", "int_rho",
                    "r_m2", "r_rhoxx2", "transport_res", "symmetry_res",
                    "ux0", "conv0", "qx_min", "s_rhoxx2"):
            va, vb = getattr(a, col), getattr(b, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), col
        assert a.step == b.step


# ----------------------------------------------------------------------
# commands end to end

def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def run_config(tmp_path):
    cfg = base_config(outputs={"directory": str(tmp_path / "out"),
                               "snapshot_every": 20})
    cfg["control"]["t_end"] = 0.05
    return write_config(tmp_path, cfg)


def test_cmd_run_and_check(tmp_path):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "diagnostics.csv").exists()
    assert (out / "extras.csv").exists()
    assert (out / "snap_0.csv").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join(DIAG_COLUMNS)
    snap_header = (out / "snap_0.csv").read_text().splitlines()[0]
    assert snap_header == "x,u,rho,m"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["status"] == "reached_t_end"
    assert manifest["checks"]["conservation"]["passed"] is True
    assert main(["check", str(out / "manifest.json")]) == 0


def tampered(out: Path, dest: Path, edits: dict) -> Path:
    """A copy of run directory `out` with each file `name` of `edits`
    rewritten by `edits[name]`; returns the copy's manifest."""
    shutil.copytree(out, dest)
    for name, edit in edits.items():
        path = dest / name
        path.write_text(edit(path.read_text()))
    return dest / "manifest.json"


def test_cmd_run_detects_tampering(tmp_path, capsys):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0

    def edit_value(text):
        lines = text.splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[2], "1.5", 1)
        return "\n".join(lines) + "\n"

    def header_only(text):
        return text.splitlines(keepends=True)[0]

    # a CSV that no longer parses is tampering too, not a config error
    cases = {
        "value": {"diagnostics.csv": edit_value},
        "header": {"diagnostics.csv": lambda t: t.replace("l2_u", "l2u", 1)},
        "last_row": {"extras.csv":
                     lambda t: "".join(t.splitlines(keepends=True)[:-1])},
        "no_rows": {"diagnostics.csv": header_only, "extras.csv": header_only},
    }
    for key, edits in cases.items():
        capsys.readouterr()
        manifest = tampered(tmp_path / "out", tmp_path / key, edits)
        assert main(["check", str(manifest)]) == 1, key
        out = capsys.readouterr().out
        for name in edits:
            assert f"check FAILED: hash mismatch for {name}" in out, key


def test_check_requires_every_artifact_hash(tmp_path, capsys):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0

    def edit_hs_u(text):
        # hs_u enters no check, so only its hash can expose the edit
        lines = text.splitlines()
        col = lines[0].split(",").index("hs_u")
        row = lines[1].split(",")
        row[col] = "123.0"
        lines[1] = ",".join(row)
        return "\n".join(lines) + "\n"

    def drop_hashes(*names):
        def edit(text):
            manifest = json.loads(text)
            for name in names or list(manifest["files"]):
                del manifest["files"][name]
            return json.dumps(manifest)
        return edit

    cases = {
        "emptied": ({"diagnostics.csv": edit_hs_u,
                     "manifest.json": drop_hashes()},
                    ["diagnostics.csv", "extras.csv", "snap_0.csv",
                     "snap_1.csv"]),
        "snapshot": ({"manifest.json": drop_hashes("snap_1.csv")},
                     ["snap_1.csv"]),
    }
    for key, (edits, missing) in cases.items():
        capsys.readouterr()
        manifest = tampered(tmp_path / "out", tmp_path / key, edits)
        assert main(["check", str(manifest)]) == 1, key
        assert capsys.readouterr().out.splitlines() == [
            f"check FAILED: no hash for {name}" for name in missing], key


@pytest.mark.parametrize("block, key, value, line", [
    ("checks.gronwall", "worst_ratio", 123,
     "check 'gronwall' details differ from the records"),
    ("checks.transport", "max_residual", 0.5,
     "check 'transport' details differ from the records"),
    ("report", "n_steps", 1, "report 'n_steps' differs from the last record"),
], ids=["gronwall", "transport", "report"])
def test_check_compares_details(tmp_path, capsys, block, key, value, line):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(path.read_text())
    target = manifest
    for part in block.split("."):
        target = target[part]
    target[key] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"check FAILED: {line}"]


def test_check_rejects_unknown_config_field(tmp_path):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["control"]["bogus"] = 1
    path.write_text(json.dumps(manifest))
    assert main(["check", str(path)]) == 2


def test_cmd_run_directory_override_reproduces_bitwise(tmp_path):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--directory",
                 str(tmp_path / "out2")]) == 0
    a = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "out2" / "diagnostics.csv").read_bytes()
    assert a == b


def test_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    cfg = base_config()
    cfg["grid"]["N"] = 10
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert main(["check", str(tmp_path / "nowhere.json")]) == 3


@pytest.mark.parametrize("section,key,value", [
    ("outputs", "hs_order", math.nan),
    ("checks", "gronwall_slack", math.nan),
    ("model", "b", 10**400),
])
def test_non_finite_float_field_is_a_config_error(tmp_path, caplog,
                                                  section, key, value):
    # json reads NaN; a NaN order crashes the run, and a NaN slack makes
    # every violation test false, so the check would pass vacuously.  An
    # integer past float range crashed the conversion to float.
    cfg = base_config()
    cfg.setdefault(section, {})[key] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"field '{section}.{key}' must be finite" in caplog.text
    assert not (tmp_path / "out").exists()


def sweep_config(tmp_path):
    return {
        "sweep": {"case": ["case_i"], "b": [2.0, 3.0], "amplitude": [0.5]},
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.05},
        "initial": {
            "u": {"kind": "odd_gaussian"},
            "rho": {"kind": "gaussian", "amplitude": 0.5},
        },
        "outputs": {"directory": str(tmp_path / "sw"), "char_label_stride": 0},
    }


def test_cmd_sweep(tmp_path):
    cfg = sweep_config(tmp_path)
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 0
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[0] == ("case,b,k1,k2,k3,amplitude,status,t_final,"
                       "blowup_quantity,slope_blowup_bound,bound_respected")
    assert len(lines) == 3
    assert lines[1].startswith("case_i,2,2,4,1,0.5,reached_t_end")
    assert (tmp_path / "sw" / "case_i_b2_a0p5" / "manifest.json").exists()
    assert (tmp_path / "sw" / "case_i_b3_a0p5" / "manifest.json").exists()


class SerialPool:
    """Stands in for the sweep's process pool: runs each job at submit."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_sweep_parses_each_member_once(tmp_path, monkeypatch):
    parsed = []
    real_parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config",
                        lambda cfg: parsed.append(cfg) or real_parse(cfg))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    assert main(["sweep", str(write_config(tmp_path, sweep_config(tmp_path)))]) == 0
    assert len(parsed) == 2
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("case_i,2,2,4,1,0.5,reached_t_end")
    assert lines[2].startswith("case_i,3,3,6,1,0.5,reached_t_end")


@pytest.mark.parametrize("sweep, needle", [
    ({"case": ["custom"], "b": [2.0]}, r"sweep: case\[0\] must be"),
    ({"bb": [2.0]}, r"unknown field 'sweep\.bb'"),
    ({"b": ["two"]}, r"sweep: b\[0\] must be a number"),
    ({"b": [True]}, r"sweep: b\[0\] must be a number"),
    ({"b": [2.0], "amplitude": [0.5, False]},
     r"sweep: amplitude\[1\] must be a number"),
    ({"amplitude": [1.0]}, r"sweep: b is empty"),
], ids=["custom_case", "unknown_key", "b_not_a_number", "b_boolean",
        "amplitude_boolean", "no_runs"])
def test_sweep_rejects_bad_section(tmp_path, caplog, sweep, needle):
    cfg = {
        "sweep": sweep,
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.05},
        "initial": {"u": {"kind": "gaussian"},
                    "rho": {"kind": "gaussian"}},
        "outputs": {"directory": str(tmp_path / "sw")},
    }
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 2
    assert re.search(needle, caplog.text)
    assert not (tmp_path / "sw").exists()


# ----------------------------------------------------------------------
# manifest layout: a check block is `enabled`, `passed`, then the fields
# of its result in declaration order; the manifest's bytes depend on it

CHECK_KEYS = {
    "conservation": ["baseline", "max_abs_drift", "rel_drift"],
    "gronwall": ["branch", "boundary_overlap", "m1", "c", "first_violation_t",
                 "worst_ratio"],
    "rho_bound": ["variants"],
    "transport": ["max_residual", "qx_min", "tol"],
    "identities": ["rel_tol", "m2", "rho2", "rhox2", "rhoxx2"],
    "symmetry": ["max_residual", "tol", "mode"],
    "origin": ["max_value", "tol"],
    "riccati": ["ok_derivative", "derivative_first_violation_t",
                "ok_reciprocal", "reciprocal_first_violation_t", "t0", "h0",
                "increasing_until_t"],
    "h3_energy": ["applicable", "branch", "m1", "m2", "c", "first_violation_t",
                  "worst_ratio"],
}
REPORT_KEYS = ["status", "t_final", "n_steps", "blowup", "overflow_stage"]
SLOPE_KEYS = ["applicable", "u0_prime_at_zero", "bound", "t_detected",
              "respected", "t_resolution_lost", "stopped_before_bound"]


def run_tiny(tmp_path: Path, name: str, cfg: dict) -> tuple[int, dict, Path]:
    """Run `cfg` on a 64-point grid; (exit code, manifest, manifest path)."""
    cfg["grid"] = {"L": 20.0, "N": 64}
    cfg.setdefault("outputs", {})["directory"] = str(tmp_path / name)
    code = main(["run", str(write_config(tmp_path, cfg))])
    path = tmp_path / name / "manifest.json"
    return code, json.loads(path.read_text()), path


def test_manifest_layout_every_check_enabled(tmp_path):
    cfg = base_config(checks={"transport": True,
                              "symmetry_mode": "u_odd_rho_even",
                              "riccati": True, "h3_energy": True})
    cfg["control"]["t_end"] = 0.15
    cfg["initial"]["u"]["kind"] = "odd_gaussian"
    code, manifest, path = run_tiny(tmp_path, "on", cfg)
    checks = manifest["checks"]
    assert list(checks) == list(CHECK_KEYS)
    for name, keys in CHECK_KEYS.items():
        assert list(checks[name]) == ["enabled", "passed", *keys], name
        assert checks[name]["enabled"] is True
    assert [list(v) for v in checks["rho_bound"]["variants"]] == 3 * [
        ["variant", "applicable", "ok", "first_violation_t", "worst_margin"]]
    for name in ("m2", "rho2", "rhox2", "rhoxx2"):
        assert list(checks["identities"][name]) == [
            "max_residual", "scale", "rel_residual"]
    assert list(manifest["report"]) == REPORT_KEYS
    assert manifest["report"]["blowup"] is None
    assert list(manifest["slope_bound"]) == SLOPE_KEYS
    assert manifest["slope_bound"]["applicable"] is True
    assert main(["check", str(path)]) == code


def test_manifest_layout_every_check_disabled(tmp_path):
    # k1 = 0.5 leaves the slope bound inapplicable; a step pinned above the
    # CFL step with a tiny threshold forces a detection after one step
    cfg = base_config(model={"case": "case_i", "b": 0.5},
                      control={"t_end": 0.3, "dt_min": 0.1, "dt_max": 0.1,
                               "blowup_grad_threshold": 1e-3},
                      outputs={"char_label_stride": 0},
                      checks=dict.fromkeys(CHECK_KEYS, False))
    code, manifest, path = run_tiny(tmp_path, "off", cfg)
    assert code == 0
    assert manifest["checks"] == {name: {"enabled": False, "passed": None}
                                  for name in CHECK_KEYS}
    assert list(manifest["checks"]) == list(CHECK_KEYS)
    report = manifest["report"]
    assert list(report) == REPORT_KEYS
    assert report["status"] == "blow_up_detected"
    assert list(report["blowup"]) == ["quantity", "value", "location_index",
                                      "t_detected"]
    assert list(manifest["slope_bound"]) == SLOPE_KEYS
    assert manifest["slope_bound"]["applicable"] is False
    assert main(["check", str(path)]) == 0


# ----------------------------------------------------------------------
# slope-breakdown payload

@pytest.mark.parametrize("t_final, before", [(0.98, True), (2.5, False)])
def test_slope_payload_reports_resolution_stop(t_final, before):
    # case_i b=2: k1 = 2, so the bound from u0'(0) = 1 is 2
    p = make_params(CaseTag.CASE_I, 2.0)
    records = [SimpleNamespace(ux0=1.0)]
    report = RunReport(status=RunStatus.RESOLUTION_LOST, t_final=t_final,
                       n_steps=100)
    payload = slope_bound_payload(records, p, report)
    assert payload["bound"] == 2.0
    # a resolution stop is not a detection
    assert payload["t_detected"] is None and payload["respected"] is None
    assert payload["t_resolution_lost"] == t_final
    assert payload["stopped_before_bound"] is before


def test_slope_payload_without_resolution_stop():
    p = make_params(CaseTag.CASE_I, 2.0)
    report = RunReport(status=RunStatus.REACHED_T_END, t_final=1.0, n_steps=9)
    payload = slope_bound_payload([SimpleNamespace(ux0=1.0)], p, report)
    assert payload["t_resolution_lost"] is None
    assert payload["stopped_before_bound"] is None
    assert "t_resolution_lost" not in SWEEP_COLUMNS

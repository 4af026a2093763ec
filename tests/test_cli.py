import json
import math
from pathlib import Path

import pytest

from bfamily2c import CaseTag, Framework, InitKind, SymmetryMode
from bfamily2c.cli import (ConfigError, config_echo, main, parse_config,
                           read_records, write_diagnostics_csv,
                           write_extras_csv)
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
    s0 = State(0.0, grid20.x * np.exp(-grid20.x**2),
               np.exp(-grid20.x**2))
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


def test_cmd_run_detects_tampering(tmp_path):
    cfg_path = run_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    diag = tmp_path / "out" / "diagnostics.csv"
    lines = diag.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[2],
                                "1.5", 1)
    diag.write_text("\n".join(lines) + "\n")
    assert main(["check", str(tmp_path / "out" / "manifest.json")]) == 1


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


def test_cmd_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("BFAMILY2C_WORKERS", "1")
    cfg = {
        "sweep": {"case": ["case_i"], "b": [2.0, 3.0], "amplitude": [0.5]},
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.05},
        "initial": {
            "u": {"kind": "odd_gaussian"},
            "rho": {"kind": "gaussian", "amplitude": 0.5},
        },
        "outputs": {"directory": str(tmp_path / "sw"), "char_label_stride": 0},
    }
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 0
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[0] == ("case,b,k1,k2,k3,amplitude,status,t_final,"
                       "blowup_quantity,slope_blowup_bound,bound_respected")
    assert len(lines) == 3
    assert lines[1].startswith("case_i,2,2,4,1,0.5,reached_t_end")
    assert (tmp_path / "sw" / "case_i_b2_a0p5" / "manifest.json").exists()
    assert (tmp_path / "sw" / "case_i_b3_a0p5" / "manifest.json").exists()


def test_sweep_rejects_custom_case(tmp_path):
    cfg = {
        "sweep": {"case": ["custom"], "b": [2.0], "amplitude": [1.0]},
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.05},
        "initial": {"u": {"kind": "gaussian"},
                    "rho": {"kind": "gaussian"}},
    }
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 2

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

import bfamily2c
from bfamily2c import (CaseTag, InitKind, RunReport, RunStatus, SymmetryMode,
                       make_params)
from bfamily2c import cli
from bfamily2c.cli import (SWEEP_COLUMNS, CheckSettings, ConfigError,
                           config_echo, main, parse_config, read_records,
                           slope_bound_payload, write_diagnostics_csv,
                           write_extras_csv)
from bfamily2c.diagnostics import DIAG_COLUMNS, EXTRA_COLUMNS


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
    assert list(config_echo(setup)["control"]) == ["t_end", "cfl", "dt_min",
                                                   "dt_max"]
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
        for col in ("t", "dt", "h1_u", "min_ux", "e1", "e2", "int_rho",
                    "d_m2", "d_rhoxx2", "transport_res", "symmetry_res",
                    "ux0", "conv0", "qx_min", "s_rhoxx2"):
            va, vb = getattr(a, col), getattr(b, col)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), col
        assert a.step == b.step


# every kind of float a CSV can hold: non-finite values, a signed zero,
# the smallest subnormal, the largest float and a value with no short form
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1)


def _per_value(vals) -> str:
    """A CSV row with one format() call per value."""
    return ",".join(format(float(v), ".17g") for v in vals) + "\n"


def test_csv_rows_equal_the_per_value_format(tmp_path):
    import numpy as np

    from bfamily2c import DiagRecord, Grid, State
    names = [f.name for f in dataclasses.fields(DiagRecord) if f.name != "step"]
    records = [DiagRecord(step=j, **{n: SPECIAL[(i + j) % len(SPECIAL)]
                                     for i, n in enumerate(names)})
               for j in range(len(SPECIAL))]
    write_diagnostics_csv(tmp_path / "d.csv", records)
    write_extras_csv(tmp_path / "e.csv", records)
    want = ",".join(DIAG_COLUMNS) + "\n" + "".join(
        _per_value(getattr(r, c.lower()) for c in DIAG_COLUMNS) for r in records)
    assert (tmp_path / "d.csv").read_bytes() == want.encode()
    want = ",".join(EXTRA_COLUMNS) + "\n" + "".join(
        f"{r.step}," + _per_value(getattr(r, c) for c in EXTRA_COLUMNS[1:])
        for r in records)
    assert (tmp_path / "e.csv").read_bytes() == want.encode()

    g = Grid(1.0, 16)
    s = State(0.0, np.stack([np.resize(SPECIAL, g.N), np.resize(SPECIAL[::-1], g.N)]))
    with np.errstate(all="ignore"):  # m = u - u_xx of these values is nan
        cli.write_snapshot_csv(tmp_path / "s.csv", s, g)
        m = g.helmholtz(s.u)
    want = "x,u,rho,m\n" + "".join(_per_value(row) for row in zip(g.x, s.u, s.rho, m))
    assert (tmp_path / "s.csv").read_bytes() == want.encode()


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
        "header": {"diagnostics.csv": lambda t: t.replace("h1_u", "h1u", 1)},
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

    def edit_h1_u(text):
        # h1_u enters no check, so only its hash can expose the edit
        lines = text.splitlines()
        col = lines[0].split(",").index("h1_u")
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
        "emptied": ({"diagnostics.csv": edit_h1_u,
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


def test_check_reports_a_missing_file(tmp_path, capsys):
    # a hashed artifact that is gone is tampering, not an I/O error
    assert main(["run", str(run_config(tmp_path))]) == 0
    for name in ("snap_1.csv", "extras.csv", "diagnostics.csv"):
        shutil.copytree(tmp_path / "out", tmp_path / name)
        (tmp_path / name / name).unlink()
        capsys.readouterr()
        assert main(["check", str(tmp_path / name / "manifest.json")]) == 1, name
        assert capsys.readouterr().out.splitlines() == [
            f"check FAILED: missing file {name}"], name


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


@pytest.mark.parametrize("command, document, needle", [
    ("run", [base_config()], "root must be a JSON object"),
    ("sweep", [{"sweep": {"b": [2.0]}}], "root must be a JSON object"),
    ("check", [{"files": {}}], "root must be a JSON object"),
    ("check", {"files": ["diagnostics.csv"]}, "'files' must be an object"),
    ("check", {"files": "diagnostics.csv"}, "'files' must be an object"),
], ids=["run_list_root", "sweep_list_root", "check_list_root",
        "check_files_list", "check_files_string"])
def test_malformed_json_roots_are_config_errors(tmp_path, caplog, command,
                                                document, needle):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    assert needle in caplog.text


@pytest.mark.parametrize("section,key,value", [
    ("control", "dt_max", math.nan),
    ("checks", "gronwall_slack", math.nan),
    ("model", "b", 10**400),
])
def test_non_finite_float_field_is_a_config_error(tmp_path, caplog,
                                                  section, key, value):
    # json reads NaN; a NaN fails every comparison, so a step bound would
    # meet a range test's message instead of this one, and a NaN slack makes
    # every violation test false, so the check would pass vacuously.  An
    # integer past float range crashed the conversion to float.
    cfg = base_config()
    cfg.setdefault(section, {})[key] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"field '{section}.{key}' must be finite" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    pytest.param("outputs", "hs_order", 2.0, id="outputs.hs_order"),
    # the 2/3 rule is what keeps the energy identities exact
    pytest.param("control", "dealias", True, id="control.dealias"),
    # a grid cannot show u_x unbounded, so no run reports blow-up
    pytest.param("control", "blowup_grad_threshold", 1e4,
                 id="control.blowup_grad_threshold"),
    pytest.param("control", "framework", "hs", id="control.framework"),
])
def test_removed_field_is_an_unknown_field(tmp_path, caplog, section, key, value):
    cfg = base_config(outputs={"directory": str(tmp_path / "out")})
    cfg[section][key] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"unknown field '{section}.{key}'" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("center", [50, -20.5, 1e200])
def test_profile_center_off_the_domain_is_a_config_error(tmp_path, caplog,
                                                         center):
    # such a profile is zero on the grid, so the run went green on u = 0;
    # the largest center also overflowed in the profile
    cfg = base_config(outputs={"directory": str(tmp_path / "out")})
    cfg["initial"]["u"]["center"] = center
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert re.search(r"initial: u\.center = \S+ lies outside \[-L, L\]",
                     caplog.text)
    assert not (tmp_path / "out").exists()


def test_profile_of_a_tiny_width_runs_red_without_warnings(tmp_path):
    # y^2 passes float range off the center, so u is one spike: the run
    # goes on, and its checks fail
    cfg = base_config(outputs={"directory": str(tmp_path / "out")})
    cfg["initial"]["u"]["width"] = 1e-200
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1


def test_run_and_check_do_not_load_the_process_pool():
    # the sweep imports its pool when it opens it
    src = str(Path(bfamily2c.__file__).parents[1])
    code = ("import sys, bfamily2c.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
                       "slope_blowup_bound")
    assert len(lines) == 3
    assert lines[1].startswith("case_i,2,2,4,1,0.5,reached_t_end")
    assert (tmp_path / "sw" / "case_i_b2_a0p5" / "manifest.json").exists()
    assert (tmp_path / "sw" / "case_i_b3_a0p5" / "manifest.json").exists()


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for the sweep's process pool: runs each job at submit.
    Returns the list of submitted jobs, one per batch of members."""
    jobs = []

    class SerialPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            jobs.append(args)
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return jobs


def test_sweep_parses_each_member_once(tmp_path, monkeypatch, serial_pool):
    parsed = []
    real_parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config",
                        lambda cfg: parsed.append(cfg) or real_parse(cfg))
    cfg = sweep_config(tmp_path)
    cfg["grid"]["N"] = 1024  # 2^14 state values hold 8 members
    cfg["sweep"] = {"case": ["case_i", "case_ii"], "b": [2.0, 3.0],
                    "amplitude": [0.25, 0.5, 0.75, 1.0]}
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 0
    assert [len(members) for members, _ in serial_pool] == [8, 8]
    assert len(parsed) == 16
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert len(lines) == 17
    assert lines[1].startswith("case_i,2,2,4,1,0.25,reached_t_end")
    assert lines[16].startswith("case_ii,3,4,2,3,1,reached_t_end")


def test_sweep_reads_outputs_directory_as_the_schema_says(tmp_path, monkeypatch,
                                                          caplog, serial_pool):
    # as in `run`, an explicit null is the default; another type is an error
    monkeypatch.chdir(tmp_path)
    cfg = sweep_config(tmp_path)
    cfg["outputs"]["directory"] = None
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 0
    assert (tmp_path / "sweep_out" / "case_i_b2_a0p5" / "manifest.json").is_file()
    cfg["outputs"]["directory"] = 3
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 2
    assert "field 'outputs.directory' must be a string" in caplog.text


def assert_members_match_single_runs(tmp_path, cfg) -> tuple[int, dict]:
    """Sweep cfg, then `run` each member's echoed config: every file and
    manifest block is the same.  Returns the sweep's exit code and each
    member directory's name with the exit code of its `run`."""
    cfg["outputs"]["directory"] = str(tmp_path / "sw")
    code = main(["sweep", str(write_config(tmp_path, cfg))])
    names = {}
    for path in sorted((tmp_path / "sw").glob("*/manifest.json")):
        name = path.parent.name
        batched = json.loads(path.read_text())
        alone_cfg = json.loads(json.dumps(batched["config"]))
        alone_cfg["outputs"]["directory"] = str(tmp_path / "alone" / name)
        names[name] = main(["run", str(write_config(tmp_path, alone_cfg))])
        alone_dir = tmp_path / "alone" / name
        alone = json.loads((alone_dir / "manifest.json").read_text())
        for name in batched["files"]:
            assert (path.parent / name).read_bytes() == (alone_dir / name).read_bytes()
        assert alone.pop("config") == alone_cfg
        batched.pop("config")
        assert alone == batched
    return code, names


def test_shipped_sweep_members_equal_their_single_runs(tmp_path, serial_pool):
    # 16 members with characteristics at N=1024: two batches of 8
    cfg = json.loads((CONFIGS / "sweep.json").read_text())
    code, names = assert_members_match_single_runs(tmp_path, cfg)
    assert code == 0 and set(names.values()) == {0}
    assert len(serial_pool) == 2
    assert list(names) == sorted(f"{case}_b{b}_a{a}" for case in ("case_i", "case_ii")
                           for b in ("1p5", "2", "2p5", "3") for a in ("0p25", "0p5"))


def test_sweep_member_at_its_identity_floor_is_green(tmp_path, serial_pool):
    # the time-differenced residuals put this member at 1.02e-2 against
    # their 1e-2 gate; its tendency rates meet s_* to roundoff.  Its
    # transport residual, 4.1e-5 against 1e-6, keeps the sweep red.
    cfg = json.loads((CONFIGS / "sweep.json").read_text())
    cfg["sweep"] = {"case": ["case_ii"], "b": [3], "amplitude": [0.75]}
    cfg["outputs"]["directory"] = str(tmp_path / "sw")
    assert main(["sweep", str(write_config(tmp_path, cfg))]) == 1
    manifest = json.loads(
        (tmp_path / "sw" / "case_ii_b3_a0p75" / "manifest.json").read_text())
    assert [name for name, block in manifest["checks"].items()
            if block["passed"] is False] == ["transport"]
    block = manifest["checks"]["identities"]
    assert block["passed"] and block["rel_tol"] == 1e-10
    assert max(block[n]["rel_residual"]
               for n in ("m2", "rho2", "rhox2", "rhoxx2")) <= 1e-13


def test_sweep_member_overflow_leaves_the_others_alone(tmp_path, serial_pool,
                                                      capsys):
    # the 1e160 members overflow in the first stage of step 1 and leave
    # the batch, which takes that step again without them; an overflowed
    # member does not pass, alone or in the sweep
    cfg = sweep_config(tmp_path)
    cfg["sweep"]["amplitude"] = [0.5, 1e160, 1.0]
    code, names = assert_members_match_single_runs(tmp_path, cfg)
    assert len(serial_pool) == 1 and len(names) == 6
    assert code == 1
    assert "sweep: 6 runs, 4 passed checks" in capsys.readouterr().out
    status = {n: json.loads((tmp_path / "sw" / n / "manifest.json").read_text())
              ["report"]["status"] for n in names}
    assert sorted(status.values()) == ["overflow"] * 2 + ["reached_t_end"] * 4
    assert names == {n: 1 if status[n] == "overflow" else 0 for n in names}


def test_overflowed_run_fails_run_and_check(tmp_path, capsys):
    # with one record, every check but identities holds vacuously, and
    # identities fails on the record's non-finite d_m2 and s_m2: with it
    # off, the status alone decides
    cfg = sweep_config(tmp_path)
    del cfg["sweep"]
    cfg["model"] = {"case": "case_i", "b": 2.0}
    cfg["checks"] = {"identities": False}
    cfg["initial"]["u"]["amplitude"] = 1e160
    cfg["outputs"]["directory"] = str(tmp_path / "out")
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().out.startswith(
        "status=overflow t_final=0 steps=0 records=1 checks=FAILED")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert all(v["passed"] for v in manifest["checks"].values() if v["enabled"])
    assert main(["check", str(tmp_path / "out" / "manifest.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check FAILED: the run overflowed in RK4 stage 0"]


@pytest.mark.parametrize("section, needle", [
    ({"sweep": {"case": ["custom"], "b": [2.0]}}, r"sweep: case\[0\] must be"),
    ({"sweep": {"bb": [2.0]}}, r"unknown field 'sweep\.bb'"),
    ({"sweep": {"b": ["two"]}}, r"sweep: b\[0\] must be a number"),
    ({"sweep": {"b": [True]}}, r"sweep: b\[0\] must be a number"),
    ({"sweep": {"b": [2.0], "amplitude": [0.5, False]}},
     r"sweep: amplitude\[1\] must be a number"),
    ({"sweep": {"amplitude": [1.0]}}, r"sweep: b is empty"),
    # directory names keep 6 significant digits
    ({"sweep": {"b": [2.0], "amplitude": [0.1, 0.1000001]}},
     r"sweep members case=case_i b=2\.0 amplitude=0\.1 and case=case_i b=2\.0 "
     r"amplitude=0\.1000001 share the directory 'case_i_b2_a0p1'"),
    ({"sweep": {"b": [2.0, 2.0]}},
     r"sweep members case=case_i b=2\.0 amplitude=1\.0 and "
     r"case=case_i b=2\.0 amplitude=1\.0 share the directory 'case_i_b2_a1'"),
    # the initial section is read as run reads it
    ({"initial": None}, r"config error: missing section 'initial'"),
    ({"initial": {"rho": {"kind": "gaussian"}}},
     r"config error: missing required field 'initial\.u'"),
    ({"initial": {"u": "x", "rho": {"kind": "gaussian"}}},
     r"config error: field 'initial\.u' must be an object, got 'x'"),
    # the members' states are built before any run starts
    ({"initial": {"u": {"kind": "gaussian"},
                  "rho": {"kind": "gaussian", "center": 50}}},
     r"config error: initial: rho\.center = 50\S* lies outside \[-L, L\]"),
], ids=["custom_case", "unknown_key", "b_not_a_number", "b_boolean",
        "amplitude_boolean", "no_runs", "colliding_names", "repeated_member",
        "no_initial", "no_initial_u", "initial_u_not_an_object",
        "rho_center_off_the_domain"])
def test_sweep_rejects_bad_section(tmp_path, caplog, section, needle):
    cfg = {
        "sweep": {"b": [2.0]},
        "grid": {"L": 20.0, "N": 256},
        "control": {"t_end": 0.05},
        "initial": {"u": {"kind": "gaussian"},
                    "rho": {"kind": "gaussian"}},
        "outputs": {"directory": str(tmp_path / "sw")},
    } | section
    cfg = {key: sec for key, sec in cfg.items() if sec is not None}
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
REPORT_KEYS = ["status", "t_final", "n_steps", "overflow_stage"]
SLOPE_KEYS = ["applicable", "u0_prime_at_zero", "bound", "t_resolution_lost",
              "stopped_before_bound"]


def run_tiny(tmp_path: Path, name: str, cfg: dict) -> tuple[int, dict, Path]:
    """Run `cfg` on a 64-point grid; (exit code, manifest, manifest path)."""
    cfg["grid"] = {"L": 20.0, "N": 64}
    cfg.setdefault("outputs", {})["directory"] = str(tmp_path / name)
    code = main(["run", str(write_config(tmp_path, cfg))])
    path = tmp_path / name / "manifest.json"
    return code, json.loads(path.read_text()), path


def every_check_config(**overrides) -> dict:
    cfg = base_config(checks={"transport": True,
                              "symmetry_mode": "u_odd_rho_even",
                              "riccati": True, "h3_energy": True}, **overrides)
    cfg["control"]["t_end"] = 0.15
    cfg["initial"]["u"]["kind"] = "odd_gaussian"
    cfg["initial"]["rho"]["kind"] = "even_bump_zero_at_origin"
    return cfg


def test_manifest_layout_every_check_enabled(tmp_path):
    code, manifest, path = run_tiny(tmp_path, "on", every_check_config())
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
    assert list(manifest["slope_bound"]) == SLOPE_KEYS
    assert manifest["slope_bound"]["applicable"] is True
    assert main(["check", str(path)]) == code


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_column_readers() -> dict[str, str]:
    """The 'read by' cell of each CSV column in README's Outputs table."""
    section = README.read_text().split("## Outputs", 1)[1].split("\n## ", 1)[0]
    readers = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[1] in ("diagnostics", "extras"):
            readers.update(dict.fromkeys(re.findall(r"`(\w+)`", cells[0]),
                                         cells[3]))
    return readers


def restamped(out: Path, dest: Path, name: str, col: int, value: str) -> Path:
    """A copy of run directory `out` whose CSV `name` holds `value` in
    column `col` of its middle row, with the file's hash in the manifest
    updated to match; returns the copy's manifest."""
    shutil.copytree(out, dest)
    lines = (dest / name).read_text().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[col] = value
    lines[len(lines) // 2] = ",".join(row)
    (dest / name).write_text("\n".join(lines) + "\n")
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256((dest / name).read_bytes()).hexdigest()
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest / "manifest.json"


def test_every_csv_column_is_read_by_a_check_or_documented(tmp_path, capsys):
    """The record schema's rule: an interior edit of a column moves some
    check's block exactly when README names the checks that read it, and
    only those; the other columns are the observables README lists."""
    readme = readme_column_readers()
    assert list(readme) == [*DIAG_COLUMNS, *EXTRA_COLUMNS]
    # case_i b=2 puts gronwall on the two-sided branch (it reads min_ux),
    # case_ii b=2 on a one-sided one, where h3_energy applies (and reads E1)
    runs = []
    for case in ("case_i", "case_ii"):
        cfg = every_check_config(model={"case": case, "b": 2.0})
        runs.append(run_tiny(tmp_path, case, cfg)[2].parent)
    moved = {}
    for name, columns in (("diagnostics.csv", DIAG_COLUMNS),
                          ("extras.csv", EXTRA_COLUMNS)):
        for col, column in enumerate(columns):
            edits = ("1000000", "-1000000") if column == "step" else ("1e6", "-1e6")
            found = moved.setdefault(column, set())
            for out, value in itertools.product(runs, edits):
                manifest = restamped(out, tmp_path / f"{out.name}_{column}{value}",
                                     name, col, value)
                capsys.readouterr()
                main(["check", str(manifest)])
                found.update(re.findall(r"check '(\w+)' (?:details|verdict) differ",
                                        capsys.readouterr().out))
    observables = {c for c, cell in readme.items() if cell.startswith("observable")}
    assert {c for c, checks in moved.items() if not checks} == observables
    for column, checks in moved.items():
        assert checks <= set(readme[column].split(", ")), (column, checks)


def test_check_refuses_a_manifest_of_another_version(tmp_path, caplog):
    assert main(["run", str(run_config(tmp_path))]) == 0
    path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["version"] == bfamily2c.__version__
    manifest["version"] = "0.2.0"
    path.write_text(json.dumps(manifest))
    assert main(["check", str(path)]) == 2
    assert (f"manifest version '0.2.0' is not this bfamily2c's version "
            f"'{bfamily2c.__version__}'") in caplog.text


def test_manifest_layout_every_check_disabled(tmp_path):
    # k1 = 0.5 leaves the slope bound inapplicable; a step pinned above the
    # CFL step reaches t_end after three steps at dt_min
    cfg = base_config(model={"case": "case_i", "b": 0.5},
                      control={"t_end": 0.3, "dt_min": 0.1, "dt_max": 0.1},
                      outputs={"char_label_stride": 0},
                      checks=dict.fromkeys(CHECK_KEYS, False))
    code, manifest, path = run_tiny(tmp_path, "off", cfg)
    assert code == 0
    assert manifest["checks"] == {name: {"enabled": False, "passed": None}
                                  for name in CHECK_KEYS}
    assert list(manifest["checks"]) == list(CHECK_KEYS)
    report = manifest["report"]
    assert list(report) == REPORT_KEYS
    assert report["status"] == "reached_t_end"
    assert report["n_steps"] == 3
    assert list(manifest["slope_bound"]) == SLOPE_KEYS
    assert manifest["slope_bound"]["applicable"] is False
    assert main(["check", str(path)]) == 0


# ----------------------------------------------------------------------
# slope-breakdown payload

# the data of the bound: odd u0 with u0'(0) = 1 and rho0(0) = 0
ODD_U_CHECKS = CheckSettings(symmetry_mode=SymmetryMode.U_ODD_RHO_EVEN)
ODD_U_START = SimpleNamespace(ux0=1.0, rho0=0.0)


@pytest.mark.parametrize("t_final, before", [(0.98, True), (2.5, False)])
def test_slope_payload_reports_resolution_stop(t_final, before):
    # case_i b=2: k1 = 2, so the bound from u0'(0) = 1 is 2
    p = make_params(CaseTag.CASE_I, 2.0)
    report = RunReport(status=RunStatus.RESOLUTION_LOST, t_final=t_final,
                       n_steps=100)
    payload = slope_bound_payload([ODD_U_START], p, ODD_U_CHECKS, report)
    assert payload["bound"] == 2.0
    assert payload["t_resolution_lost"] == t_final
    assert payload["stopped_before_bound"] is before


def test_slope_payload_without_resolution_stop():
    p = make_params(CaseTag.CASE_I, 2.0)
    report = RunReport(status=RunStatus.REACHED_T_END, t_final=1.0, n_steps=9)
    payload = slope_bound_payload([ODD_U_START], p, ODD_U_CHECKS, report)
    assert payload["applicable"] is True and payload["bound"] == 2.0
    assert payload["t_resolution_lost"] is None
    assert payload["stopped_before_bound"] is None
    assert "t_resolution_lost" not in SWEEP_COLUMNS


@pytest.mark.parametrize("mode, rho0, applicable", [
    (SymmetryMode.U_ODD_RHO_ODD, 0.0, True),
    (SymmetryMode.U_ODD_RHO_EVEN, 1e-9, True),  # |rho0(0)| at origin_tol
    # a Gaussian rho0 with rho0(0) = 0.5, as in the shipped sweep
    (SymmetryMode.U_ODD_RHO_EVEN, 0.5, False),
    # no parity declared, as in the shipped smooth run
    (None, 0.0, False),
])
def test_slope_payload_needs_the_hypotheses_of_the_bound(mode, rho0, applicable):
    p = make_params(CaseTag.CASE_I, 2.0)
    report = RunReport(status=RunStatus.REACHED_T_END, t_final=1.0, n_steps=9)
    payload = slope_bound_payload([SimpleNamespace(ux0=1.0, rho0=rho0)], p,
                                  CheckSettings(symmetry_mode=mode), report)
    assert payload["applicable"] is applicable
    assert payload["bound"] == (2.0 if applicable else None)

"""Command line front end: run, sweep, and offline re-verification.

Configs are JSON documents; every run directory receives

    diagnostics.csv   one row per diagnostic record (stable schema)
    extras.csv        origin values, identity terms, Jacobian floor
    snap_<k>.csv      field snapshots (x, u, rho, m), when enabled
    manifest.json     full effective config, run report, check verdicts,
                      and content hashes of the CSVs

`check <manifest>` re-derives every enabled check block, field by
field, and the report's final step and time from the stored CSVs
offline, and fails on any difference, hash mismatch, missing or
unparsable CSV, or an overflowed run, so a finished run directory is
self-verifying.  Exit codes: 0 success, 1 check failure, overflow or
tampering, 2 usage/config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import operator
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum, EnumMeta
from pathlib import Path

from . import __version__
from .characteristics import rho_sup_bound_check
from .diagnostics import (DIAG_COLUMNS, EXTRA_COLUMNS, ORIGIN_TOL, DiagRecord,
                          SymmetryMode, conservation_check, gronwall_check_h2,
                          h3_energy_check, identities_check, origin_check,
                          riccati_check, symmetry_check, transport_check)
from .dynamics import State
from .initdata import InitKind, InitSpec, blowup_bound, build_initial
from .model import CaseTag, ModelParams, custom_params, make_params
from .spectral import Grid
from .stepper import (DiagSettings, RunReport, RunStatus, StepControl,
                      Trajectory, run, run_batch)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

DIAG_HEADER = ",".join(DIAG_COLUMNS)
EXTRA_HEADER = ",".join(EXTRA_COLUMNS)
SNAP_HEADER = "x,u,rho,m"
SWEEP_COLUMNS = ("case", "b", "k1", "k2", "k3", "amplitude", "status",
                 "t_final", "slope_blowup_bound")


class ConfigError(Exception):
    """Invalid or malformed configuration; maps to exit code 2."""


# ----------------------------------------------------------------------
# config parsing

def _section(cfg: dict, key: str, required: bool = True) -> dict:
    val = cfg.get(key)
    if val is None:
        if required:
            raise ConfigError(f"missing section '{key}'")
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"section '{key}' must be an object")
    return val


_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
          bool: (bool, "a boolean"), str: (str, "a string"),
          dict: (dict, "an object"), tuple: (list, "a list")}


def _take(sec: dict, path: str, key: str, kind, default=...):
    """Pop sec[key] coerced to `kind`; errors name the dotted field.

    `kind` is a resolved annotation: one of _KINDS, an Enum (given by
    value), or `X | None` (null then means the default).
    """
    if key not in sec:
        if default is ...:
            raise ConfigError(f"missing required field '{path}.{key}'")
        return default
    val = sec.pop(key)
    where = f"{path}.{key}"
    if val is None and default is not ...:
        return default  # explicit null falls back to the default
    kind = next(a for a in typing.get_args(kind) or (kind,) if a is not type(None))
    if isinstance(kind, EnumMeta):
        try:
            return kind(val)
        except ValueError:
            choices = "/".join(m.value for m in kind)
            raise ConfigError(f"field '{where}' must be one of {choices}, "
                              f"got {val!r}") from None
    accepted, noun = _KINDS[kind]
    if not isinstance(val, accepted) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"field '{where}' must be {noun}, got {val!r}")
    # json reads NaN, Infinity and integers past float range; a NaN
    # fails every comparison, so no range test would catch it
    if kind is float and not abs(val) <= sys.float_info.max:
        raise ConfigError(f"field '{where}' must be finite, got {val!r}")
    return kind(val)


def _no_leftovers(sec: dict, path: str) -> None:
    if sec:
        raise ConfigError(f"unknown field '{path}.{next(iter(sec))}'")


def _build(cls, kwargs: dict, sec: dict, path: str):
    """cls(**kwargs) once `sec` is used up; its ValueError names `path`."""
    _no_leftovers(sec, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# dataclass fields no config key of the same name sets: StepControl's
# resolution_tol is not configurable; InitSpec's m0_spec and table_path
# come from the keys m0 and path
_NOT_IN_CONFIG = {"resolution_tol", "m0_spec", "table_path"}


@functools.cache
def _config_fields(cls) -> tuple:
    """(name, resolved type, default or ...) of each config field of
    dataclass `cls`; resolving the annotations is the costly part."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], ... if f.default is MISSING else f.default)
                 for f in fields(cls) if f.name not in _NOT_IN_CONFIG)


def _take_fields(cls, sec: dict, path: str) -> dict:
    """Pop every config field of dataclass `cls`, typed and defaulted by it."""
    return {name: _take(sec, path, name, kind, default)
            for name, kind, default in _config_fields(cls)}


def _parse_section(cls, cfg: dict, key: str, required: bool = True):
    sec = dict(_section(cfg, key, required))
    return _build(cls, _take_fields(cls, sec, key), sec, key)


def _echo(obj) -> dict:
    """The config fields of dataclass `obj`, enums by value."""
    return _serial(obj, skip=_NOT_IN_CONFIG)


def _parse_model(cfg: dict) -> ModelParams:
    sec = dict(_section(cfg, "model"))
    case = _take(sec, "model", "case", CaseTag)
    if case is CaseTag.CUSTOM:
        kwargs = {k: _take(sec, "model", k, float) for k in ("k1", "k2", "k3")}
        return _build(custom_params, kwargs, sec, "model")
    kwargs = {"case_tag": case, "b": _take(sec, "model", "b", float)}
    return _build(make_params, kwargs, sec, "model")


def _parse_grid(cfg: dict) -> Grid:
    sec = dict(_section(cfg, "grid"))
    kwargs = {"L": _take(sec, "grid", "L", float), "N": _take(sec, "grid", "N", int)}
    g = _build(Grid, kwargs, sec, "grid")
    if g.N & (g.N - 1) != 0:
        logger.warning("grid.N=%d is not a power of two; FFTs will be slower", g.N)
    return g


def _parse_init_spec(sec: dict, path: str) -> InitSpec:
    sec = dict(sec)
    kwargs = _take_fields(InitSpec, sec, path)
    if kwargs["kind"] is InitKind.FROM_M0:
        kwargs["m0_spec"] = _parse_init_spec(_take(sec, path, "m0", dict),
                                             f"{path}.m0")
    if kwargs["kind"] is InitKind.TABLE:
        kwargs["table_path"] = _take(sec, path, "path", str)
    return _build(InitSpec, kwargs, sec, path)


def _echo_init_spec(spec: InitSpec) -> dict:
    d = _echo(spec)
    if spec.m0_spec is not None:
        d["m0"] = _echo_init_spec(spec.m0_spec)
    if spec.table_path is not None:
        d["path"] = spec.table_path
    return d


@dataclass
class OutputSettings:
    """The `outputs` section: field names, types and defaults are its schema."""

    directory: str = "out"
    diag_every: int = 1
    snapshot_every: int = 0
    char_label_stride: int = 4

    def __post_init__(self) -> None:
        if self.diag_every < 1:
            raise ValueError("diag_every must be >= 1")
        if self.snapshot_every < 0 or self.char_label_stride < 0:
            raise ValueError("snapshot_every and char_label_stride must be >= 0")


@dataclass
class CheckSettings:
    """The `checks` section: field names, types and defaults are its schema."""

    conservation: bool = True
    gronwall: bool = True
    rho_bound: bool = True
    transport: bool | None = None   # None: on iff characteristics are on
    identities: bool = True
    symmetry: bool | None = None    # None: on iff symmetry_mode is set
    origin: bool | None = None      # None: on iff symmetry_mode is set
    riccati: bool = False
    h3_energy: bool = False
    symmetry_mode: SymmetryMode | None = None


@dataclass
class RunSetup:
    params: ModelParams
    grid: Grid
    control: StepControl
    spec_u: InitSpec
    spec_rho: InitSpec
    outputs: OutputSettings
    checks: CheckSettings


def parse_config(cfg: dict) -> RunSetup:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"model", "grid", "control", "initial", "outputs", "checks", "sweep"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown section '{key}'")
    initial = dict(_section(cfg, "initial"))
    setup = RunSetup(
        params=_parse_model(cfg),
        grid=_parse_grid(cfg),
        control=_parse_section(StepControl, cfg, "control"),
        spec_u=_parse_init_spec(_take(initial, "initial", "u", dict), "initial.u"),
        spec_rho=_parse_init_spec(_take(initial, "initial", "rho", dict),
                                  "initial.rho"),
        outputs=_parse_section(OutputSettings, cfg, "outputs", required=False),
        checks=_parse_section(CheckSettings, cfg, "checks", required=False),
    )
    _no_leftovers(initial, "initial")
    cs = setup.checks
    if cs.transport is None:
        cs.transport = setup.outputs.char_label_stride > 0
    if cs.transport and setup.outputs.char_label_stride == 0:
        raise ConfigError("checks.transport requires outputs.char_label_stride > 0")
    # the parity, origin and Riccati checks hold on data of a declared parity
    for name in ("symmetry", "origin", "riccati"):
        if getattr(cs, name) is None:
            setattr(cs, name, cs.symmetry_mode is not None)
        if getattr(cs, name) and cs.symmetry_mode is None:
            raise ConfigError(f"checks.{name} requires checks.symmetry_mode")
    if cs.riccati and not (1.0 < setup.params.k1 <= 3.0 and setup.params.k2 >= 0.0):
        raise ConfigError("checks.riccati needs 1 < k1 <= 3 and k2 >= 0")
    return setup


def config_echo(setup: RunSetup) -> dict:
    """The fully-defaulted config; re-running it reproduces the run."""
    p, g = setup.params, setup.grid
    if p.case_tag is CaseTag.CUSTOM:
        model = {"case": "custom", "k1": p.k1, "k2": p.k2, "k3": p.k3}
    else:
        model = {"case": p.case_tag.value, "b": p.b}
    return {
        "model": model,
        "grid": {"L": g.L, "N": g.N},
        "control": _echo(setup.control),
        "initial": {"u": _echo_init_spec(setup.spec_u),
                    "rho": _echo_init_spec(setup.spec_rho)},
        "outputs": _echo(setup.outputs),
        "checks": _echo(setup.checks),
    }


# ----------------------------------------------------------------------
# check evaluation (shared by `run` and offline `check`)

def _check_block(res) -> dict:
    return {"enabled": True, "passed": res.ok, **_serial(res, skip=("ok",))}


# one row per CheckSettings flag, in manifest order
_CHECKS = {
    "conservation": lambda r, p, cs: conservation_check(r),
    "gronwall": lambda r, p, cs: gronwall_check_h2(r, p),
    "rho_bound": lambda r, p, cs: rho_sup_bound_check(r, p),
    "transport": lambda r, p, cs: transport_check(r),
    "identities": lambda r, p, cs: identities_check(r),
    "symmetry": lambda r, p, cs: symmetry_check(r, cs.symmetry_mode),
    "origin": lambda r, p, cs: origin_check(r),
    "riccati": lambda r, p, cs: riccati_check(r, p),
    "h3_energy": lambda r, p, cs: h3_energy_check(r, p),
}


def evaluate_checks(records: list[DiagRecord], p: ModelParams,
                    cs: CheckSettings) -> dict:
    """Run every enabled a-posteriori check over the records."""
    return {name: _check_block(check(records, p, cs)) if getattr(cs, name)
            else {"enabled": False, "passed": None}
            for name, check in _CHECKS.items()}


def run_passed(manifest: dict) -> bool:
    """Every enabled check passed and the run did not overflow: the few
    records of an overflowed run can satisfy the checks vacuously."""
    return (manifest["report"]["status"] != RunStatus.OVERFLOW.value
            and all(v["passed"] for v in manifest["checks"].values() if v["enabled"]))


@dataclass(frozen=True)
class SlopeBound:
    """Wave-breaking upper bound 2/((k1-1) u0'(0)) against the run's end."""

    applicable: bool  # the hypotheses of initdata.blowup_bound hold
    u0_prime_at_zero: float
    bound: float | None
    t_resolution_lost: float | None
    stopped_before_bound: bool | None  # t_resolution_lost < bound


def slope_bound_payload(records: list[DiagRecord], p: ModelParams,
                        cs: CheckSettings, report: RunReport) -> dict:
    """Wave-breaking upper bound vs. the run's end, when applicable.

    Applicable on the data the bound covers: 1 < k1 <= 3, k2 >= 0,
    u0'(0) > 0, a declared symmetry mode (odd u0, rho0 even or odd) and
    |rho0(0)| <= ORIGIN_TOL.

    A run stopped on lost resolution puts its stop time in
    t_resolution_lost, and stopped_before_bound compares that with the
    bound; a grid cannot show the blow-up itself, only this stop.
    """
    h0 = records[0].ux0
    applicable = ((1.0 < p.k1 <= 3.0) and p.k2 >= 0.0 and h0 > 0.0
                  and cs.symmetry_mode is not None
                  and abs(records[0].rho0) <= ORIGIN_TOL)
    bound = blowup_bound(p, h0) if applicable else None
    t_lost = (report.t_final
              if report.status is RunStatus.RESOLUTION_LOST else None)
    return _serial(SlopeBound(
        applicable, h0, bound, t_resolution_lost=t_lost,
        stopped_before_bound=(None if bound is None or t_lost is None
                              else t_lost < bound)))


# ----------------------------------------------------------------------
# serialization

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# one row of each CSV as one %-format: '%.17g' writes what _fmt does
_DIAG_ROW = ",".join(["%.17g"] * len(DIAG_COLUMNS)) + "\n"
_EXTRA_ROW = ",".join(["%d"] + ["%.17g"] * (len(EXTRA_COLUMNS) - 1)) + "\n"
_SNAP_ROW = "%.17g,%.17g,%.17g,%.17g\n"
_diag_values = operator.attrgetter(*(c.lower() for c in DIAG_COLUMNS))
_extra_values = operator.attrgetter(*EXTRA_COLUMNS)


def write_diagnostics_csv(path: Path, records: list[DiagRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(DIAG_HEADER + "\n")
        fh.writelines(_DIAG_ROW % _diag_values(r) for r in records)


def write_extras_csv(path: Path, records: list[DiagRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(EXTRA_HEADER + "\n")
        fh.writelines(_EXTRA_ROW % _extra_values(r) for r in records)


def write_snapshot_csv(path: Path, state: State, g: Grid) -> None:
    m = g.helmholtz(state.u)
    with open(path, "w", newline="") as fh:
        fh.write(SNAP_HEADER + "\n")
        fh.writelines(_SNAP_ROW % row for row in zip(
            g.x.tolist(), state.u.tolist(), state.rho.tolist(), m.tolist()))


def read_records(diag_path: Path, extras_path: Path) -> list[DiagRecord]:
    """Rebuild DiagRecords from the two CSVs (losslessly round-tripped)."""
    def read_rows(path: Path, header: str) -> list[list[str]]:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != header:
            raise ValueError(f"{path} header mismatch")
        return [ln.split(",") for ln in lines[1:] if ln]

    diag_rows = read_rows(diag_path, DIAG_HEADER)
    extra_rows = read_rows(extras_path, EXTRA_HEADER)
    if not diag_rows:
        raise ValueError(f"{diag_path} has no records")
    if len(diag_rows) != len(extra_rows):
        raise ValueError("diagnostics and extras row counts differ")
    return [DiagRecord(step=int(erow[0]),
                       **{c.lower(): float(v) for c, v in zip(DIAG_COLUMNS, drow)},
                       **{c: float(v) for c, v in zip(EXTRA_COLUMNS[1:], erow[1:])})
            for drow, erow in zip(diag_rows, extra_rows)]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _serial(obj, skip=()):
    """A manifest value: dataclasses by field in declaration order (top-level
    names in `skip` left out), enums by value, lists by element."""
    if is_dataclass(obj):
        return {f.name: _serial(getattr(obj, f.name)) for f in fields(obj)
                if f.name not in skip}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, list):
        return [_serial(v) for v in obj]
    return obj


def _jsonable(obj):
    """Recursively replace non-finite floats (JSON has no nan/inf)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ----------------------------------------------------------------------
# commands

def _initial_state(setup: RunSetup) -> State:
    try:
        return build_initial(setup.spec_u, setup.spec_rho, setup.grid)
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc


def _diag_settings(setup: RunSetup) -> DiagSettings:
    return DiagSettings(
        every=setup.outputs.diag_every,
        symmetry_mode=setup.checks.symmetry_mode,
        char_stride=setup.outputs.char_label_stride,
        snapshot_every=setup.outputs.snapshot_every,
    )


def write_run(setup: RunSetup, out_dir: Path, traj: Trajectory,
              report: RunReport) -> dict:
    """Check a finished run and write its artifacts; returns the manifest."""
    g = setup.grid
    checks = evaluate_checks(traj.records, setup.params, setup.checks)
    out_dir.mkdir(parents=True, exist_ok=True)
    diag_path = out_dir / "diagnostics.csv"
    extras_path = out_dir / "extras.csv"
    write_diagnostics_csv(diag_path, traj.records)
    write_extras_csv(extras_path, traj.records)
    files = {"diagnostics.csv": _sha256(diag_path),
             "extras.csv": _sha256(extras_path)}
    for idx, (step, state) in enumerate(traj.snapshots):
        name = f"snap_{idx}.csv"
        write_snapshot_csv(out_dir / name, state, g)
        files[name] = _sha256(out_dir / name)

    manifest = {
        "package": "bfamily2c",
        "version": __version__,
        "config": config_echo(setup),
        "report": _serial(report),
        "slope_bound": slope_bound_payload(traj.records, setup.params,
                                           setup.checks, report),
        "checks": checks,
        "files": files,
        "n_records": len(traj.records),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return manifest


def _load_json(path: str) -> dict:
    """Read a JSON object; malformed JSON or another root is a ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: root must be a JSON object")
    return doc


def cmd_run(config_path: str, directory: str | None = None) -> int:
    try:
        setup = parse_config(_load_json(config_path))
        if directory is not None:
            setup.outputs.directory = directory
        traj, report = run(_initial_state(setup), setup.params, setup.control,
                           setup.grid, diag=_diag_settings(setup))
        manifest = write_run(setup, Path(setup.outputs.directory), traj, report)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO
    ok = run_passed(manifest)
    print(f"status={report.status.value} t_final={report.t_final:.6g} "
          f"steps={report.n_steps} records={len(traj.records)} "
          f"checks={'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_manifest(manifest_dir: Path, manifest: dict) -> tuple[bool, list[str]]:
    """Re-derive every enabled check from the stored CSVs; list mismatches."""
    problems: list[str] = []
    files = manifest.get("files", {})
    if not isinstance(files, dict):
        raise ConfigError("manifest 'files' must be an object")
    # another version's CSVs may have other columns: refuse before reading
    if manifest.get("version") != __version__:
        raise ConfigError(f"manifest version {manifest.get('version')!r} is not "
                          f"this bfamily2c's version {__version__!r}")
    csvs = {"diagnostics.csv", "extras.csv"}
    required = csvs | {path.name for path in manifest_dir.glob("snap_*.csv")}
    problems += [f"no hash for {name}" for name in sorted(required - set(files))]
    missing = {name for name in csvs | set(files) if not (manifest_dir / name).is_file()}
    problems += [f"missing file {name}" for name in sorted(missing)]
    for name, digest in files.items():
        if name not in missing and _sha256(manifest_dir / name) != digest:
            problems.append(f"hash mismatch for {name}")
    if missing & csvs:
        return False, problems
    try:
        records = read_records(manifest_dir / "diagnostics.csv",
                               manifest_dir / "extras.csv")
    except (ValueError, TypeError) as exc:
        return False, problems + [f"records do not parse: {exc}"]
    if len(records) != manifest.get("n_records"):
        problems.append("record count differs from manifest")
    report = manifest["report"]
    if report["status"] == RunStatus.OVERFLOW.value:
        problems.append(f"the run overflowed in RK4 stage {report['overflow_stage']}")
    for key, val in (("n_steps", records[-1].step), ("t_final", records[-1].t)):
        if report[key] != val:
            problems.append(f"report '{key}' differs from the last record")

    setup = parse_config(manifest["config"])
    rederived = evaluate_checks(records, setup.params, setup.checks)
    stored = manifest["checks"]
    for name, val in rederived.items():
        if name not in stored:
            problems.append(f"check '{name}' missing from manifest")
            continue
        if bool(stored[name]["enabled"]) != bool(val["enabled"]):
            problems.append(f"check '{name}' enabled flag differs")
            continue
        if not val["enabled"]:
            continue  # a disabled check has no verdict or details
        if bool(stored[name]["passed"]) != bool(val["passed"]):
            problems.append(f"check '{name}' verdict differs "
                            f"(stored={stored[name]['passed']}, "
                            f"recomputed={val['passed']})")
            continue
        if _jsonable(val) != stored[name]:
            problems.append(f"check '{name}' details differ from the records")
        if not val["passed"]:
            problems.append(f"check '{name}' fails")
    return not problems, problems


def cmd_check(manifest_path: str) -> int:
    try:
        manifest = _load_json(manifest_path)
        ok, problems = _verify_manifest(Path(manifest_path).parent, manifest)
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO
    except (ConfigError, KeyError, ValueError, TypeError) as exc:
        logger.error("malformed manifest: %s", exc)
        return EXIT_CONFIG
    if ok:
        print(f"check ok: {manifest_path} ({manifest.get('n_records')} records)")
        return EXIT_OK
    for prob in problems:
        print(f"check FAILED: {prob}")
    return EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# sweep

def _num_token(v: float) -> str:
    return format(v, "g").replace(".", "p").replace("-", "m")


@dataclass
class SweepSettings:
    """The `sweep` section: its runs are the product case x b x amplitude."""

    case: tuple = ("case_i",)
    b: tuple = ()
    amplitude: tuple = (1.0,)

    def __post_init__(self) -> None:
        for i, c in enumerate(self.case):
            if c not in (CaseTag.CASE_I.value, CaseTag.CASE_II.value):
                raise ValueError(f"case[{i}] must be case_i or case_ii, got {c!r}")
        for name in ("b", "amplitude"):
            for i, v in enumerate(getattr(self, name)):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ValueError(f"{name}[{i}] must be a number, got {v!r}")
        for name in ("case", "b", "amplitude"):
            if not getattr(self, name):
                raise ValueError(f"{name} is empty, so the sweep has no runs")


def ProcessPoolExecutor(max_workers: int):
    """The sweep's pool, imported on use: run and check load no multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


# A sweep job steps at most this many state values (B * 2 * N) as one
# lockstep batch: 8 members at N = 1024.  On the 64-member N = 1024
# sweep with 2 workers (2-vCPU Xeon VM), the pool took 2.5-3.1 s with
# one member per job and 1.0-1.2 s with 8, 16 or 32, while a worker's
# peak RSS grew 29.5 / 31.8 / 35.6 / 39.6 MB.  From 16 members on, a
# worker outgrows the ~36.6 MB CLI process, which sets the peak memory.
BATCH_STATE_VALUES = 2**14


def _sweep_batch(setups: list[RunSetup],
                 states: list[State]) -> list[tuple[dict, bool]]:
    """Worker: sweep members, from their initial states, as one lockstep
    batch; returns each member's (summary row, checks ok).  The members
    share every section but the model and the u amplitude, so the first
    member's grid, control and diagnostic settings stand for all."""
    first = setups[0]
    trajs, reports = run_batch(states, [st.params for st in setups],
                               first.control, first.grid, _diag_settings(first))
    results = []
    for setup, traj, report in zip(setups, trajs, reports):
        manifest = write_run(setup, Path(setup.outputs.directory), traj, report)
        p, payload = setup.params, manifest["slope_bound"]
        row = {
            "case": p.case_tag.value, "b": _fmt(p.b),
            "k1": _fmt(p.k1), "k2": _fmt(p.k2), "k3": _fmt(p.k3),
            "amplitude": _fmt(setup.spec_u.amplitude),
            "status": report.status.value,
            "t_final": _fmt(report.t_final),
            "slope_blowup_bound": _fmt(payload["bound"]) if payload["bound"] else "",
        }
        results.append((row, run_passed(manifest)))
    return results


def cmd_sweep(config_path: str) -> int:
    try:
        cfg = _load_json(config_path)
        sweep = _parse_section(SweepSettings, cfg, "sweep")
        outputs = _section(cfg, "outputs", required=False)
        base_dir = Path(_take(dict(outputs), "outputs", "directory", str,
                              "sweep_out"))
        initial = _section(cfg, "initial")
        spec_u = _take(dict(initial), "initial", "u", dict)
        combos = [(c, float(b), float(a)) for c in sweep.case
                  for b in sweep.b for a in sweep.amplitude]
        jobs = []
        names: dict[str, str] = {}
        for case, b, amp in combos:
            # the name keeps 6 significant digits, so members can collide
            name = f"{case}_b{_num_token(b)}_a{_num_token(amp)}"
            member = f"case={case} b={b!r} amplitude={amp!r}"
            if name in names:
                raise ConfigError(f"sweep members {names[name]} and {member} "
                                  f"share the directory '{name}'")
            names[name] = member
            sub = dict(cfg, model={"case": case, "b": b},
                       initial=dict(initial, u=dict(spec_u, amplitude=amp)),
                       outputs=dict(outputs, directory=str(base_dir / name)))
            del sub["sweep"]
            setup = parse_config(json.loads(json.dumps(sub)))
            if jobs:  # members share the grid section, so they hold one Grid
                setup.grid = jobs[0][3].grid
            jobs.append((case, b, amp, setup, _initial_state(setup)))
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = max(1, BATCH_STATE_VALUES // (2 * jobs[0][3].grid.N))
    batches = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    results: dict[tuple, tuple[dict, bool]] = {}
    try:
        base_dir.mkdir(parents=True, exist_ok=True)
        with ProcessPoolExecutor(max_workers=min(4, cpus)) as pool:
            futures = {pool.submit(_sweep_batch, [job[3] for job in batch],
                                   [job[4] for job in batch]):
                       [job[:3] for job in batch] for batch in batches}
            for fut, keys in futures.items():
                try:
                    results.update(zip(keys, fut.result()))
                except Exception as exc:  # isolate per-batch failures
                    logger.error("runs %s failed: %s", keys, exc)
                    results.update((key, (dict.fromkeys(SWEEP_COLUMNS, "") | {
                        "case": key[0], "b": _fmt(key[1]),
                        "amplitude": _fmt(key[2]), "status": "error",
                    }, False)) for key in keys)
        summary = base_dir / "summary.csv"
        with open(summary, "w", newline="") as fh:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            for case, b, amp in combos:
                row, _ = results[(case, b, amp)]
                fh.write(",".join(row[c] for c in SWEEP_COLUMNS) + "\n")
    except OSError as exc:
        logger.error("I/O error: %s", exc)
        return EXIT_IO

    n_ok = sum(1 for _, ok in results.values() if ok)
    print(f"sweep: {len(combos)} runs, {n_ok} passed checks, summary at {summary}")
    return EXIT_OK if n_ok == len(combos) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bfamily2c",
        description="Pseudospectral solver and diagnostics for a "
                    "two-component b-family shallow water system.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one run from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--directory", default=None,
                       help="override outputs.directory")
    p_sweep = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    p_sweep.add_argument("config")
    p_check = sub.add_parser("check", help="re-verify a run directory offline")
    p_check.add_argument("manifest")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "run":
        return cmd_run(args.config, args.directory)
    if args.command == "sweep":
        return cmd_sweep(args.config)
    if args.command == "check":
        return cmd_check(args.manifest)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

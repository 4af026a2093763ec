"""Tests of the benchmark itself.

Not part of tier-1 (pytest's testpaths is `tests`); run them with
`python3 -m pytest perfbench`.  The traced tests run each workload
twice, 15-40 s a run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, PERTURB, WORKLOADS, make_config  # noqa: E402

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = ("spectral.fft_per_step", "spectral.fft_per_record", "dynamics.rhs_calls",
         "stepper.steps", "diagnostics.records")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def traced(workload: str) -> dict:
    proc = bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                 "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_spans_cover_the_run(workload):
    names = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    first, second = traced(workload), traced(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    for name in EXACT:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["smooth", "breaking"])
def test_default_seed_is_the_shipped_config(workload):
    shipped = json.loads((ROOT / "configs" / f"{workload}.json").read_text())
    assert make_config(ROOT, workload, DEFAULT_SEED) == shipped


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_perturb_amplitude_and_width_only(workload):
    base = make_config(ROOT, workload, DEFAULT_SEED)
    other = make_config(ROOT, workload, 7)
    assert make_config(ROOT, workload, 7) == other
    for name, spec in base["initial"].items():
        moved = other["initial"][name]
        assert moved["kind"] == spec["kind"]
        assert moved.get("center", 0.0) == spec.get("center", 0.0)
        for key in ("amplitude", "width"):
            assert 0.0 < abs(moved[key] / spec.get(key, 1.0) - 1.0) <= PERTURB
    for key in base.keys() - {"initial", "sweep"}:
        assert other[key] == base[key]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "smooth", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

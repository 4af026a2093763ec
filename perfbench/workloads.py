"""Workload definitions: configs built from the shipped ones and a seed.

The default seed reproduces `configs/smooth.json` and
`configs/breaking.json` exactly.  Any other seed scales the amplitude
and width of every initial profile (and every sweep amplitude) by an
independent factor in [1 - PERTURB, 1 + PERTURB].  Profile kinds and
centers are left alone, so each profile keeps its parity.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("smooth", "breaking", "sweep")
DEFAULT_SEED = 0
PERTURB = 0.03

# The shipped sweep has 2 cases x 4 b x 2 amplitudes and takes ~1 s without
# characteristics; eight amplitudes make it 64 members and a few seconds, so
# per-member fixed cost, records, I/O and the pool dominate, not start-up.
# The grid stays at or below the shipped 0.25: from ~0.6 to ~0.9, case_ii at
# b >= 2.5 has an identities residual within a few percent of its 1e-2 gate,
# and near 0.3 (case_ii, b = 2.5 and 3) the rho_bound check can exceed its
# 1e-8 slack by a few 1e-8 for some amplitude/width combinations (see
# README.md), so a seed's perturbation could flip either verdict.
SWEEP_AMPLITUDES = [0.03125 * i for i in range(1, 9)]


def command(workload: str) -> str:
    """The CLI subcommand a workload runs."""
    return "sweep" if workload == "sweep" else "run"


def make_config(root: Path, workload: str, seed: int) -> dict:
    """The config of `workload` for `seed`, read from `root/configs`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = json.loads((root / "configs" / f"{workload}.json").read_text())
    if workload == "sweep":
        cfg["outputs"]["char_label_stride"] = 0
        cfg["sweep"]["amplitude"] = list(SWEEP_AMPLITUDES)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)

        def jitter(x: float) -> float:
            return x * (1.0 + rng.uniform(-PERTURB, PERTURB))

        for spec in cfg["initial"].values():
            spec["amplitude"] = jitter(spec.get("amplitude", 1.0))
            spec["width"] = jitter(spec.get("width", 1.0))
        if workload == "sweep":
            cfg["sweep"]["amplitude"] = [jitter(a) for a in cfg["sweep"]["amplitude"]]
    return cfg


def members(cfg: dict) -> list[tuple[str, float, float]]:
    """(case, b, u amplitude) of each run, in the order the CLI runs them."""
    if "sweep" not in cfg:
        return [(cfg["model"]["case"], float(cfg["model"]["b"]),
                 float(cfg["initial"]["u"]["amplitude"]))]
    sw = cfg["sweep"]
    return [(c, float(b), float(a))
            for c in sw["case"] for b in sw["b"] for a in sw["amplitude"]]


def member_key(manifest: dict) -> tuple[str, float, float]:
    """The `members` entry a manifest belongs to, from its config echo."""
    cfg = manifest["config"]
    return (cfg["model"]["case"], float(cfg["model"]["b"]),
            float(cfg["initial"]["u"]["amplitude"]))

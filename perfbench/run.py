"""Benchmark of the bfamily2c CLI: time to a verified run directory.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload smooth|breaking|sweep --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --write-reference

`--trace 0` times CLI invocations (`bfamily2c run` or `bfamily2c sweep`)
back to back for about S seconds, each in a fresh interpreter, and
reports the end-to-end metrics named in BENCHMARK.json: medians over the
invocations, plus the median of several set-up probes.  `--trace 1`
instead runs the command once untraced and once traced in-process
(perfbench/tracer.py) and reports the per-layer metrics; S is not used.

Every invocation passes a gate, per operation (one `run`, or one sweep
member): the status and check verdicts equal perfbench/reference.json,
the exit code is the one those verdicts imply, `bfamily2c check`
re-derives the same verdicts, and the hashed files equal those of the
first invocation of the same seed.  Outputs go to a temporary directory
under `.bench_tmp/` that is removed at exit.  A JSON line with the
machine, the samples and any gate problems precedes the result line.

`--write-reference` runs each workload once at the default seed and
records its verdicts as the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (DEFAULT_SEED, WORKLOADS, command, make_config,
                       member_key, members)

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7       # timed set-up probes, after one untimed warm-up probe
MIN_REPEATS = 3        # timed invocations per run, whatever --seconds says
DEADLINE_S = 165.0     # nothing new is launched after this; the run must end by 180 s
MAX_PROBLEMS = 20      # gate problems echoed in the detail line


@dataclass
class Proc:
    code: int | None   # None: killed at its deadline
    start: float       # time.monotonic() just before launch
    wall: float
    maxrss_kb: int     # peak RSS of the process tree (largest process)
    stdout: str
    stderr: str


class Bench:
    """One benchmark run: its temporary directory, clock and child settings."""

    def __init__(self, workload: str, seed: int) -> None:
        self.t0 = time.monotonic()
        self.workload = workload
        self.cfg = make_config(ROOT, workload, seed)
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(self.nproc, 4) if workload == "sweep" else 1
        self.blas_threads = max(1, self.nproc // self.workers)
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_tmp"))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        BFAMILY2C_WORKERS=str(self.workers),
                        OPENBLAS_NUM_THREADS=str(self.blas_threads),
                        TMPDIR=str(self.tmp))
        self.cfg_path = self.write_config(self.cfg, "config.json")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # another run's directory is still there

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def write_config(self, cfg: dict, name: str) -> Path:
        path = self.tmp / name
        path.write_text(json.dumps(cfg))
        return path

    def launch(self, argv: list[str]) -> Proc:
        """Run argv in its own process group, killed at the deadline."""
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        timed_out = []

        def kill() -> None:
            timed_out.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        with tempfile.TemporaryFile(dir=self.tmp) as out, \
                tempfile.TemporaryFile(dir=self.tmp) as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(code=None if timed_out else proc.returncode, start=start,
                        wall=wall, maxrss_kb=usage.ru_maxrss,
                        stdout=out.read().decode(errors="replace"),
                        stderr=err.read().decode(errors="replace"))

    def cli_argv(self, k: int) -> tuple[list[str], Path]:
        """Arguments of the k-th CLI invocation and its output directory."""
        out = self.tmp / f"out{k}"
        if command(self.workload) == "run":
            return ["run", str(self.cfg_path), "--directory", str(out)], out
        cfg = json.loads(json.dumps(self.cfg))
        cfg["outputs"]["directory"] = str(out)
        return ["sweep", str(self.write_config(cfg, f"sweep{k}.json"))], out

    def cli(self, k: int) -> tuple[Proc, Path]:
        argv, out = self.cli_argv(k)
        return self.launch([sys.executable, "-m", "bfamily2c.cli", *argv]), out

    def verify(self, out_dirs: list[Path]) -> dict[str, dict]:
        """`bfamily2c check` on every manifest, in one helper process."""
        paths = [str(m) for d in out_dirs for m in sorted(d.rglob("manifest.json"))]
        if not paths:
            return {}
        proc = self.launch([sys.executable, str(HERE / "verify.py"), *paths])
        if proc.code != 0:
            return {}
        return {r["manifest"]: r for r in json.loads(proc.stdout.splitlines()[-1])}

    def setup_samples(self) -> list[float]:
        """Set-up time of fresh interpreters; the first probe is a warm-up."""
        samples = []
        for _ in range(SETUP_PROBES + 1):
            proc = self.launch([sys.executable, str(HERE / "probe.py"),
                                str(self.cfg_path)])
            if proc.code != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            samples.append(float(proc.stdout.split()[-1]) - proc.start)
        return samples[1:]


# ----------------------------------------------------------------------
# correctness gate

def load_reference(workload: str) -> list[dict]:
    return json.loads(REFERENCE.read_text())[workload]


def verdicts(manifest: dict) -> dict:
    return {"status": manifest["report"]["status"],
            "checks": {k: v["passed"] for k, v in manifest["checks"].items()}}


def read_manifests(out: Path) -> dict[tuple, tuple[str, dict]]:
    found = {}
    for path in out.rglob("manifest.json"):
        manifest = json.loads(path.read_text())
        found[member_key(manifest)] = (str(path), manifest)
    return found


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class Gate:
    """Counts operations and gate failures over a workload's outputs."""

    def __init__(self, workload: str, cfg: dict) -> None:
        self.keys = members(cfg)
        self.reference = load_reference(workload)
        if len(self.reference) != len(self.keys):
            raise RuntimeError(f"reference has {len(self.reference)} runs for "
                               f"{workload}, the workload has {len(self.keys)}")
        failing = any(v is False for ref in self.reference
                      for v in ref["checks"].values())
        self.expected_code = 1 if failing else 0
        self.first_files: dict[tuple, dict] | None = None
        self.first_summary: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, code: int | None, out: Path,
              checked: dict[str, dict]) -> list[int]:
        """Gate one invocation; returns the steps each member took."""
        common = []
        if code is None:
            common.append("killed at the deadline")
        elif code != self.expected_code:
            common.append(f"exit code {code}, expected {self.expected_code}")
        found = read_manifests(out)
        summary = sha256(out / "summary.csv")
        if self.first_files is None:
            self.first_files = {k: m["files"] for k, (_, m) in found.items()}
            self.first_summary = summary
        elif summary != self.first_summary:
            common.append("summary.csv differs from the first repeat")
        steps = []
        for key, ref in zip(self.keys, self.reference):
            probs = list(common)
            if key not in found:
                probs.append("no manifest")
            else:
                path, manifest = found[key]
                steps.append(manifest["report"]["n_steps"])
                if verdicts(manifest) != ref:
                    probs.append(f"verdicts {verdicts(manifest)} differ from "
                                 f"reference {ref}")
                expect = sorted(f"check '{k}' fails"
                                for k, v in manifest["checks"].items() if v["passed"] is False)
                res = checked.get(path)
                if res is None:
                    probs.append("not re-checked")
                elif sorted(res["problems"]) != expect or res["code"] != (1 if expect else 0):
                    probs.append(f"check says {res['problems']} (exit {res['code']})")
                if manifest["files"] != self.first_files.get(key):
                    probs.append("file hashes differ from the first repeat")
            self.attempted += 1
            if probs:
                self.failed += 1
                self.problems.extend(f"{label} {key}: {p}" for p in probs)
        return steps


# ----------------------------------------------------------------------
# the two kinds of run

def end_to_end(bench: Bench, seconds: int, gate: Gate) -> tuple[dict, dict]:
    setup = bench.setup_samples()
    runs: list[tuple[Proc, Path]] = []
    t_start = time.monotonic()
    while bench.elapsed() < DEADLINE_S - 30.0:  # leave time to verify and report
        spent = time.monotonic() - t_start
        if len(runs) >= MIN_REPEATS and (
                spent + statistics.median(p.wall for p, _ in runs) > seconds):
            break
        runs.append(bench.cli(len(runs)))
        if runs[-1][0].code is None:
            break
    checked = bench.verify([out for _, out in runs])
    walls, rates = [], []
    for k, (proc, out) in enumerate(runs):
        steps = gate.check(f"repeat {k}", proc.code, out, checked)
        walls.append(proc.wall)
        rates.append(sum(steps) / proc.wall)
    metrics = {
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.maxrss_kb for p, _ in runs) / 1024.0,
        "pass_frac": (gate.attempted - gate.failed) / gate.attempted,
    }
    samples = {"wall_s": walls, "steps_per_s": rates, "setup_s": setup,
               "peak_rss_kb": [p.maxrss_kb for p, _ in runs]}
    return metrics, samples


def traced(bench: Bench, gate: Gate) -> tuple[dict, dict]:
    passes = {}
    for spans in (0, 1):
        argv, out = bench.cli_argv(spans)
        result_path = bench.tmp / f"trace{spans}.json"
        proc = bench.launch([sys.executable, str(HERE / "tracer.py"), "--spans",
                             str(spans), "--out", str(out), "--result",
                             str(result_path), "--", *argv])
        if proc.code != 0:
            raise RuntimeError(f"traced run failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        gate.check(f"tracer spans={spans}", result["code"], out,
                   {r["manifest"]: r for r in result["verify"]})
        passes[spans] = (result, result["t_end"] - proc.start)
    (_, wall0), (result, wall1) = passes[0], passes[1]
    layers = result["layers"]
    metrics = {k: v for k, v in layers.items() if k not in ("covered_s", "member_s")}
    metrics["trace.coverage"] = layers["covered_s"] / wall1
    metrics["trace.overhead"] = wall1 / wall0 - 1.0
    metrics["cli.io_bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    metrics["cli.sweep_parallel_eff"] = 0.0
    samples = {"traced_wall_s": wall1, "untraced_serial_wall_s": wall0}
    if command(bench.workload) == "sweep":
        proc, cli_out = bench.cli(2)
        gate.check("parallel sweep", proc.code, cli_out, bench.verify([cli_out]))
        metrics["cli.sweep_parallel_eff"] = layers["member_s"] / (bench.workers * proc.wall)
        samples["parallel_wall_s"] = proc.wall
    return metrics, samples


# ----------------------------------------------------------------------

def machine(bench: Bench) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": bench.nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": bench.blas_threads,
        "sweep_workers": bench.workers,
        "loadavg_at_start": os.getloadavg(),
    }


def report(metric_specs: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metric_specs}


def write_reference() -> None:
    ref = {}
    for workload in WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED)
        try:
            _, out = bench.cli(0)
            found = read_manifests(out)
            ref[workload] = [verdicts(found[key][1]) for key in members(bench.cfg)]
        finally:
            bench.close()
    lines = [f'  "{w}": [\n' + ",\n".join(f"    {json.dumps(r)}" for r in runs) + "\n  ]"
             for w, runs in ref.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    missing = [p for p in ("src/bfamily2c/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args.workload, args.seed)
    try:
        detail = {"workload": args.workload, "seed": args.seed,
                  "machine": machine(bench)}
        gate = Gate(args.workload, bench.cfg)
        if args.trace:
            values, samples = traced(bench, gate)
            names = spec["per_layer"]
        else:
            values, samples = end_to_end(bench, args.seconds, gate)
            names = spec["end_to_end"]
        detail.update(repeats=len(samples["wall_s"]) if "wall_s" in samples else 1,
                      samples=samples, problems=gate.problems[:MAX_PROBLEMS])
        print(json.dumps(detail))
        print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                          "failed": gate.failed, "metrics": report(names, values)}))
    finally:
        bench.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer tracing of one CLI command, run in its own process.

Usage:
  python3 perfbench/tracer.py --spans 0|1 --out DIR --result OUT.json \
      -- run CONFIG --directory DIR        (or: -- sweep CONFIG)

DIR is where the command writes its run directories.

The command runs in-process through `bfamily2c.cli.main`;
a sweep runs its members one after another in this process, so their
spans are recorded too.  With `--spans 1` the public functions of the
layer modules are wrapped wherever they are looked up (the defining
module and every module that imported the name), together with the
`Grid` methods and `numpy.fft.rfft`/`irfft`.  Each wrapper records a
span: name, parent span, start, end.  Spans stay in memory and are
reduced to per-layer metrics after the command ends.  Afterwards every
manifest the command wrote is re-checked with `bfamily2c check`.

The result file holds the exit code, `time.monotonic()` at the end of
the command (CLOCK_MONOTONIC is shared by all processes, so the parent
subtracts its launch time to get the wall time), the check results and,
with spans, the metrics.  `covered_s` is the time under root spans; the
parent divides it by the wall time to get the trace coverage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

from verify import check_manifest

LAYER_MODULES = ("spectral", "dynamics", "stepper", "characteristics",
                 "diagnostics", "initdata", "cli")
GRID_METHODS = ("derivative", "helmholtz", "helmholtz_inv", "dx_helmholtz_inv",
                "dealias", "sobolev_norm_sq", "interpolate", "green_convolve")
FFT_NAMES = ("numpy.fft.rfft", "numpy.fft.irfft")
# Spans of these do not count as children when a layer's self time is
# taken: the spectral work a layer does directly is part of its own cost.
SPECTRAL_PREFIXES = ("numpy.fft.", "spectral.Grid.")
MEMBER_SPAN = "cli.sweep_member"

# Counts that need an argument or a result, not just the call.
HOOKS = {
    "spectral.Grid.interpolate":
        lambda counts, result: counts.update(interp_points=_size(result)),
    "stepper.choose_dt":
        lambda counts, result: counts.update(dt_floor_steps=int(result.collapsed)),
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Spans in four parallel lists; `stack` holds the open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        i = len(self.start)
        self.names.append(name)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.monotonic())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.monotonic()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, hook=None):
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(counts, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions, the Grid methods and numpy's real FFTs."""
    import numpy.fft

    import bfamily2c

    mods = {short: importlib.import_module(f"bfamily2c.{short}")
            for short in LAYER_MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                label = f"{short}.{name}"
                wrapped[obj] = tracer.wrap(label, obj, HOOKS.get(label))
    namespaces = [bfamily2c, importlib.import_module("bfamily2c.model"),
                  *mods.values()]
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, name, wrapped[obj])
    grid = mods["spectral"].Grid
    for name in GRID_METHODS:
        label = f"spectral.Grid.{name}"
        setattr(grid, name, tracer.wrap(label, getattr(grid, name), HOOKS.get(label)))
    for label in FFT_NAMES:
        name = label.rsplit(".", 1)[1]
        setattr(numpy.fft, name, tracer.wrap(label, getattr(numpy.fft, name)))


class SerialExecutor:
    """Stands in for the sweep's process pool: runs each job at submit."""

    def __init__(self, max_workers=None, tracer: Tracer | None = None):
        self.tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs) -> Future:
        fut: Future = Future()
        span = (self.tracer.span(MEMBER_SPAN) if self.tracer is not None
                else contextlib.nullcontext())
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # the CLI reads it back from the future
            fut.set_exception(exc)
        else:
            fut.set_result(result)
        return fut


def layer_metrics(tr: Tracer, main_root: int) -> dict:
    """Per-layer metrics from the spans under the command's root span."""
    names, parent = tr.names, tr.parent
    n = len(names)
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    root = [0] * n
    in_step = [False] * n
    in_record = [False] * n
    layer_child = [0.0] * n  # time covered by non-spectral child spans
    for i in range(n):
        p = parent[i]
        if p < 0:
            root[i] = i
        else:
            root[i] = root[p]
            in_step[i] = in_step[p]
            in_record[i] = in_record[p]
            if not names[i].startswith(SPECTRAL_PREFIXES):
                layer_child[p] += dur[i]
        in_step[i] = in_step[i] or names[i] == "stepper.step_rk4"
        in_record[i] = in_record[i] or names[i] == "diagnostics.make_record"

    main = [i for i in range(n) if root[i] == main_root]

    def spans(name: str) -> list[int]:
        return [i for i in main if names[i] == name]

    def outer_s(*labels: str) -> float:
        """Time in spans named `labels`, not counting one inside another."""
        inside = [False] * n
        total = 0.0
        for i in main:
            p = parent[i]
            enclosed = p >= 0 and inside[p]
            hit = names[i] in labels
            if hit and not enclosed:
                total += dur[i]
            inside[i] = enclosed or hit
        return total

    def self_s(name: str) -> float:
        return sum(dur[i] - layer_child[i] for i in spans(name))

    def median_us(name: str) -> float:
        d = [dur[i] for i in spans(name)]
        return 1e6 * statistics.median(d) if d else 0.0

    fft = [i for i in main if names[i] in FFT_NAMES]
    fft_step = [i for i in fft if in_step[i]]
    fft_record = [i for i in fft if in_record[i]]
    steps = len(spans("stepper.step_rk4"))
    records = len(spans("diagnostics.make_record"))
    covered = sum(dur[i] for i in range(n)
                  if parent[i] < 0 and tr.end[i] <= tr.end[main_root])
    return {
        "spectral.fft_per_step": len(fft_step) / steps if steps else 0.0,
        "spectral.fft_per_record": len(fft_record) / records if records else 0.0,
        "spectral.fft_calls": len(fft),
        "spectral.fft_s": sum(dur[i] for i in fft_step + fft_record),
        "spectral.interp_calls": len(spans("spectral.Grid.interpolate")),
        "spectral.interp_points": tr.counts["interp_points"],
        "spectral.interp_s": outer_s("spectral.Grid.interpolate"),
        "dynamics.rhs_calls": len(spans("dynamics.eval_rhs")),
        "dynamics.rhs_s": outer_s("dynamics.eval_rhs"),
        "dynamics.rhs_us": median_us("dynamics.eval_rhs"),
        "stepper.steps": steps,
        "stepper.step_self_s": self_s("stepper.step_rk4"),
        "stepper.choose_dt_s": outer_s("stepper.choose_dt"),
        "stepper.run_self_s": self_s("stepper.run"),
        "stepper.dt_floor_steps": tr.counts["dt_floor_steps"],
        "characteristics.advance_calls":
            len(spans("characteristics.advance_characteristics")),
        "characteristics.advance_s":
            outer_s("characteristics.advance_characteristics"),
        "characteristics.transport_s": outer_s("characteristics.transport_residual"),
        "diagnostics.records": records,
        "diagnostics.record_s": outer_s("diagnostics.make_record"),
        "diagnostics.record_us": median_us("diagnostics.make_record"),
        "diagnostics.post_s": outer_s(
            "diagnostics.fill_identity_residuals", "diagnostics.conservation_check",
            "diagnostics.gronwall_check_h2", "diagnostics.h3_energy_check",
            "diagnostics.riccati_check", "characteristics.rho_sup_bound_check"),
        "initdata.build_s": outer_s("initdata.build_initial"),
        "cli.parse_s": outer_s("cli.parse_config"),
        "cli.checks_s": outer_s("cli.evaluate_checks"),
        "cli.io_s": outer_s("cli.write_diagnostics_csv", "cli.write_extras_csv",
                            "cli.write_snapshot_csv"),
        "cli.verify_s": sum(dur[i] for i in range(n)
                            if parent[i] < 0 and names[i] == "verify"),
        "covered_s": covered,
        "member_s": sum(dur[i] for i in spans(MEMBER_SPAN)),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    with tracer.span("import"):
        import bfamily2c.cli as cli
    cli.ProcessPoolExecutor = functools.partial(
        SerialExecutor, tracer=tracer if args.spans else None)
    if args.spans:
        instrument(tracer)
    main_root = len(tracer.start)  # the span the wrapped cli.main opens next
    code = cli.main(cli_argv)
    t_end = time.monotonic()

    checks = []
    for manifest in sorted(Path(args.out).rglob("manifest.json")):
        with tracer.span("verify"):
            checks.append(check_manifest(cli, str(manifest)))
    result = {"code": code, "t_end": t_end, "verify": checks}
    if args.spans:
        result["layers"] = layer_metrics(tracer, main_root)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

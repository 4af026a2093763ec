"""Classical RK4 time stepping with CFL control.

A run ends at t_end, on lost resolution, or on overflow, which is
always terminal.  It never reports blow-up: the 2/3 rule keeps u
band-limited to kmax = (N/3) pi / L, so by Bernstein's inequality
||u_x||_inf <= kmax ||u||_inf, and a finite grid cannot show u_x
becoming unbounded.  What it can show is the grid ceasing to resolve a
steepening solution: an optional stop on the spectral tail
(StepControl.resolution_tol) ends such a run with its own status.

The stepped variable is the spectrum of (u, rho) (see dynamics), held
with every other per-step array in the Workspace that run_batch
allocates once for its starting batch.  The RK4 stages and the combine
touch only the bins the 2/3 rule keeps; the physical fields come from
the inverse transform of each accepted state's evaluation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .characteristics import (BOUNDARY_MARGIN, CharField,
                              characteristic_rates, init_characteristics,
                              transport_residual, update_characteristics)
from .diagnostics import DiagRecord, SymmetryMode, make_record
from .dynamics import State, Tendency, Workspace, eval_rhs
from .model import ModelParams, ParamStack
from .spectral import Grid

logger = logging.getLogger(__name__)


class RunStatus(Enum):
    REACHED_T_END = "reached_t_end"
    RESOLUTION_LOST = "resolution_lost"
    OVERFLOW = "overflow"


RESOLUTION_TOL = 1e-12
"""Spectral-tail stop at which the origin pinning of the wave-breaking
runs still holds to origin_tol = 1e-9 with about two orders of
magnitude to spare.  On the odd-u / even-rho breaking runs at N=4096,
L=10 (b = 1.5 .. 3 and the cubic start) the drift of rho(t,0), a
truncation error of the flux u rho, stays within about 15 times the
tail tolerance up to the stop: tolerance 1e-12, 1e-10, 1e-8 gives
max |rho(t,0)| = 1.1e-11, 1.4e-9, 1.5e-7.  1e-12 is the largest decade
whose drift stays near 1e-2 * origin_tol; 1e-10 already breaks it.
"""


class OverflowSignal(FloatingPointError):
    """Raised when an RK4 stage (or the combine) produced non-finite values.

    t is the members' stage times (B,), and rows the (B,) mask of the
    members that overflowed.
    """

    def __init__(self, stage_index: int, t: np.ndarray, rows: np.ndarray):
        super().__init__(f"overflow in RK4 stage {stage_index} at t={t}")
        self.stage_index = stage_index
        self.t = t
        self.rows = rows


@dataclass(frozen=True)
class StepControl:
    """Step-size and termination policy of a run.

    resolution_tol, when set, ends the run once Grid.tail_fraction of
    u or rho exceeds it; None (the default) never stops on resolution.
    """

    t_end: float
    cfl: float = 0.3
    dt_min: float = 1e-9
    dt_max: float = 0.1
    resolution_tol: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if self.resolution_tol is not None and not (
                0.0 < self.resolution_tol < math.inf):
            raise ValueError("resolution_tol must be positive and finite, "
                             f"got {self.resolution_tol}")


@dataclass(frozen=True)
class DtChoice:
    dt: float
    collapsed: bool  # raw step below dt_min; only perfbench's tracer reads it


def choose_dt(s: State, p: ModelParams, ctl: StepControl, g: Grid,
              ux: np.ndarray) -> DtChoice:
    """CFL-limited step:  dt = cfl dx / max(1, (1+|k3|) ||u||_inf),
    additionally capped by cfl / max(1, ||u_x||_inf) so per-step
    gradient growth stays bounded, then clamped to [dt_min, dt_max].
    ux is the u_x of s (run_batch passes its evaluation's).
    """
    umax = float(np.max(np.abs(s.u)))
    uxmax = float(np.max(np.abs(ux)))
    raw = ctl.cfl * g.dx / max(1.0, (1.0 + abs(p.k3)) * umax)
    raw = min(raw, ctl.cfl / max(1.0, uxmax))
    dt = min(max(raw, ctl.dt_min), ctl.dt_max)
    return DtChoice(dt=dt, collapsed=raw < ctl.dt_min)


def _nonfinite(a: np.ndarray) -> np.ndarray:
    """The (B,) mask of the members whose rows of a (R, B, n) are not finite."""
    return ~np.isfinite(a).all(axis=(0, 2))


def _char_rates(x: tuple, k: Tendency, members: Sequence[ModelParams], g: Grid) -> tuple:
    """The time derivative of the tuple x = (q_0, exponent_0, q_1,
    exponent_1, ...): the characteristics of member i ride its own rows
    of the stage's u and u_x."""
    return tuple(r for i, q in enumerate(x[::2])
                 for r in characteristic_rates(k.u[i], k.ux[i], q, members[i], g))


def step_rk4(k1: Tendency, dt: np.ndarray, p: ParamStack, g: Grid, ws: Workspace,
             char: list[CharField] | None = None
             ) -> tuple[np.ndarray, list[CharField] | None]:
    """One classical RK4 step of a batch in lockstep, from k1, the
    evaluation of its spectrum k1.yh at times k1.t (stage 1): the new
    times and the advanced characteristics (or None).  The step
    advances k1.yh in place (ws.yh in a run).

    dt is per member (B,), p is the members' ParamStack and char, if
    given, the list of their CharFields.  Each member's new rows are bit
    for bit those of its step alone.  The stage states and the combine
    touch only the g.n_keep bins the tendencies keep; the others stay
    those of k1.yh.  The combine writes ws.yh_next, which is copied to
    k1.yh once its gate passes.

    Stage i is evaluated at t + w_i dt.  Given char, the stages advance
    each member's (q, accumulated_integral) in the same tableau; the
    characteristic rates take the u and u_x each stage's evaluation
    computed.  A member whose tendency in stage 1, 2 or 3 is not finite
    raises OverflowSignal with the stage index, and one whose spectrum,
    q or exponent is not finite after the combine with index 4; the
    signal marks those members and leaves k1.yh alone.  k1 is the
    caller's to gate (stage 0).
    """
    dts = dt.tolist()
    if not all(d > 0.0 for d in dts):
        raise ValueError(f"dt must be positive, got {dt}")
    # h is complex, so that scaling a tendency by it needs no buffered cast
    K, t, yh, h = g.n_keep, k1.t, k1.yh, dt.astype(complex)[:, None]
    chars = char or []
    # the characteristics' stage tuple, and member i's own dt for each entry
    x = tuple(a for c in chars for a in (c.q, c.accumulated_integral))
    hx = tuple(d for c, d in zip(chars, dts) for _ in (c.q, c.accumulated_integral))
    ks, rs = [k1], [_char_rates(x, k1, p.members, g)]
    # field by field: a (B, n_keep) block has one row stride, where numpy
    # runs the 3-D view of both fields through its buffered path
    stage_yh = ws.spec[:2]
    stage_yh[..., K:] = yh[..., K:]
    for stage, w in ((1, 0.5), (2, 0.5), (3, 1.0)):
        wh = w * h
        for sf, d, y in zip(stage_yh, ks[-1].dyh, yh):
            np.multiply(wh, d, out=sf[:, :K])
            sf[:, :K] += y[:, :K]
        xi = tuple(xj + (w * hj) * rj for xj, hj, rj in zip(x, hx, rs[-1]))
        ti = t + w * dt
        k = eval_rhs(ti, stage_yh, p, g, ws, stage)
        if (bad := _nonfinite(k.dyh)).any():
            raise OverflowSignal(stage, ti, bad)
        ks.append(k)
        rs.append(_char_rates(xi, k, p.members, g))

    # yh + (dt/6) (k1 + 2 k2 + 2 k3 + k4) on the kept bins; k3 is
    # doubled in place, as nothing reads it again
    new, h6 = ws.yh_next, h / 6.0
    for n, d1, d2, d3, d4, y in zip(new, *(k.dyh for k in ks), yh):
        np.multiply(d2, 2.0, out=n)
        n += d1
        d3 *= 2.0
        n += d3
        n += d4
        n *= h6
        n += y[:, :K]
    x_new = tuple(xj + (hj / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                  for xj, hj, (r1, r2, r3, r4) in zip(x, hx, zip(*rs)))
    bad = _nonfinite(new)
    if chars:
        bad |= [not (np.isfinite(q).all() and np.isfinite(a).all())
                for q, a in zip(x_new[::2], x_new[1::2])]
    if bad.any():
        raise OverflowSignal(4, t, bad)
    yh[..., :K] = new
    chars = [update_characteristics(c, d, q, a, mp, g) for c, d, q, a, mp
             in zip(chars, dts, x_new[::2], x_new[1::2], p.members)]
    return t + dt, None if char is None else chars


@dataclass(frozen=True)
class RunReport:
    status: RunStatus
    t_final: float
    n_steps: int
    overflow_stage: int | None = None


@dataclass
class DiagSettings:
    """What the run loop records, and how often."""

    every: int = 1                  # diagnostic record cadence in steps
    symmetry_mode: SymmetryMode | None = None
    char_stride: int = 4            # 0 disables characteristics
    snapshot_every: int = 0         # 0 disables field snapshots


@dataclass
class Trajectory:
    records: list[DiagRecord] = field(default_factory=list)
    snapshots: list[tuple[int, State]] = field(default_factory=list)
    char: CharField | None = None


@dataclass
class _Member:
    """A member of run_batch: its parameters, trajectory (with its
    characteristics) and, once it has stopped, its report."""

    p: ModelParams
    traj: Trajectory
    report: RunReport | None = None
    warned_boundary: bool = False


def run_batch(
    states: Sequence[State],
    params: Sequence[ModelParams],
    ctl: StepControl,
    g: Grid,
    diag: DiagSettings | None = None,
) -> tuple[list[Trajectory], list[RunReport]]:
    """Integrate members in lockstep, each until t_end, lost
    resolution, or overflow.

    The members share g, ctl and diag; each has its own state (2, N)
    and params.  Their spectra advance as one stack (2, B, N/2 + 1) in
    one Workspace, allocated here for the starting batch: one step_rk4
    per step, and one make_record per record.  A member that stops
    leaves the stack, and the others move to its first members.  numpy
    computes each row of a stack bit for bit as the row alone, so every
    member's trajectory and report are those of run() on it alone.  The
    members that overflow in a stage of a step leave with that stage,
    and the others take the step again as one batch.

    Lost resolution: with ctl.resolution_tol set, every accepted step
    whose u or rho has a tail fraction above it ends the run with
    RESOLUTION_LOST; rho is watched too because it compresses before
    u steepens.  The stopping state is the final record.

    The initial states are transformed once.  Each accepted state is
    evaluated once, after the combine (the initial state before the
    loop): its Tendency gives choose_dt the physical u and u_x, is
    stage 1 of the next step and feeds the resolution stop, the record
    and the snapshot.  A member whose evaluation overflows ends with
    overflow_stage 0 unless another stop ends it.

    Identical inputs produce bit-identical trajectories on one
    platform.
    """
    if len(states) != len(params) or not states:
        raise ValueError("need one ModelParams per state, and at least one state")
    diag = diag or DiagSettings()
    members = [_Member(p, Trajectory(char=init_characteristics(s0.rho, p, g,
                                                               diag.char_stride)
                                     if diag.char_stride > 0 else None))
               for s0, p in zip(states, params)]
    live = list(range(len(members)))  # the member of each row of the batch
    ps = ParamStack(params)
    ws = Workspace.for_states(states, g)
    n_steps = 0
    t_eps = 1e-12 * ctl.t_end  # relative: t_end may be below 1e-12

    def record(idx: list[int], rk: Tendency, dt, step: int) -> None:
        """One make_record of the members idx, evaluated by rk."""
        tres, qxmin = [], []
        for i, t, y in zip(idx, rk.t.tolist(), rk.y):
            c = members[i].traj.char
            tres.append(math.nan if c is None
                        else transport_residual(State(t=t, y=y), c, members[i].p, g))
            qxmin.append(math.nan if c is None else float(np.min(c.qx)))
        recs = make_record(rk, dt, ParamStack([members[i].p for i in idx]), g,
                           step=step, symmetry_mode=diag.symmetry_mode,
                           transport_res=tres, qx_min=qxmin, ws=ws)
        for i, rec in zip(idx, recs):
            members[i].traj.records.append(rec)

    def snapshot(idx: list[int], rk: Tendency, step: int) -> None:
        for i, t, y in zip(idx, rk.t.tolist(), rk.y):
            members[i].traj.snapshots.append((step, State(t=t, y=y.copy())))

    def ended(stops: dict) -> dict:
        """stops, then the members at t_end, then those whose k overflowed."""
        for j, t in enumerate(k.t.tolist()):
            if ctl.t_end - t <= t_eps:
                stops.setdefault(j, (RunStatus.REACHED_T_END, None))
        for j in np.flatnonzero(_nonfinite(k.dyh)).tolist():
            stops.setdefault(j, (RunStatus.OVERFLOW, 0))
        return stops

    def leave(stops: dict, step: int) -> None:
        """End the members of the rows j in stops at their accepted
        state, after `step` steps, and drop the rows from the batch;
        stops[j] = (status, overflow_stage)."""
        nonlocal k, ws, live, ps
        final = [j for j in stops if members[live[j]].traj.records[-1].step != step]
        if final:
            # final row: dt column holds the time elapsed since the previous record
            sub = k.rows(final)
            idx = [live[j] for j in final]
            record(idx, sub, [t - members[i].traj.records[-1].t
                              for i, t in zip(idx, sub.t.tolist())], step)
        for j, (status, stage) in stops.items():
            m = members[live[j]]
            if status is RunStatus.OVERFLOW:
                logger.warning("overflow at t=%.6g (stage %d); terminating run",
                               k.t[j], stage)
            if diag.snapshot_every > 0 and m.traj.snapshots[-1][0] != step:
                snapshot([live[j]], k.rows([j]), step)
            m.report = RunReport(status=status, t_final=float(k.t[j]),
                                 n_steps=step, overflow_stage=stage)
        rest = [j for j in range(len(live)) if j not in stops]
        ws = ws.keep(rest)
        k = ws.tendency(0, k.t[rest], ws.yh)
        live = [live[j] for j in rest]
        ps = ParamStack([members[i].p for i in live])

    k = eval_rhs(np.array([s0.t for s0 in states], dtype=float), ws.yh, ps, g, ws)
    record(live, k, 0.0, 0)
    if diag.snapshot_every > 0:
        snapshot(live, k, 0)

    stops = ended({})
    while True:
        if stops:
            leave(stops, n_steps)
        if not live:
            break
        chars = [members[i].traj.char for i in live] if diag.char_stride > 0 else None
        choices = [choose_dt(State(t=t, y=y), q, ctl, g, ux)
                   for t, y, q, ux in zip(k.t.tolist(), k.y, ps.members, k.ux)]
        dt = np.minimum([c.dt for c in choices], ctl.t_end - k.t)
        try:
            t, chars = step_rk4(k, dt, ps, g, ws, char=chars)
        except OverflowSignal as exc:
            # the marked members leave; the rest retake the step, and one
            # that overflows in a later stage is caught there
            stops = {j: (RunStatus.OVERFLOW, exc.stage_index)
                     for j in np.flatnonzero(exc.rows).tolist()}
            continue
        n_steps += 1
        k = eval_rhs(t, ws.yh, ps, g, ws)
        for i, c in zip(live, chars or []):
            m = members[i]
            m.traj.char = c
            if c.near_boundary and not m.warned_boundary:
                logger.warning(
                    "characteristic evaluation points within %.0f%% of the "
                    "domain half-width at t=%.6g; transport residuals may "
                    "degrade", 100 * (1 - BOUNDARY_MARGIN), c.t)
                m.warned_boundary = True

        if n_steps % diag.every == 0:
            record(live, k, dt.tolist(), n_steps)
        if diag.snapshot_every > 0 and n_steps % diag.snapshot_every == 0:
            snapshot(live, k, n_steps)

        stops = {}
        if ctl.resolution_tol is not None:
            for j, pair in enumerate(zip(*g.tail_fraction(k.yh).tolist())):
                tail = max(pair)
                if tail > ctl.resolution_tol:
                    stops[j] = (RunStatus.RESOLUTION_LOST, None)
                    logger.info("resolution lost at t=%.6g: tail fraction %.3g "
                                "> %.3g", k.t[j], tail, ctl.resolution_tol)
        stops = ended(stops)

    return [m.traj for m in members], [m.report for m in members]


def run(
    s0: State,
    p: ModelParams,
    ctl: StepControl,
    g: Grid,
    diag: DiagSettings | None = None,
) -> tuple[Trajectory, RunReport]:
    """Integrate s0 until t_end, lost resolution, or overflow: run_batch
    of a batch of one, whose docstring says when each stop fires."""
    (traj,), (report,) = run_batch([s0], [p], ctl, g, diag)
    return traj, report

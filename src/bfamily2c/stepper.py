"""Classical RK4 time stepping with CFL control and blow-up detection.

A run declares blow-up only when two independent signals agree: the
scenario-relevant gradient quantity exceeds the configured threshold
AND the CFL step selector has collapsed to its floor.  Either signal
alone is routinely a false positive (a steep but resolved front, or a
transiently large velocity); overflow anywhere is always terminal.
The numerically detected time is intrinsically a lower estimate of the
true breakdown time, which is what makes comparison against the
closed-form upper bounds meaningful.

A grid can stop resolving a steepening solution long before either
signal fires: the 2/3 rule keeps u band-limited to
kmax = (N/3) pi / L, so by Bernstein's inequality
||u_x||_inf <= kmax ||u||_inf, while the collapse needs
||u_x||_inf > cfl / dt_min (3e8 at the defaults).  An optional stop on
the spectral tail (StepControl.resolution_tol) ends such a run with
its own status, distinct from blow-up detection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .characteristics import (BOUNDARY_MARGIN, CharField,
                              advance_characteristics, init_characteristics,
                              transport_residual)
from .diagnostics import (DiagRecord, SymmetryMode, fill_identity_residuals,
                          make_record)
from .dynamics import State, Tendency, eval_rhs
from .model import Branch, Framework, ModelParams, classify_scenario
from .spectral import Grid

logger = logging.getLogger(__name__)


class RunStatus(Enum):
    REACHED_T_END = "reached_t_end"
    BLOW_UP_DETECTED = "blow_up_detected"
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


class BlowupQuantity(Enum):
    MIN_UX = "min_ux"
    MAX_UX = "max_ux"
    SUP_RHOX = "sup_rhox"


class OverflowSignal(FloatingPointError):
    """Raised when an RK4 stage (or the combine) produced non-finite values."""

    def __init__(self, stage_index: int, t: float):
        super().__init__(f"overflow in RK4 stage {stage_index} at t={t:.6g}")
        self.stage_index = stage_index
        self.t = t


@dataclass(frozen=True)
class StepControl:
    """Step-size and termination policy of a run.

    Blow-up is detected on a watched gradient above
    max(blowup_grad_threshold, cfl / dt_min): below cfl / dt_min the
    step never collapses (see choose_dt).  resolution_tol, when set,
    ends the run once Grid.tail_fraction of u or rho exceeds it; None
    (the default) never stops on resolution.
    """

    t_end: float
    cfl: float = 0.3
    dt_min: float = 1e-9
    dt_max: float = 0.1
    blowup_grad_threshold: float = 1e4
    dealias: bool = True
    framework: Framework = Framework.HS
    resolution_tol: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        if not self.blowup_grad_threshold > 0.0:
            raise ValueError("blowup_grad_threshold must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if self.resolution_tol is not None and not (
                0.0 < self.resolution_tol < math.inf):
            raise ValueError("resolution_tol must be positive and finite, "
                             f"got {self.resolution_tol}")


@dataclass(frozen=True)
class DtChoice:
    dt: float
    collapsed: bool  # the unclamped value fell below dt_min
    raw: float


def choose_dt(s: State, p: ModelParams, ctl: StepControl, g: Grid,
              ux: np.ndarray) -> DtChoice:
    """CFL-limited step:  dt = cfl dx / max(1, (1+|k3|) ||u||_inf),
    additionally capped by cfl / max(1, ||u_x||_inf) so per-step
    gradient growth stays bounded, then clamped to [dt_min, dt_max].
    ux is the u_x of s (run() passes the one its stage 1 computed).
    """
    umax = float(np.max(np.abs(s.u)))
    uxmax = float(np.max(np.abs(ux)))
    raw = ctl.cfl * g.dx / max(1.0, (1.0 + abs(p.k3)) * umax)
    raw = min(raw, ctl.cfl / max(1.0, uxmax))
    dt = min(max(raw, ctl.dt_min), ctl.dt_max)
    return DtChoice(dt=dt, collapsed=raw < ctl.dt_min, raw=raw)


def _stage_tendency(s: State, p: ModelParams, g: Grid, dealias: bool,
                    stage: int) -> Tendency:
    """eval_rhs of one RK4 stage; overflow raises OverflowSignal(stage, s.t)."""
    try:
        return eval_rhs(s, p, g, dealias=dealias)
    except FloatingPointError as exc:
        raise OverflowSignal(stage, s.t) from exc


def step_rk4(
    s: State,
    dt: float,
    p: ModelParams,
    g: Grid,
    dealias: bool = True,
    k1: Tendency | None = None,
) -> tuple[State, list[tuple[float, np.ndarray, np.ndarray]]]:
    """One classical RK4 step: the new state and the four stage fields.

    k1 is the stage-1 tendency of s when the caller has it (run() takes
    its u_x for the step size); otherwise it is evaluated here.
    Stage fields (t, u, u_x) at offsets (0, dt/2, dt/2, dt) are what the
    characteristic ODE needs to advance through the same interval; u_x
    is the one each stage's tendency computed.
    Overflow in any stage raises OverflowSignal with the stage index.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t, y = s.t, s.y
    k = k1 if k1 is not None else _stage_tendency(s, p, g, dealias, 0)
    ks, stages = [k], [(t, s.u, k.ux)]
    for stage, w in ((1, 0.5), (2, 0.5), (3, 1.0)):
        si = State(t=t + w * dt, y=y + w * dt * k.dy)
        k = _stage_tendency(si, p, g, dealias, stage)
        ks.append(k)
        stages.append((si.t, si.u, k.ux))

    a, b, c, d = ks
    y_new = y + (dt / 6.0) * (a.dy + 2.0 * b.dy + 2.0 * c.dy + d.dy)
    if not np.all(np.isfinite(y_new)):
        raise OverflowSignal(4, t)
    return State(t=t + dt, y=y_new), stages


@dataclass(frozen=True)
class BlowupDiagnostic:
    quantity: BlowupQuantity
    value: float
    location_index: int
    t_detected: float


@dataclass(frozen=True)
class RunReport:
    status: RunStatus
    t_final: float
    n_steps: int
    blowup: BlowupDiagnostic | None = None
    overflow_stage: int | None = None


@dataclass
class DiagSettings:
    """What the run loop records, and how often."""

    every: int = 1                  # diagnostic record cadence in steps
    hs_order: float = 2.0           # s of the monitored H^s norm of u
    symmetry_mode: SymmetryMode | None = None
    char_stride: int = 4            # 0 disables characteristics
    snapshot_every: int = 0         # 0 disables field snapshots


@dataclass
class Trajectory:
    records: list[DiagRecord] = field(default_factory=list)
    snapshots: list[tuple[int, State]] = field(default_factory=list)
    char: CharField | None = None


def _detection_candidates(
    branch: Branch,
    rho_x_relevant: bool,
    ux: np.ndarray,
    rhox: np.ndarray,
    threshold: float,
):
    """(quantity, signed value, node index) for each watched gradient over threshold."""
    hits = []
    if branch in (Branch.NEG_INF_UX, Branch.TWO_SIDED_UX):
        j = int(np.argmin(ux))
        if -ux[j] > threshold:
            hits.append((BlowupQuantity.MIN_UX, float(ux[j]), j))
    if branch in (Branch.POS_INF_UX, Branch.TWO_SIDED_UX):
        j = int(np.argmax(ux))
        if ux[j] > threshold:
            hits.append((BlowupQuantity.MAX_UX, float(ux[j]), j))
    if rho_x_relevant:
        j = int(np.argmax(np.abs(rhox)))
        if abs(rhox[j]) > threshold:
            hits.append((BlowupQuantity.SUP_RHOX, float(abs(rhox[j])), j))
    return hits


def run(
    s0: State,
    p: ModelParams,
    ctl: StepControl,
    g: Grid,
    diag: DiagSettings | None = None,
    hooks: Sequence[Callable[[int, State], None]] = (),
) -> tuple[Trajectory, RunReport]:
    """Integrate until t_end, blow-up detection, lost resolution, or overflow.

    Detection: the branch-relevant gradient quantity (per
    classify_scenario under ctl.framework) exceeds
    ctl.blowup_grad_threshold while choose_dt is pinned at dt_min, so
    in effect it must exceed max(blowup_grad_threshold, cfl / dt_min).
    The final time of a detected run is a lower estimate of the true
    breakdown time.

    Lost resolution: with ctl.resolution_tol set, every accepted step
    whose u or rho has a tail fraction above it ends the run with
    RESOLUTION_LOST; rho is watched too because it compresses before
    u steepens.  Detection on the same step takes precedence.  Either
    way the stopping state is the final record.

    Each accepted state is evaluated once: its stage-1 tendency gives
    choose_dt the u_x and is stage 1 of the next step, and an overflow
    there ends the run with overflow_stage 0.  The watched slopes are
    differentiated only after a step that collapsed short of t_end.

    Identical inputs produce bit-identical trajectories on one
    platform.
    """
    diag = diag or DiagSettings()
    scenario = classify_scenario(p, ctl.framework)

    char = (init_characteristics(s0.rho, p, g, diag.char_stride)
            if diag.char_stride > 0 else None)
    warned_boundary = False

    traj = Trajectory()
    s = s0
    n_steps = 0
    status = RunStatus.REACHED_T_END
    blowup: BlowupDiagnostic | None = None
    overflow_stage: int | None = None
    last_recorded = -1

    def record(state: State, dt_used: float) -> None:
        nonlocal last_recorded
        tres = math.nan
        qxmin = math.nan
        if char is not None:
            tres = transport_residual(state, char, p, g)
            qxmin = float(np.min(char.qx))
        traj.records.append(make_record(
            state, dt_used, p, g,
            step=n_steps,
            hs_order=diag.hs_order,
            symmetry_mode=diag.symmetry_mode,
            transport_res=tres,
            qx_min=qxmin,
        ))
        last_recorded = n_steps

    def snapshot(state: State) -> None:
        traj.snapshots.append((n_steps, State(t=state.t, y=state.y.copy())))

    record(s, 0.0)
    if diag.snapshot_every > 0:
        snapshot(s)

    t_eps = 1e-12 * max(1.0, ctl.t_end)
    while ctl.t_end - s.t > t_eps:
        try:
            k1 = _stage_tendency(s, p, g, ctl.dealias, 0)
            choice = choose_dt(s, p, ctl, g, k1.ux)
            dt = min(choice.dt, ctl.t_end - s.t)
            s_new, stages = step_rk4(s, dt, p, g, dealias=ctl.dealias, k1=k1)
            if char is not None:
                char = advance_characteristics(char, stages, p, g, dt)
                if char.near_boundary and not warned_boundary:
                    logger.warning(
                        "characteristic evaluation points within %.0f%% of the "
                        "domain half-width at t=%.6g; transport residuals may "
                        "degrade", 100 * (1 - BOUNDARY_MARGIN), char.t)
                    warned_boundary = True
        except OverflowSignal as exc:
            status = RunStatus.OVERFLOW
            overflow_stage = exc.stage_index
            logger.warning("overflow at t=%.6g (stage %d); terminating run",
                           s.t, exc.stage_index)
            break
        s = s_new
        n_steps += 1
        for hook in hooks:
            hook(n_steps, s)

        if n_steps % diag.every == 0:
            record(s, dt)
        if diag.snapshot_every > 0 and n_steps % diag.snapshot_every == 0:
            snapshot(s)

        # only a collapsed step short of t_end can report blow-up
        if choice.collapsed and ctl.t_end - s.t > t_eps:
            ux, rhox = g.derivative(s.y, 1)
            hits = _detection_candidates(scenario.branch, scenario.rho_x_relevant,
                                         ux, rhox, ctl.blowup_grad_threshold)
            if hits:
                quantity, value, j = max(hits, key=lambda h: abs(h[1]))
                blowup = BlowupDiagnostic(quantity=quantity, value=value,
                                          location_index=j, t_detected=s.t)
                status = RunStatus.BLOW_UP_DETECTED
                logger.info("blow-up detected at t=%.6g: %s=%.6g at x=%.6g",
                            s.t, quantity.value, value, g.x[j])
                break
        if ctl.resolution_tol is not None:
            tail = max(g.tail_fraction(s.u), g.tail_fraction(s.rho))
            if tail > ctl.resolution_tol:
                status = RunStatus.RESOLUTION_LOST
                logger.info("resolution lost at t=%.6g: tail fraction %.3g "
                            "> %.3g", s.t, tail, ctl.resolution_tol)
                break

    if last_recorded != n_steps:
        # final row: dt column holds the time elapsed since the previous record
        record(s, s.t - traj.records[-1].t)
    if diag.snapshot_every > 0 and (not traj.snapshots
                                    or traj.snapshots[-1][0] != n_steps):
        snapshot(s)

    fill_identity_residuals(traj.records)
    traj.char = char
    report = RunReport(status=status, t_final=s.t, n_steps=n_steps,
                       blowup=blowup, overflow_stage=overflow_stage)
    return traj, report

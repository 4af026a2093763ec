import logging
import math

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Framework, Grid, InitKind,
                       InitSpec, OverflowSignal, RunStatus, State,
                       StepControl, build_initial, choose_dt, custom_params,
                       make_params, run, step_rk4)
from bfamily2c import stepper


def smooth_state(g: Grid) -> State:
    return State(0.0, np.stack([np.exp(-g.x**2), 0.5 * np.exp(-g.x**2)]))


# ----------------------------------------------------------------------
# step-size selection

def test_choose_dt_formula(grid20, params_b2):
    s = smooth_state(grid20)
    ctl = StepControl(t_end=1.0, cfl=0.3)
    ux = grid20.derivative(s.u, 1)
    umax = float(np.max(np.abs(s.u)))
    uxmax = float(np.max(np.abs(ux)))
    raw = min(0.3 * grid20.dx / max(1.0, 2.0 * umax),  # (1+|k3|) = 2
              0.3 / max(1.0, uxmax))
    choice = choose_dt(s, params_b2, ctl, grid20, ux)
    assert choice.raw == pytest.approx(raw, rel=1e-14)
    assert choice.dt == choice.raw  # inside [dt_min, dt_max]
    assert not choice.collapsed


def test_choose_dt_clamps_to_dt_max(grid20, params_b2):
    # quiescent data: raw = cfl*dx ~ 0.047, well above the cap below
    s = State(0.0, np.stack([1e-8 * np.exp(-grid20.x**2), np.zeros(grid20.N)]))
    choice = choose_dt(s, params_b2, StepControl(t_end=1.0, dt_max=0.01),
                       grid20, grid20.derivative(s.u, 1))
    assert choice.raw > 0.01
    assert choice.dt == 0.01
    assert not choice.collapsed


def test_choose_dt_collapse_flag(grid20, params_b2):
    s = State(0.0, np.stack([1e9 * np.exp(-grid20.x**2), np.zeros(grid20.N)]))
    ctl = StepControl(t_end=1.0, dt_min=1e-6)
    choice = choose_dt(s, params_b2, ctl, grid20, grid20.derivative(s.u, 1))
    assert choice.collapsed
    assert choice.dt == 1e-6
    assert choice.raw < 1e-6


@pytest.mark.parametrize("kwargs", [
    dict(t_end=0.0), dict(t_end=-1.0), dict(t_end=1.0, cfl=0.0),
    dict(t_end=1.0, cfl=1.5), dict(t_end=1.0, dt_min=0.0),
    dict(t_end=1.0, dt_min=0.2, dt_max=0.1),
    dict(t_end=1.0, blowup_grad_threshold=0.0),
    dict(t_end=1.0, resolution_tol=0.0), dict(t_end=1.0, resolution_tol=-1e-12),
    dict(t_end=1.0, resolution_tol=math.inf),
    dict(t_end=1.0, resolution_tol=math.nan),
])
def test_step_control_validation(kwargs):
    with pytest.raises(ValueError):
        StepControl(**kwargs)


# ----------------------------------------------------------------------
# the RK4 step

def test_step_rk4_fourth_order(grid20, params_b2):
    def advance(dt, t_end=0.2):
        s = smooth_state(grid20)
        for _ in range(round(t_end / dt)):
            s, _ = step_rk4(s, dt, params_b2, grid20)
        return s

    ref = advance(5e-4)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        s = advance(dt)
        errs.append(np.max(np.abs(s.u - ref.u)) + np.max(np.abs(s.rho - ref.rho)))
    assert 13.0 < errs[0] / errs[1] < 20.0
    assert 13.0 < errs[1] / errs[2] < 20.0


def test_step_rk4_validates_dt(grid20, params_b2):
    with pytest.raises(ValueError):
        step_rk4(smooth_state(grid20), 0.0, params_b2, grid20)


def test_step_rk4_overflow_signal(grid20, params_b2):
    s = State(0.0, np.stack([np.full(grid20.N, 1e200), np.zeros(grid20.N)]))
    with pytest.raises(OverflowSignal) as exc:
        step_rk4(s, 1e-3, params_b2, grid20)
    assert exc.value.stage_index == 0


def test_step_rk4_returns_stage_fields(grid20, params_b2):
    s = smooth_state(grid20)
    out, stages = step_rk4(s, 1e-2, params_b2, grid20)
    assert len(stages) == 4
    assert stages[0][0] == 0.0
    assert stages[1][0] == stages[2][0] == 0.5e-2
    assert stages[3][0] == 1e-2
    assert np.array_equal(stages[0][1], s.u)
    # each stage's u_x is the one its tendency computed, bit for bit
    for _, u, ux in stages:
        assert np.array_equal(ux, grid20.derivative(u, 1))
    assert out.t == 1e-2


def test_step_rk4_evaluates_each_stage_at_its_time(grid20, params_b2,
                                                   monkeypatch):
    # a time-dependent term would see these times; the start time at
    # every stage integrates it to first order only
    times, real = [], stepper.eval_rhs

    def spy(s, *args, **kwargs):
        times.append(s.t)
        return real(s, *args, **kwargs)

    def overflow(s, *args, **kwargs):
        raise FloatingPointError("overflow")

    s = State(0.25, smooth_state(grid20).y)
    monkeypatch.setattr(stepper, "eval_rhs", spy)
    _, stages = step_rk4(s, 1e-2, params_b2, grid20)
    assert times == [t for t, _, _ in stages] == [0.25, 0.25 + 0.5e-2,
                                                  0.25 + 0.5e-2, 0.25 + 1e-2]
    # an overflow in a later stage names that stage's time
    monkeypatch.setattr(stepper, "eval_rhs", overflow)
    with pytest.raises(OverflowSignal) as exc:
        step_rk4(s, 1e-2, params_b2, grid20, k1=real(s, params_b2, grid20))
    assert (exc.value.stage_index, exc.value.t) == (1, 0.25 + 0.5e-2)


# ----------------------------------------------------------------------
# the run loop

def test_run_reaches_t_end_exactly(grid20, params_b2):
    traj, rep = run(smooth_state(grid20), params_b2,
                    StepControl(t_end=0.1), grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END
    assert rep.t_final == 0.1
    assert traj.records[0].t == 0.0
    assert traj.records[-1].t == 0.1
    assert rep.blowup is None


def test_run_record_cadence_and_final_row(grid20, params_b2):
    diag = DiagSettings(every=3, char_stride=0)
    traj, rep = run(smooth_state(grid20), params_b2,
                    StepControl(t_end=0.1), grid20, diag=diag)
    steps = [r.step for r in traj.records]
    assert steps[0] == 0
    assert all(s % 3 == 0 for s in steps[:-1])
    assert steps[-1] == rep.n_steps  # final state always recorded
    assert sorted(steps) == steps


def test_run_snapshots(grid20, params_b2):
    diag = DiagSettings(char_stride=0, snapshot_every=2)
    traj, rep = run(smooth_state(grid20), params_b2,
                    StepControl(t_end=0.05), grid20, diag=diag)
    assert traj.snapshots[0][0] == 0
    assert traj.snapshots[-1][0] == rep.n_steps
    for step, state in traj.snapshots:
        assert state.u.shape == (grid20.N,)


def test_run_hooks_called_every_step(grid20, params_b2):
    seen = []
    run(smooth_state(grid20), params_b2, StepControl(t_end=0.05), grid20,
        diag=DiagSettings(char_stride=0),
        hooks=[lambda n, s: seen.append((n, s.t))])
    assert [n for n, _ in seen] == list(range(1, len(seen) + 1))


def test_run_is_deterministic(grid20, params_b2):
    ctl = StepControl(t_end=0.1)
    t1, _ = run(smooth_state(grid20), params_b2, ctl, grid20)
    t2, _ = run(smooth_state(grid20), params_b2, ctl, grid20)
    assert len(t1.records) == len(t2.records)
    for a, b in zip(t1.records, t2.records):
        assert a.e1 == b.e1 and a.max_ux == b.max_ux and a.hs_u == b.hs_u


def test_run_overflow_status(grid20, params_b2):
    s = State(0.0, np.stack([np.full(grid20.N, 1e200), np.zeros(grid20.N)]))
    traj, rep = run(s, params_b2, StepControl(t_end=1.0), grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.OVERFLOW
    assert rep.overflow_stage == 0
    assert rep.t_final < 1.0


def test_boundary_warning_names_margin_and_crossing_time(caplog):
    # u = 1 moves every characteristic by t; with k3 = 4 on L = 4 the
    # last interior label, -k3 x = -3.5, passes -0.95 L = -3.8 once
    # t > 0.075, and the warning names the end of that step
    g = Grid(4.0, 64)
    s0 = State(0.0, np.stack([np.ones(g.N), np.zeros(g.N)]))
    with caplog.at_level(logging.WARNING, logger="bfamily2c.stepper"):
        traj, rep = run(s0, custom_params(2.0, 4.0, 4.0),
                        StepControl(t_end=0.2), g,
                        diag=DiagSettings(char_stride=1))
    assert rep.status is RunStatus.REACHED_T_END
    warned = [r.getMessage() for r in caplog.records
              if "domain half-width" in r.getMessage()]
    t_cross = min(r.t for r in traj.records if 4.0 * (0.875 + r.t) > 3.8)
    assert warned == [
        "characteristic evaluation points within 5% of the domain "
        f"half-width at t={t_cross:.6g}; transport residuals may degrade"]


def test_detection_needs_both_signals(grid20, params_b2):
    # gradient over threshold but dt not collapsed: no blow-up verdict
    s0 = build_initial(InitSpec(InitKind.ODD_GAUSSIAN),
                       InitSpec(InitKind.ZERO), grid20)
    ctl = StepControl(t_end=0.02, blowup_grad_threshold=0.1)
    traj, rep = run(s0, params_b2, ctl, grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END

    # same threshold with a dt floor above the CFL choice (raw ~ 0.047
    # on this grid): the two signals now agree and the run stops early
    ctl = StepControl(t_end=0.12, blowup_grad_threshold=0.1,
                      dt_min=0.05, dt_max=0.05)
    traj, rep = run(s0, params_b2, ctl, grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.BLOW_UP_DETECTED
    assert rep.blowup is not None
    assert rep.t_final < 0.12
    assert rep.blowup.t_detected == rep.t_final
    assert abs(rep.blowup.value) > 0.1
    assert traj.records[-1].t == rep.t_final


def test_detection_never_fires_at_t_end(grid20, params_b2):
    # a run that lands exactly on t_end reports reached_t_end even if
    # the gradient is over threshold on the last step
    s0 = build_initial(InitSpec(InitKind.ODD_GAUSSIAN),
                       InitSpec(InitKind.ZERO), grid20)
    ctl = StepControl(t_end=0.05, blowup_grad_threshold=0.1,
                      dt_min=0.05, dt_max=0.05)
    traj, rep = run(s0, params_b2, ctl, grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END
    assert rep.t_final == 0.05


def test_resolution_stop_idle_on_resolved_run(params_b2):
    # tail fraction stays below 1e-11 on this run, so the stop never
    # fires and the trajectory is the one of a run without it
    g = Grid(10.0, 256)
    diag = DiagSettings(char_stride=0)
    ctl = StepControl(t_end=0.1)
    assert ctl.resolution_tol is None
    t1, r1 = run(smooth_state(g), params_b2, ctl, g, diag=diag)
    t2, r2 = run(smooth_state(g), params_b2,
                 StepControl(t_end=0.1, resolution_tol=1e-8), g, diag=diag)
    assert r2.status is r1.status is RunStatus.REACHED_T_END
    assert r2 == r1
    # float repr round-trips exactly, and nan fields compare equal
    assert [repr(r) for r in t2.records] == [repr(r) for r in t1.records]


def test_resolution_stop_ends_steepening_run(params_b2):
    g = Grid(10.0, 256)
    s0 = build_initial(InitSpec(InitKind.ODD_GAUSSIAN),
                       InitSpec(InitKind.ZERO), g)
    tails = []
    traj, rep = run(s0, params_b2, StepControl(t_end=2.0, resolution_tol=1e-8),
                    g, diag=DiagSettings(every=3, char_stride=0),
                    hooks=[lambda n, s: tails.append(g.tail_fraction(s.u))])
    assert rep.status is RunStatus.RESOLUTION_LOST
    assert rep.blowup is None
    assert rep.t_final < 2.0
    # the run stops on the first step whose tail crosses the tolerance
    assert len(tails) == rep.n_steps > 1
    assert tails[-1] > 1e-8 and max(tails[:-1]) <= 1e-8
    assert traj.records[-1].t == rep.t_final
    assert traj.records[-1].step == rep.n_steps


def test_framework_changes_watched_quantities(grid20):
    # H2 framework ignores rho_x; HS watches it.  With a rho front much
    # steeper than u, only the HS run can report SUP_RHOX.
    p = make_params(CaseTag.CASE_I, 2.0)
    u = 0.05 * grid20.x * np.exp(-grid20.x**2)
    rho = 0.3 * np.sin(40 * np.pi / grid20.L * grid20.x) * np.exp(-grid20.x**2)
    s0 = State(0.0, np.stack([u, rho]))
    kw = dict(t_end=0.2, blowup_grad_threshold=1.0, dt_min=0.05, dt_max=0.05)
    _, rep_hs = run(s0, p, StepControl(framework=Framework.HS, **kw),
                    grid20, diag=DiagSettings(char_stride=0))
    _, rep_h2 = run(s0, p, StepControl(framework=Framework.H2, **kw),
                    grid20, diag=DiagSettings(char_stride=0))
    assert rep_hs.status is RunStatus.BLOW_UP_DETECTED
    assert rep_hs.blowup.quantity.value == "sup_rhox"
    assert rep_h2.status is RunStatus.REACHED_T_END

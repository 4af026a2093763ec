import logging
import math

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Grid, InitKind,
                       InitSpec, OverflowSignal, ParamStack, RunStatus, State,
                       StepControl, SymmetryMode, build_initial, choose_dt,
                       Workspace, custom_params, eval_rhs,
                       init_characteristics, make_params, run, run_batch,
                       step_rk4)
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
    assert choice.dt == pytest.approx(raw, rel=1e-14)  # inside [dt_min, dt_max]
    assert not choice.collapsed


def test_choose_dt_clamps_to_dt_max(grid20, params_b2):
    # quiescent data: raw = cfl*dx ~ 0.047, well above the cap below
    s = State(0.0, np.stack([1e-8 * np.exp(-grid20.x**2), np.zeros(grid20.N)]))
    ux = grid20.derivative(s.u, 1)
    assert choose_dt(s, params_b2, StepControl(t_end=1.0), grid20, ux).dt > 0.01
    choice = choose_dt(s, params_b2, StepControl(t_end=1.0, dt_max=0.01),
                       grid20, ux)
    assert choice.dt == 0.01
    assert not choice.collapsed


def test_choose_dt_collapse_flag(grid20, params_b2):
    s = State(0.0, np.stack([1e9 * np.exp(-grid20.x**2), np.zeros(grid20.N)]))
    ctl = StepControl(t_end=1.0, dt_min=1e-6)
    choice = choose_dt(s, params_b2, ctl, grid20, grid20.derivative(s.u, 1))
    assert choice.collapsed
    assert choice.dt == 1e-6


@pytest.mark.parametrize("kwargs", [
    dict(t_end=0.0), dict(t_end=-1.0), dict(t_end=1.0, cfl=0.0),
    dict(t_end=1.0, cfl=1.5), dict(t_end=1.0, dt_min=0.0),
    dict(t_end=1.0, dt_min=0.2, dt_max=0.1),
    dict(t_end=1.0, resolution_tol=0.0), dict(t_end=1.0, resolution_tol=-1e-12),
    dict(t_end=1.0, resolution_tol=math.inf),
    dict(t_end=1.0, resolution_tol=math.nan),
])
def test_step_control_validation(kwargs):
    with pytest.raises(ValueError):
        StepControl(**kwargs)


# ----------------------------------------------------------------------
# the RK4 step

def _step(t, ws, ps, g, dt, char=None):
    """One RK4 step of the batch in ws from its own evaluation."""
    return step_rk4(eval_rhs(t, ws.yh, ps, g, ws), dt, ps, g, ws, char=char)


def test_step_rk4_fourth_order(grid20, params_b2, batch_of_one):
    def advance(dt, t_end=0.2):
        (t, ws), ps = batch_of_one(smooth_state(grid20), grid20), ParamStack([params_b2])
        for _ in range(round(t_end / dt)):
            t, _ = _step(t, ws, ps, grid20, np.array([dt]))
        return np.fft.irfft(ws.yh[:, 0], n=grid20.N)

    ref = advance(5e-4)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        y = advance(dt)
        errs.append(np.max(np.abs(y[0] - ref[0])) + np.max(np.abs(y[1] - ref[1])))
    assert 13.0 < errs[0] / errs[1] < 20.0
    assert 13.0 < errs[1] / errs[2] < 20.0


def test_step_rk4_validates_dt(grid20, params_b2, batch_of_one):
    (t, ws), ps = batch_of_one(smooth_state(grid20), grid20), ParamStack([params_b2])
    with pytest.raises(ValueError):
        _step(t, ws, ps, grid20, np.array([0.0]))


def test_step_rk4_overflow_signal(grid20, params_b2, batch_of_one):
    # u = 1e200 overflows in k1, which the caller gates, so the step's
    # first gate to see it is stage 1's
    s = State(0.0, np.stack([np.full(grid20.N, 1e200), np.zeros(grid20.N)]))
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([params_b2])
    with pytest.raises(OverflowSignal) as exc:
        _step(t, ws, ps, grid20, np.array([1e-3]))
    assert exc.value.stage_index == 1
    assert exc.value.rows.tolist() == [True]
    # the signal marks each member whose tendency is not finite, and
    # leaves the spectra alone
    ok = smooth_state(grid20)
    ws = Workspace.for_states([ok, s, ok], grid20)
    yh0, ps = ws.yh.copy(), ParamStack([params_b2] * 3)
    with pytest.raises(OverflowSignal) as exc:
        _step(np.zeros(3), ws, ps, grid20, np.full(3, 1e-3))
    assert exc.value.stage_index == 1
    assert exc.value.rows.tolist() == [False, True, False]
    assert np.array_equal(ws.yh, yh0)


def test_step_rk4_characteristics_leave_the_state_alone(grid20, params_b2,
                                                        batch_of_one):
    # the characteristics ride the PDE's stages without feeding back
    (t, ws), ps, dt = batch_of_one(smooth_state(grid20), grid20), \
        ParamStack([params_b2]), np.array([1e-2])
    (_, ws_c) = batch_of_one(smooth_state(grid20), grid20)
    t_new, none = _step(t, ws, ps, grid20, dt)
    assert none is None
    c = init_characteristics(smooth_state(grid20).rho, params_b2, grid20)
    t_c, (c,) = _step(t, ws_c, ps, grid20, dt, char=[c])
    assert np.array_equal(ws_c.yh, ws.yh)
    assert t_c.tolist() == t_new.tolist() == [c.t] == [1e-2]
    assert np.all(np.isfinite(c.q)) and np.all(c.qx > 0.0)


def test_step_rk4_evaluates_each_stage_at_its_time(grid20, params_b2,
                                                   monkeypatch, batch_of_one):
    # a time-dependent term would see these times; the start time at
    # every stage integrates it to first order only
    times, real = [], stepper.eval_rhs

    def spy(t, *args, **kwargs):
        times.append(t.tolist())
        return real(t, *args, **kwargs)

    def overflow(*args, **kwargs):
        k = real(*args, **kwargs)
        k.dyh[1, 0, 3] = np.inf
        return k

    (t, ws), ps, dt = batch_of_one(State(0.25, smooth_state(grid20).y), grid20), \
        ParamStack([params_b2]), np.array([1e-2])
    monkeypatch.setattr(stepper, "eval_rhs", spy)
    step_rk4(spy(t, ws.yh, ps, grid20, ws), dt, ps, grid20, ws)
    assert times == [[0.25], [0.25 + 0.5e-2], [0.25 + 0.5e-2], [0.25 + 1e-2]]
    # an overflow in a later stage names that stage's time
    monkeypatch.setattr(stepper, "eval_rhs", overflow)
    with pytest.raises(OverflowSignal) as exc:
        step_rk4(real(t, ws.yh, ps, grid20, ws), dt, ps, grid20, ws)
    assert exc.value.stage_index == 1
    assert exc.value.t.tolist() == [0.25 + 0.5e-2]
    assert exc.value.rows.tolist() == [True]


def test_dealiased_run_keeps_the_dropped_bins_of_the_start(grid20, params_b2,
                                                          monkeypatch, rng):
    # the tendencies and the combine touch only the bins below n_keep,
    # so every accepted spectrum keeps the others of rfft(y0) bit for
    # bit; rho's mean bin never changes either, so int rho dx is exact
    accepted, real = [], stepper.eval_rhs

    def spy(t, yh, p, g, ws=None, stage=0):
        if stage == 0:
            accepted.append(yh[:, 0].copy())
        return real(t, yh, p, g, ws, stage)

    monkeypatch.setattr(stepper, "eval_rhs", spy)
    y0 = np.exp(-grid20.x**2) * (1.0 + 1e-3 * rng.standard_normal((2, grid20.N)))
    _, rep = run(State(0.0, y0), params_b2, StepControl(t_end=0.5), grid20,
                 diag=DiagSettings(char_stride=0))
    yh0, K = np.fft.rfft(y0), grid20.n_keep
    assert len(accepted) == rep.n_steps + 1 > 10
    assert all(np.array_equal(yh[:, K:], yh0[:, K:]) for yh in accepted)
    assert all(yh[1, 0] == yh0[1, 0] for yh in accepted)
    assert not np.array_equal(accepted[-1][:, 1:K], yh0[:, 1:K])


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


@pytest.mark.parametrize("t_end", [1e-13, 5e-13, 2e-12])
def test_run_reaches_a_tiny_t_end(grid20, params_b2, t_end):
    # the stop's tolerance is relative to t_end: an absolute 1e-12 ended
    # these runs at t = 0 after no step
    traj, rep = run(smooth_state(grid20), params_b2,
                    StepControl(t_end=t_end), grid20,
                    diag=DiagSettings(char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END
    assert rep.n_steps == 1
    assert rep.t_final == traj.records[-1].t == t_end


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


def test_run_is_deterministic(grid20, params_b2):
    # two runs on one Grid, each in its own Workspace: nothing leaks from
    # the first into the second
    ctl, diag = StepControl(t_end=0.1), DiagSettings(snapshot_every=3)
    t1, r1 = run(smooth_state(grid20), params_b2, ctl, grid20, diag)
    t2, r2 = run(smooth_state(grid20), params_b2, ctl, grid20, diag)
    assert r1 == r2
    assert [repr(r) for r in t1.records] == [repr(r) for r in t2.records]
    assert [(n, s.t) for n, s in t1.snapshots] == [(n, s.t) for n, s in t2.snapshots]
    assert all(np.array_equal(a.y, b.y)
               for (_, a), (_, b) in zip(t1.snapshots, t2.snapshots))


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
    traj, rep = run(s0, params_b2, StepControl(t_end=2.0, resolution_tol=1e-8),
                    g, diag=DiagSettings(every=3, char_stride=0, snapshot_every=1))
    tails = [g.tail_fraction(np.fft.rfft(s.u)) for _, s in traj.snapshots[1:]]
    assert rep.status is RunStatus.RESOLUTION_LOST
    assert rep.t_final < 2.0
    # the run stops on the first step whose tail crosses the tolerance
    assert len(tails) == rep.n_steps > 1
    assert tails[-1] > 1e-8 and max(tails[:-1]) <= 1e-8
    assert traj.records[-1].t == rep.t_final
    assert traj.records[-1].step == rep.n_steps


# ----------------------------------------------------------------------
# lockstep batches

def assert_same_run(batched, alone):
    (tb, rb), (ta, ra) = batched, alone
    assert rb == ra
    # float repr round-trips exactly, and nan fields compare equal
    assert [repr(r) for r in tb.records] == [repr(r) for r in ta.records]
    assert [(n, s.t) for n, s in tb.snapshots] == [(n, s.t) for n, s in ta.snapshots]
    assert all(np.array_equal(b.y, a.y)
               for (_, b), (_, a) in zip(tb.snapshots, ta.snapshots))
    assert (tb.char is None) == (ta.char is None)
    if ta.char is not None:
        assert tb.char.t == ta.char.t
        assert np.array_equal(tb.char.q, ta.char.q)
        assert np.array_equal(tb.char.accumulated_integral,
                              ta.char.accumulated_integral)


def _odd_u(g, amplitude, t0):
    s = build_initial(InitSpec(InitKind.ODD_GAUSSIAN),
                      InitSpec(InitKind.EVEN_BUMP_ZERO_AT_ORIGIN, amplitude=0.5), g)
    return State(t0, np.stack([amplitude * s.u, s.rho]))


@pytest.mark.parametrize("ctl, members, statuses", [
    # one member's initial state overflows in its evaluation, so it
    # leaves before step 1 and the others go on with their rows of it;
    # two lose resolution at steps 6 and 10 and two reach t_end at
    # steps 26 and 24
    (StepControl(t_end=0.6, resolution_tol=1e-8),
     [(0.2, CaseTag.CASE_I, 2.0), (1.0, CaseTag.CASE_I, 2.0),
      (1e160, CaseTag.CASE_I, 2.0), (0.2, CaseTag.CASE_II, 3.0),
      (0.1, CaseTag.CASE_II, 1.5)],
     ["reached_t_end", "resolution_lost", "overflow/0", "resolution_lost",
      "reached_t_end"]),
    # two overflows: 1e160 in the evaluation of the initial state
    # (stage 0), then 1e120 in stage 1 of step 1, which the others take
    # again
    (StepControl(t_end=0.6, resolution_tol=1e-8),
     [(0.2, CaseTag.CASE_I, 2.0), (1e120, CaseTag.CASE_I, 2.0),
      (1.0, CaseTag.CASE_I, 2.0), (1e160, CaseTag.CASE_I, 2.0),
      (0.1, CaseTag.CASE_II, 1.5)],
     ["reached_t_end", "overflow/1", "resolution_lost", "overflow/0",
      "reached_t_end"]),
    # dt pinned above the CFL step, so every step sits at dt_min
    (StepControl(t_end=0.12, dt_min=0.05, dt_max=0.05),
     [(1.0, CaseTag.CASE_I, 2.0), (0.01, CaseTag.CASE_I, 2.0)],
     ["reached_t_end", "reached_t_end"]),
], ids=["resolution_and_overflow", "two_overflow_stages", "dt_floor"])
def test_run_batch_members_match_their_single_runs(ctl, members, statuses):
    g = Grid(10.0, 256)
    diag = DiagSettings(every=2, char_stride=4, snapshot_every=5,
                        symmetry_mode=SymmetryMode.U_ODD_RHO_EVEN)
    # each member starts at its own time, so their clocks never agree
    states = [_odd_u(g, amp, 0.01 * i) for i, (amp, _, _) in enumerate(members)]
    params = [make_params(case, b) for _, case, b in members]
    trajs, reports = run_batch(states, params, ctl, g, diag)
    assert [r.status.value + ("" if r.overflow_stage is None
                              else f"/{r.overflow_stage}")
            for r in reports] == statuses
    for s0, p, traj, rep in zip(states, params, trajs, reports):
        assert_same_run((traj, rep), run(s0, p, ctl, g, diag))


def test_run_batch_needs_one_params_per_state(grid20, params_b2):
    with pytest.raises(ValueError):
        run_batch([smooth_state(grid20)] * 2, [params_b2], StepControl(t_end=0.1),
                  grid20)
    with pytest.raises(ValueError):
        run_batch([], [], StepControl(t_end=0.1), grid20)

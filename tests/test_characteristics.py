from types import SimpleNamespace

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Grid, InitKind, InitSpec,
                       OverflowSignal, ParamStack, State, StepControl,
                       build_initial, custom_params, eval_rhs,
                       init_characteristics, make_params, rho_sup_bound_check,
                       run, step_rk4, transport_residual)
from bfamily2c import stepper


def steady(g, value, rho=0.5):
    """u and rho constant: an exact steady state, so every RK4 stage
    has u = value and u_x = 0."""
    return State(0.0, np.stack([np.full(g.N, value), np.full(g.N, rho)]))


def flat(g):
    return np.zeros(g.N)


def test_init_layout(grid20, params_b2):
    c = init_characteristics(flat(grid20), params_b2, grid20, stride=4)
    assert np.array_equal(c.labels, grid20.x[::4])
    assert np.array_equal(c.q, c.labels)
    assert np.all(c.qx == 1.0)
    assert np.all(c.accumulated_integral == 0.0)
    with pytest.raises(ValueError):
        init_characteristics(flat(grid20), params_b2, grid20, stride=0)


def test_init_evaluates_rho0_at_scaled_labels(grid20):
    # rho0(-k3 x) at the labels, with -k3 x wrapping past the domain
    p = make_params(CaseTag.CASE_II, 3.0)
    rho0 = np.cos(3 * np.pi * grid20.x / grid20.L)
    c = init_characteristics(rho0, p, grid20, stride=8)
    expect = np.cos(3 * np.pi * (-3.0 * c.labels) / grid20.L)
    assert np.max(np.abs(c.rho0_at_labels - expect)) < 1e-12


def test_constant_velocity_translates_exactly(grid20, params_b2, batch_of_one):
    # u = const: dq/dt = c exactly, u_x = 0 so qx stays 1
    dt, c_val = 0.25, 0.75
    s = steady(grid20, c_val)
    c = init_characteristics(s.rho, params_b2, grid20, stride=8)
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([params_b2])
    yh0 = ws.yh.copy()
    _, (c,) = step_rk4(eval_rhs(t, ws.yh, ps, grid20, ws), np.array([dt]), ps,
                       grid20, ws, char=[c])
    assert np.array_equal(ws.yh, yh0)
    assert np.allclose(c.q, c.labels + c_val * dt, atol=1e-12)
    assert np.allclose(c.qx, 1.0, atol=1e-14)
    assert c.t == dt


def test_zero_velocity_is_identity(grid20, params_b2, batch_of_one):
    dt = 0.3
    s = steady(grid20, 0.0)
    c = init_characteristics(s.rho, params_b2, grid20)
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([params_b2])
    _, (c,) = step_rk4(eval_rhs(t, ws.yh, ps, grid20, ws), np.array([dt]), ps,
                       grid20, ws, char=[c])
    assert np.array_equal(c.q, c.labels)
    assert np.all(c.qx == 1.0)
    assert not c.near_boundary


def test_near_boundary_flags_interior_drift(grid20, params_b2, batch_of_one):
    # push interior characteristics past 95% of the half-width
    s = steady(grid20, 1.0)
    c = init_characteristics(s.rho, params_b2, grid20, stride=8)
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([params_b2])
    for _ in range(30):
        t, (c,) = step_rk4(eval_rhs(t, ws.yh, ps, grid20, ws), np.array([1.0]), ps,
                           grid20, ws, char=[c])
    assert c.near_boundary


def test_k3_zero_never_flags(grid20, batch_of_one):
    p = custom_params(2.0, 4.0, 0.0)
    s = steady(grid20, 1.0)
    c = init_characteristics(s.rho, p, grid20, stride=8)
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([p])
    for _ in range(30):
        t, (c,) = step_rk4(eval_rhs(t, ws.yh, ps, grid20, ws), np.array([1.0]), ps,
                           grid20, ws, char=[c])
    assert not c.near_boundary


def test_non_finite_characteristic_update_is_an_overflow(grid20, params_b2,
                                                         batch_of_one):
    # the one gate after the combine covers q and the exponent too
    s = steady(grid20, 1.0)
    c = init_characteristics(s.rho, params_b2, grid20, stride=8)
    c.accumulated_integral[3] = np.inf
    (t, ws), ps = batch_of_one(s, grid20), ParamStack([params_b2])
    with pytest.raises(OverflowSignal) as exc:
        step_rk4(eval_rhs(t, ws.yh, ps, grid20, ws), np.array([0.1]), ps, grid20, ws,
                 char=[c])
    assert exc.value.stage_index == 4
    assert exc.value.t.tolist() == [0.0] and exc.value.rows.tolist() == [True]


def test_step_advances_characteristics_as_the_two_pass_reference(
        monkeypatch, reference_advance, batch_of_one):
    # the characteristic ODE rides the PDE's stages; the old second RK4
    # pass over the recorded (t, u, u_x) stage triples must agree bit for
    # bit.  case_ii b = 2 has k3 = 2, so -k3 q of the outer labels wraps.
    g = Grid(10.0, 256)
    p = make_params(CaseTag.CASE_II, 2.0)
    s = build_initial(InitSpec(InitKind.GAUSSIAN),
                      InitSpec(InitKind.GAUSSIAN, amplitude=0.5), g)
    c = ref = init_characteristics(s.rho, p, g, stride=2)
    (t, ws), ps = batch_of_one(s, g), ParamStack([p])
    stages, real = [], stepper.eval_rhs

    def spy(*args, **kwargs):
        # the stage of the batch's one member; its rows are the
        # workspace's, which the next stage overwrites
        k = real(*args, **kwargs)
        stages.append((k.t[0], k.u[0].copy(), k.ux[0].copy()))
        return k

    monkeypatch.setattr(stepper, "eval_rhs", spy)
    for _ in range(20):
        stages.clear()
        t, (c,) = step_rk4(spy(t, ws.yh, ps, g, ws), np.array([2e-2]), ps, g, ws,
                           char=[c])
        ref = reference_advance(ref, stages, p, g, 2e-2)
        assert c.t == ref.t
        assert np.array_equal(c.q, ref.q)
        assert np.array_equal(c.accumulated_integral, ref.accumulated_integral)
        assert np.array_equal(c.qx, ref.qx)
        assert c.near_boundary == ref.near_boundary
    assert np.max(np.abs(c.q - c.labels)) > 1e-3  # the labels did move


def test_transport_invariant_on_evolved_run():
    g = Grid(20.0, 512)
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = build_initial(InitSpec(InitKind.GAUSSIAN),
                       InitSpec(InitKind.GAUSSIAN, amplitude=0.5), g)
    traj, rep = run(s0, p, StepControl(t_end=0.25), g,
                    diag=DiagSettings(char_stride=4, snapshot_every=10**9))
    assert rep.status.value == "reached_t_end"
    final = traj.records[-1]
    assert final.transport_res < 1e-5
    assert final.qx_min > 0.0
    # recomputing from the final snapshot and characteristic field
    # reproduces the recorded residual exactly
    final_state = traj.snapshots[-1][1]
    res = transport_residual(final_state, traj.char, p, g)
    assert res == final.transport_res


def fake_records(ts, sup, lo=-0.5, hi=0.5):
    return [SimpleNamespace(t=t, min_ux=lo, max_ux=hi, sup_rho=s)
            for t, s in zip(ts, sup)]


def test_rho_bound_variants_applicability():
    ts = [0.0, 0.5, 1.0]
    recs = fake_records(ts, [1.0, 1.0, 1.0])
    res = {r.variant: r for r in rho_sup_bound_check(
        recs, custom_params(2, 4, 1)).variants}
    assert not res["k3_nonpositive"].applicable
    assert res["k3_nonnegative"].applicable
    assert res["absolute"].applicable
    res = {r.variant: r for r in rho_sup_bound_check(
        recs, custom_params(2, 4, -1)).variants}
    assert res["k3_nonpositive"].applicable
    assert not res["k3_nonnegative"].applicable


def test_rho_bound_exact_growth_accepted():
    # sup rho growing exactly like e^{k3 M t} sits on the bound
    k3, M = 1.0, 0.5
    ts = np.linspace(0.0, 2.0, 9)
    sup = np.exp(k3 * M * ts)
    recs = fake_records(ts, sup, lo=-M, hi=M)
    out = rho_sup_bound_check(recs, custom_params(2.0, 4.0, k3))
    assert out.ok and all(r.ok for r in out.variants if r.applicable)


def test_rho_bound_violation_reported():
    k3, M = 1.0, 0.5
    ts = np.linspace(0.0, 2.0, 9)
    sup = np.exp(k3 * M * ts)
    sup[5] *= 1.5  # clear violation at t = ts[5]
    recs = fake_records(ts, sup, lo=-M, hi=M)
    res = rho_sup_bound_check(recs, custom_params(2.0, 4.0, k3))
    assert not res.ok
    bad = {r.variant: r for r in res.variants}["k3_nonnegative"]
    assert not bad.ok
    assert bad.first_violation_t == pytest.approx(ts[5])
    assert bad.worst_margin > 0.0


def test_rho_bound_uses_running_extrema():
    # an early narrow u_x spike must widen the admissible growth for all
    # later times (M is the running max, not the pointwise value)
    k3 = 1.0
    ts = np.linspace(0.0, 2.0, 9)
    sup = np.exp(k3 * 2.0 * ts)  # needs M = 2 throughout
    recs = [SimpleNamespace(t=t, min_ux=-0.1,
                            max_ux=2.0 if i == 0 else 0.0, sup_rho=s)
            for i, (t, s) in enumerate(zip(ts, sup))]
    out = {r.variant: r for r in rho_sup_bound_check(
        recs, custom_params(2.0, 4.0, k3)).variants}
    assert out["k3_nonnegative"].ok


def test_rho_bound_saturates_past_float_range():
    # a gradient extremum of a few hundred pushes e^{M t} past float
    # max on long runs; the bound must saturate, not warn or crash
    ts = np.linspace(0.0, 2.0, 5)
    recs = [SimpleNamespace(t=t, min_ux=-600.0, max_ux=600.0, sup_rho=3.0)
            for t in ts]
    for res in rho_sup_bound_check(recs, custom_params(2.0, 4.0, 1.0)).variants:
        assert res.ok


def test_characteristics_match_dense_interpolation(monkeypatch, dense_interpolate):
    # case_ii b = 2 has k3 = 2, so -k3 q of the outer labels wraps
    g = Grid(10.0, 256)
    p = make_params(CaseTag.CASE_II, 2.0)
    s0 = build_initial(InitSpec(InitKind.GAUSSIAN),
                       InitSpec(InitKind.GAUSSIAN, amplitude=0.5), g)
    ctl, diag = StepControl(t_end=0.3), DiagSettings(char_stride=2)
    traj, rep = run(s0, p, ctl, g, diag=diag)
    assert rep.n_steps >= 20

    def dense(self, f, points):
        rows = [dense_interpolate(self, row, points) for row in np.atleast_2d(f)]
        return rows[0] if np.ndim(f) == 1 else np.array(rows)

    monkeypatch.setattr(Grid, "interpolate", dense)
    ref, ref_rep = run(s0, p, ctl, g, diag=diag)
    assert ref_rep == rep
    assert np.max(np.abs(traj.char.q - ref.char.q)) <= 1e-12
    assert np.max(np.abs(traj.char.accumulated_integral
                         - ref.char.accumulated_integral)) <= 1e-12

"""Exact FFT counts of the spectral hot paths.

numpy's real transforms are wrapped with counters of calls and of
transformed rows (a stack of shape (B, N) is one call of B rows), so a
change that adds a transform, or a row to a stacked one, fails here on
any machine, independent of timing.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Grid, InitKind, InitSpec,
                       ParamStack, RunStatus, State, StepControl, Workspace,
                       build_initial, eval_rhs, init_characteristics,
                       make_params, make_record, run, step_rk4,
                       transport_residual)

# tracemalloc's peak over steady RK4 steps of a batch of one at N=4096
# (test_steady_steps_allocate_no_stage_temporaries).  It reads ~51 KB,
# most of it numpy's buffer for the finiteness gate on one stage's
# tendency; a step that forms its stages from fresh arrays peaks near
# 1 MB, and one (3, N) stack of float rows alone is 96 KiB
PEAK_BYTES = 64 * 1024
# tracemalloc's peak of one call on a batch of 8 members at N=1024
# (test_batch_fields_are_contiguous_blocks).  With the field axis first
# in every Workspace array they read ~88, ~248 and ~132 KB; member-first
# stacks, whose (B, .) field views numpy runs through its buffered
# path, read ~194, ~440 and ~260 KB
BATCH_PEAK_BYTES = {"eval_rhs": 140 * 1024, "make_record": 340 * 1024,
                    "step_rk4": 195 * 1024}


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls and rows of numpy's real transforms, and each irfft's length."""
    calls = {"rfft": 0, "irfft": 0}
    rows = {"rfft": 0, "irfft": 0}
    lengths = []
    for name in calls:
        real = getattr(np.fft, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            rows[_name] += math.prod(np.shape(a)[:-1])
            if _name == "irfft":
                lengths.append(kwargs.get("n"))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls, rows, lengths


def _state(g):
    return State(0.0, np.stack([g.x / 2 * np.exp(-g.x**2),
                                0.5 * np.exp(-g.x**2)]))


def _reset(calls, rows, lengths):
    calls.update(rfft=0, irfft=0)
    rows.update(rfft=0, irfft=0)
    lengths.clear()


def test_eval_rhs_takes_two_transforms(grid20, params_b2, fft_calls,
                                       batch_of_one):
    calls, rows, _ = fft_calls
    t, ws = batch_of_one(_state(grid20), grid20)
    _reset(calls, rows, [])
    eval_rhs(t, ws.yh, params_b2, grid20, ws)
    # the stack (u, rho, u_x) inverse, then the stack (u u_x, source,
    # u rho) forward; the tendency stays in spectral space
    assert calls == {"rfft": 1, "irfft": 1}
    assert rows == {"rfft": 3, "irfft": 3}


def test_record_takes_one_inverse_transform(grid20, params_b2, fft_calls,
                                            batch_of_one):
    calls, rows, _ = fft_calls
    (t, ws), ps = batch_of_one(_state(grid20), grid20), ParamStack([params_b2])
    k = eval_rhs(t, ws.yh, ps, grid20, ws)
    _reset(calls, rows, [])
    make_record(k, 0.0, ps, grid20)
    # u, rho, u_x and the spectra of u, rho and the source come with k:
    # one inverse of u_xx, u_xxx, m, m_x, rho_x, rho_xx and conv0's solve
    assert calls == {"rfft": 0, "irfft": 1}
    assert rows == {"rfft": 0, "irfft": 7}


def test_transport_residual_takes_one_interpolation(grid20, params_b2,
                                                    fft_calls):
    calls, rows, lengths = fft_calls
    s = _state(grid20)
    c = init_characteristics(s.rho, params_b2, grid20)
    _reset(calls, rows, lengths)
    transport_residual(s, c, params_b2, grid20)
    # rho0 at the labels is stored on the CharField; only rho(t) is evaluated
    assert calls == {"rfft": 1, "irfft": 1}
    assert rows == {"rfft": 1, "irfft": 1}
    assert lengths == [2 * grid20.N]


def test_run_evaluates_each_accepted_state_once(grid20, params_b2, fft_calls,
                                                monkeypatch):
    calls, rows, _ = fft_calls
    derivatives = []
    real = Grid.derivative
    monkeypatch.setattr(Grid, "derivative", lambda self, f, order=1:
                        derivatives.append(order) or real(self, f, order))
    s0 = _state(grid20)
    traj, rep = run(s0, params_b2, StepControl(t_end=0.3), grid20,
                    diag=DiagSettings(every=3, char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END and rep.n_steps > 3
    # the initial state is transformed once (1 call on 2 rows); the
    # evaluation of each state gives the step size its u and u_x, is
    # stage 1 of the next step and feeds the record: 2 calls on 3 + 3
    # rows; a step, three stage evaluations and the new state's, 8
    # calls on 24 rows; a record one inverse call on 7 rows.  Nothing
    # else differentiates a state whose dt never collapsed.
    n, r = rep.n_steps, len(traj.records)
    assert sum(calls.values()) == 8 * n + r + 3
    assert sum(rows.values()) == 24 * n + 7 * r + 8
    assert derivatives == []


def test_run_with_characteristics_adds_one_interpolation_per_stage(
        grid20, params_b2, fft_calls):
    calls, rows, lengths = fft_calls
    s0 = _state(grid20)
    traj, rep = run(s0, params_b2, StepControl(t_end=0.3), grid20,
                    diag=DiagSettings(every=3, char_stride=4))
    assert rep.status is RunStatus.REACHED_T_END and rep.n_steps > 3
    # each stage adds one stacked (u, u_x) interpolation (an rfft of the
    # stack and an irfft onto the 2N-point fine grid), no derivative;
    # each record adds rho(t) at the labels, the run rho0 there once
    n, r = rep.n_steps, len(traj.records)
    assert sum(calls.values()) == (8 + 8) * n + (1 + 2) * r + 3 + 2
    assert sum(rows.values()) == (24 + 16) * n + (7 + 2) * r + 8 + 2
    assert lengths.count(2 * grid20.N) == 4 * n + r + 1


def test_resolution_stop_takes_no_transform(grid20, params_b2, fft_calls):
    calls, rows, _ = fft_calls
    s0 = _state(grid20)
    # a tail share never exceeds 1, so this stop never fires
    traj, rep = run(s0, params_b2, StepControl(t_end=0.3, resolution_tol=1.0),
                    grid20, diag=DiagSettings(every=3, char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END and rep.n_steps > 3
    # the tails of u and rho come from the spectrum of the state's
    # evaluation: the counts of the bare run
    n, r = rep.n_steps, len(traj.records)
    assert calls == {"rfft": 4 * n + 2, "irfft": 4 * n + r + 1}
    assert sum(rows.values()) == 24 * n + 7 * r + 8


def test_batch_takes_the_calls_of_one_member(grid20, fft_calls):
    calls, rows, _ = fft_calls
    s = _state(grid20)
    ws = Workspace.for_states([s, State(0.0, 2.0 * s.y), State(0.0, 0.5 * s.y)],
                              grid20)
    ps = ParamStack([make_params(CaseTag.CASE_I, b) for b in (1.5, 2.0, 3.0)])
    _reset(calls, rows, [])
    k1 = eval_rhs(np.zeros(3), ws.yh, ps, grid20, ws)
    # the 2 calls of eval_rhs; its 3 inverse and 3 forward rows once per
    # member
    assert calls == {"rfft": 1, "irfft": 1}
    assert rows == {"rfft": 3 * 3, "irfft": 3 * 3}
    _reset(calls, rows, [])
    make_record(k1, [0.1, 0.2, 0.3], ps, grid20)
    assert calls == {"rfft": 0, "irfft": 1}
    assert rows == {"rfft": 0, "irfft": 3 * 7}
    _reset(calls, rows, [])
    step_rk4(k1, np.array([1e-3, 2e-3, 3e-3]), ps, grid20, ws)
    # three stage evaluations, each 2 calls on 3 + 3 rows per member
    assert calls == {"rfft": 3, "irfft": 3}
    assert rows == {"rfft": 3 * 9, "irfft": 3 * 9}


@pytest.mark.parametrize("N", [64, 256, 1024, 4096])
def test_batched_transforms_match_single_rows(N, rng):
    # the stacked transforms above change no output bit only because
    # numpy transforms each row of a stack exactly as the row alone
    for B in (2, 3, 7):
        f = rng.standard_normal((B, N))
        fh = np.fft.rfft(f)
        assert all(np.array_equal(fh[i], np.fft.rfft(f[i])) for i in range(B))
        back = np.fft.irfft(fh, n=N)
        assert all(np.array_equal(back[i], np.fft.irfft(fh[i], n=N))
                   for i in range(B))
    # so a batch's evaluation, written through the views of its
    # Workspace, gives each member the bits of its evaluation alone
    g = Grid(20.0, N)
    members = [make_params(CaseTag.CASE_I, b) for b in (1.5, 2.0, 3.0)]
    states = [State(0.0, y) for y in g.dealias(rng.standard_normal((3, 2, N)))]
    ws = Workspace.for_states(states, g)
    k = eval_rhs(np.zeros(3), ws.yh, ParamStack(members), g, ws)
    for i, (s, p) in enumerate(zip(states, members)):
        wi = Workspace.for_states([s], g)
        ki = eval_rhs(np.zeros(1), wi.yh, ParamStack([p]), g, wi)
        for name in ("yh", "dyh", "fields", "ph"):
            assert np.array_equal(getattr(k, name)[:, i], getattr(ki, name)[:, 0]), name


def test_steady_steps_allocate_no_stage_temporaries(rng):
    # every per-step array lives in the run's Workspace: over 50 steps
    # of the breaking data at N=4096 the traced peak stays under
    # PEAK_BYTES
    g = Grid(10.0, 4096)
    s0 = build_initial(InitSpec(InitKind.ODD_GAUSSIAN),
                       InitSpec(InitKind.EVEN_BUMP_ZERO_AT_ORIGIN, amplitude=0.5), g)
    ps, dt = ParamStack([make_params(CaseTag.CASE_I, 2.0)]), np.array([1e-3])
    ws = Workspace.for_states([s0], g)
    k = eval_rhs(np.zeros(1), ws.yh, ps, g, ws)
    for _ in range(2):  # numpy's FFT plan caches fill on the first calls
        t, _ = step_rk4(k, dt, ps, g, ws)
        k = eval_rhs(t, ws.yh, ps, g, ws)
    tracemalloc.start()
    try:
        for _ in range(50):
            t, _ = step_rk4(k, dt, ps, g, ws)
            k = eval_rhs(t, ws.yh, ps, g, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES, peak


def _traced_peak(f) -> int:
    """tracemalloc's peak over one call of f, after two untraced calls
    that fill numpy's FFT plan caches."""
    f()
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_fields_are_contiguous_blocks():
    # every field of a batch is one contiguous (B, .) block of its
    # Workspace, also in the view of the first members, so the products
    # of an evaluation, a step and a record run on plain blocks
    g, B = Grid(10.0, 1024), 8
    y = _state(g).y
    states = [State(0.0, a * y) for a in np.linspace(0.25, 2.0, B)]
    members = [make_params(CaseTag.CASE_I, b) for b in np.linspace(1.5, 3.0, B)]
    ws = Workspace.for_states(states, g)
    for n in (B, 5):
        wn = ws.rows(n)
        k = eval_rhs(np.zeros(n), wn.yh, ParamStack(members[:n]), g, wn)
        for a in (k.u, k.rho, k.ux, k.sh, *k.dyh):
            assert a.flags.c_contiguous and a.shape[0] == n
    ps, t, dt = ParamStack(members), np.zeros(B), np.full(B, 1e-3)
    k = eval_rhs(t, ws.yh, ps, g, ws)
    peaks = {"eval_rhs": _traced_peak(lambda: eval_rhs(t, ws.yh, ps, g, ws)),
             "make_record": _traced_peak(lambda: make_record(k, 1e-3, ps, g, ws=ws)),
             "step_rk4": _traced_peak(lambda: step_rk4(k, dt, ps, g, ws))}
    assert all(peaks[f] < BATCH_PEAK_BYTES[f] for f in peaks), peaks

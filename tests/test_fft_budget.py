"""Exact FFT counts of the spectral hot paths.

numpy's real transforms are wrapped with counters of calls and of
transformed rows (a stack of shape (B, N) is one call of B rows), so a
change that adds a transform, or a row to a stacked one, fails here on
any machine, independent of timing.
"""

import math

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Grid, ParamStack, RunStatus,
                       State, StepControl, eval_rhs, init_characteristics,
                       make_params, make_record, run, step_rk4,
                       transport_residual)


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


def test_eval_rhs_takes_seven_transforms(grid20, params_b2, fft_calls):
    calls, rows, _ = fft_calls
    eval_rhs(_state(grid20), params_b2, grid20)
    # u, then the stack (u u_x, source, u rho) forward; u_x, then the
    # stack (du, drho) inverse
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 4, "irfft": 3}


def test_record_takes_eleven_transforms(grid20, params_b2, fft_calls,
                                        batch_of_one):
    calls, rows, _ = fft_calls
    make_record(batch_of_one(_state(grid20)), 0.0, ParamStack([params_b2]), grid20)
    # the stack (u, rho) forward, the seven derived fields inverse, and
    # the Helmholtz solve of the source for conv0
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 3, "irfft": 8}


def _reset(calls, rows, lengths):
    calls.update(rfft=0, irfft=0)
    rows.update(rfft=0, irfft=0)
    lengths.clear()


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
    # four tendencies per step, stage 1 giving the step size its u_x;
    # nothing else differentiates a state whose dt never collapsed
    n, r = rep.n_steps, len(traj.records)
    assert sum(calls.values()) == 16 * n + 4 * r
    assert sum(rows.values()) == 28 * n + 11 * r
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
    assert sum(calls.values()) == (16 + 8) * n + (4 + 2) * r + 2
    assert sum(rows.values()) == (28 + 16) * n + (11 + 2) * r + 2
    assert lengths.count(2 * grid20.N) == 4 * n + r + 1


def test_resolution_stop_takes_one_stacked_rfft(grid20, params_b2, fft_calls):
    calls, rows, _ = fft_calls
    s0 = _state(grid20)
    # a tail share never exceeds 1, so this stop never fires
    traj, rep = run(s0, params_b2, StepControl(t_end=0.3, resolution_tol=1.0),
                    grid20, diag=DiagSettings(every=3, char_stride=0))
    assert rep.status is RunStatus.REACHED_T_END and rep.n_steps > 3
    # one rfft of the (2, N) state per step on top of the bare run: the
    # tails of u and rho, two rows
    n, r = rep.n_steps, len(traj.records)
    assert calls == {"rfft": 9 * n + 2 * r, "irfft": 8 * n + 2 * r}
    assert sum(rows.values()) == 30 * n + 11 * r


def test_batch_takes_the_calls_of_one_member(grid20, fft_calls):
    calls, rows, _ = fft_calls
    s = _state(grid20)
    batch = State(np.zeros(3), np.stack([s.y, 2.0 * s.y, 0.5 * s.y]))
    ps = ParamStack([make_params(CaseTag.CASE_I, b) for b in (1.5, 2.0, 3.0)])
    step_rk4(batch, np.array([1e-3, 2e-3, 3e-3]), ps, grid20)
    # four tendencies, each the 4 calls of eval_rhs; its 4 forward and 3
    # inverse rows once per member
    assert calls == {"rfft": 8, "irfft": 8}
    assert rows == {"rfft": 3 * 16, "irfft": 3 * 12}
    _reset(calls, rows, [])
    make_record(batch, [0.1, 0.2, 0.3], ps, grid20)
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 3 * 3, "irfft": 3 * 8}


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

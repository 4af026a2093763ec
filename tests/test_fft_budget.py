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


def _reset(calls, rows, lengths):
    calls.update(rfft=0, irfft=0)
    rows.update(rfft=0, irfft=0)
    lengths.clear()


def test_eval_rhs_takes_seven_transforms(grid20, params_b2, fft_calls):
    calls, rows, _ = fft_calls
    eval_rhs(_state(grid20), params_b2, grid20)
    # u, then the stack (u u_x, source, u rho) forward; u_x, then the
    # stack (du, drho) inverse
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 4, "irfft": 3}
    _reset(calls, rows, [])
    # an accepted state's evaluation transforms (u, rho) in the first call
    eval_rhs(_state(grid20), params_b2, grid20, with_rho=True)
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 5, "irfft": 3}


def test_record_takes_one_inverse_transform(grid20, params_b2, fft_calls,
                                            batch_of_one):
    calls, rows, _ = fft_calls
    s, ps = batch_of_one(_state(grid20)), ParamStack([params_b2])
    k = eval_rhs(s, ps, grid20, with_rho=True)
    _reset(calls, rows, [])
    make_record(s, k, 0.0, ps, grid20)
    # u_x and the spectra of u, rho and the source come with k: one
    # inverse of u_xx, u_xxx, m, m_x, rho_x, rho_xx and conv0's solve
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
    # the evaluation of each state gives the step size its u_x, is stage 1
    # of the next step and feeds the record: the initial state's costs 4
    # calls on 5 + 3 rows; a step, three stage tendencies (4 calls on
    # 4 + 3 rows each) and the new state's, 16 calls on 29 rows; a record
    # one inverse call on 7 rows.  Nothing else differentiates a state
    # whose dt never collapsed.
    n, r = rep.n_steps, len(traj.records)
    assert sum(calls.values()) == 16 * n + r + 4
    assert sum(rows.values()) == 29 * n + 7 * r + 8
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
    assert sum(calls.values()) == (16 + 8) * n + (1 + 2) * r + 4 + 2
    assert sum(rows.values()) == (29 + 16) * n + (7 + 2) * r + 8 + 2
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
    assert calls == {"rfft": 8 * n + 2, "irfft": 8 * n + r + 2}
    assert sum(rows.values()) == 29 * n + 7 * r + 8


def test_batch_takes_the_calls_of_one_member(grid20, fft_calls):
    calls, rows, _ = fft_calls
    s = _state(grid20)
    batch = State(np.zeros(3), np.stack([s.y, 2.0 * s.y, 0.5 * s.y]))
    ps = ParamStack([make_params(CaseTag.CASE_I, b) for b in (1.5, 2.0, 3.0)])
    k1 = eval_rhs(batch, ps, grid20, with_rho=True)
    # the 4 calls of eval_rhs; its 5 forward and 3 inverse rows once per
    # member
    assert calls == {"rfft": 2, "irfft": 2}
    assert rows == {"rfft": 3 * 5, "irfft": 3 * 3}
    _reset(calls, rows, [])
    step_rk4(batch, k1, np.array([1e-3, 2e-3, 3e-3]), ps, grid20)
    # three stage tendencies, each 4 calls on 4 forward and 3 inverse
    # rows per member
    assert calls == {"rfft": 6, "irfft": 6}
    assert rows == {"rfft": 3 * 12, "irfft": 3 * 9}
    _reset(calls, rows, [])
    make_record(batch, k1, [0.1, 0.2, 0.3], ps, grid20)
    assert calls == {"rfft": 0, "irfft": 1}
    assert rows == {"rfft": 0, "irfft": 3 * 7}


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
    # so the evaluation of an accepted state, which transforms (u, rho)
    # together, gives each stage the bits of the u-only form
    g = Grid(20.0, N)
    for B in (1, 3):
        ps = ParamStack([make_params(CaseTag.CASE_I, b) for b in (1.5, 2.0, 3.0)[:B]])
        s = State(np.zeros(B), g.dealias(rng.standard_normal((B, 2, N))))
        k, k_rho = eval_rhs(s, ps, g), eval_rhs(s, ps, g, with_rho=True)
        assert np.array_equal(k_rho.dy, k.dy) and np.array_equal(k_rho.ux, k.ux)
        assert np.array_equal(k_rho.sh, k.sh)
        assert np.array_equal(k_rho.yh[:, :1], k.yh)

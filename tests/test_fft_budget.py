"""Exact FFT counts of the spectral hot paths.

numpy's real transforms are wrapped with counters, so a change that
adds a transform fails here on any machine, independent of timing.
"""

import numpy as np
import pytest

from bfamily2c import (DiagSettings, Grid, RunStatus, State, StepControl,
                       advance_characteristics, eval_rhs, init_characteristics,
                       make_record, run, step_rk4, transport_residual)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of numpy's real transforms, and the length of each irfft."""
    calls = {"rfft": 0, "irfft": 0}
    lengths = []
    for name in calls:
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "irfft":
                lengths.append(kwargs.get("n"))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls, lengths


def _state(g):
    return State(0.0, g.x / 2 * np.exp(-g.x**2), 0.5 * np.exp(-g.x**2))


def test_eval_rhs_takes_seven_transforms(grid20, params_b2, fft_calls):
    eval_rhs(_state(grid20), params_b2, grid20)
    # u, u u_x, source, u rho forward; u_x, du, drho inverse
    assert fft_calls[0] == {"rfft": 4, "irfft": 3}


def test_record_takes_eleven_transforms(grid20, params_b2, fft_calls):
    make_record(_state(grid20), 0.0, params_b2, grid20)
    # u and rho forward, seven derived fields inverse, and the
    # Helmholtz solve of the source for conv0
    assert fft_calls[0] == {"rfft": 3, "irfft": 8}


def test_characteristic_advance_reuses_stage_slopes(grid20, params_b2,
                                                    fft_calls):
    calls, lengths = fft_calls
    s = _state(grid20)
    c = init_characteristics(s.rho, params_b2, grid20)
    _, stages = step_rk4(s, 1e-2, params_b2, grid20, collect_stages=True)
    calls.update(rfft=0, irfft=0)
    lengths.clear()
    advance_characteristics(c, stages, params_b2, grid20, 1e-2)
    # one stacked (u, u_x) interpolation per stage, no derivative: an
    # rfft of the stack and an irfft onto the 2N-point fine grid
    assert calls == {"rfft": 4, "irfft": 4}
    assert lengths == [2 * grid20.N] * 4


def test_transport_residual_takes_one_interpolation(grid20, params_b2,
                                                    fft_calls):
    calls, lengths = fft_calls
    s = _state(grid20)
    c = init_characteristics(s.rho, params_b2, grid20)
    calls.update(rfft=0, irfft=0)
    lengths.clear()
    transport_residual(s, c, params_b2, grid20)
    # rho0 at the labels is stored on the CharField; only rho(t) is evaluated
    assert calls == {"rfft": 1, "irfft": 1}
    assert lengths == [2 * grid20.N]


def test_run_evaluates_each_accepted_state_once(grid20, params_b2, fft_calls,
                                                monkeypatch):
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
    total = sum(fft_calls[0].values())
    assert total == 28 * rep.n_steps + 11 * len(traj.records)
    assert derivatives == []

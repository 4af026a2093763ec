"""Manufactured-solution oracle for the whole solver.

An exact band-limited pair (u, rho) is made a solution of the system by
a forcing derived symbolically in m-form,

    F_m   = m_t - u m_x - k1 u_x m - k2 rho rho_x
    F_rho = rho_t - k3 (u rho)_x,

which enters the u-form tendency as (1 - dx^2)^{-1} F_m (Roache,
J. Fluids Eng. 124 (2002) 4; Salari & Knupp, SAND2000-1444).  The
pair and every product of the right-hand side stay below the 2/3
cut-off, so the spatial discretisation is exact and what remains is
the time error of the real run() loop, which must be fourth order.
A consistently wrong coefficient in the right-hand side would pass
self-convergence but not this test.
"""

import math

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagSettings, Grid, State, StepControl,
                       make_params, run)
from bfamily2c import stepper

sp = pytest.importorskip("sympy")

T_END = 1.0
CFLS = (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)


def _manufactured(p):
    """Numpy callables (t, x) of the exact u, rho and the forcings F_m, F_rho."""
    t, x = sp.symbols("t x", real=True)
    L = sp.pi
    u = (sp.cos(t) / 2 * sp.sin(sp.pi * x / L)
         + sp.sin(2 * t) / 5 * sp.sin(2 * sp.pi * x / L))
    rho = 1 + sp.Rational(3, 10) * sp.cos(sp.Rational(3, 2) * t) * sp.cos(sp.pi * x / L)
    k1, k2, k3 = (sp.Float(k) for k in (p.k1, p.k2, p.k3))
    m = u - sp.diff(u, x, 2)
    f_m = (sp.diff(m, t) - u * sp.diff(m, x) - k1 * sp.diff(u, x) * m
           - k2 * rho * sp.diff(rho, x))
    f_rho = sp.diff(rho, t) - k3 * sp.diff(u * rho, x)
    return [sp.lambdify((t, x), e, "numpy") for e in (u, rho, f_m, f_rho)]


@pytest.fixture(scope="module")
def mms_errors():
    g = Grid(math.pi, 64)
    p = make_params(CaseTag.CASE_I, 2.0)
    u_ex, rho_ex, f_m, f_rho = _manufactured(p)

    def exact(t):
        return np.stack([u_ex(t, g.x), rho_ex(t, g.x)])

    real = stepper.eval_rhs

    def forced(t, yh, p, g, *args, **kwargs):
        # the forcing is band-limited below the 2/3 cut-off, so its kept
        # bins are all of it
        k = real(t, yh, p, g, *args, **kwargs)
        force = np.fft.rfft(np.stack([g.helmholtz_inv(f_m(t[0], g.x)),
                                      f_rho(t[0], g.x)]))
        k.dyh += force[:, None, :k.dyh.shape[-1]]
        return k

    errors, drifts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "eval_rhs", forced)
        for cfl in CFLS:
            # the final state is the run's last snapshot
            traj, rep = run(State(0.0, exact(0.0)), p,
                            StepControl(t_end=T_END, cfl=cfl), g,
                            diag=DiagSettings(every=10**9, char_stride=0,
                                              snapshot_every=10**9))
            n, s = traj.snapshots[-1]
            assert n == rep.n_steps and rep.t_final == s.t == T_END
            errors.append(float(np.max(np.abs(s.y - exact(T_END)))))
            drifts.append(abs(g.integrate(s.rho) - g.integrate(exact(0.0)[1])))
    return errors, drifts, g


def test_manufactured_solution_is_fourth_order_in_time(mms_errors):
    errors, _, _ = mms_errors
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 3.8, (errors, orders)
    assert errors[-1] <= 1e-10, errors


def test_manufactured_forcing_conserves_int_rho(mms_errors):
    # F_rho has zero mean, so int rho stays exact up to roundoff
    _, drifts, g = mms_errors
    assert max(drifts) <= 1e-13 * 2.0 * g.L, drifts

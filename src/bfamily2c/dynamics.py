"""Right-hand side of the two-component system in nonlocal form.

With p the Helmholtz Green kernel, the momentum equation is evolved as

    u_t = u u_x + dx (1 - dx^2)^{-1} [ (k1/2) u^2 + ((3-k1)/2) u_x^2
                                       + (k2/2) rho^2 ]
    rho_t = k3 (u rho)_x

which is the m-form   m_t = u m_x + k1 u_x m + k2 rho rho_x   rewritten
through m = u - u_xx.  The density tendency is kept in conservative
form (a perfect x-derivative), so the semi-discretization preserves
int rho dx exactly: a spectral derivative has zero mean bin by
construction.

The operator is one spectral pass of 4 real-FFT calls on stacked rows.
Projection by the 2/3 rule (Orszag, J. Atmos. Sci. 28 (1971) 1074) and
the multipliers i kappa and i kappa / (1 + kappa^2) are all linear and
diagonal in Fourier space, so the quadratic products need one forward
transform per group (u u_x, the nonlocal source, u rho) and the two
tendencies one truncation and one inverse transform:

    rfft u -> irfft u_x;  rfft (u u_x, source, u rho);  irfft (du, drho).

numpy transforms each row of a stack bit for bit as it would the row
alone, so stacking changes no output bit: neither the stacking of
fields nor that of a batch of members (B, 2, N), whose coefficients
broadcast as (B, 1) columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ParamStack
from .spectral import Grid


@dataclass(eq=False)
class State:
    """Time t plus the fields stacked as y = (u, rho).

    One member's state is y (2, N) with a float t: what run and
    run_batch take, what a snapshot holds and what choose_dt reads.  A
    batch of members is y (B, 2, N) with t (B,): the only shape that
    step_rk4 and make_record take.  Every layer works on the stack: one
    transform takes all rows, and one array expression advances or
    gates every field.  u and rho are read-only views of the rows
    y[..., 0, :] and y[..., 1, :].
    """

    t: float | np.ndarray
    y: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.y[..., 0, :]

    @property
    def rho(self) -> np.ndarray:
        return self.y[..., 1, :]


@dataclass(eq=False)
class Tendency:
    """Time derivative dy of the stack (u, rho), and the u_x of the evaluated state."""

    dy: np.ndarray
    ux: np.ndarray


# overflow is reported by the stepper's per-member gate, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def eval_rhs(s: State, p: ModelParams | ParamStack, g: Grid,
             dealias: bool = True) -> Tendency:
    """Evaluate the nonlocal-form tendency of (u, rho), or of a batch
    (B, 2, N) whose coefficients p holds as (B, 1) columns.

    Quadratic products are formed pointwise; with dealias=True every
    mode above N/3 of each tendency is dropped before the inverse
    transform (the 2/3 rule), which removes the aliasing error of the
    quadratic terms.  u_x is the spectral derivative exactly as
    Grid.derivative computes it.  A state that overflows gives a
    non-finite dy, returned as computed and without a warning: the
    stepper gates each member's rows (see step_rk4).
    """
    u, rho = s.u, s.rho
    rfft, irfft = np.fft.rfft, np.fft.irfft
    ux = irfft(rfft(u) * g.ik, n=g.N)
    source = (0.5 * p.k1) * (u * u) + (0.5 * (3.0 - p.k1)) * (ux * ux) \
        + (0.5 * p.k2) * (rho * rho)
    ph = rfft(np.stack([u * ux, source, u * rho], axis=-2))
    dy_h = np.stack([ph[..., 0, :] + g.dx_helm_inv * ph[..., 1, :],
                     (p.k3 * g.ik) * ph[..., 2, :]], axis=-2)
    if dealias:
        dy_h[..., g.n_keep:] = 0.0
    return Tendency(dy=irfft(dy_h, n=g.N), ux=ux)

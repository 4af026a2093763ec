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

An accepted state's evaluation (with_rho=True) takes rfft (u, rho) first,
and the stepper and the diagnostic record read the spectra it keeps.

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
    """Time derivative dy of the stack (u, rho) and what eval_rhs formed on
    the way: the state's u_x, the spectrum yh (..., R, N/2 + 1) of the
    rows it transformed (R = 2, u and rho, with with_rho=True; else 1)
    and the un-dealiased spectrum sh of the nonlocal source."""

    dy: np.ndarray
    ux: np.ndarray
    yh: np.ndarray
    sh: np.ndarray

    def rows(self, j) -> Tendency:
        """The tendency of the members j (an index list) of a batch."""
        return Tendency(dy=self.dy[j], ux=self.ux[j], yh=self.yh[j], sh=self.sh[j])


# overflow is reported by the stepper's per-member gate, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def eval_rhs(s: State, p: ModelParams | ParamStack, g: Grid,
             dealias: bool = True, with_rho: bool = False) -> Tendency:
    """Evaluate the nonlocal-form tendency of (u, rho), or of a batch
    (B, 2, N) whose coefficients p holds as (B, 1) columns.

    Quadratic products are formed pointwise; with dealias=True every
    mode above N/3 of each tendency is dropped before the inverse
    transform (the 2/3 rule), which removes the aliasing error of the
    quadratic terms.  u_x is the spectral derivative exactly as
    Grid.derivative computes it.  with_rho=True adds rho to the first
    transform, which changes no bit of dy or u_x.  A state that
    overflows gives a non-finite dy, returned as computed and without a
    warning: the stepper gates each member's rows.
    """
    u, rho = s.u, s.rho
    rfft, irfft = np.fft.rfft, np.fft.irfft
    yh = rfft(s.y if with_rho else s.y[..., :1, :])
    ux = irfft(yh[..., 0, :] * g.ik, n=g.N)
    source = (0.5 * p.k1) * (u * u) + (0.5 * (3.0 - p.k1)) * (ux * ux) \
        + (0.5 * p.k2) * (rho * rho)
    ph = rfft(np.stack([u * ux, source, u * rho], axis=-2))
    dy_h = np.stack([ph[..., 0, :] + g.dx_helm_inv * ph[..., 1, :],
                     (p.k3 * g.ik) * ph[..., 2, :]], axis=-2)
    if dealias:
        dy_h[..., g.n_keep:] = 0.0
    return Tendency(dy=irfft(dy_h, n=g.N), ux=ux, yh=yh, sh=ph[..., 1, :])

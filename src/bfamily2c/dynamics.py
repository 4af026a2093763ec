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

The operator is one spectral pass of 7 real FFTs.  Projection by the
2/3 rule (Orszag, J. Atmos. Sci. 28 (1971) 1074) and the multipliers
i kappa and i kappa / (1 + kappa^2) are all linear and diagonal in
Fourier space, so the quadratic products need one forward transform per
group (u u_x, the nonlocal source, u rho) and each tendency one
truncation and one inverse transform:

    rfft u -> irfft u_x;  rfft u u_x, rfft source, rfft u rho;
    irfft du, irfft drho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .spectral import Grid


@dataclass(eq=False)
class State:
    """Time t plus the two fields sampled on a shared grid."""

    t: float
    u: np.ndarray
    rho: np.ndarray


@dataclass(eq=False)
class Tendency:
    """Time derivatives of (u, rho), and the u_x of the evaluated state."""

    du: np.ndarray
    drho: np.ndarray
    ux: np.ndarray


# overflow is reported by the isfinite gate below, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def eval_rhs(s: State, p: ModelParams, g: Grid, dealias: bool = True) -> Tendency:
    """Evaluate the nonlocal-form tendency of (u, rho).

    Quadratic products are formed pointwise; with dealias=True every
    mode above N/3 of each tendency is dropped before its inverse
    transform (the 2/3 rule), which removes the aliasing error of the
    quadratic terms.  u_x is the spectral derivative exactly as
    Grid.derivative computes it.  A non-finite result raises
    FloatingPointError so the stepper can treat it as blow-up evidence
    rather than propagate garbage.
    """
    u, rho = s.u, s.rho
    rfft, irfft = np.fft.rfft, np.fft.irfft
    ux = irfft(rfft(u) * g.ik, n=g.N)
    source = (0.5 * p.k1) * (u * u) + (0.5 * (3.0 - p.k1)) * (ux * ux) \
        + (0.5 * p.k2) * (rho * rho)
    du_h = rfft(u * ux) + g.dx_helm_inv * rfft(source)
    drho_h = (p.k3 * g.ik) * rfft(u * rho)
    if dealias:
        du_h[g.n_keep:] = 0.0
        drho_h[g.n_keep:] = 0.0
    du = irfft(du_h, n=g.N)
    drho = irfft(drho_h, n=g.N)
    if not (np.all(np.isfinite(du)) and np.all(np.isfinite(drho))):
        raise FloatingPointError("non-finite tendency (overflow)")
    return Tendency(du=du, drho=drho, ux=ux)


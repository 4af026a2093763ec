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
    du: np.ndarray
    drho: np.ndarray


# overflow is reported by the isfinite gate below, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def eval_rhs(s: State, p: ModelParams, g: Grid, dealias: bool = True) -> Tendency:
    """Evaluate the nonlocal-form tendency of (u, rho).

    Quadratic products are formed pointwise; with dealias=True each
    product is projected by the 2/3 rule before any further spectral
    operation, which removes the aliasing error of quadratic terms.
    A non-finite result raises FloatingPointError so the stepper can
    treat it as blow-up evidence rather than propagate garbage.
    """
    u, rho = s.u, s.rho
    ux = g.derivative(u, 1)
    da = g.dealias if dealias else (lambda f: f)
    advect = da(u * ux)
    source = (0.5 * p.k1) * da(u * u) \
        + (0.5 * (3.0 - p.k1)) * da(ux * ux) \
        + (0.5 * p.k2) * da(rho * rho)
    du = advect + g.dx_helmholtz_inv(source)
    drho = p.k3 * g.derivative(da(u * rho), 1)
    if not (np.all(np.isfinite(du)) and np.all(np.isfinite(drho))):
        raise FloatingPointError("non-finite tendency (overflow)")
    return Tendency(du=du, drho=drho)


def momentum(s: State, g: Grid) -> np.ndarray:
    """m = u - u_xx via the Helmholtz multiplier 1 + kappa^2."""
    return g.helmholtz(s.u)


def u_from_m0(m0: np.ndarray, g: Grid) -> np.ndarray:
    """Velocity from momentum, u = (1 - dx^2)^{-1} m.

    The line identity is u = p * m; on the periodic surrogate the
    multiplier inverse plays that role, so m0 must decay before the
    boundary for the construction to be meaningful.
    """
    return g.helmholtz_inv(m0)

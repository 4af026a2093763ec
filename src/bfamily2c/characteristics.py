"""Characteristic curves, flow-map Jacobian, and the transport invariant.

The curves solve  dq/dt = u(t, -k3 q), q(0, x) = x.  Their Jacobian
has the closed form

    q_x(t, x) = exp( int_0^t -k3 u_x(s, -k3 q(s, x)) ds )

which is positive by construction, so q stays an increasing
diffeomorphism while the solution is smooth.  Along the curves the
density satisfies the exact invariant

    rho(t, -k3 q(t, x)) q_x(t, x) = rho0(-k3 x)

whose numerical residual is the strongest end-to-end correctness
check the solver has: it couples the PDE solution, the ODE solve and
the interpolation in one scalar.  stepper.step_rk4 advances q and the
exponent in the PDE's own RK4 stages, at the rates characteristic_rates
gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import _exp_envelope
from .dynamics import State
from .model import ModelParams
from .spectral import Grid

# warn when an evaluation point -k3*q drifts from the interior into the
# outer 5% of the half-width (labels seeded out there don't count: the
# update is periodic-exact, the margin only matters for the decaying-tail
# reading of the fields)
BOUNDARY_MARGIN = 0.95


@dataclass(eq=False)
class CharField:
    """Characteristic positions and Jacobians over a set of labels."""

    t: float
    labels: np.ndarray
    q: np.ndarray
    qx: np.ndarray
    accumulated_integral: np.ndarray
    rho0_at_labels: np.ndarray  # rho0(-k3 x): the invariant's fixed right side
    near_boundary: bool = False


def init_characteristics(rho0: np.ndarray, p: ModelParams, g: Grid,
                         stride: int = 4) -> CharField:
    """Seed characteristics on every stride-th grid node.

    rho0 is evaluated at the labels here, once per run: the labels
    never move, so neither does the right side of the invariant.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    labels = g.x[::stride].copy()
    return CharField(
        t=0.0,
        labels=labels,
        q=labels.copy(),
        qx=np.ones_like(labels),
        accumulated_integral=np.zeros_like(labels),
        rho0_at_labels=g.interpolate(rho0, -p.k3 * labels),
    )


def characteristic_rates(u: np.ndarray, ux: np.ndarray, q: np.ndarray,
                         p: ModelParams, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(dq/dt, d/dt of the Jacobian exponent) at one RK4 stage.

    u and u_x of the stage state are evaluated at -k3 q in one stacked
    interpolation; u_x is the one the stage's tendency computed, so no
    derivative is taken here.
    """
    vel, slope = g.interpolate(np.stack([u, ux]), -p.k3 * q)
    return vel, -p.k3 * slope


def update_characteristics(c: CharField, dt: float, q: np.ndarray,
                           acc: np.ndarray, p: ModelParams, g: Grid) -> CharField:
    """c advanced by dt to positions q and Jacobian exponent acc.

    qx is taken from the exponential rather than its own ODE, so
    positivity is exact.  With k3 = 0 no point -k3 q ever moves, so
    nothing is flagged.
    """
    margin = BOUNDARY_MARGIN * g.L
    inside = np.abs(p.k3 * c.labels) <= margin
    near = bool(np.any(np.abs(p.k3 * q[inside]) > margin))
    return replace(c, t=c.t + dt, q=q, qx=np.exp(acc), accumulated_integral=acc,
                   near_boundary=near)


def transport_residual(s: State, c: CharField, p: ModelParams, g: Grid) -> float:
    """Max over labels of |rho(t, -k3 q) qx - rho0(-k3 x)|."""
    lhs = g.interpolate(s.rho, -p.k3 * c.q) * c.qx
    return float(np.max(np.abs(lhs - c.rho0_at_labels)))


@dataclass(frozen=True)
class RhoBoundResult:
    """Outcome of one exponential sup-bound variant on ||rho(t)||_inf."""

    variant: str  # "k3_nonpositive" | "k3_nonnegative" | "absolute"
    applicable: bool
    ok: bool
    first_violation_t: float | None
    worst_margin: float  # max over records of sup_rho - bound (<= 0 when ok)


def _check_variant(variant, ts, sup_rho, rate, slack):
    bounds, first_bad = _exp_envelope(ts, sup_rho, float(sup_rho[0]), rate, slack)
    worst = max([-np.inf] + [s_r - b for s_r, b in zip(sup_rho, bounds)])
    return RhoBoundResult(variant, True, first_bad is None, first_bad, float(worst))


@dataclass(frozen=True)
class RhoSupBoundResult:
    ok: bool  # every applicable variant holds
    variants: list[RhoBoundResult]


def rho_sup_bound_check(records, p: ModelParams, slack: float = 1e-8) -> RhoSupBoundResult:
    """Verify the exponential transport bounds on sup|rho| a posteriori.

    Three variants, each using the running extremum of u_x over [0, t]
    as its constant M:
      k3 <= 0:  sup|rho(t)| <= e^{-k3 M t} sup|rho0|,  u_x >= -M
      k3 >= 0:  sup|rho(t)| <= e^{+k3 M t} sup|rho0|,  u_x <= +M
      always:   sup|rho(t)| <= e^{|k3| M t} sup|rho0|, |u_x| <= M
    Records need fields t, min_ux, max_ux, sup_rho.  Inequalities are
    checked at every recorded time with the given relative slack.
    """
    ts = np.array([r.t for r in records])
    min_ux = np.array([r.min_ux for r in records])
    max_ux = np.array([r.max_ux for r in records])
    sup_rho = np.array([r.sup_rho for r in records])
    k3 = p.k3

    m_low = np.maximum.accumulate(np.maximum(0.0, -min_ux))   # u_x >= -M
    m_high = np.maximum.accumulate(np.maximum(0.0, max_ux))   # u_x <= +M
    m_abs = np.maximum.accumulate(np.maximum(np.abs(min_ux), np.abs(max_ux)))

    out = []
    if k3 <= 0.0:
        out.append(_check_variant("k3_nonpositive", ts, sup_rho, -k3 * m_low, slack))
    else:
        out.append(RhoBoundResult("k3_nonpositive", False, True, None, -np.inf))
    if k3 >= 0.0:
        out.append(_check_variant("k3_nonnegative", ts, sup_rho, k3 * m_high, slack))
    else:
        out.append(RhoBoundResult("k3_nonnegative", False, True, None, -np.inf))
    out.append(_check_variant("absolute", ts, sup_rho, abs(k3) * m_abs, slack))
    return RhoSupBoundResult(all(v.ok for v in out if v.applicable), out)

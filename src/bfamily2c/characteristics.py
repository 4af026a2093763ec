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
the interpolation in one scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def advance_characteristics(
    c: CharField,
    stages: Sequence[tuple[float, np.ndarray, np.ndarray]],
    p: ModelParams,
    g: Grid,
    dt: float,
) -> CharField:
    """One RK4 step of the characteristic ODE using the PDE stage fields.

    `stages` are the four (t, u, u_x) triples the RK4 PDE step
    evaluated, at offsets (0, dt/2, dt/2, dt).  The Jacobian exponent
    is accumulated with the matching RK4 weights (Simpson-consistent),
    and qx is taken from the exponential rather than its own ODE so
    positivity is exact.
    """
    if len(stages) != 4:
        raise ValueError("advance_characteristics needs the four RK4 stage fields")
    k3 = p.k3

    def rates(stage, q):
        """(dq/dt, d/dt of the Jacobian exponent): u and u_x at -k3 q, one basis."""
        _, u, ux = stage
        vel, slope = g.interpolate(np.stack([u, ux]), -k3 * q)
        return vel, -k3 * slope

    s1, s2, s3, s4 = stages
    q = c.q
    a1, b1 = rates(s1, q)
    a2, b2 = rates(s2, q + 0.5 * dt * a1)
    a3, b3 = rates(s3, q + 0.5 * dt * a2)
    a4, b4 = rates(s4, q + dt * a3)

    q_new = q + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    acc_new = c.accumulated_integral + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(acc_new))):
        raise FloatingPointError("non-finite characteristic update (overflow)")
    if k3 != 0.0:
        margin = BOUNDARY_MARGIN * g.L
        inside = np.abs(k3 * c.labels) <= margin
        near = bool(np.any(np.abs(k3 * q_new[inside]) > margin))
    else:
        near = False
    return CharField(
        t=c.t + dt,
        labels=c.labels,
        q=q_new,
        qx=np.exp(acc_new),
        accumulated_integral=acc_new,
        rho0_at_labels=c.rho0_at_labels,
        near_boundary=near,
    )


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

"""Monitored quantities: norms, exact-identity residuals, a-posteriori
exponential bounds, symmetry checks, and the origin Riccati inequality.

Everything here is evaluated on recorded data after (or during) a run;
nothing feeds back into the evolution.  Time derivatives of integral
quantities are estimated by centered differences over the recording
grid, so identity residuals carry an O(h^2) budget in the recording
interval h — that budget, not the solver, is the accuracy limiter the
convergence tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import State
from .model import Branch, Framework, ModelParams, classify_scenario
from .spectral import Grid

# column order of the diagnostics CSV (stable, tested byte-wise)
DIAG_COLUMNS = (
    "t", "dt", "l2_u", "hs_u", "hsm1_rho", "min_ux", "max_ux", "sup_rho",
    "sup_rhox", "E1", "E2", "int_rho", "R_m2", "R_rho2", "R_rhox2",
    "R_rhoxx2", "transport_res", "symmetry_res",
)
EXTRA_COLUMNS = (
    "step", "u0", "ux0", "uxx0", "rho0", "conv0", "qx_min",
    "i_m2", "i_rho2", "i_rhox2", "i_rhoxx2",
    "s_m2", "s_rho2", "s_rhox2", "s_rhoxx2",
)


class SymmetryMode(Enum):
    U_ODD_RHO_EVEN = "u_odd_rho_even"
    U_ODD_RHO_ODD = "u_odd_rho_odd"


@dataclass
class DiagRecord:
    """One recorded time slice of the monitored quantities.

    The CSV columns map to the same-named fields (E1 -> e1, R_m2 ->
    r_m2, ...).  i_* / s_* are the left-side integrals and right-side
    quadratures of the four energy identities; the residual fields r_*
    are filled in a post-pass once both time neighbors exist, and stay
    0.0 on the first and last record.
    """

    step: int
    t: float
    dt: float
    l2_u: float
    hs_u: float
    hsm1_rho: float
    min_ux: float
    max_ux: float
    sup_rho: float
    sup_rhox: float
    e1: float
    e2: float
    int_rho: float
    u0: float
    ux0: float
    uxx0: float
    rho0: float
    conv0: float
    i_m2: float
    i_rho2: float
    i_rhox2: float
    i_rhoxx2: float
    s_m2: float
    s_rho2: float
    s_rhox2: float
    s_rhoxx2: float
    r_m2: float = 0.0
    r_rho2: float = 0.0
    r_rhox2: float = 0.0
    r_rhoxx2: float = 0.0
    transport_res: float = math.nan
    symmetry_res: float = math.nan
    qx_min: float = math.nan


@dataclass(frozen=True)
class EnergyScalars:
    """Integrals entering the identities at a single time.

    i_* are the left sides; s_* the right-side quadratures:
      d/dt int m^2      = (2k1-1) int m^2 u_x - k2 int u_x rho^2
                          + k2 int u_xxx rho^2
      d/dt int rho^2    = k3 int u_x rho^2
      d/dt int rho_x^2  = 3 k3 int u_x rho_x^2 - k3 int u_xxx rho^2
      d/dt int rho_xx^2 = 5 k3 int u_x rho_xx^2
                          + k3 int u_xxx (2 rho rho_xx - 3 rho_x^2)
    i_mx2 completes E1 = int(m^2 + m_x^2 + rho^2 + rho_x^2 + rho_xx^2).
    """

    i_m2: float
    i_mx2: float
    i_rho2: float
    i_rhox2: float
    i_rhoxx2: float
    s_m2: float
    s_rho2: float
    s_rhox2: float
    s_rhoxx2: float


def energy_scalars(s: State, p: ModelParams, g: Grid) -> EnergyScalars:
    u, rho = s.u, s.rho
    ux = g.derivative(u, 1)
    uxxx = g.derivative(u, 3)
    m = g.helmholtz(u)
    mx = g.derivative(m, 1)
    rhox = g.derivative(rho, 1)
    rhoxx = g.derivative(rho, 2)
    I = g.integrate
    k1, k2, k3 = p.k1, p.k2, p.k3
    return EnergyScalars(
        i_m2=I(m**2),
        i_mx2=I(mx**2),
        i_rho2=I(rho**2),
        i_rhox2=I(rhox**2),
        i_rhoxx2=I(rhoxx**2),
        s_m2=(2.0 * k1 - 1.0) * I(m**2 * ux) - k2 * I(ux * rho**2)
        + k2 * I(uxxx * rho**2),
        s_rho2=k3 * I(ux * rho**2),
        s_rhox2=3.0 * k3 * I(ux * rhox**2) - k3 * I(uxxx * rho**2),
        s_rhoxx2=5.0 * k3 * I(ux * rhoxx**2)
        + k3 * I(uxxx * (2.0 * rho * rhoxx - 3.0 * rhox**2)),
    )


def _mirror(f: np.ndarray) -> np.ndarray:
    # node j -> node (N - j) mod N, i.e. x -> -x on the symmetric grid
    return np.roll(f[::-1], 1)


def symmetry_residual(s: State, mode: SymmetryMode, g: Grid) -> float:
    """max |u(x) + u(-x)|  +  max |rho(x) -/+ rho(-x)| per mode."""
    ru = np.max(np.abs(s.u + _mirror(s.u)))
    if mode is SymmetryMode.U_ODD_RHO_EVEN:
        rr = np.max(np.abs(s.rho - _mirror(s.rho)))
    elif mode is SymmetryMode.U_ODD_RHO_ODD:
        rr = np.max(np.abs(s.rho + _mirror(s.rho)))
    else:
        raise ValueError(f"unknown symmetry mode {mode!r}")
    return float(ru + rr)


# the final state of an overflowing run is recorded as is: inf/nan
# fields, no numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def make_record(
    s: State,
    dt: float,
    p: ModelParams,
    g: Grid,
    step: int = 0,
    hs_order: float = 2.0,
    symmetry_mode: SymmetryMode | None = None,
    transport_res: float = math.nan,
    qx_min: float = math.nan,
) -> DiagRecord:
    """Evaluate all per-time diagnostics of one state."""
    u, rho = s.u, s.rho
    ux = g.derivative(u, 1)
    uxx = g.derivative(u, 2)
    rhox = g.derivative(rho, 1)
    es = energy_scalars(s, p, g)
    j0 = g.origin_index
    # p * [(k1/2)u^2 + ((3-k1)/2)u_x^2 + (k2/2)rho^2] at the origin;
    # products left un-dealiased so the integrand is pointwise >= 0
    # whenever k1 <= 3 and k2 >= 0.
    source = (0.5 * p.k1) * u**2 + (0.5 * (3.0 - p.k1)) * ux**2 + (0.5 * p.k2) * rho**2
    conv0 = float(g.helmholtz_inv(source)[j0])
    sym = math.nan if symmetry_mode is None else symmetry_residual(s, symmetry_mode, g)
    return DiagRecord(
        step=step,
        t=s.t,
        dt=dt,
        l2_u=math.sqrt(max(0.0, g.sobolev_norm_sq(u, 0.0))),
        hs_u=math.sqrt(max(0.0, g.sobolev_norm_sq(u, hs_order))),
        hsm1_rho=math.sqrt(max(0.0, g.sobolev_norm_sq(rho, hs_order - 1.0))),
        min_ux=float(np.min(ux)),
        max_ux=float(np.max(ux)),
        sup_rho=float(np.max(np.abs(rho))),
        sup_rhox=float(np.max(np.abs(rhox))),
        e1=es.i_m2 + es.i_mx2 + es.i_rho2 + es.i_rhox2 + es.i_rhoxx2,
        e2=es.i_m2 + es.i_rho2 + es.i_rhox2,
        int_rho=g.integrate(rho),
        u0=float(u[j0]),
        ux0=float(ux[j0]),
        uxx0=float(uxx[j0]),
        rho0=float(rho[j0]),
        conv0=conv0,
        i_m2=es.i_m2,
        i_rho2=es.i_rho2,
        i_rhox2=es.i_rhox2,
        i_rhoxx2=es.i_rhoxx2,
        s_m2=es.s_m2,
        s_rho2=es.s_rho2,
        s_rhox2=es.s_rhox2,
        s_rhoxx2=es.s_rhoxx2,
        transport_res=transport_res,
        symmetry_res=sym,
        qx_min=qx_min,
    )


def _exp_term(coeff: float, arg: float) -> float:
    """coeff * e^{arg}, saturating to +-inf instead of raising.

    Observed-extremum rate constants can push e^{arg} past float range
    on steep runs; a bound beyond float range is vacuously satisfied
    (or vacuously violated when negative), never an error.
    """
    if coeff == 0.0:
        return 0.0
    try:
        return coeff * math.exp(arg)
    except OverflowError:
        return math.copysign(math.inf, coeff)


def _exp_envelope(ts, vals, base: float, rate, slack: float):
    """Per-record bounds base e^{rate t} and the first violation.

    `rate` is one constant or one value per record; the bound at t = 0
    is base itself.  The first violation is the first t whose value
    exceeds its bound by more than the relative slack, or None.
    """
    rates = np.broadcast_to(rate, np.shape(ts))
    bounds = [base if t == 0.0 else _exp_term(base, float(r) * float(t))
              for t, r in zip(ts, rates)]
    first_bad = next((float(t) for t, v, b in zip(ts, vals, bounds)
                      if v > b * (1.0 + slack)), None)
    return bounds, first_bad


def _centered_slope(t0, t1, t2, f0, f1, f2) -> float:
    """Three-point derivative at the middle time, any spacing."""
    h1 = t1 - t0
    h2 = t2 - t1
    return float(
        (h1**2 * f2 + (h2**2 - h1**2) * f1 - h2**2 * f0)
        / (h1 * h2 * (h1 + h2))
    )


@dataclass(frozen=True)
class IdentityResiduals:
    r_m2: float
    r_rho2: float
    r_rhox2: float
    r_rhoxx2: float


def identity_residuals(
    s_prev: State, s_mid: State, s_next: State, p: ModelParams, g: Grid
) -> IdentityResiduals:
    """|d/dt of the left integral - right quadrature| at the middle time.

    The time derivative is a centered difference over the three states,
    so the residual of an exact identity decays as the square of the
    recording interval.
    """
    e0 = energy_scalars(s_prev, p, g)
    e1 = energy_scalars(s_mid, p, g)
    e2 = energy_scalars(s_next, p, g)
    t0, t1, t2 = s_prev.t, s_mid.t, s_next.t

    def res(attr_i: str, attr_s: str) -> float:
        slope = _centered_slope(
            t0, t1, t2,
            getattr(e0, attr_i), getattr(e1, attr_i), getattr(e2, attr_i),
        )
        return abs(slope - getattr(e1, attr_s))

    return IdentityResiduals(
        r_m2=res("i_m2", "s_m2"),
        r_rho2=res("i_rho2", "s_rho2"),
        r_rhox2=res("i_rhox2", "s_rhox2"),
        r_rhoxx2=res("i_rhoxx2", "s_rhoxx2"),
    )


def fill_identity_residuals(records: list[DiagRecord]) -> None:
    """Populate r_* on interior records from the stored i_*/s_* scalars.

    Equivalent to identity_residuals over the recorded states, but
    works from scalars so full fields need not be kept.  Endpoints
    keep r_* = 0.0 (no centered difference exists there).
    """
    pairs = (("i_m2", "s_m2", "r_m2"), ("i_rho2", "s_rho2", "r_rho2"),
             ("i_rhox2", "s_rhox2", "r_rhox2"), ("i_rhoxx2", "s_rhoxx2", "r_rhoxx2"))
    for j in range(1, len(records) - 1):
        r0, r1, r2 = records[j - 1], records[j], records[j + 1]
        for attr_i, attr_s, attr_r in pairs:
            slope = _centered_slope(
                r0.t, r1.t, r2.t,
                getattr(r0, attr_i), getattr(r1, attr_i), getattr(r2, attr_i),
            )
            setattr(r1, attr_r, abs(slope - getattr(r1, attr_s)))


@dataclass(frozen=True)
class GronwallResult:
    branch: Branch
    boundary_overlap: bool
    m1: float
    c: float
    e2_initial: float
    ok: bool
    first_violation_t: float | None
    worst_ratio: float  # max over records of E2(t) / (e^{ct} E2(0))


def gronwall_check_h2(records, p: ModelParams, slack: float = 1e-8) -> GronwallResult:
    """A-posteriori exponential bound on E2 = int(m^2 + rho^2 + rho_x^2).

    The branch of the H2-frame classification picks the constant:
      one-sided low  (u_x >= -M1): c = (-2k1+k2-4k3+1) M1
                                       + 2(k2-k3) e^{-k3 M1 T} sup|rho0|
      one-sided high (u_x <= +M1): c = (2k1-k2+4k3-1) M1
                                       + 2(k3-k2) e^{+k3 M1 T} sup|rho0|
      two-sided     (|u_x| <= M1): c = (|2k1-1|+|k3-k2|+3|k3|) M1
                                       + 2|k2-k3| e^{|k3| M1 T} sup|rho0|
    with M1 the observed extremum over the whole run and T its final
    time.  The a-priori form of the bound assumes these constants up
    front; feeding back observed values turns it into a falsifiable
    statement about the run.
    """
    sb = classify_scenario(p, Framework.H2)
    ts = np.array([r.t for r in records])
    min_ux = np.array([r.min_ux for r in records])
    max_ux = np.array([r.max_ux for r in records])
    e2 = np.array([r.e2 for r in records])
    rho0_sup = records[0].sup_rho
    T = float(ts[-1])
    k1, k2, k3 = p.k1, p.k2, p.k3

    if sb.branch is Branch.NEG_INF_UX:
        m1 = max(0.0, float(-np.min(min_ux)))
        c = (-2.0 * k1 + k2 - 4.0 * k3 + 1.0) * m1 \
            + _exp_term(2.0 * (k2 - k3) * rho0_sup, -k3 * m1 * T)
    elif sb.branch is Branch.POS_INF_UX:
        m1 = max(0.0, float(np.max(max_ux)))
        c = (2.0 * k1 - k2 + 4.0 * k3 - 1.0) * m1 \
            + _exp_term(2.0 * (k3 - k2) * rho0_sup, k3 * m1 * T)
    else:
        m1 = float(np.max(np.maximum(np.abs(min_ux), np.abs(max_ux))))
        c = (abs(2.0 * k1 - 1.0) + abs(k3 - k2) + 3.0 * abs(k3)) * m1 \
            + _exp_term(2.0 * abs(k2 - k3) * rho0_sup, abs(k3) * m1 * T)

    e2_0 = float(e2[0])
    bounds, first_bad = _exp_envelope(ts, e2, e2_0, c, slack)
    worst = max([0.0] + [v / b for v, b in zip(e2, bounds) if b > 0.0])
    return GronwallResult(
        branch=sb.branch,
        boundary_overlap=sb.boundary_overlap,
        m1=m1,
        c=c,
        e2_initial=e2_0,
        ok=first_bad is None,
        first_violation_t=first_bad,
        worst_ratio=worst,
    )


@dataclass(frozen=True)
class H3EnergyResult:
    applicable: bool
    branch: Branch
    m1: float
    m2: float
    c: float
    ok: bool
    first_violation_t: float | None
    worst_ratio: float


def h3_energy_check(records, p: ModelParams, slack: float = 1e-8) -> H3EnergyResult:
    """Flag-gated exponential bound on E1 (the H^3-level functional).

    Only the two one-sided branches of the high-regularity frame come
    with a stated constant:
      low:  c = (-3k1+k2-9k3) M1
              + 3[(|2k2-k3| + 2|k3-k2|) e^{-k3 M1 T} sup|rho0| + |2k2+3k3| M2]
      high: the sign-mirrored constant with e^{+k3 M1 T}.
    M2 bounds sup|rho_x|.  The two-sided branch has no stated constant
    and is reported as not applicable.  Positivity of c is not obvious
    for all admissible coefficients; violations are reported, never
    suppressed (hence the flag).
    """
    sb = classify_scenario(p, Framework.HS)
    ts = np.array([r.t for r in records])
    min_ux = np.array([r.min_ux for r in records])
    max_ux = np.array([r.max_ux for r in records])
    e1 = np.array([r.e1 for r in records])
    m2 = float(np.max([r.sup_rhox for r in records]))
    rho0_sup = records[0].sup_rho
    T = float(ts[-1])
    k1, k2, k3 = p.k1, p.k2, p.k3

    if sb.branch is Branch.NEG_INF_UX:
        m1 = max(0.0, float(-np.min(min_ux)))
        c = (-3.0 * k1 + k2 - 9.0 * k3) * m1 \
            + _exp_term(3.0 * (abs(2.0 * k2 - k3) + 2.0 * abs(k3 - k2))
                        * rho0_sup, -k3 * m1 * T) \
            + 3.0 * abs(2.0 * k2 + 3.0 * k3) * m2
    elif sb.branch is Branch.POS_INF_UX:
        m1 = max(0.0, float(np.max(max_ux)))
        c = (3.0 * k1 - k2 + 9.0 * k3) * m1 \
            + _exp_term(3.0 * (abs(2.0 * k2 - k3) + 2.0 * abs(k3 - k2))
                        * rho0_sup, k3 * m1 * T) \
            + 3.0 * abs(2.0 * k2 + 3.0 * k3) * m2
    else:
        return H3EnergyResult(False, sb.branch, 0.0, m2, 0.0, True, None, 0.0)

    bounds, first_bad = _exp_envelope(ts, e1, float(e1[0]), c, slack)
    worst = max([0.0] + [v / b for v, b in zip(e1, bounds) if b > 0.0])
    return H3EnergyResult(True, sb.branch, m1, m2, c, first_bad is None,
                          first_bad, worst)


@dataclass(frozen=True)
class RiccatiResult:
    """Outcome of the origin slope inequality checks.

    For odd u / even rho with rho(0) = 0, h(t) = u_x(t, 0) obeys
        dh/dt = ((k1-1)/2) h^2 + (p * F)(0) >= ((k1-1)/2) h^2
    (F is the nonneg source when k1 <= 3, k2 >= 0), whose integrated
    form is the reciprocal bound
        1/h(t) <= 1/h(t0) - ((k1-1)/2)(t - t0)
    from any t0 with h(t0) > 0 — forcing h -> +inf no later than
    t0 + 2/((k1-1) h(t0)).
    """

    ok_derivative: bool
    derivative_first_violation_t: float | None
    ok_reciprocal: bool
    reciprocal_first_violation_t: float | None
    t0: float | None  # start of the reciprocal check (first h > 0)
    h0: float | None
    increasing_until_t: float  # end of the initial strictly-increasing span of h


def riccati_check(records, p: ModelParams, tol_coeff: float = 1e-4) -> RiccatiResult:
    """Verify the origin Riccati inequality on the recorded h = u_x(t,0).

    (a) at every interior recorded time, the centered-difference slope
        satisfies dh/dt >= ((k1-1)/2) h^2 - tol;
    (b) from the first record with h > 0, the reciprocal bound
        1/h(t) <= 1/h(t0) - ((k1-1)/2)(t - t0) + tol holds, and h stays
        positive;
    with tol = tol_coeff * (1 + h^2) evaluated at the checked record.
    """
    if not 1.0 < p.k1 <= 3.0:
        raise ValueError(f"riccati check needs 1 < k1 <= 3, got k1={p.k1}")
    if p.k2 < 0.0:
        raise ValueError(f"riccati check needs k2 >= 0, got k2={p.k2}")
    ts = np.array([r.t for r in records])
    h = np.array([r.ux0 for r in records])
    half = 0.5 * (p.k1 - 1.0)

    deriv_bad = None
    for j in range(1, len(records) - 1):
        slope = _centered_slope(ts[j - 1], ts[j], ts[j + 1],
                                h[j - 1], h[j], h[j + 1])
        if slope < half * h[j] ** 2 - tol_coeff * (1.0 + h[j] ** 2):
            deriv_bad = float(ts[j])
            break

    inc_end = len(h) - 1
    for j in range(len(h) - 1):
        if not h[j + 1] > h[j]:
            inc_end = j
            break

    pos = np.nonzero(h > 0.0)[0]
    if pos.size == 0:
        return RiccatiResult(deriv_bad is None, deriv_bad, True, None, None,
                             None, float(ts[inc_end]))
    i0 = int(pos[0])
    t0, h0 = float(ts[i0]), float(h[i0])
    recip_bad = None
    for j in range(i0 + 1, len(h)):
        tol = tol_coeff * (1.0 + h[j] ** 2)
        if h[j] <= 0.0:
            recip_bad = float(ts[j])
            break
        if 1.0 / h[j] > 1.0 / h0 - half * (ts[j] - t0) + tol:
            recip_bad = float(ts[j])
            break
    return RiccatiResult(deriv_bad is None, deriv_bad, recip_bad is None,
                         recip_bad, t0, h0, float(ts[inc_end]))


@dataclass(frozen=True)
class ConservationResult:
    ok: bool
    baseline: float
    max_abs_drift: float
    rel_drift: float


def conservation_check(records, rel_tol: float = 1e-12) -> ConservationResult:
    """Drift of int rho dx, relative to max(|initial value|, 1)."""
    vals = np.array([r.int_rho for r in records])
    base = float(vals[0])
    drift = float(np.max(np.abs(vals - base)))
    rel = drift / max(abs(base), 1.0)
    return ConservationResult(rel <= rel_tol, base, drift, rel)

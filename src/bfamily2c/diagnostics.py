"""Monitored quantities: norms, exact-identity residuals, a-posteriori
exponential bounds, symmetry checks, and the origin Riccati inequality.

Everything here is evaluated on recorded data after (or during) a run;
nothing feeds back into the evolution.  The time derivative of each
energy integral is taken from the recorded state's own tendency, so the
2/3-rule system keeps every identity to roundoff at any resolution.

Each check maps the records to a frozen result whose `ok` is its
verdict; the manifest writes the other fields in declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dynamics import State, Tendency, Workspace
from .model import (Branch, Framework, ModelParams, ParamStack,
                    classify_scenario)
from .spectral import Grid

# column order of the CSVs (stable, tested byte-wise); README's Outputs
# section names the check that reads each column, or why it is kept
DIAG_COLUMNS = (
    "t", "dt", "h1_u", "min_ux", "max_ux", "sup_rho", "sup_rhox", "E1", "E2",
    "int_rho", "transport_res", "symmetry_res",
)
EXTRA_COLUMNS = (
    "step", "u0", "ux0", "uxx0", "rho0", "conv0", "qx_min",
    "i_m2", "i_rho2", "i_rhox2", "i_rhoxx2",
    "s_m2", "s_rho2", "s_rhox2", "s_rhoxx2",
    "d_m2", "d_rho2", "d_rhox2", "d_rhoxx2",
)


class SymmetryMode(Enum):
    U_ODD_RHO_EVEN = "u_odd_rho_even"
    U_ODD_RHO_ODD = "u_odd_rho_odd"


@dataclass
class DiagRecord:
    """One recorded time slice of the monitored quantities.

    The CSV columns map to the same-named fields (E1 -> e1, ...).
    i_* / s_* are the left-side integrals and right-side quadratures of
    the four energy identities
      d/dt int m^2      = (2k1-1) int m^2 u_x - k2 int u_x rho^2
                          + k2 int u_xxx rho^2
      d/dt int rho^2    = k3 int u_x rho^2
      d/dt int rho_x^2  = 3 k3 int u_x rho_x^2 - k3 int u_xxx rho^2
      d/dt int rho_xx^2 = 5 k3 int u_x rho_xx^2
                          + k3 int u_xxx (2 rho rho_xx - 3 rho_x^2)
    and d_* the time derivatives of the i_*, taken from the evaluated
    tendency.  E1 = int(m^2 + m_x^2 + rho^2 + rho_x^2 + rho_xx^2),
    h1_u = int(u^2 + u_x^2).
    """

    step: int
    t: float
    dt: float
    h1_u: float
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
    d_m2: float
    d_rho2: float
    d_rhox2: float
    d_rhoxx2: float
    transport_res: float = math.nan
    symmetry_res: float = math.nan
    qx_min: float = math.nan


def _mirror(f: np.ndarray) -> np.ndarray:
    # node j -> node (N - j) mod N, i.e. x -> -x on the symmetric grid
    return np.roll(f[..., ::-1], 1, axis=-1)


def symmetry_residual(s: State, mode: SymmetryMode, g: Grid) -> np.ndarray:
    """max |u(x) + u(-x)|  +  max |rho(x) -/+ rho(-x)| per mode, one
    residual per member of s."""
    ru = np.max(np.abs(s.u + _mirror(s.u)), axis=-1)
    if mode is SymmetryMode.U_ODD_RHO_EVEN:
        rr = np.max(np.abs(s.rho - _mirror(s.rho)), axis=-1)
    elif mode is SymmetryMode.U_ODD_RHO_ODD:
        rr = np.max(np.abs(s.rho + _mirror(s.rho)), axis=-1)
    else:
        raise ValueError(f"unknown symmetry mode {mode!r}")
    return ru + rr


# the final state of an overflowing run is recorded as is: inf/nan
# fields, no numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def make_record(
    k: Tendency,
    dt: float | Sequence[float],
    p: ParamStack,
    g: Grid,
    step: int = 0,
    symmetry_mode: SymmetryMode | None = None,
    transport_res: float | Sequence[float] = math.nan,
    qx_min: float | Sequence[float] = math.nan,
    ws: Workspace | None = None,
) -> list[DiagRecord]:
    """Evaluate all per-time diagnostics of a batch: one record per
    member of k, the evaluation of the batch's spectrum at its times,
    with p the members' ParamStack.

    u, rho and u_x are the evaluation's physical rows, and the other
    spectral quantities come from its spectra: one irfft of seven rows
    (u_xx, u_xxx, m, m_x, rho_x, rho_xx, and source / (1 + kappa^2) for
    conv0), written into ws (a fresh Workspace when None).  d_* are
    Parseval sums of the spectrum against the tendency's kept bins.  dt,
    transport_res and qx_min are one value for all members or one per
    member.  Each record is bit for bit the one of its member alone.
    """
    B, d = len(k.t), g.deriv_mult
    if ws is None:
        ws = Workspace(B, g)
    spec = ws.rec_spec[:, :B]
    u, rho, ux = k.u, k.rho, k.ux
    uh, rh = k.yh
    np.multiply(uh, d[2], out=spec[0])
    np.multiply(uh, d[3], out=spec[1])
    mh = np.multiply(uh, g.helm, out=spec[2])
    np.multiply(mh, g.ik, out=spec[3])
    np.multiply(rh, d[1], out=spec[4])
    np.multiply(rh, d[2], out=spec[5])
    # conv: (1 - dx^2)^{-1} of eval_rhs's nonlocal source, whose products
    # are left un-dealiased so its integrand is pointwise >= 0 whenever
    # k1 <= 3 and k2 >= 0
    np.divide(k.sh, g.helm, out=spec[6])
    uxx, uxxx, m, mx, rhox, rhoxx, conv = np.fft.irfft(
        spec, n=g.N, out=ws.rec_fields[:, :B])

    I = g.integrate
    # the fields broadcast against p's coefficients, the per-member
    # scalars against these flat ones
    k1, k2, k3 = np.ravel(p.k1), np.ravel(p.k2), np.ravel(p.k3)
    i_m2, i_mx2, i_rho2 = I(m**2), I(mx**2), I(rho**2)
    i_rhox2, i_rhoxx2 = I(rhox**2), I(rhoxx**2)
    # d/dt i_* = (2L/N^2) sum w lambda 2 Re(conj(f^) df^), lambda =
    # (1 + kappa^2)^2 for m and 1, kappa^2, kappa^4 for rho, over the
    # n_keep bins the tendency holds: all below Nyquist, so w = 2 but on
    # bin 0
    K = g.n_keep
    w = np.full(K, 4.0 * g.L / g.N**2)
    w[1:] *= 2.0
    du = (uh[:, :K].conj() * k.dyh[0]).real * w
    drho = (rh[:, :K].conj() * k.dyh[1]).real * w
    kappa2 = g.k[:K] ** 2
    j0 = g.origin_index
    sym = (math.nan if symmetry_mode is None
           else symmetry_residual(State(k.t, k.y), symmetry_mode, g))
    columns = dict(
        step=step,
        t=k.t,
        dt=dt,
        h1_u=g.spectrum_norm_sq(uh, 1.0),
        min_ux=ux.min(axis=-1),
        max_ux=ux.max(axis=-1),
        sup_rho=np.abs(rho).max(axis=-1),
        sup_rhox=np.abs(rhox).max(axis=-1),
        e1=i_m2 + i_mx2 + i_rho2 + i_rhox2 + i_rhoxx2,
        e2=i_m2 + i_rho2 + i_rhox2,
        int_rho=I(rho),
        u0=u[..., j0],
        ux0=ux[..., j0],
        uxx0=uxx[..., j0],
        rho0=rho[..., j0],
        conv0=conv[..., j0],
        i_m2=i_m2,
        i_rho2=i_rho2,
        i_rhox2=i_rhox2,
        i_rhoxx2=i_rhoxx2,
        s_m2=(2.0 * k1 - 1.0) * I(m**2 * ux) - k2 * I(ux * rho**2)
        + k2 * I(uxxx * rho**2),
        s_rho2=k3 * I(ux * rho**2),
        s_rhox2=3.0 * k3 * I(ux * rhox**2) - k3 * I(uxxx * rho**2),
        s_rhoxx2=5.0 * k3 * I(ux * rhoxx**2)
        + k3 * I(uxxx * (2.0 * rho * rhoxx - 3.0 * rhox**2)),
        d_m2=(du * g.helm[:K] ** 2).sum(axis=-1),
        d_rho2=drho.sum(axis=-1),
        d_rhox2=(drho * kappa2).sum(axis=-1),
        d_rhoxx2=(drho * kappa2**2).sum(axis=-1),
        transport_res=transport_res,
        symmetry_res=sym,
        qx_min=qx_min,
    )
    rows = zip(*(_per_member(v, len(k.t)) for v in columns.values()))
    return [DiagRecord(**dict(zip(columns, row))) for row in rows]


def _per_member(v, n: int) -> list:
    """The n Python scalars of a per-member column, or n copies of one value."""
    a = np.asarray(v)
    return a.tolist() if a.ndim else [a.item()] * n


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


def _ux_extremum(records, branch: Branch) -> float:
    """M1: the largest observed excursion of u_x on the branch's side(s)."""
    min_ux = np.array([r.min_ux for r in records])
    max_ux = np.array([r.max_ux for r in records])
    if branch is Branch.NEG_INF_UX:
        return max(0.0, float(-np.min(min_ux)))
    if branch is Branch.POS_INF_UX:
        return max(0.0, float(np.max(max_ux)))
    return float(np.max(np.maximum(np.abs(min_ux), np.abs(max_ux))))


def _energy_envelope(records, field: str, c: float, slack: float):
    """(first violation, worst ratio) of a record field against f(0) e^{ct}."""
    ts = np.array([r.t for r in records])
    vals = np.array([getattr(r, field) for r in records])
    bounds, first_bad = _exp_envelope(ts, vals, float(vals[0]), c, slack)
    # Python floats: an overflowed run's inf / inf is nan without a warning
    worst = max([0.0] + [v / b for v, b in zip(vals.tolist(), bounds) if b > 0.0])
    return first_bad, worst


def _centered_slope(t0, t1, t2, f0, f1, f2) -> float:
    """Three-point derivative at the middle time, any spacing."""
    h1 = t1 - t0
    h2 = t2 - t1
    return float(
        (h1**2 * f2 + (h2**2 - h1**2) * f1 - h2**2 * f0)
        / (h1 * h2 * (h1 + h2))
    )


@dataclass(frozen=True)
class GronwallResult:
    branch: Branch
    boundary_overlap: bool
    m1: float
    c: float
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
    m1 = _ux_extremum(records, sb.branch)
    rho0_sup, T = records[0].sup_rho, float(records[-1].t)
    k1, k2, k3 = p.k1, p.k2, p.k3

    if sb.branch is Branch.NEG_INF_UX:
        c = (-2.0 * k1 + k2 - 4.0 * k3 + 1.0) * m1 \
            + _exp_term(2.0 * (k2 - k3) * rho0_sup, -k3 * m1 * T)
    elif sb.branch is Branch.POS_INF_UX:
        c = (2.0 * k1 - k2 + 4.0 * k3 - 1.0) * m1 \
            + _exp_term(2.0 * (k3 - k2) * rho0_sup, k3 * m1 * T)
    else:
        c = (abs(2.0 * k1 - 1.0) + abs(k3 - k2) + 3.0 * abs(k3)) * m1 \
            + _exp_term(2.0 * abs(k2 - k3) * rho0_sup, abs(k3) * m1 * T)

    first_bad, worst = _energy_envelope(records, "e2", c, slack)
    return GronwallResult(
        branch=sb.branch,
        boundary_overlap=sb.boundary_overlap,
        m1=m1,
        c=c,
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
    m2 = float(np.max([r.sup_rhox for r in records]))
    if sb.branch is Branch.TWO_SIDED_UX:
        return H3EnergyResult(False, sb.branch, 0.0, m2, 0.0, True, None, 0.0)
    m1 = _ux_extremum(records, sb.branch)
    rho0_sup, T = records[0].sup_rho, float(records[-1].t)
    k1, k2, k3 = p.k1, p.k2, p.k3

    if sb.branch is Branch.NEG_INF_UX:
        c = (-3.0 * k1 + k2 - 9.0 * k3) * m1 \
            + _exp_term(3.0 * (abs(2.0 * k2 - k3) + 2.0 * abs(k3 - k2))
                        * rho0_sup, -k3 * m1 * T) \
            + 3.0 * abs(2.0 * k2 + 3.0 * k3) * m2
    else:
        c = (3.0 * k1 - k2 + 9.0 * k3) * m1 \
            + _exp_term(3.0 * (abs(2.0 * k2 - k3) + 2.0 * abs(k3 - k2))
                        * rho0_sup, k3 * m1 * T) \
            + 3.0 * abs(2.0 * k2 + 3.0 * k3) * m2

    first_bad, worst = _energy_envelope(records, "e1", c, slack)
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

    @property
    def ok(self) -> bool:
        return self.ok_derivative and self.ok_reciprocal


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


def _finite_max(vals) -> float:
    arr = np.asarray(vals, dtype=float)
    arr = arr[np.isfinite(arr)]
    return float(np.max(arr)) if arr.size else math.nan


@dataclass(frozen=True)
class TransportResult:
    ok: bool
    max_residual: float  # max finite transport_res, nan if none
    qx_min: float  # min finite Jacobian floor, nan if none
    tol: float


def transport_check(records, tol: float = 1e-6) -> TransportResult:
    """Transport invariant within tol, and the flow map still increasing."""
    worst = _finite_max([r.transport_res for r in records])
    qx_min = min((r.qx_min for r in records if math.isfinite(r.qx_min)),
                 default=math.nan)
    ok = (math.isfinite(worst) and worst <= tol
          and math.isfinite(qx_min) and qx_min > 0.0)
    return TransportResult(ok, worst, qx_min, tol)


@dataclass(frozen=True)
class IdentityResidual:
    max_residual: float
    scale: float  # max |right side| over the records
    rel_residual: float


@dataclass(frozen=True)
class IdentitiesResult:
    ok: bool
    rel_tol: float
    m2: IdentityResidual
    rho2: IdentityResidual
    rhox2: IdentityResidual
    rhoxx2: IdentityResidual


def identities_check(records, rel_tol: float = 1e-10) -> IdentitiesResult:
    """Largest |d_* - s_*| of each energy identity relative to its s_* scale."""
    def residual(name: str) -> IdentityResidual:
        res_max = max(abs(getattr(r, f"d_{name}") - getattr(r, f"s_{name}"))
                      for r in records)
        scale = max(abs(getattr(r, f"s_{name}")) for r in records)
        rel = res_max / scale if scale > 0.0 else (0.0 if res_max == 0.0
                                                   else math.inf)
        return IdentityResidual(res_max, scale, rel)

    per = {name: residual(name) for name in ("m2", "rho2", "rhox2", "rhoxx2")}
    return IdentitiesResult(all(v.rel_residual <= rel_tol for v in per.values()),
                            rel_tol, **per)


@dataclass(frozen=True)
class SymmetryResult:
    ok: bool
    max_residual: float
    tol: float
    mode: SymmetryMode


def symmetry_check(records, mode: SymmetryMode,
                   tol: float = 1e-10) -> SymmetryResult:
    """The recorded parity residuals stay within tol."""
    worst = _finite_max([r.symmetry_res for r in records])
    return SymmetryResult(math.isfinite(worst) and worst <= tol, worst, tol, mode)


@dataclass(frozen=True)
class OriginResult:
    ok: bool
    max_value: float  # max over records of |u(0)|, |u_xx(0)|, |rho(0)|
    tol: float


def origin_check(records, tol: float = 1e-9) -> OriginResult:
    """u, u_xx and rho stay pinned to zero at the origin."""
    worst = max(max(abs(r.u0), abs(r.uxx0), abs(r.rho0)) for r in records)
    return OriginResult(worst <= tol, worst, tol)

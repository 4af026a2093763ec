"""Acceptance battery: one test per shipped guarantee.

Each test prints a single "[A##] <label>: PASS/FAIL" line (stdout is
unbuffered by default here, see addopts in pyproject.toml) and fails
listing the offending clauses.  The battery includes the large
wave-breaking runs, so expect about a minute of wall time.

The wave-breaking runs stop once the grid no longer resolves them
(StepControl.resolution_tol = RESOLUTION_TOL), and their clauses are
asserted on that resolved part of each run, at their stated
tolerances.  What a Fourier grid cannot show (a slope beyond its
Bernstein ceiling, a detection that needs the step to collapse) is
not asserted; the repository notes give the figures.
"""

import json
import math

import numpy as np
import pytest

from bfamily2c import (RESOLUTION_TOL, CaseTag, DiagSettings, Grid, InitKind,
                       InitSpec, RunStatus, State, StepControl, SymmetryMode,
                       blowup_bound, conservation_check,
                       fill_identity_residuals, gronwall_check_h2,
                       make_params, make_record, profile, rho_sup_bound_check,
                       riccati_check, run, step_rk4)
from bfamily2c.cli import main


def criterion(num: int, label: str, clauses) -> None:
    """Print the one-line verdict, then assert every clause."""
    bad = [name for name, ok in clauses if not ok]
    tag = "PASS" if not bad else "FAIL"
    detail = "" if not bad else " -- failing: " + "; ".join(bad)
    print(f"\n[A{num:02d}] {label}: {tag}{detail}")
    assert not bad, f"[A{num:02d}] {label}: {len(bad)} failing clause(s): {bad}"


# ----------------------------------------------------------------------
# shared runs

GAUSS_U = InitSpec(InitKind.GAUSSIAN)
GAUSS_RHO = InitSpec(InitKind.GAUSSIAN, amplitude=0.5)
BREAKING_BS = (1.5, 2.0, 2.5, 3.0)
CUBIC_T_END = 6.0
STOPPED = (RunStatus.RESOLUTION_LOST, RunStatus.BLOW_UP_DETECTED)


@pytest.fixture(scope="session")
def grid_smooth():
    return Grid(20.0, 1024)


@pytest.fixture(scope="session")
def grid_breaking():
    return Grid(10.0, 4096)


def records_at_stride(states, stride, p, g):
    """Diagnostics rows sampled every `stride` stored states."""
    recs = []
    prev_t = None
    for s in states[::stride]:
        recs.append(make_record(s, 0.0 if prev_t is None else s.t - prev_t,
                                p, g))
        prev_t = s.t
    fill_identity_residuals(recs)
    return recs


@pytest.fixture(scope="session")
def identity_run(grid_smooth):
    """Smooth case-(i) b=2 run at fixed dt=1e-3 to t=0.3, all states kept."""
    g = grid_smooth
    p = make_params(CaseTag.CASE_I, 2.0)
    s = State(0.0, np.stack([profile(GAUSS_U, g), profile(GAUSS_RHO, g)]))
    states = [s]
    for _ in range(300):
        s, _ = step_rk4(s, 1e-3, p, g)
        states.append(s)
    return p, g, states


@pytest.fixture(scope="session")
def transport_run(grid_smooth):
    g = grid_smooth
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = State(0.0, np.stack([profile(GAUSS_U, g), profile(GAUSS_RHO, g)]))
    traj, report = run(s0, p, StepControl(t_end=0.5), g,
                       diag=DiagSettings(char_stride=4))
    return p, traj, report


@pytest.fixture(scope="session")
def caseii_run(grid_smooth):
    g = grid_smooth
    p = make_params(CaseTag.CASE_II, 0.5)
    s0 = State(0.0, np.stack([profile(GAUSS_U, g), profile(GAUSS_RHO, g)]))
    traj, report = run(s0, p, StepControl(t_end=0.5), g)
    return p, traj, report


@pytest.fixture(scope="session")
def smooth_suite(identity_run, transport_run, caseii_run):
    p_i, g, states = identity_run
    return {
        "case_i b=2 fixed-dt": (p_i, records_at_stride(states, 1, p_i, g)),
        "case_i b=2 transport": (transport_run[0], transport_run[1].records),
        "case_ii b=0.5": (caseii_run[0], caseii_run[1].records),
    }


def breaking_run(g, b, rho_spec, mode, t_end):
    p = make_params(CaseTag.CASE_I, b)
    s0 = State(0.0, np.stack([profile(InitSpec(InitKind.ODD_GAUSSIAN), g),
                              profile(rho_spec, g)]))
    ctl = StepControl(t_end=t_end, blowup_grad_threshold=1e4,
                      resolution_tol=RESOLUTION_TOL)
    return (p, *run(s0, p, ctl, g,
                    diag=DiagSettings(every=5, symmetry_mode=mode,
                                      char_stride=0)))


def cubic_run(g, rho_spec, mode):
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = State(0.0, np.stack([profile(InitSpec(InitKind.ODD_CUBIC), g),
                              profile(rho_spec, g)]))
    ctl = StepControl(t_end=CUBIC_T_END, blowup_grad_threshold=1e4,
                      resolution_tol=RESOLUTION_TOL)
    return (p, *run(s0, p, ctl, g,
                    diag=DiagSettings(every=5, symmetry_mode=mode,
                                      char_stride=0)))


EVEN_RHO = InitSpec(InitKind.EVEN_BUMP_ZERO_AT_ORIGIN, amplitude=0.5)
ODD_RHO = InitSpec(InitKind.ODD_GAUSSIAN, amplitude=0.5)


@pytest.fixture(scope="session")
def even_rho_battery(grid_breaking):
    out = {}
    for b in BREAKING_BS:
        t_end = 1.3 * blowup_bound(make_params(CaseTag.CASE_I, b), 1.0)
        out[b] = breaking_run(grid_breaking, b, EVEN_RHO,
                              SymmetryMode.U_ODD_RHO_EVEN, t_end)
    return out


@pytest.fixture(scope="session")
def odd_rho_battery(grid_breaking):
    out = {}
    for b in BREAKING_BS:
        t_end = 1.3 * blowup_bound(make_params(CaseTag.CASE_I, b), 1.0)
        out[b] = breaking_run(grid_breaking, b, ODD_RHO,
                              SymmetryMode.U_ODD_RHO_ODD, t_end)
    return out


@pytest.fixture(scope="session")
def cubic_runs(grid_breaking):
    return {
        "even": cubic_run(grid_breaking, EVEN_RHO, SymmetryMode.U_ODD_RHO_EVEN),
        "odd": cubic_run(grid_breaking, ODD_RHO, SymmetryMode.U_ODD_RHO_ODD),
    }


def parity_window(traj, report):
    """Records up to 10 steps before a detection, or the whole run."""
    if report.status is RunStatus.BLOW_UP_DETECTED:
        cut = report.n_steps - 10
        return [r for r in traj.records if r.step <= cut]
    return list(traj.records)


def breaking_clauses(name, p, traj, report, bound):
    """The wave-breaking claims for one odd-u0 run with u0'(0) = 1.

    The grid cannot show the slope blowing up: the 2/3 rule caps |u_x|
    near (N/3)(pi/L) sup|u| (Bernstein), far below the cfl/dt_min a
    detection needs.  What it can show is the origin slope growing at
    least as fast as the Riccati bound demands, with its maximum at the
    origin, until the grid stops resolving it before the bound.
    """
    h = [r.ux0 for r in traj.records]
    last = traj.records[-1]
    recip = riccati_check(traj.records, p).ok_reciprocal
    return [
        (f"{name}: run stops before 2/((k1-1) u0'(0)), resolution lost "
         "or blow-up detected",
         report.status in STOPPED and report.t_final < bound),
        (f"{name}: max u_x is at the origin on the last record",
         last.max_ux == last.ux0),
        (f"{name}: u_x(t,0) strictly increasing across records",
         all(b > a for a, b in zip(h, h[1:]))),
        (f"{name}: reciprocal slope bound at all recorded times", recip),
    ]


def flat_start_clauses(name, traj, report):
    """The claims for the cubic (u0'(0) = 0) wave-breaking run."""
    h = [r.ux0 for r in traj.records]
    return [
        (f"{name}: u_x(0,0) = 0", abs(h[0]) <= 1e-12),
        (f"{name}: u_x(t,0) strictly increasing across records",
         all(b > a for a, b in zip(h, h[1:]))),
        (f"{name}: u_x(t,0) becomes positive", any(v > 0.0 for v in h)),
        (f"{name}: run stops before t_end, resolution lost or blow-up "
         "detected",
         report.status in STOPPED and report.t_final < CUBIC_T_END),
    ]


def parity_clauses(name, traj, report):
    w = parity_window(traj, report)
    return [
        (f"{name}: symmetry residual <= 1e-10",
         max(r.symmetry_res for r in w) <= 1e-10),
        (f"{name}: |u(t,0)| <= 1e-9", max(abs(r.u0) for r in w) <= 1e-9),
        (f"{name}: |u_xx(t,0)| <= 1e-9", max(abs(r.uxx0) for r in w) <= 1e-9),
        (f"{name}: |rho(t,0)| <= 1e-9", max(abs(r.rho0) for r in w) <= 1e-9),
    ]


# ----------------------------------------------------------------------
# the criteria

def test_a01_inverse_helmholtz():
    g = Grid(30.0, 2048)
    clauses = []
    for c in (0.0, 5.0, -5.0):
        f = np.exp(-np.abs(g.x - c))
        diff = float(np.max(np.abs(g.helmholtz_inv(f) - g.green_convolve(f))))
        clauses.append((f"center {c:+g}: solver vs kernel sum {diff:.2e} <= 1e-4",
                        diff <= 1e-4))
    ge = Grid(math.pi, 64)
    err = float(np.max(np.abs(ge.helmholtz_inv(np.sin(ge.x))
                              - 0.5 * np.sin(ge.x))))
    clauses.append((f"eigenfunction sin x -> sin x / 2, err {err:.2e} <= 1e-12",
                    err <= 1e-12))
    criterion(1, "inverse Helmholtz agrees with the kernel convolution",
              clauses)


def test_a02_rk4_self_convergence(grid_smooth):
    g = grid_smooth
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = State(0.0, np.stack([profile(GAUSS_U, g), profile(GAUSS_RHO, g)]))

    def advance(dt):
        s = s0
        for _ in range(round(0.2 / dt)):
            s, _ = step_rk4(s, dt, p, g)
        return s.u

    ref = advance(5e-4)
    errs = [float(np.max(np.abs(advance(dt) - ref)))
            for dt in (8e-3, 4e-3, 2e-3)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    clauses = [(f"error ratio {r1:.2f} within 16 +- 20%", 12.8 <= r1 <= 19.2),
               (f"error ratio {r2:.2f} within 16 +- 20%", 12.8 <= r2 <= 19.2)]
    criterion(2, "fourth-order self-convergence of the time stepper", clauses)


def test_a03_energy_identity_residuals(identity_run):
    p, g, states = identity_run
    recs = {h: records_at_stride(states, k, p, g)
            for h, k in ((4e-3, 4), (2e-3, 2), (1e-3, 1))}
    clauses = []
    for rcol, scol in (("r_m2", "s_m2"), ("r_rho2", "s_rho2"),
                       ("r_rhox2", "s_rhox2"), ("r_rhoxx2", "s_rhoxx2")):
        worst = {h: max(abs(getattr(r, rcol)) for r in rr[1:-1])
                 for h, rr in recs.items()}
        o1 = math.log2(worst[4e-3] / worst[2e-3])
        o2 = math.log2(worst[2e-3] / worst[1e-3])
        scale = max(abs(getattr(r, scol)) for r in recs[1e-3])
        rel = worst[1e-3] / scale
        clauses.append((f"{rcol}: orders {o1:.2f}, {o2:.2f} within 2.0 +- 0.3",
                        1.7 <= o1 <= 2.3 and 1.7 <= o2 <= 2.3))
        clauses.append((f"{rcol}: relative residual {rel:.2e} <= 1e-5 at "
                        "h=1e-3", rel <= 1e-5))
    criterion(3, "energy balance residuals vanish at second order", clauses)


def test_a04_transport_invariant(transport_run):
    p, traj, report = transport_run
    res = [r.transport_res for r in traj.records
           if not math.isnan(r.transport_res)]
    worst = max(res)
    qx_ok = all(r.qx_min > 0.0 for r in traj.records
                if not math.isnan(r.qx_min))
    clauses = [("run reaches t_end = 0.5",
                report.status is RunStatus.REACHED_T_END),
               (f"max transport residual {worst:.2e} <= 1e-6", worst <= 1e-6),
               ("flow-map gradient positive at every recorded time", qx_ok)]
    criterion(4, "rho carried exactly along rescaled characteristics",
              clauses)


def test_a05_rho_sup_bounds(smooth_suite):
    clauses = []
    for name, (p, recs) in smooth_suite.items():
        for res in rho_sup_bound_check(recs, p).variants:
            if res.applicable:
                clauses.append(
                    (f"{name}: {res.variant} bound "
                     f"(worst margin {res.worst_margin:.2e})", res.ok))
    criterion(5, "exponential sup bounds on rho hold on every smooth run",
              clauses)


def test_a06_gronwall_envelope(smooth_suite):
    clauses = []
    for name, (p, recs) in smooth_suite.items():
        res = gronwall_check_h2(recs, p)
        clauses.append(
            (f"{name}: E2 under e^(ct) E2(0), branch {res.branch.value}, "
             f"worst ratio {res.worst_ratio:.6f}", res.ok))
    criterion(6, "observed-extremum Gronwall envelope on E2", clauses)


def test_a07_breaking_odd_u_even_rho(even_rho_battery):
    clauses = []
    for b, (p, traj, report) in sorted(even_rho_battery.items()):
        bound = blowup_bound(p, 1.0)
        clauses += breaking_clauses(f"b={b}", p, traj, report, bound)
    criterion(7, "slope blow-up battery, odd u0 / even rho0", clauses)


def test_a08_breaking_flat_origin_start(cubic_runs):
    p, traj, report = cubic_runs["even"]
    criterion(8, "slope blow-up from u_x(0,0) = 0 (cubic odd u0)",
              flat_start_clauses("cubic", traj, report))


def test_a09_parity_and_origin_pinning(even_rho_battery, cubic_runs):
    runs = {f"b={b}": v for b, v in sorted(even_rho_battery.items())}
    runs["cubic"] = cubic_runs["even"]
    clauses = []
    for name, (p, traj, report) in runs.items():
        clauses += parity_clauses(name, traj, report)
    criterion(9, "odd/even structure and origin values pinned", clauses)


def test_a10_zero_rho_and_odd_rho_variants(odd_rho_battery, cubic_runs,
                                           grid_smooth):
    g = grid_smooth
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = State(0.0, np.stack([profile(GAUSS_U, g),
                              profile(InitSpec(InitKind.ZERO), g)]))
    traj, report = run(s0, p, StepControl(t_end=0.3), g,
                       diag=DiagSettings(snapshot_every=25))
    clauses = [
        ("zero rho stays bit-zero in every snapshot",
         all(np.all(s.rho == 0.0) for _, s in traj.snapshots)),
        ("zero rho stays bit-zero in every record",
         all(r.sup_rho == 0.0 for r in traj.records)),
    ]
    for b, (pb, trajb, reportb) in sorted(odd_rho_battery.items()):
        name = f"odd rho, b={b}"
        clauses += breaking_clauses(name, pb, trajb, reportb,
                                    blowup_bound(pb, 1.0))
        clauses += parity_clauses(name, trajb, reportb)
    pc, trajc, reportc = cubic_runs["odd"]
    clauses += flat_start_clauses("odd rho, cubic", trajc, reportc)
    clauses += parity_clauses("odd rho, cubic", trajc, reportc)
    criterion(10, "zero-rho invariance and odd-rho variants", clauses)


def test_a11_mass_conservation(smooth_suite, even_rho_battery,
                               odd_rho_battery, cubic_runs):
    clauses = []
    for name, (p, recs) in smooth_suite.items():
        clauses.append((name, conservation_check(recs).ok))
    for tag, battery in (("even rho", even_rho_battery),
                         ("odd rho", odd_rho_battery)):
        for b, (p, traj, report) in sorted(battery.items()):
            clauses.append((f"{tag}, b={b}",
                            conservation_check(traj.records).ok))
    for name, (p, traj, report) in cubic_runs.items():
        clauses.append((f"cubic, {name} rho",
                        conservation_check(traj.records).ok))
    criterion(11, "int rho dx drift <= 1e-12 relative on every run", clauses)


def test_a12_bit_reproducibility(tmp_path):
    cfg = {
        "model": {"case": "case_i", "b": 2.0},
        "grid": {"L": 20.0, "N": 512},
        "control": {"t_end": 0.1},
        "initial": {"u": {"kind": "gaussian"},
                    "rho": {"kind": "gaussian", "amplitude": 0.5}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc1 = main(["run", str(cfg_path), "--directory", str(tmp_path / "r1")])
    rc2 = main(["run", str(cfg_path), "--directory", str(tmp_path / "r2")])
    same = ((tmp_path / "r1" / "diagnostics.csv").read_bytes()
            == (tmp_path / "r2" / "diagnostics.csv").read_bytes())
    chk = main(["check", str(tmp_path / "r1" / "manifest.json")])
    clauses = [("both runs exit 0", rc1 == 0 and rc2 == 0),
               ("diagnostics CSVs bit-identical", same),
               ("offline manifest verification exits 0", chk == 0)]
    criterion(12, "bit-reproducible runs with verifiable manifests", clauses)

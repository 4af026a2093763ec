import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import bfamily2c
from bfamily2c import (Branch, CaseTag, DiagRecord, DiagSettings, Grid,
                       ParamStack, State, StepControl, SymmetryMode, Workspace,
                       conservation_check, custom_params, eval_rhs,
                       gronwall_check_h2, h3_energy_check, make_params,
                       make_record, riccati_check, run, stepper,
                       symmetry_residual)
from bfamily2c.diagnostics import (DIAG_COLUMNS, EXTRA_COLUMNS,
                                   IDENTITY_REL_TOL, _centered_slope,
                                   identities_check)


def record(states, dt, ps, g, **kwargs):
    """make_record of the members `states` from the evaluation of their
    spectra, as a run takes it."""
    ws = Workspace.for_states(states, g)
    k = eval_rhs(np.array([s.t for s in states], dtype=float), ws.yh, ps, g, ws)
    return make_record(k, dt, ps, g, **kwargs)


def round_trip(f: np.ndarray, g: Grid) -> np.ndarray:
    """f as the record reads it: the inverse transform of its spectrum."""
    return np.fft.irfft(np.fft.rfft(f), n=g.N)


def test_csv_schemas_are_frozen():
    assert DIAG_COLUMNS == (
        "t", "dt", "h1_u", "min_ux", "max_ux", "sup_rho", "sup_rhox", "E1",
        "E2", "int_rho", "transport_res", "symmetry_res",
    )
    assert EXTRA_COLUMNS == (
        "step", "u0", "ux0", "uxx0", "rho0", "conv0", "qx_min",
        "i_m2", "i_rho2", "i_rhox2", "i_rhoxx2",
        "s_m2", "s_rho2", "s_rhox2", "s_rhoxx2",
        "d_m2", "d_rho2", "d_rhox2", "d_rhoxx2",
    )


def test_package_api_is_frozen():
    # the names the CLI, the tests and the README use; the check result
    # classes stay reachable through their modules
    assert frozenset(bfamily2c.__all__) == frozenset({
        "Branch", "CaseTag", "CharField", "DIAG_COLUMNS", "DiagRecord",
        "DiagSettings", "EXTRA_COLUMNS", "Framework", "Grid", "InitKind",
        "InitSpec", "Kernel", "ModelParams", "OverflowSignal", "ParamStack",
        "RESOLUTION_TOL", "RunReport", "RunStatus", "State", "StepControl",
        "SymmetryMode", "Tendency", "Trajectory", "Workspace",
        "blowup_bound", "build_initial", "choose_dt", "classify_scenario",
        "conservation_check", "custom_params", "eval_rhs",
        "gronwall_check_h2", "h3_energy_check",
        "init_characteristics", "make_params", "make_record", "profile",
        "rho_sup_bound_check", "riccati_check", "run", "run_batch", "step_rk4",
        "symmetry_residual", "transport_residual",
    })
    assert len(bfamily2c.__all__) == len(set(bfamily2c.__all__))


def test_centered_slope_exact_on_quadratic():
    # three-point formula is exact for parabolas at uneven spacing
    ts = (0.0, 0.3, 1.0)
    f = lambda t: 2.0 - 1.5 * t + 0.7 * t**2
    got = _centered_slope(*ts, f(ts[0]), f(ts[1]), f(ts[2]))
    assert got == pytest.approx(-1.5 + 1.4 * ts[1], abs=1e-12)


def test_symmetry_residual_modes(grid20):
    u = grid20.x * np.exp(-grid20.x**2)           # odd
    rho_even = np.exp(-grid20.x**2)
    rho_odd = 0.5 * grid20.x * np.exp(-grid20.x**2)
    # the x = -L node is its own mirror image; zero it so the odd
    # profiles are exactly odd on the discrete torus
    u[0] = 0.0
    rho_odd[0] = 0.0
    # one residual per member; broken parity is seen at full magnitude
    s = State(np.zeros(2), np.stack([[u, rho_even], [u + 0.1, rho_even]]))
    res = symmetry_residual(s, SymmetryMode.U_ODD_RHO_EVEN, grid20)
    assert res.shape == (2,) and res[0] == 0.0
    assert res[1] == pytest.approx(0.2, abs=1e-12)
    s = State(np.zeros(1), np.stack([[u, rho_odd]]))
    assert symmetry_residual(s, SymmetryMode.U_ODD_RHO_ODD, grid20).tolist() == [0.0]


def test_origin_checks_reads_node_values(grid20, params_b2):
    # the `origin` check reads these record fields
    u = grid20.x * np.exp(-grid20.x**2)
    rho = np.exp(-grid20.x**2)
    (oc,) = record([State(0.0, np.stack([u, rho]))], 0.0,
                   ParamStack([params_b2]), grid20)
    j0 = grid20.origin_index
    assert oc.u0 == round_trip(u, grid20)[j0] and abs(oc.u0) < 1e-15
    assert oc.rho0 == round_trip(rho, grid20)[j0] == pytest.approx(1.0, abs=1e-15)
    assert abs(oc.uxx0) < 1e-12  # odd profile: even derivative vanishes at 0


def test_energy_scalars_formulas(grid20, params_b2):
    # recompute every integral with raw numpy on the same spectral pieces
    u = np.exp(-grid20.x**2)
    rho = 0.5 * np.exp(-(grid20.x - 1.0) ** 2)
    (es,) = record([State(0.0, np.stack([u, rho]))], 0.0,
                   ParamStack([params_b2]), grid20)
    ux = grid20.derivative(u, 1)
    uxxx = grid20.derivative(u, 3)
    m = grid20.helmholtz(u)
    rhox = grid20.derivative(rho, 1)
    rhoxx = grid20.derivative(rho, 2)
    I = grid20.integrate
    k1, k2, k3 = params_b2.k1, params_b2.k2, params_b2.k3
    assert es.i_m2 == pytest.approx(I(m**2), rel=1e-14)
    assert es.s_m2 == pytest.approx(
        (2 * k1 - 1) * I(m**2 * ux) - k2 * I(ux * rho**2)
        + k2 * I(uxxx * rho**2), rel=1e-12)
    assert es.s_rho2 == pytest.approx(k3 * I(ux * rho**2), rel=1e-12)
    assert es.s_rhox2 == pytest.approx(
        3 * k3 * I(ux * rhox**2) - k3 * I(uxxx * rho**2), rel=1e-12)
    assert es.s_rhoxx2 == pytest.approx(
        5 * k3 * I(ux * rhoxx**2)
        + k3 * I(uxxx * (2 * rho * rhoxx - 3 * rhox**2)), rel=1e-12)


def test_make_record_composite_fields(grid20, params_b2):
    u = np.exp(-grid20.x**2)
    rho = 0.4 * np.exp(-grid20.x**2)
    (r,) = record([State(0.125, np.stack([u, rho]))], 0.01,
                  ParamStack([params_b2]), grid20, step=7)
    # m_x from the spectrum of u, as the record takes it
    mx = np.fft.irfft(np.fft.rfft(u) * grid20.helm * grid20.ik, n=grid20.N)
    i_mx2 = grid20.integrate(mx**2)
    assert r.t == 0.125 and r.dt == 0.01 and r.step == 7
    assert r.e2 == r.i_m2 + r.i_rho2 + r.i_rhox2
    assert r.e1 == r.i_m2 + i_mx2 + r.i_rho2 + r.i_rhox2 + r.i_rhoxx2
    assert r.int_rho == grid20.integrate(round_trip(rho, grid20))
    ux = grid20.derivative(u, 1)
    assert r.h1_u == pytest.approx(grid20.integrate(u**2 + ux**2), rel=1e-12)
    assert r.max_ux == float(np.max(ux))
    assert math.isnan(r.transport_res) and math.isnan(r.symmetry_res)


def test_conv0_nonnegative_for_admissible_coefficients(grid20, rng):
    # k1 <= 3, k2 >= 0 make the nonlocal source pointwise >= 0, and the
    # Green kernel is positive, so the origin value cannot be negative
    p = make_params(CaseTag.CASE_I, 2.0)
    y = grid20.dealias(rng.standard_normal((5, 2, grid20.N)))
    for r in record([State(0.0, yi) for yi in y], 0.0, ParamStack([p] * 5), grid20):
        assert r.conv0 > -1e-12


@pytest.mark.parametrize("p", [make_params(CaseTag.CASE_I, 2.0),
                               make_params(CaseTag.CASE_II, 3.0),
                               custom_params(2.5, -1.0, 0.5)],
                         ids=["case_i", "case_ii", "custom"])
def test_tendency_rates_equal_the_right_sides(p, rng):
    # the 2/3 rule keeps each energy balance of the truncated system
    # exact, so on band-limited states d_* and s_* agree to roundoff
    g = Grid(20.0, 256)
    y = g.dealias(rng.standard_normal((5, 2, g.N)))
    recs = record([State(0.0, yi) for yi in y], 0.0, ParamStack([p] * 5), g)
    for name in ("m2", "rho2", "rhox2", "rhoxx2"):
        scale = max(abs(getattr(r, f"s_{name}")) for r in recs)
        worst = max(abs(getattr(r, f"d_{name}") - getattr(r, f"s_{name}"))
                    for r in recs)
        assert scale > 0.0 and worst <= 1e-12 * scale, name
    assert identities_check(recs).ok


def test_a_wrong_rhs_coefficient_fails_identities(monkeypatch):
    # k1 raised by 1e-6 inside eval_rhs alone: s_* keep the true k1, so
    # d_m2 parts from s_m2 by ~1e-6 relative (7.6e-7 on the shipped
    # smooth config).  The centred differences of i_* this check read
    # before moved 3.36e-5 -> 3.43e-5 there, inside their 1e-2 gate.
    g = Grid(20.0, 256)
    p = make_params(CaseTag.CASE_I, 2.0)
    s0 = State(0.0, np.stack([np.exp(-g.x**2), 0.5 * np.exp(-g.x**2)]))
    ctl, diag = StepControl(t_end=0.2), DiagSettings(char_stride=0)
    traj, _ = run(s0, p, ctl, g, diag)
    assert identities_check(traj.records).ok

    def mutated(t, yh, ps, g, ws=None, stage=0):
        wrong = SimpleNamespace(k1=ps.k1 + 1e-6, k2=ps.k2, k3=ps.k3)
        return eval_rhs(t, yh, wrong, g, ws, stage)

    monkeypatch.setattr(stepper, "eval_rhs", mutated)
    traj, _ = run(s0, p, ctl, g, diag)
    res = identities_check(traj.records)
    assert not res.ok and res.m2.rel_residual > 1e3 * IDENTITY_REL_TOL


def synth_records(ts, e2=1.0, e1=1.0, min_ux=-0.5, max_ux=0.5, sup_rho=1.0,
                  sup_rhox=1.0, ux0=0.0, int_rho=1.0):
    def at(v, i):
        return v[i] if isinstance(v, (list, np.ndarray)) else v
    return [SimpleNamespace(
        t=float(t), e2=at(e2, i), e1=at(e1, i), min_ux=at(min_ux, i),
        max_ux=at(max_ux, i), sup_rho=at(sup_rho, i), sup_rhox=at(sup_rhox, i),
        ux0=at(ux0, i), int_rho=at(int_rho, i))
        for i, t in enumerate(ts)]


def test_gronwall_two_sided_constant():
    # case (i) b=2 classifies TWO_SIDED in the H2 frame; verify the
    # constant against a hand evaluation
    p = make_params(CaseTag.CASE_I, 2.0)
    ts = [0.0, 0.5, 1.0]
    recs = synth_records(ts, e2=2.0, min_ux=-0.25, max_ux=0.5, sup_rho=0.75)
    res = gronwall_check_h2(recs, p)
    assert res.branch is Branch.TWO_SIDED_UX
    m1 = 0.5
    c = (abs(2 * 2.0 - 1) + abs(1.0 - 4.0) + 3 * 1.0) * m1 \
        + 2 * abs(4.0 - 1.0) * math.exp(1.0 * m1 * 1.0) * 0.75
    assert res.m1 == m1
    assert res.c == pytest.approx(c, rel=1e-14)
    assert res.ok  # constant E2 always sits under e^{ct} E2(0) for c > 0


def test_gronwall_neg_branch_constant():
    p = custom_params(0.25, -1.0, -2.0)  # H2 frame NEG branch
    ts = [0.0, 1.0]
    recs = synth_records(ts, e2=1.0, min_ux=-0.5, max_ux=0.1, sup_rho=0.3)
    res = gronwall_check_h2(recs, p)
    assert res.branch is Branch.NEG_INF_UX
    m1 = 0.5
    c = (-2 * 0.25 + (-1.0) - 4 * (-2.0) + 1) * m1 \
        + 2 * ((-1.0) - (-2.0)) * math.exp(2.0 * m1 * 1.0) * 0.3
    assert res.c == pytest.approx(c, rel=1e-14)


def test_gronwall_flags_violation():
    p = make_params(CaseTag.CASE_I, 2.0)
    ts = np.linspace(0.0, 1.0, 5)
    e2 = np.full(5, 1e-6)
    e2[-1] = 1e12  # absurd late growth no admissible constant explains
    recs = synth_records(ts, e2=e2, min_ux=-1e-3, max_ux=1e-3, sup_rho=1e-3)
    res = gronwall_check_h2(recs, p)
    assert not res.ok
    assert res.first_violation_t == pytest.approx(1.0)
    assert res.worst_ratio > 1.0


def test_gronwall_saturates_past_float_range():
    # steep runs push e^{|k3| M1 T} past float max; the envelope must
    # saturate to +inf (vacuously satisfied), not raise OverflowError
    p = make_params(CaseTag.CASE_I, 2.0)
    ts = [0.0, 1.0, 2.0]
    recs = synth_records(ts, e2=[1.0, 5.0, 40.0], min_ux=-600.0,
                         max_ux=600.0, sup_rho=0.5)
    res = gronwall_check_h2(recs, p)
    assert math.isinf(res.c)
    assert res.ok
    assert res.worst_ratio == 1.0  # attained at t = 0 only


def test_h3_energy_two_sided_not_applicable():
    p = make_params(CaseTag.CASE_I, 2.0)  # HS frame: TWO_SIDED
    recs = synth_records([0.0, 1.0])
    res = h3_energy_check(recs, p)
    assert not res.applicable
    assert res.ok


def test_h3_energy_pos_branch_constant():
    p = make_params(CaseTag.CASE_II, 2.0)  # (3, 2, 2): HS POS branch
    ts = [0.0, 1.0]
    recs = synth_records(ts, e1=0.5, max_ux=0.4, sup_rho=0.2, sup_rhox=0.6)
    res = h3_energy_check(recs, p)
    assert res.applicable
    m1, m2, T = 0.4, 0.6, 1.0
    c = (3 * 3.0 - 2.0 + 9 * 2.0) * m1 + 3.0 * (
        (abs(2 * 2.0 - 2.0) + 2 * abs(2.0 - 2.0)) * math.exp(2.0 * m1 * T) * 0.2
        + abs(2 * 2.0 + 3 * 2.0) * m2)
    assert res.c == pytest.approx(c, rel=1e-14)
    assert res.ok


def test_riccati_accepts_exact_blowup_solution():
    # h(t) = h0 / (1 - lam h0 t) solves h' = lam h^2 exactly
    p = make_params(CaseTag.CASE_I, 2.0)  # lam = 1/2
    lam, h0 = 0.5, 1.0
    ts = np.linspace(0.0, 1.5, 40)
    h = h0 / (1.0 - lam * h0 * ts)
    res = riccati_check(synth_records(ts, ux0=h), p)
    assert res.ok_derivative
    assert res.ok_reciprocal
    assert res.t0 == 0.0 and res.h0 == h0
    assert res.increasing_until_t == ts[-1]


def test_riccati_rejects_decaying_slope():
    p = make_params(CaseTag.CASE_I, 2.0)
    ts = np.linspace(0.0, 1.0, 20)
    h = 1.0 - 0.9 * ts  # decays: violates h' >= h^2/2 from h(0) = 1
    res = riccati_check(synth_records(ts, ux0=h), p)
    assert not res.ok_derivative
    assert not res.ok_reciprocal
    assert res.reciprocal_first_violation_t is not None
    assert res.increasing_until_t == 0.0


def test_riccati_parameter_validation():
    recs = synth_records([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        riccati_check(recs, custom_params(1.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        riccati_check(recs, custom_params(2.0, -1.0, 1.0))


def test_conservation_check_rel_denominator():
    recs = synth_records([0.0, 1.0], int_rho=[1e-20, 1.5e-20])
    # tiny baseline: drift is measured against max(|baseline|, 1)
    res = conservation_check(recs)
    assert res.ok
    recs = synth_records([0.0, 1.0], int_rho=[2.0, 2.0 + 1e-11])
    res = conservation_check(recs)
    assert not res.ok
    assert res.rel_drift == pytest.approx(0.5e-11, rel=1e-6)


@pytest.mark.parametrize("N", [64, 1024, 4096])
def test_record_matches_per_quantity_reference(N, rng, reference_record):
    g = Grid(20.0, N)
    p = make_params(CaseTag.CASE_I, 2.0)
    states = [State(0.25, np.stack([g.x / 2 * np.exp(-g.x**2 / 4),
                                    0.5 * np.exp(-g.x**2 / 4)])),
              State(0.5, rng.standard_normal((2, N)))]
    records = record(states, 0.01, ParamStack([p] * 2), g, step=3,
                     symmetry_mode=SymmetryMode.U_ODD_RHO_EVEN)
    # the record takes the spectrum of each state as is, and reads u and
    # rho from its inverse transform: the u_x values and the norms are
    # the reference's bit for bit, the node values those of the
    # reference on the transformed-back fields
    spectral = {"ux0", "uxx0", "min_ux", "max_ux", "h1_u"}
    nodes = {"u0", "rho0"}
    kw = dict(step=3, symmetry_mode=SymmetryMode.U_ODD_RHO_EVEN)
    for s, got in zip(states, records):
        want = reference_record(s, 0.01, p, g, **kw)
        read = reference_record(State(s.t, round_trip(s.y, g)), 0.01, p, g, **kw)
        for f in dataclasses.fields(DiagRecord):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name in spectral:
                assert a == b, f.name
                continue
            b = getattr(read, f.name)
            if f.name in nodes:
                assert a == b, f.name
            else:
                assert (math.isnan(a) and math.isnan(b)) \
                    or math.isclose(a, b, rel_tol=1e-12), f.name

import math

import numpy as np
import pytest

from bfamily2c import (CaseTag, DiagRecord, Grid, State, SymmetryMode,
                       Tendency, make_params, symmetry_residual)


@pytest.fixture
def grid20() -> Grid:
    return Grid(20.0, 256)


@pytest.fixture
def params_b2():
    return make_params(CaseTag.CASE_I, 2.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _dense_interpolate(g: Grid, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The direct M x N/2 trigonometric sum of one field at M points.

    Grid.interpolate evaluated exactly this until it moved to anchored
    blocks and then to a NUFFT; it stays here as their reference.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    pts = (pts + g.L) % (2.0 * g.L) - g.L
    fh = np.fft.rfft(f)
    theta = np.outer(pts + g.L, g.k)
    inner = np.exp(1j * theta[:, 1:-1]) @ fh[1:-1]
    vals = np.real(fh[0]) + 2.0 * np.real(inner) + np.real(fh[-1]) * np.cos(theta[:, -1])
    return vals / g.N


def _anchored_interpolate(g: Grid, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The trigonometric sum of one field (N,) or a stack (F, N) at M points,
    through anchored blocks of modes.

    The modes n = aB + j (0 <= j < B) are summed through the
    factorisation e^{i k_n y} = e^{i k_aB y} e^{i k_j y}, so the basis
    costs M (B + N/(2B)) complex exponentials instead of M N/2, and all
    fields share it.  Grid.interpolate evaluated this before it became a
    NUFFT; it stays here as a second reference, exact in the Nyquist
    mode, with the same shapes in and out.
    """
    f = np.asarray(f, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    y = (pts + g.L) % (2.0 * g.L)
    fh = np.fft.rfft(f, axis=-1).reshape(-1, g.k.size)
    half = g.N // 2
    block = math.isqrt(half)                  # B minimises B + N/(2B)
    anchors = -(-half // block)               # A blocks cover n < N/2
    # positive modes 1 .. N/2-1, as an (A, B) table per field
    coef = np.zeros((fh.shape[0], anchors * block), dtype=complex)
    coef[:, 1:half] = fh[:, 1:half]
    coef = coef.reshape(-1, block).T          # (B, F*A)
    near = np.exp(1j * np.outer(y, g.k[:block]))               # (M, B)
    far = np.exp(1j * np.outer(y, g.k[:anchors * block:block]))  # (M, A)
    inner = np.einsum("mfa,ma->fm", (near @ coef).reshape(y.size, -1, anchors), far)
    # sum over positive modes twice (conjugate symmetry), Nyquist once
    vals = (np.real(fh[:, :1]) + 2.0 * np.real(inner)
            + np.real(fh[:, -1:]) * np.cos(y * g.k[-1]))
    out = vals / g.N if np.ndim(points) else vals[:, 0] / g.N
    return out[0] if f.ndim == 1 else out


@pytest.fixture
def dense_interpolate():
    return _dense_interpolate


@pytest.fixture
def anchored_interpolate():
    return _anchored_interpolate


def _reference_rhs(s: State, p, g: Grid, dealias: bool = True) -> Tendency:
    """The nonlocal-form tendency as five separately dealiased products.

    eval_rhs composed the operator this way (16 FFTs) before it became
    one spectral pass; it stays here as that pass's reference.
    """
    u, rho = s.u, s.rho
    ux = g.derivative(u, 1)
    da = g.dealias if dealias else (lambda f: f)
    source = (0.5 * p.k1) * da(u * u) \
        + (0.5 * (3.0 - p.k1)) * da(ux * ux) \
        + (0.5 * p.k2) * da(rho * rho)
    du = da(u * ux) + g.dx_helmholtz_inv(source)
    drho = p.k3 * g.derivative(da(u * rho), 1)
    return Tendency(dy=np.stack([du, drho]), ux=ux)


def _reference_record(s: State, dt: float, p, g: Grid, step: int = 0,
                      hs_order: float = 2.0,
                      symmetry_mode: SymmetryMode | None = None) -> DiagRecord:
    """make_record with every quantity taken by its own Grid operator.

    This is how records were built before they came from one rfft of u
    and one of rho (23 FFTs): the reference for the shared-spectrum one.
    """
    u, rho = s.u, s.rho
    I = g.integrate
    ux, uxx, uxxx = (g.derivative(u, k) for k in (1, 2, 3))
    m = g.helmholtz(u)
    mx = g.derivative(m, 1)
    rhox, rhoxx = g.derivative(rho, 1), g.derivative(rho, 2)
    k1, k2, k3 = p.k1, p.k2, p.k3
    i_m2, i_mx2, i_rho2 = I(m**2), I(mx**2), I(rho**2)
    i_rhox2, i_rhoxx2 = I(rhox**2), I(rhoxx**2)
    j0 = g.origin_index
    source = (0.5 * k1) * u**2 + (0.5 * (3.0 - k1)) * ux**2 + (0.5 * k2) * rho**2
    return DiagRecord(
        step=step, t=s.t, dt=dt,
        l2_u=math.sqrt(g.sobolev_norm_sq(u, 0.0)),
        hs_u=math.sqrt(g.sobolev_norm_sq(u, hs_order)),
        hsm1_rho=math.sqrt(g.sobolev_norm_sq(rho, hs_order - 1.0)),
        min_ux=float(np.min(ux)), max_ux=float(np.max(ux)),
        sup_rho=float(np.max(np.abs(rho))),
        sup_rhox=float(np.max(np.abs(rhox))),
        e1=i_m2 + i_mx2 + i_rho2 + i_rhox2 + i_rhoxx2,
        e2=i_m2 + i_rho2 + i_rhox2,
        int_rho=I(rho),
        u0=float(u[j0]), ux0=float(ux[j0]), uxx0=float(uxx[j0]),
        rho0=float(rho[j0]),
        conv0=float(g.helmholtz_inv(source)[j0]),
        i_m2=i_m2, i_rho2=i_rho2, i_rhox2=i_rhox2, i_rhoxx2=i_rhoxx2,
        s_m2=(2.0 * k1 - 1.0) * I(m**2 * ux) - k2 * I(ux * rho**2)
        + k2 * I(uxxx * rho**2),
        s_rho2=k3 * I(ux * rho**2),
        s_rhox2=3.0 * k3 * I(ux * rhox**2) - k3 * I(uxxx * rho**2),
        s_rhoxx2=5.0 * k3 * I(ux * rhoxx**2)
        + k3 * I(uxxx * (2.0 * rho * rhoxx - 3.0 * rhox**2)),
        symmetry_res=(math.nan if symmetry_mode is None
                      else symmetry_residual(s, symmetry_mode, g)),
    )


@pytest.fixture
def reference_rhs():
    return _reference_rhs


@pytest.fixture
def reference_record():
    return _reference_record

import numpy as np
import pytest

from bfamily2c import (CaseTag, Grid, Kernel, State, custom_params, eval_rhs,
                       make_params)


def mirror(f: np.ndarray) -> np.ndarray:
    return np.roll(f[::-1], 1)


def test_rhs_matches_finite_difference_line_oracle():
    """Independent reconstruction: centered differences on a 16x finer
    grid plus the line-kernel quadrature for dx (1-dxx)^{-1}, restricted
    to the coarse nodes."""
    gf = Grid(20.0, 16384)
    gc = Grid(20.0, 1024)
    stride = gf.N // gc.N
    p = make_params(CaseTag.CASE_I, 2.0)
    u = np.exp(-gf.x**2)
    rho = 0.5 * np.exp(-gf.x**2)

    def fd(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2 * gf.dx)

    ux = fd(u)
    source = 0.5 * p.k1 * u**2 + 0.5 * (3 - p.k1) * ux**2 + 0.5 * p.k2 * rho**2
    du_oracle = u * ux + gf.green_convolve(source, Kernel.DP)
    drho_oracle = p.k3 * fd(u * rho)

    s = State(0.0, np.stack([np.exp(-gc.x**2), 0.5 * np.exp(-gc.x**2)]))
    t = eval_rhs(s, p, gc)
    assert np.max(np.abs(t.dy[0] - du_oracle[::stride])) < 1e-5
    assert np.max(np.abs(t.dy[1] - drho_oracle[::stride])) < 1e-5


def test_drho_has_exactly_zero_mean(grid20, params_b2, rng):
    # conservative form: the spectral derivative's mean bin is zero by
    # construction, so int rho is conserved to roundoff
    u = rng.standard_normal(grid20.N)
    rho = rng.standard_normal(grid20.N)
    t = eval_rhs(State(0.0, np.stack([grid20.dealias(u),
                                      grid20.dealias(rho)])),
                 params_b2, grid20)
    assert abs(grid20.integrate(t.dy[1])) < 1e-13


def test_zero_rho_decouples_k2(grid20):
    u = np.exp(-grid20.x**2)
    z = np.zeros(grid20.N)
    s = State(0.0, np.stack([u, z]))
    t_a = eval_rhs(s, custom_params(2.0, 4.0, 1.0), grid20)
    t_b = eval_rhs(s, custom_params(2.0, -7.0, 1.0), grid20)
    assert np.array_equal(t_a.dy[0], t_b.dy[0])
    assert np.max(np.abs(t_a.dy[1])) == 0.0


def test_tendency_parity(grid20, params_b2):
    # odd u, even rho: du must be odd and drho even (exactly as sampled,
    # up to transform roundoff)
    u = grid20.x / 2 * np.exp(-grid20.x**2)
    rho = 0.5 * grid20.x**2 * np.exp(-grid20.x**2)
    t = eval_rhs(State(0.0, np.stack([u, rho])), params_b2, grid20)
    assert np.max(np.abs(t.dy[0] + mirror(t.dy[0]))) < 1e-13
    assert np.max(np.abs(t.dy[1] - mirror(t.dy[1]))) < 1e-13


def test_k3_scales_drho(grid20):
    u = np.exp(-grid20.x**2)
    rho = 0.3 * np.exp(-grid20.x**2)
    s = State(0.0, np.stack([u, rho]))
    t1 = eval_rhs(s, custom_params(2.0, 4.0, 1.0), grid20)
    t2 = eval_rhs(s, custom_params(2.0, 4.0, -2.0), grid20)
    assert np.allclose(t2.dy[1], -2.0 * t1.dy[1], atol=1e-14)


def test_nonfinite_state_raises(grid20, params_b2):
    u = np.full(grid20.N, 1e300)  # u*u overflows to inf
    with pytest.raises(FloatingPointError):
        eval_rhs(State(0.0, np.stack([u, np.zeros(grid20.N)])), params_b2,
                 grid20)


def _oracle_states(g, rng):
    smooth = State(0.0, np.stack([g.x / 2 * np.exp(-g.x**2 / 4),
                                  0.5 * np.exp(-g.x**2 / 4)]))
    # white noise: content at every mode up to Nyquist
    noise = State(0.0, rng.standard_normal((2, g.N)))
    return {"smooth": smooth, "noise": noise}


@pytest.mark.parametrize("N", [64, 1024, 4096])
@pytest.mark.parametrize("dealias", [True, False])
def test_fused_rhs_matches_separate_products(N, dealias, rng, reference_rhs):
    g = Grid(20.0, N)
    p = make_params(CaseTag.CASE_I, 2.5)
    for name, s in _oracle_states(g, rng).items():
        t = eval_rhs(s, p, g, dealias=dealias)
        ref = reference_rhs(s, p, g, dealias=dealias)
        for got, want in zip(t.dy, ref.dy):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        # u_x is the spectral derivative bit for bit
        assert np.array_equal(t.ux, g.derivative(s.u, 1)), name
        # conservative form: the mean bin of drho is exactly zero
        assert abs(np.sum(t.dy[1])) <= 1e-13 * np.max(np.abs(t.dy[1])) * np.sqrt(N), name

import numpy as np
import pytest

from bfamily2c import Grid, Kernel


def band_limited(g: Grid, rng: np.random.Generator, n_modes: int = 8) -> np.ndarray:
    """Random real field supported on the lowest n_modes+1 Fourier bins."""
    fh = np.zeros(g.N // 2 + 1, dtype=complex)
    fh[: n_modes + 1] = rng.standard_normal(n_modes + 1) \
        + 1j * rng.standard_normal(n_modes + 1)
    fh[0] = fh[0].real
    return np.fft.irfft(fh, n=g.N)


# ----------------------------------------------------------------------
# construction

def test_grid_layout():
    g = Grid(20.0, 256)
    assert g.dx == 2.0 * 20.0 / 256
    assert g.x[0] == -20.0
    assert g.x[g.origin_index] == 0.0
    assert g.k[0] == 0.0
    assert np.isclose(g.k[1], np.pi / 20.0)
    assert g.k.size == 129


@pytest.mark.parametrize("L,N", [(-1.0, 64), (0.0, 64), (np.inf, 64),
                                 (10.0, 63), (10.0, 8)])
def test_grid_validation(L, N):
    with pytest.raises(ValueError):
        Grid(L, N)


# ----------------------------------------------------------------------
# derivatives and multipliers

def test_derivative_exact_on_band_limited(grid20):
    L = grid20.L
    k3, k7 = 3 * np.pi / L, 7 * np.pi / L
    f = np.sin(k3 * grid20.x) + np.cos(k7 * grid20.x)
    d1 = k3 * np.cos(k3 * grid20.x) - k7 * np.sin(k7 * grid20.x)
    d2 = -k3**2 * np.sin(k3 * grid20.x) - k7**2 * np.cos(k7 * grid20.x)
    d3 = -k3**3 * np.cos(k3 * grid20.x) + k7**3 * np.sin(k7 * grid20.x)
    for order, exact in ((1, d1), (2, d2), (3, d3)):
        got = grid20.derivative(f, order)
        assert np.max(np.abs(got - exact)) < 1e-10 * max(1.0, np.max(np.abs(exact)))


def test_derivative_validation(grid20):
    with pytest.raises(ValueError):
        grid20.derivative(np.zeros(grid20.N), order=4)


def test_odd_order_nyquist_is_dropped(grid20):
    # the alternating-sign mode has ambiguous odd derivatives; they are
    # zeroed so real-symmetry of the transform is preserved
    f = np.cos(np.pi * np.arange(grid20.N))  # (-1)^j
    assert np.max(np.abs(grid20.derivative(f, 1))) == 0.0
    assert np.max(np.abs(grid20.derivative(f, 3))) == 0.0
    # even order keeps it: second derivative is -kappa_nyq^2 f
    knyq = grid20.k[-1]
    assert np.allclose(grid20.derivative(f, 2), -knyq**2 * f, atol=1e-9)


def test_helmholtz_roundtrip(grid20, rng):
    f = rng.standard_normal(grid20.N)
    back = grid20.helmholtz_inv(grid20.helmholtz(f))
    assert np.max(np.abs(back - f)) < 1e-10


def test_helmholtz_on_sine(grid20):
    kap = 5 * np.pi / grid20.L
    f = np.sin(kap * grid20.x)
    assert np.allclose(grid20.helmholtz(f), (1 + kap**2) * f, atol=1e-10)


def test_eigenfunction_identity_unit_period():
    # on L = pi the wavenumbers are integers: (1 - dxx)^{-1} sin x = sin x / 2
    g = Grid(np.pi, 64)
    f = np.sin(g.x)
    assert np.max(np.abs(g.helmholtz_inv(f) - 0.5 * f)) < 1e-12


def test_dx_helmholtz_inv_on_sine(grid20):
    kap = 4 * np.pi / grid20.L
    f = np.sin(kap * grid20.x)
    expect = kap / (1 + kap**2) * np.cos(kap * grid20.x)
    assert np.allclose(grid20.dx_helmholtz_inv(f), expect, atol=1e-10)


def test_dealias_drops_top_third(grid20):
    keep_n, drop_n = 10, grid20.N // 3 + 5
    f_keep = np.cos(keep_n * np.pi / grid20.L * grid20.x)
    f_drop = np.cos(drop_n * np.pi / grid20.L * grid20.x)
    assert np.max(np.abs(grid20.dealias(f_keep) - f_keep)) < 1e-12
    assert np.max(np.abs(grid20.dealias(f_drop))) < 1e-12


def test_multipliers_act_on_each_row_of_a_stack(grid20, rng):
    # a State holds (u, rho) as one (2, N) array, and run() takes the
    # detection slopes of both rows in one call
    y = rng.standard_normal((2, grid20.N))
    ops = [lambda f: grid20.derivative(f, 1), lambda f: grid20.derivative(f, 3),
           grid20.helmholtz, grid20.helmholtz_inv, grid20.dx_helmholtz_inv,
           grid20.dealias]
    for op in ops:
        out = op(y)
        assert all(np.array_equal(out[i], op(y[i])) for i in range(2))


def test_tail_fraction(grid20):
    x, L, N = grid20.x, grid20.L, grid20.N
    low = np.cos(np.pi / L * x)
    top = np.cos((N // 4) * np.pi / L * x)  # inside (N/6, N/3]
    assert grid20.tail_fraction(np.zeros(N)) == 0.0
    assert grid20.tail_fraction(low) < 1e-28
    assert grid20.tail_fraction(top) == pytest.approx(1.0, rel=1e-12)
    assert grid20.tail_fraction(low + top) == pytest.approx(0.5, rel=1e-12)


# ----------------------------------------------------------------------
# line-kernel quadrature

def test_green_convolve_equals_dense_matrix(rng):
    g = Grid(10.0, 64)
    f = rng.standard_normal(g.N) * np.exp(-g.x**2)
    K = 0.5 * np.exp(-np.abs(g.x[:, None] - g.x[None, :]))
    dense = g.dx * K @ f
    assert np.max(np.abs(g.green_convolve(f, Kernel.P) - dense)) < 1e-12


def test_green_convolve_matches_closed_form():
    # p * e^{-|x|} = (1 + |x|) e^{-|x|} / 2; the trapezoid quadrature
    # carries an O(dx^2) kink floor at x = 0, hence the loose 2e-4
    g = Grid(30.0, 2048)
    f = np.exp(-np.abs(g.x))
    closed = 0.5 * (1.0 + np.abs(g.x)) * np.exp(-np.abs(g.x))
    assert np.max(np.abs(g.green_convolve(f, Kernel.P) - closed)) < 2e-4
    assert np.max(np.abs(g.helmholtz_inv(f) - closed)) < 1.5e-4


def test_dp_kernel_matches_closed_form():
    # d/dx [p * e^{-|x|}] = -(x/2) e^{-|x|}, smooth, so the quadrature
    # is near machine accurate
    g = Grid(30.0, 2048)
    f = np.exp(-np.abs(g.x))
    closed = -0.5 * g.x * np.exp(-np.abs(g.x))
    assert np.max(np.abs(g.green_convolve(f, Kernel.DP) - closed)) < 1e-12


# ----------------------------------------------------------------------
# norms and interpolation

def test_sobolev_zero_order_is_l2(grid20, rng):
    f = rng.standard_normal(grid20.N)
    assert np.isclose(grid20.sobolev_norm_sq(f, 0.0),
                      grid20.integrate(f**2), rtol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0, -1.0])
def test_sobolev_single_mode(grid20, s):
    kap = 6 * np.pi / grid20.L
    a = 0.7
    f = a * np.sin(kap * grid20.x)
    # ||a sin(kap x)||_{L2}^2 over one period = a^2 L
    expect = (1 + kap**2) ** s * a**2 * grid20.L
    assert np.isclose(grid20.sobolev_norm_sq(f, s), expect, rtol=1e-10)


def test_sobolev_counts_nyquist_once(grid20):
    f = np.cos(np.pi * np.arange(grid20.N))  # pure Nyquist mode
    assert np.isclose(grid20.sobolev_norm_sq(f, 0.0),
                      grid20.integrate(f**2), rtol=1e-12)


def test_interpolate_reproduces_nodes(grid20, rng):
    f = band_limited(grid20, rng)
    vals = grid20.interpolate(f, grid20.x)
    assert np.max(np.abs(vals - f)) < 1e-11


def test_interpolate_band_limited_offgrid(grid20, rng, dense_interpolate):
    f = band_limited(grid20, rng, n_modes=6)
    pts = rng.uniform(-grid20.L, grid20.L, size=40)
    exact = dense_interpolate(grid20, f, pts)
    assert np.max(np.abs(grid20.interpolate(f, pts) - exact)) < 1e-11


def _interpolation_fields(N, rng):
    """Three fields with O(1) modes n <= 24 and every mode up to Nyquist
    at 1e-3, so the whole spectrum carries weight.  Any two sums round
    the phase k_n y by ~eps k_n y, so O(1) content at n ~ N/2 would put
    ~5e-13 of rounding between two correct evaluations at N = 4096."""
    fields = []
    for _ in range(3):
        fh = 1e-3 * (rng.standard_normal(N // 2 + 1)
                     + 1j * rng.standard_normal(N // 2 + 1))
        fh[:25] = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        fields.append(np.fft.irfft(fh, n=N))
    return fields


@pytest.mark.parametrize("N", [64, 1024, 4096])
def test_interpolate_matches_dense_sum(N, rng, dense_interpolate):
    g = Grid(20.0, N)
    fields = _interpolation_fields(N, rng)
    pts = np.concatenate([rng.uniform(-3 * g.L, 3 * g.L, 300), g.x[::N // 64]])
    single = [g.interpolate(f, pts) for f in fields]
    for f, vals in zip(fields, single):
        err = np.max(np.abs(vals - dense_interpolate(g, f, pts)))
        assert err <= 1e-13 * np.max(np.abs(f))
    stacked = g.interpolate(np.stack(fields), pts)
    assert stacked.shape == (3, pts.size)
    for f, row, vals in zip(fields, stacked, single):
        assert np.max(np.abs(row - vals)) <= 1e-14 * np.max(np.abs(f))
    assert g.interpolate(np.stack(fields), 0.25).shape == (3,)
    for bad in (np.zeros((2, N + 1)), np.zeros((1, 2, N))):
        with pytest.raises(ValueError):
            g.interpolate(bad, pts)


@pytest.mark.parametrize("N", [1024, 4096])
def test_interpolate_matches_anchored_sum(N, rng, anchored_interpolate):
    g = Grid(20.0, N)
    fields = np.stack(_interpolation_fields(N, rng))
    pts = rng.uniform(-3 * g.L, 3 * g.L, 2000)
    reference = anchored_interpolate(g, fields, pts)
    for f, row, ref in zip(fields, g.interpolate(fields, pts), reference):
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(f))


@pytest.mark.parametrize("N", [64, 1024, 4096])
def test_interpolate_band_edge_and_nyquist(N, rng, dense_interpolate):
    g = Grid(20.0, N)
    pts = rng.uniform(-g.L, g.L, 400)
    # O(1) content in every mode the 2/3 rule keeps, none decaying
    fh = np.zeros(N // 2 + 1, dtype=complex)
    fh[:g.n_keep] = N * (rng.standard_normal(g.n_keep)
                         + 1j * rng.standard_normal(g.n_keep))
    f = np.fft.irfft(fh, n=N)
    err = np.max(np.abs(g.interpolate(f, pts) - dense_interpolate(g, f, pts)))
    assert err <= 1e-12 * np.max(np.abs(f))
    # the unit Nyquist mode is the cosine through its node values
    nyquist = np.cos(np.pi * np.arange(N))
    exact = np.cos(g.k[-1] * (pts + g.L))
    assert np.max(np.abs(g.interpolate(nyquist, pts) - exact)) <= 1e-11


def test_interpolate_wraps_periodically(grid20, rng):
    f = band_limited(grid20, rng)
    inside = grid20.interpolate(f, np.array([-grid20.L + 0.3]))
    shifted = grid20.interpolate(f, np.array([grid20.L + 0.3]))
    assert np.isclose(inside[0], shifted[0], atol=1e-11)


def test_interpolate_scalar_passthrough(grid20, rng):
    f = band_limited(grid20, rng)
    out = grid20.interpolate(f, 0.125)
    assert np.ndim(out) == 0


def test_integrate_constant(grid20):
    assert np.isclose(grid20.integrate(np.ones(grid20.N)), 2 * grid20.L)

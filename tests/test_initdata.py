import numpy as np
import pytest

from bfamily2c import (CaseTag, Grid, InitKind, InitSpec, blowup_bound,
                       build_initial, custom_params, make_params, profile)
from bfamily2c.initdata import BOUNDARY_DECAY_TOL


def mirror(f: np.ndarray) -> np.ndarray:
    return np.roll(f[::-1], 1)


@pytest.mark.parametrize("kind,formula", [
    (InitKind.GAUSSIAN, lambda a, y: a * np.exp(-(y**2))),
    (InitKind.ODD_GAUSSIAN, lambda a, y: a * y * np.exp(-(y**2))),
    (InitKind.EVEN_BUMP_ZERO_AT_ORIGIN,
     lambda a, y: a * y**2 * np.exp(-(y**2))),
    (InitKind.ODD_CUBIC, lambda a, y: a * y**3 * np.exp(-(y**2))),
])
def test_profile_closed_forms(grid20, kind, formula):
    a, w = 1.3, 0.8
    f = profile(InitSpec(kind, amplitude=a, width=w), grid20)
    assert np.array_equal(f, formula(a, (grid20.x - 0.0) / w))


def test_gaussian_center_shift(grid20):
    f = profile(InitSpec(InitKind.GAUSSIAN, center=2.5), grid20)
    assert grid20.x[np.argmax(f)] == pytest.approx(2.5, abs=grid20.dx)


@pytest.mark.parametrize("kind", [InitKind.ODD_GAUSSIAN, InitKind.ODD_CUBIC])
def test_odd_profiles_exactly_odd(grid20, kind):
    f = profile(InitSpec(kind), grid20)
    # node 0 (x = -L) is its own mirror image and only carries boundary decay
    assert np.all((f + mirror(f))[1:] == 0.0)
    assert abs(f[0]) < BOUNDARY_DECAY_TOL
    assert f[grid20.origin_index] == 0.0


def test_even_bump_vanishes_at_origin(grid20):
    f = profile(InitSpec(InitKind.EVEN_BUMP_ZERO_AT_ORIGIN), grid20)
    assert f[grid20.origin_index] == 0.0
    assert np.all(f - mirror(f) == 0.0)


def test_zero_profile(grid20):
    assert np.all(profile(InitSpec(InitKind.ZERO), grid20) == 0.0)


def test_from_m0_inverts_helmholtz(grid20):
    m0_spec = InitSpec(InitKind.ODD_GAUSSIAN)
    u = profile(InitSpec(InitKind.FROM_M0, m0_spec=m0_spec), grid20)
    m0 = profile(m0_spec, grid20)
    assert np.array_equal(u, grid20.helmholtz_inv(m0))


def test_table_roundtrip(tmp_path, grid20):
    vals = np.exp(-grid20.x**2)
    path = tmp_path / "field.txt"
    np.savetxt(path, np.column_stack([grid20.x, vals]))
    got = profile(InitSpec(InitKind.TABLE, table_path=str(path)), grid20)
    assert np.max(np.abs(got - vals)) < 1e-15


def test_table_rejects_wrong_grid(tmp_path, grid20):
    other = Grid(20.0, 128)
    path = tmp_path / "field.txt"
    np.savetxt(path, np.column_stack([other.x, np.zeros(other.N)]))
    with pytest.raises(ValueError):
        profile(InitSpec(InitKind.TABLE, table_path=str(path)), grid20)
    shifted = tmp_path / "shifted.txt"
    np.savetxt(shifted, np.column_stack([grid20.x + 0.5, np.zeros(grid20.N)]))
    with pytest.raises(ValueError):
        profile(InitSpec(InitKind.TABLE, table_path=str(shifted)), grid20)


@pytest.mark.parametrize("kwargs", [
    dict(kind=InitKind.GAUSSIAN, width=0.0),
    dict(kind=InitKind.GAUSSIAN, width=-1.0),
    dict(kind=InitKind.GAUSSIAN, amplitude=np.nan),
    dict(kind=InitKind.ODD_GAUSSIAN, center=1.0),
    dict(kind=InitKind.ODD_CUBIC, center=-0.5),
    dict(kind=InitKind.EVEN_BUMP_ZERO_AT_ORIGIN, center=2.0),
    dict(kind=InitKind.FROM_M0),
    dict(kind=InitKind.TABLE),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        InitSpec(**kwargs)


def test_build_initial_rejects_boundary_support(grid20):
    # width 10 on L = 20 leaves e^{-4} ~ 2e-2 at the seam
    wide = InitSpec(InitKind.GAUSSIAN, width=10.0)
    narrow = InitSpec(InitKind.GAUSSIAN, width=1.0)
    with pytest.raises(ValueError):
        build_initial(wide, narrow, grid20)
    with pytest.raises(ValueError):
        build_initial(narrow, wide, grid20)
    s = build_initial(narrow, narrow, grid20)
    assert s.t == 0.0
    assert abs(s.u[0]) <= BOUNDARY_DECAY_TOL


@pytest.mark.parametrize("center", [50.0, -20.5, 1e200])
def test_build_initial_rejects_a_center_off_the_domain(grid20, center):
    # such a profile is zero on the grid, and the largest center
    # overflowed y^2
    off = InitSpec(InitKind.GAUSSIAN, center=center)
    ok = InitSpec(InitKind.GAUSSIAN)
    with pytest.raises(ValueError, match=r"^u\.center = .* lies outside"):
        build_initial(off, ok, grid20)
    with pytest.raises(ValueError, match=r"^rho\.m0\.center = .* lies outside"):
        build_initial(ok, InitSpec(InitKind.FROM_M0, m0_spec=off), grid20)


def test_profiles_of_a_tiny_width_warn_nothing(grid20):
    # y^2 passes float range off the center, where e^{-y^2} is 0; y^3
    # does too, and the nan it leaves is rejected
    ok = InitSpec(InitKind.GAUSSIAN)
    spike = profile(InitSpec(InitKind.GAUSSIAN, width=1e-200), grid20)
    assert spike[grid20.origin_index] == 1.0 and np.count_nonzero(spike) == 1
    s = build_initial(InitSpec(InitKind.ODD_GAUSSIAN, width=1e-200), ok, grid20)
    assert not np.any(s.u)
    with pytest.raises(ValueError, match="non-finite initial data"):
        build_initial(InitSpec(InitKind.ODD_CUBIC, width=1e-200), ok, grid20)


def test_blowup_bound_values():
    assert blowup_bound(make_params(CaseTag.CASE_I, 2.0), 1.0) == 2.0
    assert blowup_bound(make_params(CaseTag.CASE_I, 3.0), 1.0) == 1.0
    assert blowup_bound(make_params(CaseTag.CASE_I, 2.0), 0.5) == 4.0


@pytest.mark.parametrize("k1,u0p", [(1.0, 1.0), (3.5, 1.0), (2.0, 0.0),
                                    (2.0, -1.0)])
def test_blowup_bound_validation(k1, u0p):
    with pytest.raises(ValueError):
        blowup_bound(custom_params(k1, 2.0, 1.0), u0p)

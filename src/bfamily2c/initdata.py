"""Initial data families and the closed-form wave-breaking bound.

The symmetric blow-up experiments need odd velocity profiles with a
controlled slope at the origin and even densities vanishing there:

    odd_gaussian:             a (x/w)   exp(-(x/w)^2),  u0'(0) = a/w
    odd_cubic:                a (x/w)^3 exp(-(x/w)^2),  u0'(0) = 0
    even_bump_zero_at_origin: a (x/w)^2 exp(-(x/w)^2),  rho0(0) = 0

plus plain Gaussians, construction from a momentum profile m0 via
u0 = (1 - dx^2)^{-1} m0, tabulated data, and zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import State
from .model import ModelParams
from .spectral import Grid

# profiles must have effectively compact support on the truncated domain
BOUNDARY_DECAY_TOL = 1e-12


class InitKind(Enum):
    GAUSSIAN = "gaussian"
    ODD_GAUSSIAN = "odd_gaussian"
    EVEN_BUMP_ZERO_AT_ORIGIN = "even_bump_zero_at_origin"
    ODD_CUBIC = "odd_cubic"
    FROM_M0 = "from_m0"
    TABLE = "table"
    ZERO = "zero"


@dataclass(frozen=True)
class InitSpec:
    kind: InitKind
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    m0_spec: "InitSpec | None" = None
    table_path: str | None = None

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and np.isfinite(self.width)):
            raise ValueError(f"width must be positive, got {self.width}")
        if not np.isfinite(self.amplitude) or not np.isfinite(self.center):
            raise ValueError("non-finite amplitude or center")
        odd_kinds = (InitKind.ODD_GAUSSIAN, InitKind.ODD_CUBIC,
                     InitKind.EVEN_BUMP_ZERO_AT_ORIGIN)
        if self.kind in odd_kinds and self.center != 0.0:
            raise ValueError(f"{self.kind.value} profiles are pinned to center 0")
        if self.kind is InitKind.FROM_M0 and self.m0_spec is None:
            raise ValueError("from_m0 requires m0_spec")
        if self.kind is InitKind.TABLE and self.table_path is None:
            raise ValueError("table requires table_path")


# y^2 may overflow off the center, where e^{-y^2} = 0; build_initial rejects nan
@np.errstate(over="ignore", invalid="ignore")
def profile(spec: InitSpec, g: Grid) -> np.ndarray:
    """Sample one canonical profile on the grid."""
    a, w, c = spec.amplitude, spec.width, spec.center
    y = (g.x - c) / w
    if spec.kind is InitKind.GAUSSIAN:
        return a * np.exp(-(y**2))
    if spec.kind is InitKind.ODD_GAUSSIAN:
        return a * y * np.exp(-(y**2))
    if spec.kind is InitKind.EVEN_BUMP_ZERO_AT_ORIGIN:
        return a * y**2 * np.exp(-(y**2))
    if spec.kind is InitKind.ODD_CUBIC:
        return a * y**3 * np.exp(-(y**2))
    if spec.kind is InitKind.ZERO:
        return np.zeros(g.N)
    if spec.kind is InitKind.FROM_M0:
        return g.helmholtz_inv(profile(spec.m0_spec, g))
    if spec.kind is InitKind.TABLE:
        return _load_table(spec.table_path, g)
    raise ValueError(f"unknown init kind {spec.kind!r}")


def _load_table(path: str, g: Grid) -> np.ndarray:
    """Two-column (x, value) text data; accepted only on the exact grid."""
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"table {path} must have two columns (x, value)")
    if data.shape[0] != g.N:
        raise ValueError(f"table {path} has {data.shape[0]} rows, grid has N={g.N}")
    if not np.allclose(data[:, 0], g.x, rtol=0.0, atol=1e-12 * max(1.0, g.L)):
        raise ValueError(f"table {path} nodes do not match the grid (no resampling)")
    return data[:, 1].copy()


def _check_boundary_decay(f: np.ndarray, name: str, g: Grid) -> None:
    # x_0 = -L is the seam of the periodic surrogate; data must vanish there
    if abs(float(f[0])) > BOUNDARY_DECAY_TOL:
        raise ValueError(
            f"initial {name} does not decay at the boundary: "
            f"|{name}(-L)| = {abs(float(f[0])):.3e} > {BOUNDARY_DECAY_TOL:.0e}"
        )


def build_initial(spec_u: InitSpec, spec_rho: InitSpec, g: Grid) -> State:
    """Construct the t=0 state and enforce boundary decay.

    The grid is symmetric by construction (x = 0 sits at index N/2 and
    each node x > -L has its mirror), so the parity claims of the odd
    and even families hold exactly in floating point.
    """
    for spec, name in ((spec_u, "u"), (spec_rho, "rho")):
        while spec is not None:  # the profile, then its m0 if it has one
            # a center off the domain leaves a profile that is zero on the grid
            if not abs(spec.center) <= g.L:
                raise ValueError(f"{name}.center = {spec.center!r} lies outside "
                                 f"[-L, L] = [{-g.L!r}, {g.L!r}]")
            spec, name = spec.m0_spec, f"{name}.m0"
    y0 = np.stack([profile(spec_u, g), profile(spec_rho, g)])
    for f, name in zip(y0, ("u", "rho")):
        _check_boundary_decay(f, name, g)
    if not np.all(np.isfinite(y0)):
        raise ValueError("non-finite initial data")
    return State(t=0.0, y=y0)


def blowup_bound(p: ModelParams, u0p0: float) -> float:
    """Upper bound 2 / ((k1 - 1) u0'(0)) for the wave-breaking time.

    Applies to odd u0 / even rho0 data with rho0(0) = 0 when
    1 < k1 <= 3, k2 >= 0 and u0'(0) > 0 (see diagnostics.riccati_check
    for the inequality it derives from).
    """
    if not 1.0 < p.k1 <= 3.0:
        raise ValueError(f"slope bound needs 1 < k1 <= 3, got k1={p.k1}")
    if not u0p0 > 0.0:
        raise ValueError(f"slope bound needs u0'(0) > 0, got {u0p0}")
    return 2.0 / ((p.k1 - 1.0) * u0p0)

"""Right-hand side of the two-component system in nonlocal form.

With p the Helmholtz Green kernel, the momentum equation is evolved as

    u_t = u u_x + dx (1 - dx^2)^{-1} [ (k1/2) u^2 + ((3-k1)/2) u_x^2
                                       + (k2/2) rho^2 ]
    rho_t = k3 (u rho)_x

which is the m-form   m_t = u m_x + k1 u_x m + k2 rho rho_x   rewritten
through m = u - u_xx.  The density tendency is kept in conservative
form (a perfect x-derivative), so the semi-discretization preserves
int rho dx exactly: a spectral derivative has zero mean bin by
construction, and the mean bin of rho's spectrum never changes.

The evolved variable is the spectrum yh (2, B, N/2 + 1) of (u, rho),
the standard layout of a Fourier pseudospectral method (Canuto,
Hussaini, Quarteroni & Zang, Spectral Methods: Fundamentals in Single
Domains, Springer 2006, sec. 3.4).  An evaluation is one spectral pass
of 2 real-FFT calls on 6 rows per member:

    irfft (u^, rho^, i kappa u^) -> (u, rho, u_x);
    rfft (u u_x, source, u rho).

Projection by the 2/3 rule (Orszag, J. Atmos. Sci. 28 (1971) 1074) and
the multipliers i kappa and i kappa / (1 + kappa^2) are linear and
diagonal in Fourier space, so the tendency is formed there, on the
n_keep bins the rule keeps, and never transformed back.  The physical
rows (u, rho, u_x) of the evaluated state are the ones the step size,
the characteristics, the detection slopes and the records read.

Every array an evaluation, an RK4 step or a record writes lives in
one Workspace, allocated once per run.  Each array puts the field
first and the member second, so every field of a batch is one
contiguous (B, .) block and member i is [:, i].  numpy transforms each
row of a stack bit for bit as it would the row alone, so stacking
changes no output bit: neither the stacking of fields nor that of a
batch of members, whose coefficients broadcast as (B, 1) columns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, ParamStack
from .spectral import Grid


@dataclass(eq=False)
class State:
    """Time t plus the physical fields stacked as y = (u, rho).

    One member's state is y (2, N) with a float t: what run and
    run_batch take, what a snapshot holds and what choose_dt and
    transport_residual read.  A batch is y (B, 2, N) with t (B,), as
    symmetry_residual takes it.  u and rho are read-only views of the
    rows y[..., 0, :] and y[..., 1, :].
    """

    t: float | np.ndarray
    y: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.y[..., 0, :]

    @property
    def rho(self) -> np.ndarray:
        return self.y[..., 1, :]


@dataclass(eq=False)
class Tendency:
    """eval_rhs of the spectrum yh (2, B, N/2 + 1) of a batch at times
    t (B,): the tendency's kept bins dyh (2, B, n_keep), the physical
    rows fields (3, B, N) = (u, rho, u_x) of the evaluated state and the
    spectra ph (3, B, N/2 + 1) of its products (u u_x, source, u rho),
    left un-dealiased.  The arrays are the views eval_rhs wrote in its
    Workspace; member i is [:, i] of each, and each field (u, dyh[0],
    ...) is a contiguous (B, .) block."""

    t: np.ndarray
    yh: np.ndarray
    dyh: np.ndarray
    fields: np.ndarray
    ph: np.ndarray

    @property
    def y(self) -> np.ndarray:
        """The physical stack (u, rho) member by member, (B, 2, N)."""
        return self.fields[:2].swapaxes(0, 1)

    @property
    def u(self) -> np.ndarray:
        return self.fields[0]

    @property
    def rho(self) -> np.ndarray:
        return self.fields[1]

    @property
    def ux(self) -> np.ndarray:
        return self.fields[2]

    @property
    def sh(self) -> np.ndarray:
        """The un-dealiased spectrum of the nonlocal source."""
        return self.ph[1]

    def rows(self, j) -> Tendency:
        """The members j (an index list) of the batch, as copies."""
        return Tendency(t=self.t[j], yh=self.yh[:, j], dyh=self.dyh[:, j],
                        fields=self.fields[:, j], ph=self.ph[:, j])


class Workspace:
    """Every array the evaluations, RK4 steps and records of a batch of
    up to B members write, allocated once.

    yh is the batch's spectrum and yh_next the combine's output on the
    kept bins (copied to yh once the step is accepted); spec holds the
    inverse transform's input (u^, rho^, i kappa u^) and prod the
    forward transform's (u u_x, source, u rho).  fields and ph hold the
    rows of two evaluations: [0] the accepted state's, which outlives a
    step and its retake, [1] the stage in flight.  dyh holds the four
    stage tendencies, and rec_spec and rec_fields the seven rows
    make_record derives.  Every array's first axis is the field and its
    second the member: rows(n) views the first n members.
    """

    def __init__(self, B: int, g: Grid):
        M, N, K = g.k.size, g.N, g.n_keep
        self.yh = np.empty((2, B, M), dtype=complex)
        self.yh_next = np.empty((2, B, K), dtype=complex)
        self.spec = np.empty((3, B, M), dtype=complex)
        self.prod = np.empty((3, B, N))
        self.fields = tuple(np.empty((3, B, N)) for _ in range(2))
        self.ph = tuple(np.empty((3, B, M), dtype=complex) for _ in range(2))
        self.dyh = tuple(np.empty((2, B, K), dtype=complex) for _ in range(4))
        self.rec_spec = np.empty((7, B, M), dtype=complex)
        self.rec_fields = np.empty((7, B, N))

    @classmethod
    def for_states(cls, states: Sequence[State], g: Grid) -> Workspace:
        """A workspace for the batch of `states` (each (2, N)), holding
        their spectra in yh: one rfft of every row."""
        ws = cls(len(states), g)
        np.fft.rfft(np.stack([s.y for s in states], axis=1), out=ws.yh)
        return ws

    def rows(self, n: int) -> Workspace:
        """The workspace of the first n members: views, no copy."""
        ws = copy.copy(self)
        for name, a in vars(self).items():
            if isinstance(a, np.ndarray):
                setattr(ws, name, a[:, :n])
            elif isinstance(a, tuple):
                setattr(ws, name, tuple(x[:, :n] for x in a))
        return ws

    def keep(self, rows: list[int]) -> Workspace:
        """Move the state and the accepted evaluation of the members
        `rows` to the first members, in that order, and view those."""
        for a in (self.yh, self.fields[0], self.ph[0], self.dyh[0]):
            a[:, :len(rows)] = a[:, rows]
        return self.rows(len(rows))

    def tendency(self, stage: int, t, yh: np.ndarray) -> Tendency:
        """The views stage `stage` (0 for an accepted state) writes."""
        slot = min(stage, 1)
        return Tendency(t=t, yh=yh, dyh=self.dyh[stage],
                        fields=self.fields[slot], ph=self.ph[slot])


# overflow is reported by the stepper's per-member gate, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def eval_rhs(t, yh: np.ndarray, p: ModelParams | ParamStack, g: Grid,
             ws: Workspace | None = None, stage: int = 0) -> Tendency:
    """Evaluate the nonlocal-form tendency of the spectrum yh (2, B,
    N/2 + 1) of a batch at times t, whose coefficients p holds as (B, 1)
    columns (or floats for one member).

    The result's arrays are views of ws (a fresh Workspace of B members
    when None), each field a contiguous (B, .) block and member i [:, i]:
    stage 0 writes the slot of an accepted state, stages 1 to 3 the
    stage slot, each with its own tendency rows.  yh may be ws.spec[:2],
    where step_rk4 forms a stage state.  Quadratic products are formed
    pointwise and the tendency kept on the first g.n_keep bins, the ones
    the 2/3 rule keeps.  u_x is the spectral derivative exactly as
    Grid.derivative computes it from the same spectrum.  A state that
    overflows gives a non-finite dyh, returned as computed and without a
    warning: the stepper gates each member's rows.
    """
    if ws is None:
        ws = Workspace(yh.shape[1], g)
    K, spec, prod = g.n_keep, ws.spec, ws.prod
    k = ws.tendency(stage, t, yh)
    if not np.shares_memory(yh, spec):
        spec[:2] = yh
    np.multiply(spec[0], g.ik, out=spec[2])
    np.fft.irfft(spec, n=g.N, out=k.fields)
    u, rho, ux = k.u, k.rho, k.ux
    # source = (k1/2) u^2 + ((3 - k1)/2) u_x^2 + (k2/2) rho^2, summed in
    # that order, with the row of u rho as scratch
    source, urho = prod[1], prod[2]
    np.multiply(u, u, out=source)
    source *= 0.5 * p.k1
    np.multiply(ux, ux, out=urho)
    urho *= 0.5 * (3.0 - p.k1)
    source += urho
    np.multiply(rho, rho, out=urho)
    urho *= 0.5 * p.k2
    source += urho
    np.multiply(u, ux, out=prod[0])
    np.multiply(u, rho, out=urho)
    np.fft.rfft(prod, out=k.ph)
    du, drho = k.dyh
    np.multiply(g.dx_helm_inv[:K], k.ph[1, :, :K], out=du)
    du += k.ph[0, :, :K]
    np.multiply(g.ik[:K], k.ph[2, :, :K], out=drho)
    # k3 is real: scaling the float view of drho needs no cast to complex
    np.multiply(drho.view(float), p.k3, out=drho.view(float))
    return k

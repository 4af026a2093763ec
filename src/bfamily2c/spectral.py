"""Periodic pseudospectral toolbox on a truncated line domain.

The solver works on [-L, L) with N uniform nodes x_j = -L + j*dx and
real-to-complex FFTs; wavenumbers are kappa_n = n*pi/L.  The Helmholtz
operator 1 - dx^2 and its inverse are exact Fourier multipliers here,
which stands in for the line convolution with the Green kernel

    p(x) = (1/2) exp(-|x|),    (1 - dx^2)^{-1} f = p * f

as long as the data decay before the boundary.  green_convolve keeps
the line-kernel quadrature around as an independent cross-check of
that surrogate (its mismatch exposes the exp(-L) truncation floor).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


# Grid.interpolate's Gaussian gridding (Greengard & Lee, SIAM Rev. 46
# (2004) 443): a grid _OVERSAMPLE times finer than the nodes, _SPREAD
# fine-grid values on each side of a point, and the Gaussian
# exp(-_ALPHA d^2), d in fine-grid spacings (_ALPHA = 1/(4 tau) for
# their tau).  At 14 points per side the truncation and aliasing errors
# are ~1e-14 of max|f|.
_OVERSAMPLE = 2
_SPREAD = 14
_ALPHA = math.pi * _OVERSAMPLE * (_OVERSAMPLE - 0.5) / (4.0 * _SPREAD)


class Kernel(Enum):
    """Line kernels for green_convolve: P = (1/2)e^{-|x|}, DP its a.e. derivative."""

    P = "p"
    DP = "dp"


def _kernel_values(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    if kernel is Kernel.P:
        return 0.5 * np.exp(-np.abs(x))
    if kernel is Kernel.DP:
        # -sgn(x)/2 e^{-|x|}; sgn(0) = 0 keeps the quadrature symmetric.
        return -0.5 * np.sign(x) * np.exp(-np.abs(x))
    raise ValueError(f"unknown kernel {kernel!r}")


def _parseval_sum(power: np.ndarray) -> float:
    """Sum over all N modes of a real field from its rfft half-spectrum
    power: bins 1 .. N/2-1 stand for their conjugates too."""
    return power[0] + 2.0 * np.sum(power[1:-1]) + power[-1]


class Grid:
    """Uniform periodic grid with cached Fourier multipliers.

    All operators are pure functions of their input array; the grid
    itself is immutable after construction and safe to share.  They do
    not validate fields: shape and finiteness are enforced where fields
    enter or change (build_initial, eval_rhs, the RK4 combine).
    """

    def __init__(self, L: float, N: int):
        if not (L > 0.0 and np.isfinite(L)):
            raise ValueError(f"L must be positive and finite, got {L}")
        if N % 2 != 0 or N < 16:
            raise ValueError(f"N must be even and >= 16, got {N}")
        self.L = float(L)
        self.N = int(N)
        self.dx = 2.0 * self.L / self.N
        self.x = -self.L + self.dx * np.arange(self.N)
        # rfft layout: kappa_n = n*pi/L for n = 0 .. N/2
        self.k = 2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.dx)
        # Fourier multipliers, shared by every operator that applies them.
        # Odd-order derivatives drop the Nyquist coefficient so the output
        # of the real transform stays real-symmetric.
        ik = 1j * self.k
        self.deriv_mult = {order: ik**order for order in (1, 2, 3)}
        self.deriv_mult[1][-1] = 0.0
        self.deriv_mult[3][-1] = 0.0
        self.ik = self.deriv_mult[1]
        self.helm = 1.0 + self.k**2
        self.dx_helm_inv = ik / self.helm
        self.dx_helm_inv[-1] = 0.0
        # 2/3 rule: quadratic products are clean if modes n >= n_keep
        # (above N/3) are dropped
        self.n_keep = self.N // 3 + 1
        n = np.arange(self.k.size)
        self._tail = (n < self.n_keep) & (n > self.N // 6)
        self._kernel_fft: dict[Kernel, np.ndarray] = {}
        # interpolate: the Gaussian deconvolution with the 1/N of the
        # inverse sum and the fine-grid quadrature weight folded in.  On
        # the fine grid the Nyquist mode is an ordinary one, so its bin
        # is halved to stand for the cosine (the conjugate comes back).
        self._n_fine = _OVERSAMPLE * self.N
        self._deconv = (_OVERSAMPLE * math.sqrt(_ALPHA / math.pi)
                        * np.exp((2.0 * math.pi * n / self._n_fine) ** 2 / (4.0 * _ALPHA)))
        self._deconv[-1] *= 0.5
        self._gauss_offsets = np.exp(-_ALPHA * np.arange(2.0 * _SPREAD) ** 2)

    # ------------------------------------------------------------------
    # basic plumbing

    @property
    def origin_index(self) -> int:
        """Index of the node x = 0 (grid is symmetric by construction)."""
        return self.N // 2

    def integrate(self, f: np.ndarray) -> float:
        """Trapezoid rule over the period (== rectangle rule here)."""
        return self.dx * float(np.sum(f))

    # ------------------------------------------------------------------
    # Fourier multipliers

    def derivative(self, f: np.ndarray, order: int = 1) -> np.ndarray:
        """Spectral d^order/dx^order, order in {1, 2, 3}.

        The Nyquist coefficient of odd-order derivatives is zeroed so
        the output of the real transform stays real-symmetric.
        """
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        return np.fft.irfft(np.fft.rfft(f) * self.deriv_mult[order], n=self.N)

    def helmholtz(self, f: np.ndarray) -> np.ndarray:
        """(1 - dx^2) f as the multiplier 1 + kappa^2."""
        return np.fft.irfft(np.fft.rfft(f) * self.helm, n=self.N)

    def helmholtz_inv(self, f: np.ndarray) -> np.ndarray:
        """(1 - dx^2)^{-1} f; the periodic surrogate for p * f."""
        return np.fft.irfft(np.fft.rfft(f) / self.helm, n=self.N)

    def dx_helmholtz_inv(self, f: np.ndarray) -> np.ndarray:
        """dx (1 - dx^2)^{-1} f, multiplier i*kappa/(1 + kappa^2)."""
        return np.fft.irfft(np.fft.rfft(f) * self.dx_helm_inv, n=self.N)

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Orthogonal projection dropping modes above N/3 (2/3 rule)."""
        fh = np.fft.rfft(f)
        fh[..., self.n_keep:] = 0.0
        return np.fft.irfft(fh, n=self.N)

    # ------------------------------------------------------------------
    # line-kernel quadrature (independent of the periodic multipliers)

    def green_convolve(self, f: np.ndarray, kernel: Kernel = Kernel.P) -> np.ndarray:
        """Trapezoid quadrature of int K(x - y) f(y) dy over [-L, L).

        Computed as the exact node sum dx * sum_j K(x_i - x_j) f_j via a
        zero-padded linear convolution, identical to the dense kernel
        matrix to roundoff but O(N log N).  Valid only when f is
        negligible near the boundary (caller's responsibility): the
        domain truncates the line integral, and no periodic image of
        the kernel is included.
        """
        if kernel not in self._kernel_fft:
            lags = self.dx * np.arange(-(self.N - 1), self.N)
            kpad = np.zeros(2 * self.N)
            kpad[: 2 * self.N - 1] = _kernel_values(kernel, lags)
            self._kernel_fft[kernel] = np.fft.rfft(kpad)
        fpad = np.zeros(2 * self.N)
        fpad[: self.N] = f
        conv = np.fft.irfft(self._kernel_fft[kernel] * np.fft.rfft(fpad), n=2 * self.N)
        return self.dx * conv[self.N - 1 : 2 * self.N - 1]

    # ------------------------------------------------------------------
    # norms and pointwise evaluation

    def sobolev_norm_sq(self, f: np.ndarray, s: float) -> float:
        """Discrete ||f||_{H^s}^2 = sum_n (1 + kappa_n^2)^s |fhat_n|^2.

        Normalized so s = 0 reproduces the trapezoid integral of f^2
        over the period (discrete Parseval).
        """
        return self.spectrum_norm_sq(np.fft.rfft(f), s)

    def spectrum_norm_sq(self, fh: np.ndarray, s: float) -> float:
        """sobolev_norm_sq of the field whose rfft is fh."""
        if not np.isfinite(s):
            raise ValueError("Sobolev index s must be finite")
        power = self.helm**s * np.abs(fh) ** 2
        return float(2.0 * self.L * _parseval_sum(power) / self.N**2)

    def tail_fraction(self, f: np.ndarray) -> float:
        """Share of the discrete energy of f held by modes N/6 < n <= N/3.

        These are the upper half of the modes the 2/3 rule keeps.  While
        f is resolved its spectrum decays exponentially and the share
        sits at the roundoff floor; its rise measures the loss of
        resolution (Sulem, Sulem & Frisch, J. Comput. Phys. 50 (1983)
        138).  A zero field has share 0.
        """
        power = np.abs(np.fft.rfft(f)) ** 2
        total = _parseval_sum(power)
        if total == 0.0:
            return 0.0
        return float(2.0 * np.sum(power[self._tail]) / total)

    def interpolate(self, f: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Trigonometric evaluation of one field (N,) or a stack (F, N).

        Returns (M,) or (F, M) for M points; a scalar point gives a
        scalar (or (F,)).  Points are wrapped periodically into [-L, L).
        Equals the trigonometric sum through the N modes to ~1e-14 of
        max|f| (~1e-12 at N=4096 with O(1) content up to N/3); the
        Nyquist mode is evaluated as a pure cosine, consistent with its
        real-symmetric interpretation.

        A type-2 NUFFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14 (1993)
        1368): one rfft of the stack, the Gaussian deconvolution,
        one irfft onto the grid of n_fine = 2N nodes, then a sum over the
        2*_SPREAD fine nodes around each point.  A point d0 fine spacings
        past the first node of its window weights node m of it by
        exp(-a (d0 - m)^2) = exp(-a d0^2) exp(2 a d0)^m exp(-a m^2), a =
        _ALPHA (Greengard & Lee's fast gridding): two exponentials per point.
        """
        f = np.asarray(f, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != self.N:
            raise ValueError(f"field shape {f.shape} does not match grid N={self.N}")
        fh = np.fft.rfft(f, axis=-1).reshape(-1, self.k.size)
        fh[:, -1] = fh[:, -1].real
        fine = np.fft.irfft(fh * self._deconv, n=self._n_fine, axis=-1)
        width = 2 * _SPREAD
        padded = np.concatenate([fine[:, 1 - _SPREAD:], fine, fine[:, :_SPREAD]], axis=-1)
        windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        s = ((pts + self.L) % (2.0 * self.L)) * (self._n_fine / (2.0 * self.L))
        j0 = np.floor(s)
        d0 = s - j0 + (_SPREAD - 1)
        # exp(-a d0^2) exp(2 a d0)^m as a running product, then exp(-a m^2)
        weights = np.empty((s.size, width))
        weights[:, 0] = np.exp(-_ALPHA * d0**2)
        weights[:, 1:] = np.exp(2.0 * _ALPHA * d0)[:, None]
        np.cumprod(weights, axis=1, out=weights)
        weights *= self._gauss_offsets
        j0 = j0.astype(np.intp) % self._n_fine
        vals = np.einsum("fmk,mk->fm", windows[:, j0], weights)
        out = vals if np.ndim(points) else vals[:, 0]
        return out[0] if f.ndim == 1 else out

"""Exact heat-equation evolution via spectral multipliers.

E(t) multiplies each Fourier mode of a periodic grid function by
exp(-k^2 t), reading its grid (the integer modes ``fftfreq(N) * N`` of an
N-point function on ``[0, 2*pi)``) from the data, with no horizon.  On
band-limited data this is the heat flow to machine precision, the "exact
solution" side of convergence and consistency experiments.  The family is
a contraction semigroup: every multiplier lies in (0, 1], so the uniform
bound is 1.
"""
from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction

__all__ = ["evolve", "extend_evolve"]


def _multipliers(n: int, t: float) -> np.ndarray:
    """Per-mode factors exp(-k^2 t) of an n-point grid, in FFT order (integer k)."""
    k = np.fft.fftfreq(n) * n
    with np.errstate(over="ignore"):  # a k^2 t past any float gets exp(-inf) = 0
        return np.exp(-(k**2) * t)


def evolve(u: GridFunction, t: float) -> GridFunction:
    """Apply E(t): damp mode k by exp(-k^2 t).  Requires finite t >= 0."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if t == 0.0:
        return u
    return GridFunction(np.fft.ifft(np.fft.fft(u.values) * _multipliers(u.n, t)).real)


def extend_evolve(u: GridFunction, t: float, horizon_t: float) -> GridFunction:
    """Evolution past the horizon T: E(t - m T) after E(T)^m, m = floor(t / T).

    The multipliers compose exactly, exp(-k^2 T)^m exp(-k^2 (t - m T)) =
    exp(-k^2 t), so E(T)^m E(t - m T) = E(t) is applied directly: one
    transform pair for any t / T, with m never formed.  Only for finite
    t > T > 0; use :func:`evolve` inside the horizon.
    """
    if not horizon_t > 0:
        raise ValueError(f"horizon_t must be positive, got {horizon_t}")
    if not horizon_t < t < math.inf:
        raise ValueError(f"extend_evolve needs finite t > horizon_t={horizon_t}, got {t} (use evolve)")
    return evolve(u, t)

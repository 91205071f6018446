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

__all__ = ["evolve"]


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


"""Exact heat-equation evolution via spectral multipliers.

The family E(t) multiplies each Fourier mode of a periodic grid function
by exp(-k^2 t).  On band-limited data this is the heat flow to machine
precision, which makes it usable as the "exact solution" side of
convergence and consistency experiments.  The family is a contraction
semigroup: every multiplier lies in (0, 1], so the uniform bound is 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError
from .grid import GridFunction

__all__ = ["HeatSemigroup", "evolve", "extend_evolve"]


@dataclass(frozen=True)
class HeatSemigroup:
    """Evolution operators for u_t = u_xx on an N-point grid of ``[0, 2*pi)``.

    Evolution past ``horizon_t`` goes through :func:`extend_evolve`,
    which composes powers of E(horizon_t).
    """

    horizon_t: float
    grid_n: int

    def __post_init__(self) -> None:
        if not (self.horizon_t > 0):
            raise ValueError(f"horizon_t must be positive, got {self.horizon_t}")
        if self.grid_n < 2:
            raise InvalidGridError(f"grid_n must be >= 2, got {self.grid_n}")

    def multipliers(self, t: float) -> np.ndarray:
        """Per-mode factors exp(-k^2 t), in FFT order (integer k)."""
        k = np.fft.fftfreq(self.grid_n) * self.grid_n
        with np.errstate(over="ignore"):  # a k^2 t past any float gets exp(-inf) = 0
            return np.exp(-(k**2) * t)


def _check_grid(sg: HeatSemigroup, u: GridFunction) -> None:
    if u.n != sg.grid_n:
        raise InvalidGridError(f"grid size {u.n} does not match semigroup grid {sg.grid_n}")


def evolve(sg: HeatSemigroup, u: GridFunction, t: float) -> GridFunction:
    """Apply E(t): damp mode k by exp(-k^2 t).  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    _check_grid(sg, u)
    if t == 0.0:
        return u
    spectrum = np.fft.fft(u.values) * sg.multipliers(t)
    return GridFunction(np.fft.ifft(spectrum).real)


def extend_evolve(sg: HeatSemigroup, u: GridFunction, t: float) -> GridFunction:
    """Evolution past the horizon: E(t - m T) applied after m copies of E(T).

    Here m = floor(t / T).  Only valid for t > horizon_t; use
    :func:`evolve` inside the horizon.
    """
    big_t = sg.horizon_t
    if t <= big_t:
        raise ValueError(f"extend_evolve needs t > horizon_t={big_t}, got {t} (use evolve)")
    _check_grid(sg, u)
    m = int(math.floor(t / big_t))
    remainder = t - m * big_t
    out = u
    for _ in range(m):
        out = evolve(sg, out, big_t)
    return evolve(sg, out, remainder)


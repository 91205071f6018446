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

from .errors import InvalidGridError, InvalidProbeError
from .grid import GridFunction, is_band_limited, sup_norm

__all__ = [
    "HeatSemigroup",
    "evolve",
    "extend_evolve",
    "spectral_second_derivative",
    "ProperlyPosedReport",
    "properly_posed_check",
    "exact_solution_residual",
]


@dataclass(frozen=True)
class HeatSemigroup:
    """Evolution operators for u_t = u_xx on an N-point grid of ``[0, 2*pi)``.

    ``horizon_t`` is the interval on which the contraction bound 1 is
    asserted; evolution past the horizon goes through
    :func:`extend_evolve`, which composes powers of E(horizon_t).
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


def spectral_second_derivative(u: GridFunction) -> GridFunction:
    """The generator A = d^2/dx^2 realized as the multiplier -k^2."""
    k = np.fft.fftfreq(u.n) * u.n
    spectrum = np.fft.fft(u.values) * (-(k**2))
    return GridFunction(np.fft.ifft(spectrum).real)


@dataclass(frozen=True)
class ProperlyPosedReport:
    max_ratio: float
    passed: bool
    rows: tuple  # (t, probe_index, ratio)


def properly_posed_check(sg: HeatSemigroup, ts, probes) -> ProperlyPosedReport:
    """Measure max ||E(t)u|| / ||u|| over a probe set against the contraction bound 1."""
    probes = list(probes)
    if not probes:
        raise InvalidProbeError("need at least one probe")
    rows = []
    max_ratio = 0.0
    for pid, u in enumerate(probes):
        nu = sup_norm(u)
        if nu == 0.0:
            raise InvalidProbeError(f"probe {pid} is identically zero")
        for t in ts:
            ratio = sup_norm(evolve(sg, u, t)) / nu
            rows.append((float(t), pid, ratio))
            max_ratio = max(max_ratio, ratio)
    passed = max_ratio <= 1.0 + 1e-9
    return ProperlyPosedReport(max_ratio, passed, tuple(rows))


def exact_solution_residual(sg: HeatSemigroup, u: GridFunction, t: float, dt_list):
    """Forward-difference residuals of the exact flow against the generator.

    For each dt returns ||(E(t+dt)u - E(t)u)/dt - A E(t)u|| with A the
    spectral second derivative.  Residuals shrink at first order in dt.
    The probe must be band-limited (|k| <= N/4) so that A u is resolved.
    """
    _check_grid(sg, u)
    if not is_band_limited(u, sg.grid_n // 4):
        raise InvalidGridError("probe must be band-limited to |k| <= N/4")
    at_t = evolve(sg, u, t)
    generator = spectral_second_derivative(at_t)
    residuals = []
    for dt in dt_list:
        if not (dt > 0):
            raise ValueError(f"dt must be positive, got {dt}")
        ahead = evolve(sg, u, t + dt)
        diff = (ahead.values - at_t.values) / dt - generator.values
        residuals.append(float(np.max(np.abs(diff))))
    return residuals

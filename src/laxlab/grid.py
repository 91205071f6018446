"""Periodic grid functions with the sup-norm.

A :class:`GridFunction` is a uniform sample of a function on the periodic
interval ``[0, 2*pi)``.  It is the concrete, finite-dimensional
stand-in for elements of the normed space in which both exact evolutions
and finite-difference trajectories live.  All objects here are immutable
value types: operations return fresh grid functions and never mutate
their inputs.
"""
from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergedValueError, InvalidGridError

TWO_PI = 2.0 * math.pi

# The finest grid a refinement cell or stability row may ask for: a desk-scale
# run has N in the thousands, and a cell past this is a config error.
MAX_GRID_N = 2**16

# Coefficient and sample magnitudes past this mark gross instability; a typed
# error keeps infinities out of downstream reports.  No probe starts past it,
# so a transform of its N <= MAX_GRID_N samples cannot overflow.
OVERFLOW_LIMIT = 1e300

# The most grid-point updates a run may take step by step (the round-off
# twins, convergence cells that fail von Neumann): a desk-scale run takes a
# few million, and one past this would run for hours.
MAX_UPDATES = 10**8

__all__ = [
    "TWO_PI",
    "MAX_GRID_N",
    "OVERFLOW_LIMIT",
    "MAX_UPDATES",
    "GridFunction",
    "RefinementPath",
    "Probe",
    "Sine",
    "Cosine",
    "Constant",
    "PointMass",
    "RandomUniform",
    "Mixture",
    "parse_probe",
    "sample",
    "sup_norm",
    "is_band_limited",
]


@dataclass(frozen=True)
class GridFunction:
    """Real, finite samples ``values[j] = u(j * dx)``, ``dx = 2*pi / N``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidGridError(f"need at least 2 samples, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise DivergedValueError("non-finite sample in grid function")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return TWO_PI / self.n


def sup_norm(u: GridFunction) -> float:
    """Max over samples of ``|u_j|``; finite, since :class:`GridFunction`
    rejects non-finite samples when it is built."""
    return float(np.max(np.abs(u.values)))


# ---------------------------------------------------------------------------
# Probe descriptors: closed-form initial data that can be sampled on any grid.
# ---------------------------------------------------------------------------

class Probe:
    """Descriptor of initial data; ``evaluate_on`` produces samples for any N."""

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __add__(self, other: "Probe") -> "Mixture":
        return Mixture((self, other))


@dataclass(frozen=True)
class Sine(Probe):
    wavenumber: int
    amplitude: float = 1.0

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(self.wavenumber * x)


@dataclass(frozen=True)
class Cosine(Probe):
    wavenumber: int
    amplitude: float = 1.0

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.cos(self.wavenumber * x)


@dataclass(frozen=True)
class Constant(Probe):
    value: float = 1.0

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(x, self.value)


@dataclass(frozen=True)
class PointMass(Probe):
    """Indicator of a single grid node; the node index is taken modulo N."""

    index: int = 0
    amplitude: float = 1.0

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        vals = np.zeros_like(x)
        vals[self.index % x.size] = 1.0
        return self.amplitude * vals


@dataclass(frozen=True)
class RandomUniform(Probe):
    """Uniform samples in [-1, 1), times the amplitude; deterministic for a
    fixed seed and N."""

    seed: int = 0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"random_uniform seed must be >= 0, got {self.seed}")

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.amplitude * rng.uniform(-1.0, 1.0, size=x.size)


@dataclass(frozen=True)
class Mixture(Probe):
    terms: tuple

    def evaluate_on(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for term in self.terms:
            out = out + term.evaluate_on(x)
        return out

    def __add__(self, other: Probe) -> "Mixture":
        return Mixture(self.terms + (other,))


_PROBE_TERM = re.compile(
    r"^\s*(?:(?P<amp>[-+]?[0-9.eE+-]+)\s*\*\s*)?"
    r"(?P<name>[a-z_]+)\s*\(\s*(?P<arg>[-+]?[0-9.eE+-]*)\s*\)\s*$"
)


# The largest |k| of sine(k) or cosine(k) whose samples k*x, x < 2 pi, are
# all finite; a larger one overflows k*x or, past the largest double, its
# conversion to float.
_MAX_WAVENUMBER = sys.float_info.max / TWO_PI


def parse_probe(text: str, seed: int = 0) -> Probe:
    """Parse descriptors like ``sine(1)``, ``sine(1)+sine(31)``, ``0.5*cosine(2)``.

    Terms are split at a ``+`` after a closing parenthesis, so an amplitude
    may be written ``2e+0``; it scales the samples of any term kind.  A
    non-finite amplitude or constant raises :class:`InvalidGridError`, and
    so do amplitudes whose absolute values sum past :data:`OVERFLOW_LIMIT`
    (that sum bounds every sample) and a sine or cosine wavenumber k so
    large that k*x overflows on the grid.  ``random_uniform(k)`` samples
    with seed ``k + seed``.
    """
    terms = []
    bound = 0.0
    for chunk in re.split(r"(?<=\))\s*\+", text):
        m = _PROBE_TERM.match(chunk)
        if m is None:
            raise InvalidGridError(f"unparseable probe term: {chunk!r}")
        amp = float(m.group("amp")) if m.group("amp") else 1.0
        name, arg = m.group("name"), m.group("arg")
        if name in ("sine", "cosine"):
            k = int(arg)
            if not abs(k) <= _MAX_WAVENUMBER:  # exact: an int compares with a float without rounding
                raise InvalidGridError(f"wavenumber past {_MAX_WAVENUMBER!r} in probe term: {chunk!r}")
            term: Probe = (Sine if name == "sine" else Cosine)(k, amp)
        elif name == "constant":
            amp *= float(arg if arg else 1.0)
            term = Constant(amp)
        elif name == "point_mass":
            term = PointMass(int(arg), amp)
        elif name == "random_uniform":
            term = RandomUniform(int(arg) + seed, amp)
        else:
            raise InvalidGridError(f"unknown probe kind: {name!r}")
        if not math.isfinite(amp):
            raise InvalidGridError(f"non-finite amplitude in probe term: {chunk!r}")
        terms.append(term)
        bound += abs(amp)
    if not bound <= OVERFLOW_LIMIT:
        raise InvalidGridError(f"probe amplitudes sum to {bound!r}, past {OVERFLOW_LIMIT!r}")
    if len(terms) == 1:
        return terms[0]
    return Mixture(tuple(terms))


def sample(probe: Probe, n: int) -> GridFunction:
    """Sample a probe descriptor on an N-point periodic grid."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidGridError(f"grid needs an integer N, got {n!r}") from None
    if n < 2:
        raise InvalidGridError(f"grid needs N >= 2, got {n}")
    x = np.arange(n) * (TWO_PI / n)
    return GridFunction(probe.evaluate_on(x))


def is_band_limited(u: GridFunction, max_mode: int) -> bool:
    """True if no mode above |k| = max_mode exceeds 1e-12 of the largest."""
    mags = np.abs(np.fft.rfft(u.values))
    return bool(mags[max_mode + 1 :].max(initial=0) <= 1e-12 * mags.max())


# ---------------------------------------------------------------------------
# Step counts, sample schedules and log-log fits shared by the experiments.
# ---------------------------------------------------------------------------

def step_count(horizon_t: float, dt: float) -> int:
    """n = round(T/dt), ties to even: the steps of every experiment; raises
    :class:`InvalidGridError` for a T/dt that is NaN, past any float or <= 1/2."""
    ratio = horizon_t / dt
    if math.isnan(ratio):
        raise InvalidGridError(f"t = {horizon_t!r} over dt = {dt!r} is not a number of steps")
    if not ratio < math.inf:
        raise InvalidGridError(f"t = {horizon_t!r} holds too many steps of dt = {dt!r} to count")
    if not ratio > 0.5:
        raise InvalidGridError(f"t = {horizon_t!r} is shorter than one step, dt = {dt!r}")
    return round(ratio)


def sample_steps(n_max: int, dense: int) -> list:
    """All n up to ``dense`` (a power of two), then powers of two, always including n_max."""
    steps = set(range(1, min(dense, n_max) + 1))
    p = 2 * dense
    while p < n_max:
        steps.add(p)
        p *= 2
    steps.add(n_max)
    return sorted(steps)


def loglog_slope(pairs, min_points: int) -> float | None:
    """Least-squares slope of log(y) against log(x) over the (x, y) pairs with
    finite y > 0; None when they hold fewer than ``min_points`` distinct x."""
    kept = [(x, y) for x, y in pairs if 0 < y < math.inf]
    if len({x for x, _ in kept}) < min_points:
        return None
    return float(np.polyfit(np.log([x for x, _ in kept]), np.log([y for _, y in kept]), 1)[0])


# ---------------------------------------------------------------------------
# Refinement paths dx = alpha(dt).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinementPath:
    """The power law ``dx = c * dt**p`` (``c, p > 0``) driving a refinement sweep."""

    c: float
    p: float

    def __post_init__(self) -> None:
        if not (self.c > 0 and self.p > 0):
            raise InvalidGridError(f"power rule needs c, p > 0, got c={self.c}, p={self.p}")

    @classmethod
    def cfl_boundary(cls) -> "RefinementPath":
        """dx = sqrt(2 dt): the tightest spacing keeping r = dt/dx^2 <= 1/2."""
        return cls(math.sqrt(2.0), 0.5)

    @classmethod
    def fixed_ratio(cls, r: float) -> "RefinementPath":
        """dx chosen so that dt/dx^2 stays at the given ratio r."""
        if not (r > 0):
            raise InvalidGridError(f"ratio must be positive, got {r}")
        return cls(1.0 / math.sqrt(r), 0.5)

    def dx_for(self, dt: float) -> float:
        if not (dt > 0):
            raise InvalidGridError(f"dt must be positive, got {dt}")
        try:
            return self.c * dt**self.p
        except OverflowError:  # dt**p past any float: an infinite target
            return math.inf

    def grid_for(self, dt: float) -> tuple:
        """Pick the grid size for a sweep cell: largest dx >= alpha(dt).

        Flooring N keeps the actual spacing at or above the path target, so a
        path at or below the CFL boundary never lands on the unstable side.
        Returns (n, dx).  A target that would need more than
        :data:`MAX_GRID_N` points (or underflows to 0), or fewer than 4
        (an inf target needs 0), raises :class:`InvalidGridError`.
        """
        target = self.dx_for(dt)
        if not (target > 0 and TWO_PI / target <= MAX_GRID_N):
            raise InvalidGridError(f"dx target {target} too fine: more than {MAX_GRID_N} points")
        n = int(math.floor(TWO_PI / target))
        if n < 4:
            raise InvalidGridError(f"dx target {target} too coarse for the domain")
        return n, TWO_PI / n

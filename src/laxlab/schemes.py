"""Finite-difference operators as periodic convolution stencils.

A :class:`StencilScheme` stores integer offsets and real coefficients;
applying it to a grid function is circular convolution, so every scheme
here is linear and translation-invariant.  The flagship instance is the
explicit forward-time centered-space (FTCS) heat scheme; backward Euler
is included as the unconditionally stable contrast case, stored as a
full-period stencil obtained from the inverse circulant.

Every stencil is built for an N-point grid (``period=N``) and is the
N x N circulant: its offsets are read mod N, and its powers and
compositions are folded mod N, so they never grow wider than the grid.
The DFT diagonalises such a circulant, so everything spectral (von Neumann
factors, the FFT step, C^n u, exact norms) reads one symbol per stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergedOperatorError, InvalidGridError
from .grid import GridFunction

__all__ = [
    "StencilScheme",
    "ftcs_heat",
    "backward_euler_heat",
    "apply_scheme",
    "apply_values",
    "apply_power",
    "trajectory",
    "symbol_powers",
    "compose",
    "power",
    "overflow_free_steps",
    "OVERFLOW_LIMIT",
]

# Coefficient magnitudes past this mark gross instability; raising a typed
# error keeps infinities out of downstream reports.
OVERFLOW_LIMIT = 1e300

# Stencils wider than this are applied through the FFT instead of shifted sums.
_FFT_APPLY_CUTOFF = 32


@dataclass(frozen=True)
class StencilScheme:
    """One-step operator v_j = sum_m coefficients[m] * u_{(j + offsets[m]) mod N}."""

    offsets: np.ndarray
    coefficients: np.ndarray
    dt: float
    dx: float
    name: str
    # The grid this stencil acts on: offsets are read mod period, and
    # compositions wrap instead of widening without bound.
    period: int
    # max(offsets) - min(offsets) + 1, set once.
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offs = np.array(self.offsets, dtype=int)
        coef = np.array(self.coefficients, dtype=float)
        if offs.ndim != 1 or offs.shape != coef.shape or not offs.size:
            raise ValueError("offsets and coefficients must be 1-d, nonempty and the same length")
        if not np.diff(np.sort(offs)).all():
            raise ValueError("offsets must be distinct")
        if not np.isfinite(coef).all():
            raise ValueError("coefficients must be finite")
        if not (self.dt > 0 and self.dx > 0):
            raise ValueError(f"dt, dx must be positive, got dt={self.dt}, dx={self.dx}")
        offs.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "width", int(offs.max() - offs.min()) + 1)
        if self.width > self.period:
            raise ValueError(f"stencil width {self.width} exceeds its period {self.period}")

    @property
    def courant_ratio(self) -> float:
        return self.dt / self.dx**2

    @cached_property
    def symbol_minus_one(self) -> np.ndarray:
        """h = g - 1 over modes 0..N//2, read-only long double, taken once.

        g = rfft(kernel), the kernel being the stencil wrapped onto its grid
        (entry ``o mod N`` holds c_o), is the DFT symbol: C u =
        irfft(rfft(u) * conj(g)), and g at mode k is the von Neumann factor
        at wavenumber -k.  h is the transform of the kernel minus the
        identity, so it keeps its bits where g is 1 - 1e-18.
        """
        n = self.period
        minus_identity = np.zeros(n, np.longdouble)
        minus_identity[np.mod(self.offsets, n)] = self.coefficients
        minus_identity[0] -= 1
        h = np.fft.rfft(minus_identity)
        h.setflags(write=False)
        return h


def ftcs_heat(dt: float, dx: float, grid_n: int) -> StencilScheme:
    """Explicit heat scheme u + (u(x+dx) - 2u + u(x-dx)) dt/dx^2 on ``grid_n`` points.

    Coefficients (r, 1-2r, r) with r = dt/dx^2; stable iff 2 dt <= dx^2.
    The side coefficient is stored as (1 - c0)/2, c0 = 1 - 2r, so the row
    sums to exactly 1 and the powers of a stable stencil have norm 1, not
    1 + n*ulp.  For r in [1/4, 1] that is r itself (1 - 2r is exact by
    Sterbenz's lemma); below 1/4 it moves r by at most 2^-55.
    """
    r = dt / dx**2
    c0 = 1.0 - 2.0 * r
    side = (1.0 - c0) / 2
    return StencilScheme(
        offsets=np.array([-1, 0, 1]),
        coefficients=np.array([side, c0, side]),
        dt=dt,
        dx=dx,
        name="ftcs",
        period=grid_n,
    )


def backward_euler_heat(dt: float, dx: float, grid_n: int) -> StencilScheme:
    """Implicit scheme (I - dt D2)^{-1} as a dense full-period stencil.

    D2 is the periodic second difference.  The circulant eigenvalues
    1 + 4r sin^2(pi k / N) are >= 1, so the inverse always exists; its
    first row is recovered by an inverse DFT.
    """
    if grid_n < 4:
        raise InvalidGridError(f"backward Euler needs grid_n >= 4, got {grid_n}")
    r = dt / dx**2
    k = np.arange(grid_n)
    eigenvalues = 1.0 + 4.0 * r * np.sin(np.pi * k / grid_n) ** 2
    coefficients = np.fft.fft(1.0 / eigenvalues).real / grid_n
    return StencilScheme(
        offsets=np.arange(grid_n),
        coefficients=coefficients,
        dt=dt,
        dx=dx,
        name="backward_euler",
        period=grid_n,
    )


def _check_grid(s: StencilScheme, values: np.ndarray) -> None:
    if values.shape[-1] != s.period:
        raise InvalidGridError(f"stencil built for {s.period} points applied to {values.shape[-1]}")


def trajectory(s: StencilScheme, values: np.ndarray):
    """Yield C u, C^2 u, ... for samples of shape ``(..., N)``, N = ``s.period``.

    The loops that must step use this one stepper: the round-off twins,
    which round the state after every step, and unstable trajectories,
    whose blow-up grows from the round-off each step adds.  Everything a
    step needs is set up once.  A narrow stencil gathers its shifted
    copies through a ``(width, N)`` index table, scales them and sums
    over the offset axis in offset order: three numpy calls a step, with
    the roundings of ``sum_m c_m * roll(u, -o_m)`` (only a sum that is
    exactly zero may come out as -0.0 instead of +0.0).  A full-period
    stencil steps as ``irfft(rfft(v) * conj(g), n=N)``, with the double
    factor conj(g) formed once from the stencil's symbol.  Each step
    reads the array yielded before it, so a caller may change that array
    in place (the twins round it) before resuming; the generator never
    writes to ``values`` or to an array it has yielded.  The stepper checks
    no value (see :func:`overflow_free_steps`).  Data on another grid
    raises :class:`InvalidGridError` when the first step is taken.
    """
    values = np.asarray(values, dtype=float)
    _check_grid(s, values)
    n = s.period
    if not _narrow(s):
        factor = np.conj(1 + s.symbol_minus_one).astype(complex)
        while True:
            values = np.fft.irfft(np.fft.rfft(values) * factor, n=n)
            yield values
    index = np.mod(np.arange(n) + s.offsets[:, None], n)
    coef = s.coefficients[:, None]
    terms = np.empty(values.shape[:-1] + index.shape)
    while True:
        values.take(index, axis=-1, out=terms, mode="clip")
        np.multiply(terms, coef, out=terms)
        values = np.add.reduce(terms, axis=-2)
        yield values


def _narrow(s: StencilScheme) -> bool:
    """Whether :func:`trajectory` steps ``s`` by shifted sums, not by the FFT."""
    return s.offsets.size <= _FFT_APPLY_CUTOFF


def overflow_free_steps(s: StencilScheme, peak: float, limit: float, growth: float = 1.0):
    """Step count n* up to which no value stepped by :func:`trajectory` reaches ``limit``.

    ``peak`` is ``max|u0|`` of the data stepped, and ``growth`` a factor
    each step may add on top of the stencil: rounding the state to p
    significant bits after a step grows it by at most 1 + 2^-p.  A narrow
    step sums w = ``offsets.size`` rounded products, so (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, sec. 3.1)
    ``max|fl(C v)| <= ||C|| (1 + u)^w max|v|``, u = 2^-53.  After n steps
    every value is therefore within ``peak * rho^n``, with
    ``rho = ||C|| (1 + u)^w growth``, plus at most ``2^-1000 * max(1, rho^n)``
    from the absolute errors of gradual underflow (under 2^-1064 a step)
    for any n below 2^64.

    n* is ``floor(log(limit / peak) / log(rho))`` with a margin: ``||C||``
    is rounded up, each logarithm is widened by 2^-40 of its size, and
    ``peak`` is taken as at least 2^-900, which covers the underflow term.
    Returns ``math.inf`` when ``peak`` is 0 (zero data stays zero) or
    rho <= 1.  Returns 0 when ``peak`` is not below ``limit``, and for a
    full-period stencil: its FFT step rounds in the transform, which this
    bound does not cover, so its callers check every step.
    """
    if not _narrow(s) or not peak < limit:
        return 0
    if peak == 0:
        return math.inf
    logs = (math.log(limit), -math.log(max(peak, 2.0**-900)))
    headroom = math.fsum(logs) - 2.0**-40 * math.fsum(map(abs, logs))
    if headroom <= 0:
        return 0
    norm = math.nextafter(math.fsum(np.abs(s.coefficients).tolist()), math.inf)
    logs = (math.log(norm), s.offsets.size * math.log1p(2.0**-53), math.log1p(growth - 1))
    log_rho = math.fsum(logs) + 2.0**-40 * math.fsum(map(abs, logs))
    if log_rho <= 0:
        return math.inf
    return math.floor(headroom / log_rho * (1 - 2.0**-40))


def apply_values(s: StencilScheme, values: np.ndarray) -> np.ndarray:
    """One step of :func:`trajectory`: C u for samples of shape ``(..., N)``.

    Rows are stepped independently, with periodic wrap-around.  Loops of
    many steps iterate :func:`trajectory` instead, which sets up once.
    """
    return next(trajectory(s, values))


def symbol_powers(s: StencilScheme, ns) -> np.ndarray:
    """Rows g^n = exp(n log|g|) cis(n arg g), one per n in ``ns``, in long double.

    log g is taken from h = :attr:`StencilScheme.symbol_minus_one`, not
    from the rounded g.  Raising g to the n-th power multiplies its
    relative error by n: a double g (several ulps off where N has a large
    prime factor) drifted ~3n ulps from the exact C^n, and a g of
    1 - 1e-18 (small r) keeps few bits of h, which 1e18 steps would
    multiply into every mode.  From h in extended precision, g^n rounds to
    double within a few ulps.  A mode with g = 0 gets g^n = 0.
    """
    h = s.symbol_minus_one
    with np.errstate(divide="ignore"):
        log_abs = np.log1p(h.real * (2 + h.real) + h.imag**2) / 2
    arg = np.arctan2(h.imag, 1 + h.real)
    ns = np.array(ns, dtype=np.longdouble)[:, None]
    return np.exp(ns * log_abs) * (np.cos(ns * arg) + 1j * np.sin(ns * arg))


def apply_power(s: StencilScheme, values: np.ndarray, n: int) -> np.ndarray:
    """C^n applied to samples of shape ``(..., N)``: ``irfft(rfft(u) * conj(g^n))``.

    With g^n from :func:`symbol_powers`, this is C^n up to one transform
    pair's rounding.  Callers that need the round-off of every step (the
    round-off twins, unstable trajectories) step through :func:`trajectory`.
    """
    _check_grid(s, values)
    factor = np.conj(symbol_powers(s, [n])[0]).astype(complex)
    return np.fft.irfft(np.fft.rfft(values) * factor, n=s.period)


def apply_scheme(s: StencilScheme, u: GridFunction) -> GridFunction:
    """One time step: circular convolution of the stencil with u."""
    return GridFunction(apply_values(s, u.values), u.domain_length)


def _dense(s: StencilScheme) -> tuple:
    """Contiguous coefficient array plus the offset of its first entry."""
    lo = int(s.offsets.min())
    arr = np.zeros(s.width)
    arr[s.offsets - lo] = s.coefficients
    return lo, arr


def _from_dense(dense: tuple, template: StencilScheme, name: str) -> StencilScheme:
    lo, arr = dense
    return StencilScheme(
        offsets=np.arange(lo, lo + arr.size),
        coefficients=arr,
        dt=template.dt,
        dx=template.dx,
        name=name,
        period=template.period,
    )


def _conv(a: tuple, b: tuple, period: int) -> tuple:
    """Convolve two dense stencils and fold the result mod period.

    The convolution is direct, so each coefficient is a plain sum of
    products with the sign of the exact value.  A transform product would
    spread rounding over every entry and turn exact zeros into +-ulp
    noise, which inflates the sum of |coefficients| as N grows.
    """
    lo = a[0] + b[0]
    full = np.convolve(a[1], b[1])
    if full.size > period:
        lo %= period
        full = np.pad(full, (0, -full.size % period)).reshape(-1, period).sum(axis=0)
    if not np.isfinite(full).all() or np.max(np.abs(full)) > OVERFLOW_LIMIT:
        raise DivergedOperatorError("stencil coefficients overflowed during composition")
    return lo, full


def compose(first: StencilScheme, second: StencilScheme) -> StencilScheme:
    """Stencil of the composition second(first(u)): offset-wise convolution.

    Both factors must act on the same grid; the convolution wraps modulo
    it, so the result never grows wider than one grid period.  Of the
    experiments, only stability rows that fail the von Neumann check
    compose (see :func:`laxlab.analysis.stability_check`).
    """
    if first.period != second.period:
        raise InvalidGridError(f"cannot compose periods {first.period} and {second.period}")
    dense = _conv(_dense(first), _dense(second), first.period)
    return _from_dense(dense, first, f"{first.name}*{second.name}")


def power(s: StencilScheme, n: int) -> StencilScheme:
    """n-fold self-composition by repeated squaring of the coefficient array.

    Every product wraps mod the period.  Raises
    :class:`DivergedOperatorError` if coefficients exceed the overflow
    threshold, which signals gross instability.  Of the experiments, only
    stability rows that fail the von Neumann check take powers here; the
    rest use the symbol (:func:`apply_power`,
    :func:`laxlab.analysis.stability_check`).
    """
    if n < 1:
        raise ValueError(f"power needs n >= 1, got {n}")
    if n == 1:
        return s
    result = (0, np.array([1.0]))
    sq = _dense(s)
    m = n
    while m:
        if m & 1:
            result = _conv(result, sq, s.period)
        m >>= 1
        if m:
            sq = _conv(sq, sq, s.period)
    return _from_dense(result, s, f"{s.name}^{n}")

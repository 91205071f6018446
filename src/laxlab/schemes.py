"""Finite-difference operators as periodic convolution stencils.

A :class:`StencilScheme` stores integer offsets and real coefficients;
applying it to a grid function is circular convolution, so every scheme
here is linear and translation-invariant.  The flagship instance is the
explicit forward-time centered-space (FTCS) heat scheme; backward Euler
is included as the unconditionally stable contrast case, stored as a
full-period stencil: the closed-form first row of the inverse circulant.

Every stencil is built for an N-point grid (``period=N``) and is the
N x N circulant: its offsets are read mod N, and its powers and
compositions are folded mod N, so they never grow wider than the grid.
The DFT diagonalises such a circulant, so everything spectral (von Neumann
factors, the FFT step, C^n u, exact norms) reads one symbol per stencil.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergedOperatorError, InvalidGridError
from .grid import OVERFLOW_LIMIT

__all__ = [
    "StencilScheme",
    "ftcs_heat",
    "backward_euler_heat",
    "apply_values",
    "apply_power",
    "trajectory",
    "symbol_powers",
    "compose",
    "power",
    "overflow_free_steps",
]

# Stencils wider than this are applied through the FFT instead of shifted sums.
_FFT_APPLY_CUTOFF = 32


@dataclass(frozen=True)
class StencilScheme:
    """One-step operator v_j = sum_m coefficients[m] * u_{(j + offsets[m]) mod N}."""

    offsets: np.ndarray
    coefficients: np.ndarray
    dt: float
    dx: float
    # The grid this stencil acts on: offsets are read mod period, and
    # compositions wrap instead of widening without bound.
    period: int
    # max(offsets) - min(offsets) + 1, set once.
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Raises :class:`InvalidGridError` for every value it rejects."""
        offs = np.array(self.offsets, dtype=int)
        coef = np.array(self.coefficients, dtype=float)
        if offs.ndim != 1 or offs.shape != coef.shape or not offs.size:
            raise InvalidGridError("offsets and coefficients must be 1-d, nonempty and the same length")
        ordered = np.sort(offs)
        if (ordered[1:] == ordered[:-1]).any():
            raise InvalidGridError("offsets must be distinct")
        if not np.isfinite(coef).all():
            raise InvalidGridError("coefficients must be finite")
        if not (self.dt > 0 and self.dx > 0):
            raise InvalidGridError(f"dt, dx must be positive, got dt={self.dt}, dx={self.dx}")
        try:
            object.__setattr__(self, "period", operator.index(self.period))
        except TypeError:
            raise InvalidGridError(f"period must be an integer, got {self.period!r}") from None
        offs.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "width", int(ordered[-1] - ordered[0]) + 1)
        if self.width > self.period:
            raise InvalidGridError(f"stencil width {self.width} exceeds its period {self.period}")

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

    @cached_property
    def _squares(self) -> list:
        """C, C^2, C^4, ... in dense form, (offset of the first entry,
        contiguous coefficient array); :func:`power` grows the list."""
        lo = int(self.offsets.min())
        arr = np.zeros(self.width)
        arr[self.offsets - lo] = self.coefficients
        return [(lo, arr)]


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
        period=grid_n,
    )


def backward_euler_heat(dt: float, dx: float, grid_n: int) -> StencilScheme:
    """Implicit scheme (I - dt D2)^{-1}, D2 the periodic second difference.

    The inverse circulant's first row is a periodised two-sided geometric
    sequence (Davis, *Circulant Matrices*, 1979), c_j = tanh(a/2) (e^{-aj} +
    e^{-a(N-j)}) / (1 - e^{-aN}), cosh a = 1 + 1/(2r), r = dt/dx^2: it is
    nonnegative, sums to 1, and does not overflow for any positive double r.
    The tail c_1..c_{N-1} is rounded to multiples of 2^-53, a move of at
    most 2^-54 each that keeps the row symmetric, and c_0 = 1 - sum(tail)
    is exact, so the row sums to exactly 1.
    """
    if grid_n < 4:
        raise InvalidGridError(f"backward Euler needs grid_n >= 4, got {grid_n}")
    r = dt / dx**2
    if not 0 < r < math.inf:
        raise InvalidGridError(f"backward Euler needs 0 < dt/dx^2 < inf, got dt={dt}, dx={dx}")
    a = 2 * math.asinh(0.5 / math.sqrt(r))
    j = np.arange(grid_n)
    row = math.tanh(a / 2) / -math.expm1(-a * grid_n) * (np.exp(-a * j) + np.exp(-a * (grid_n - j)))
    tail = np.ldexp(np.rint(np.ldexp(row[1:], 53)), -53)
    c0 = 1 - math.fsum(tail.tolist())  # exact: the tail's sum is a multiple of 2^-53 below 1
    return StencilScheme(j, np.concatenate(([c0], tail)), dt, dx, period=grid_n)


def _check_grid(n: int, values: np.ndarray) -> None:
    if values.shape[-1] != n:
        raise InvalidGridError(f"stencil built for {n} points applied to {values.shape[-1]}")


def trajectory(s, values):
    """Yield C u, C^2 u, ... for samples of shape ``(..., N)``, N = ``s.period``.

    The one loop that must step (:func:`~laxlab.roundoff._stepped_runs`)
    uses this stepper, for the round-off twins, which round the state after
    every step, and for unstable trajectories, whose blow-up grows from the
    round-off each step adds.  ``s`` may also be a stack of cells: narrow
    stencils that share their offsets, whose grids lie end to end in
    ``values``, of shape ``(..., sum N)``; any leading shape works, a size-0
    one included.  The stack is fixed, and everything a step needs is set
    up once.  The path switches on the offset count, not on the stencil's
    kind.  A narrow stencil (at most ``_FFT_APPLY_CUTOFF`` = 32 offsets:
    FTCS, and backward Euler up to N = 32) reads every row of the sample end
    to end, as one contiguous 1-d array (a copy when the sample is not
    contiguous).  It gathers the shifted copies of all rows at once through
    an index table with one line of ``rows * sum N`` entries per offset
    (each cell wraps within its own grid, and row k's copy of the table is
    shifted by k sum N), scales them by a coefficient table tiled the same
    way and sums over the offset axis in offset order: ``take``,
    ``multiply`` and ``add.reduce(axis=0)`` a step for the whole stack, over
    contiguous memory, with the sum in the sample's shape.  Each cell gets
    the roundings of ``sum_m c_m * roll(u, -o_m)`` summed from its first
    term (an oracle that starts from +0.0 reads +0.0 where a sum that is
    exactly zero comes out as -0.0 here).  A wider stencil steps alone, as
    ``irfft(rfft(v) * conj(g), n=N)``, with the double factor conj(g) formed
    once from the stencil's symbol.  Each step reads the array yielded
    before it, so a caller may change that array in place (the twins round
    it) before resuming; the generator never writes to ``values`` or to an
    array it has yielded.  The stepper checks no value (see
    :func:`overflow_free_steps`).  Data on another grid raises
    :class:`InvalidGridError` when the first step is taken.
    """
    stack = [s] if isinstance(s, StencilScheme) else list(s)
    values = np.asarray(values, dtype=float)
    ends = np.cumsum([c.period for c in stack]).tolist()
    width = ends[-1]
    _check_grid(width, values)
    if not _narrow(stack[0]):
        factor = np.conj(1 + stack[0].symbol_minus_one).astype(complex)
        while True:
            values = np.fft.irfft(np.fft.rfft(values) * factor, n=width)
            yield values
    index = np.hstack([a + np.mod(np.arange(c.period) + c.offsets[:, None], c.period)
                       for a, c in zip([0] + ends, stack)])
    coef = np.hstack([np.repeat(c.coefficients[:, None], c.period, axis=1) for c in stack])
    rows = math.prod(values.shape[:-1])
    shape = (len(index),) + values.shape
    index = (index[:, None, :] + width * np.arange(rows)[:, None]).reshape(shape)
    coef = np.repeat(coef[:, None, :], rows, axis=1).reshape(shape)
    terms = np.empty(shape)
    while True:
        values.take(index, out=terms, mode="clip")
        np.multiply(terms, coef, out=terms)
        values = np.add.reduce(terms, axis=0)
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
    stencil of more than ``_FFT_APPLY_CUTOFF`` = 32 offsets: :func:`trajectory`
    steps it through the FFT, whose rounding this bound does not cover, so
    its callers check every step.  Backward
    Euler up to N = 32 is narrow and gets a bound: n* = 3.5e17 against
    ``OVERFLOW_LIMIT`` at N = 16, r = 1/2 and ``max|u0|`` = 1.
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
    double within a few ulps.  Where |g| < 1/2, h's noise of about N ulps
    of 1 would swamp g's own bits, so there g is the kernel's own transform,
    taken only then.  A mode with g = 0 gets g^n = 0.
    """
    h = s.symbol_minus_one
    g = 1 + h
    with np.errstate(divide="ignore"):
        log_abs = np.log1p(h.real * (2 + h.real) + h.imag**2) / 2
        small = np.abs(g) < 0.5
        if small.any():
            kernel = np.bincount(np.mod(s.offsets, s.period), s.coefficients, minlength=s.period)
            g[small] = np.fft.rfft(kernel.astype(np.longdouble))[small]
            log_abs[small] = np.log(np.abs(g[small]))
    arg = np.arctan2(g.imag, g.real)
    ns = np.array(ns, dtype=np.longdouble)[:, None]
    return np.exp(ns * log_abs) * (np.cos(ns * arg) + 1j * np.sin(ns * arg))


def apply_power(s: StencilScheme, values: np.ndarray, n: int) -> np.ndarray:
    """C^n applied to samples of shape ``(..., N)``: ``irfft(rfft(u) * conj(g^n))``.

    With g^n from :func:`symbol_powers`, this is C^n up to one transform
    pair's rounding.  Callers that need the round-off of every step (the
    round-off twins, unstable trajectories) step through :func:`trajectory`.
    """
    _check_grid(s.period, values)
    factor = np.conj(symbol_powers(s, [n])[0]).astype(complex)
    return np.fft.irfft(np.fft.rfft(values) * factor, n=s.period)


def _from_dense(dense: tuple, template: StencilScheme) -> StencilScheme:
    """The stencil of a dense (lo, coefficients) pair from :func:`_conv` on
    ``template``'s grid, built without :meth:`StencilScheme.__post_init__`.

    Each check it skips holds by construction: the offsets are the range
    lo, lo + 1, ..., so they are sorted and distinct; ``_conv`` raises
    :class:`DivergedOperatorError` before it returns a coefficient past
    ``OVERFLOW_LIMIT``, so every coefficient is finite; its fold keeps the
    width within the period; and ``template`` was checked when it was
    built.  The coefficient array is not copied but made read-only, and it
    is also the new stencil's dense form, entry 0 of its ``_squares``.
    """
    lo, arr = dense
    offsets = np.arange(lo, lo + arr.size)
    offsets.setflags(write=False)
    arr.setflags(write=False)
    s = object.__new__(StencilScheme)
    vars(s).update(offsets=offsets, coefficients=arr, dt=template.dt, dx=template.dx,
                   period=template.period, width=arr.size, _squares=[(lo, arr)])
    return s


def _conv(a: tuple, b: tuple, period: int) -> tuple:
    """Convolve two dense stencils and fold the result mod period.

    The convolution is direct, so each coefficient is a plain sum of
    products with the sign of the exact value.  A transform product would
    spread rounding over every entry and turn exact zeros into +-ulp
    noise, which inflates the sum of |coefficients| as N grows.  Neither
    factor is wider than the period, so the product has at most
    2 period - 1 entries, and the fold adds its tail past the period onto
    its head in one slice; the rest of the head gets ``+ 0.0``, as the
    zero padding of a two-row sum would add.
    """
    lo = a[0] + b[0]
    full = np.convolve(a[1], b[1])  # no ufunc: an overflow here sets no warning
    if full.size > period:
        lo %= period
        tail = full.size - period
        with np.errstate(over="ignore", invalid="ignore"):  # the check below catches it
            head = full[:period] + 0.0
            head[:tail] = full[:tail] + full[period:]
        full = head
    if not np.abs(full).max() <= OVERFLOW_LIMIT:  # inf and NaN fail it too
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
    dense = _conv(first._squares[0], second._squares[0], first.period)
    return _from_dense(dense, first)


def power(s: StencilScheme, n: int) -> StencilScheme:
    """n-fold self-composition by binary powering of the coefficient array.

    The squares C, C^2, C^4, ... are taken once per stencil and cached on
    it, so they hold at most ``n.bit_length()`` arrays of N doubles for the
    largest n asked, and go with the stencil.  C^n is the product of the
    squares for the set bits of n, lowest first, each product wrapped mod
    the period: the convolutions of squaring afresh from the identity, in
    the same order, less the one by the identity, so the coefficients are
    the same bit for bit (the sums of :func:`numpy.convolve` start from
    +0.0, so no sign of a zero in the first factor reaches them).  Raises
    :class:`DivergedOperatorError` if coefficients exceed the overflow
    threshold, which signals gross instability; a square that overflows is
    not cached.  Of the experiments, only stability rows that fail the von
    Neumann check take powers here; the rest use the symbol
    (:func:`apply_power`, :func:`laxlab.analysis.stability_check`).
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"power needs n >= 1, got {n}")
    if n == 1:
        return s
    squares = s._squares
    while len(squares) < n.bit_length():
        squares.append(_conv(squares[-1], squares[-1], s.period))
    bits = [k for k in range(n.bit_length()) if n >> k & 1]
    result = squares[bits[0]]
    for k in bits[1:]:
        result = _conv(result, squares[k], s.period)
    return _from_dense(result, s)

"""Executable convergence, consistency, and stability diagnostics.

The three defining properties of the equivalence-theorem framework are
turned into finite, falsifiable checks:

* stability: iterated operator norms ||C^n|| for n <= round(T/dt),
  against the cap :data:`STABILITY_CAP` (a uniform bound cannot be
  observed in a finite experiment, so stable means "never exceeded the cap");
* consistency: one-step residuals against the exact spectral evolution;
* convergence: trajectory error at the final time along a refinement
  path, with an observed order fitted in dx.

A stability row takes its norms by one of three paths.  One whose von
Neumann check passes and whose coefficients are all nonnegative (backward
Euler, FTCS up to r = 1/2) reads ||C^n|| = (sum c)^n from its row sum; one
that passes with a negative coefficient reads C^n from the stencil's one
symbol (see :mod:`laxlab.schemes`); one that fails it walks the powers
through :func:`~laxlab.schemes.power` and :func:`~laxlab.schemes.compose`,
whose coefficient overflow marks the divergence, and takes their norms from
:func:`operator_norm` a list of powers at a time.  A convergence cell that
passes reads C^n u from the symbol, and the cells that fail step together,
one double row each, in the one step loop
(:func:`~laxlab.roundoff._stepped_runs`), because their blow-up grows from
the round-off each step adds.  The sup-norm operator norm of the
N x N circulant is exactly the sum of absolute coefficients; every norm
taken from coefficients or the symbol is validated by the sign-pattern
witness that attains it, and the row sum needs none: the all-ones vector
attains it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedOperatorError, InvalidGridError
from .grid import (
    MAX_UPDATES,
    OVERFLOW_LIMIT,
    GridFunction,
    Probe,
    RefinementPath,
    is_band_limited,
    loglog_slope,
    sample,
    sample_steps,
    step_count,
    sup_norm,
)
from .roundoff import _stepped_runs
from .schemes import (
    StencilScheme,
    apply_power,
    apply_values,
    backward_euler_heat,
    compose,
    ftcs_heat,
    power,
    symbol_powers,
)
from .semigroup import evolve

__all__ = [
    "STABILITY_CAP",
    "operator_norm",
    "StabilityReport",
    "stability_check",
    "von_neumann_symbol",
    "VonNeumannReport",
    "von_neumann_check",
    "consistency_check",
    "ConvergenceCell",
    "ConvergenceReport",
    "convergence_experiment",
    "scheme_builder",
]

# Stable one-step operators in scope have norm 1; unstable ones blow past
# any cap within tens of steps, so a margin of 10 avoids false negatives.
STABILITY_CAP = 10.0

_EPS = float(np.finfo(float).eps)


def _check_witness(witness: np.ndarray, powers: np.ndarray, totals) -> None:
    """Raise RuntimeError unless ``max |C^n w|`` matches each norm in ``totals``.

    w is the sign pattern of the coefficients of C^n, which attains the
    norm at a grid point; C^n w = irfft(rfft(w) * conj(g^n)), g^n a row of
    ``powers`` (the double transforms of the kernels for :func:`operator_norm`,
    long double powers of the symbol for :func:`_symbol_norms`); either is
    rounded to double before the product.  Both sides are divided by
    max(1, norm), so that a norm near the largest double cannot overflow;
    the slack covers a few ulps per transform point.
    """
    n = witness.shape[-1]
    scale = np.maximum(1.0, totals)
    scaled = np.conj(powers / scale[..., None]).astype(complex, copy=False)
    attained = np.abs(np.fft.irfft(np.fft.rfft(witness) * scaled, n=n)).max(axis=-1)
    if not (np.abs(attained - totals / scale) <= max(1e-12, 64 * n * _EPS)).all():
        raise RuntimeError(f"witness ratios {attained} disagree with norms {totals}")


def operator_norm(s: StencilScheme | list):
    """Sup-norm operator norm of a periodic stencil: sum of |coefficients|.

    This is the norm of the operator on the stencil's N-point grid, taken
    with ``math.fsum`` and validated by :func:`_check_witness` against
    ``rfft`` of the double kernel (entry ``o mod N`` holds c_o).  Double is
    enough: the check rounds its transform to double before use, so the
    long double symbol would add no bits, and the stencil's symbol is left
    untaken.  A sum past the largest double is inf, with no witness.

    ``s`` may also be a list of stencils on one grid, as
    :func:`~laxlab.schemes.trajectory` takes a stack; the result is then the
    list of their norms, each the float one stencil would give, and every
    finite norm is checked in one :func:`_check_witness` call, with the same
    slack for each row.  An empty list gives ``[]``; stencils on different
    grids raise :class:`InvalidGridError` before any transform.
    """
    if isinstance(s, StencilScheme):
        return operator_norm([s])[0]
    stack = list(s)
    periods = sorted({c.period for c in stack})
    if len(periods) > 1:
        raise InvalidGridError(f"stencils on one list must share a grid, got periods {periods}")
    totals = []
    for c in stack:
        try:
            totals.append(math.fsum(np.abs(c.coefficients).tolist()))
        except OverflowError:
            totals.append(math.inf)
    finite = [c for c, total in zip(stack, totals) if total < math.inf]
    if finite:
        n = stack[0].period
        index = np.concatenate([k * n + np.mod(c.offsets, n) for k, c in enumerate(finite)])
        weights = np.concatenate([c.coefficients for c in finite])
        kernels = np.bincount(index, weights, minlength=len(finite) * n).reshape(-1, n)
        witness = np.where(kernels < 0, -1.0, 1.0)
        _check_witness(witness, np.fft.rfft(kernels), np.array([t for t in totals if t < math.inf]))
    return totals


@dataclass(frozen=True)
class StabilityReport:
    n_steps: int  # n_max = round(T/dt), from grid.step_count
    norms: tuple  # (n, ||C^n||) pairs; inf marks coefficient or norm overflow
    bound_l: float
    stable: bool
    max_abs_g: float  # from the von Neumann check that chose the norm path

    def first_exceeding(self, cap: float):
        """Smallest sampled n with ||C^n|| > cap, or None."""
        for n, norm in self.norms:
            if norm > cap:
                return n
        return None


# Grid points transformed per call, over several sampled powers (the symbol
# path's irfft, the walk's witness checks): the rows share the call's
# overhead, and each long double temporary (up to 32 bytes an entry) stays
# near 128 kB, so peak memory does not grow with N.
_NORM_BATCH = 4096


def _symbol_norms(s: StencilScheme, steps: list) -> list:
    """||C^n|| = sum |irfft(g^n)| for each n in ``steps``, g the stencil's symbol.

    Every g^n comes from :func:`~laxlab.schemes.symbol_powers`, and
    everything up to the norm is in ``np.longdouble``.  Since ||C^n|| >=
    max|g|^n, a sample whose max|g|^n passes the largest double reads inf
    with no transform, and so does one whose sum passes it.  Each finite
    norm is validated like :func:`operator_norm`, by :func:`_check_witness`
    on the sign pattern of the coefficients of C^n.
    """
    n = s.period
    log_peak = np.log(np.abs(1 + s.symbol_minus_one).max())
    finite = [k for k in steps if k * log_peak <= np.log(np.finfo(float).max)]
    norms = []
    rows = max(1, _NORM_BATCH // n)
    for i in range(0, len(finite), rows):
        powers = symbol_powers(s, finite[i : i + rows])
        coeffs = np.fft.irfft(powers, n=n)
        with np.errstate(over="ignore"):
            totals = np.abs(coeffs).sum(axis=1).astype(float)
        ok = totals < math.inf
        _check_witness(np.where(coeffs[ok] < 0, -1.0, 1.0), powers[ok], totals[ok])
        norms.extend(totals.tolist())
    return norms + [math.inf] * (len(steps) - len(finite))


def _row_sum_norms(s: StencilScheme, steps: list) -> list:
    """||C^n|| = (sum c)^n for each n in ``steps``, for a stencil with no
    negative coefficient.

    C^n then has no negative coefficient either, and its row sums to
    (sum c)^n, so the all-ones vector attains its sup norm: nothing is
    transformed, so nothing needs a witness.  The sum is carried in long
    double as two correctly rounded doubles (the exact sum and what is left
    of it), and log(sum c) is taken from the sum below 1/2 and as
    log1p(sum c - 1) from there up, so that every n keeps the relative
    accuracy of long double (a double sum c - 1 alone would put n * 2^-53 /
    sum c into each norm); a row sum of exactly 1 (every stable FTCS row)
    gives norms of exactly 1.  A zero sum gives norms of 0, and a norm past
    the largest double is inf.
    """
    def exact_sum(terms: list) -> np.longdouble:
        hi = math.fsum(terms)
        return np.longdouble(hi) + np.longdouble(math.fsum(terms + [-hi]))

    coef = s.coefficients.tolist()
    total = exact_sum(coef)
    with np.errstate(divide="ignore"):
        log_g = np.log(total) if total < 0.5 else np.log1p(exact_sum(coef + [-1.0]))
    with np.errstate(over="ignore"):
        return np.exp(np.array(steps, np.longdouble) * log_g).astype(float).tolist()


def _walked_powers(s: StencilScheme, steps: list):
    """Yield C^n for each n in ``steps``, built by :func:`power` and
    :func:`compose`, up to the first power whose coefficients overflow."""
    current = None
    prev_n = 0
    for n in steps:
        try:
            jump = power(s, n - prev_n)
            current = jump if current is None else compose(current, jump)
        except DivergedOperatorError:
            return
        yield current
        prev_n = n


def _walked_norms(s: StencilScheme, steps: list) -> tuple:
    """(norms, diverged): ||C^n|| of the powers :func:`_walked_powers` builds.

    The powers go to :func:`operator_norm` in lists of ``_NORM_BATCH // N``
    stencils (at least one), so that each list's witnesses share one
    transform call while at most that many powers are held at once.  The
    norm list stops at the first power whose coefficients overflow, with an
    inf entry for it.
    """
    powers = _walked_powers(s, steps)
    rows = max(1, _NORM_BATCH // s.period)
    norms = []
    while batch := list(itertools.islice(powers, rows)):
        norms += operator_norm(batch)
    diverged = len(norms) < len(steps)
    return norms + [math.inf] * diverged, diverged


def stability_check(s: StencilScheme, horizon_t: float) -> StabilityReport:
    """Norms of the iterates C^n for n <= round(T/dt), geometrically
    subsampled; stable means no norm passed :data:`STABILITY_CAP`.

    A stencil that passes :func:`von_neumann_check` with no negative
    coefficient (backward Euler, FTCS at r <= 1/2) takes every norm from its
    row sum (:func:`_row_sum_norms`), exactly and with no transform; one
    that passes with a negative coefficient takes it from its symbol
    (:func:`_symbol_norms`): no power drifts, because each one is a single
    long double g^n.  A stencil that fails the check walks the powers
    through :func:`power` and :func:`compose`, whose coefficient overflow
    marks the first diverged sample with an inf norm.  A T shorter than one
    step, or holding more steps than a float can count, raises
    :class:`InvalidGridError`.
    """
    n_max = step_count(horizon_t, s.dt)
    steps = sample_steps(n_max, 64)
    symbol = von_neumann_check(s)
    if not symbol.passed:
        norms, diverged = _walked_norms(s, steps)
    elif (s.coefficients >= 0).all():
        norms, diverged = _row_sum_norms(s, steps), False
    else:
        norms, diverged = _symbol_norms(s, steps), False
    bound_l = max(norms)
    return StabilityReport(
        n_steps=n_max,
        norms=tuple(zip(steps, norms)),
        bound_l=bound_l,
        stable=(not diverged) and bound_l <= STABILITY_CAP,
        max_abs_g=symbol.max_abs_g,
    )


def von_neumann_symbol(s: StencilScheme, k: int) -> complex:
    """Amplification factor g(k) = sum_m c_m exp(2 pi i k offsets[m] / N), N = s.period."""
    if abs(k) > s.period / 2:
        raise ValueError(f"|k|={abs(k)} exceeds N/2={s.period / 2}")
    phases = np.exp(2j * np.pi * k * s.offsets / s.period)
    return complex(np.sum(s.coefficients * phases))


@dataclass(frozen=True)
class VonNeumannReport:
    max_abs_g: float
    passed: bool


def von_neumann_check(s: StencilScheme) -> VonNeumannReport:
    """Scan all modes of the stencil's grid; pass iff max |g(k)| <= 1.

    |g| is ``|1 + h|`` of the stencil's symbol, whose mode k is the factor
    at wavenumber -k; |g(k)| = |g(-k)|, so modes 0..N//2 cover the grid.  A
    1e-12 slack absorbs rounding in the transform.
    """
    best = float(np.abs(1 + s.symbol_minus_one).max())
    return VonNeumannReport(max_abs_g=best, passed=best <= 1.0 + 1e-12)


def consistency_check(s: StencilScheme, u: GridFunction, ts):
    """One-step residuals ||C E(t)u - E(t+dt)u|| at each requested t.

    The probe must be band-limited (|k| <= N/4) and live on a grid with
    the stencil's spacing.
    """
    if not math.isclose(s.dx, u.dx, rel_tol=1e-9):
        raise InvalidGridError(f"stencil dx {s.dx} does not match grid dx {u.dx}")
    if not is_band_limited(u, u.n // 4):
        raise InvalidGridError("probe must be band-limited to |k| <= N/4")
    out = []
    for t in ts:
        at_t = evolve(u, t)
        exact = evolve(u, t + s.dt)
        with np.errstate(over="ignore", invalid="ignore"):  # a step past any float reads inf
            residual = float(np.max(np.abs(apply_values(s, at_t.values) - exact.values)))
        out.append((float(t), residual if math.isfinite(residual) else math.inf))
    return out


@dataclass(frozen=True)
class ConvergenceCell:
    dt: float
    dx: float
    n_steps: int
    error: float
    max_abs_g: float
    diverged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    cells: tuple
    observed_order: float | None
    converged: bool

    @property
    def errors(self):
        return [(c.dt, c.error) for c in self.cells]


def scheme_builder(name: str):
    """Map a scheme name to a (dt, dx, grid_n) -> StencilScheme factory."""
    if name == "ftcs":
        return ftcs_heat
    if name == "backward_euler":
        return backward_euler_heat
    raise ValueError(f"unknown scheme: {name!r}")


def convergence_experiment(
    builder,
    path: RefinementPath,
    probe: Probe,
    horizon_t: float,
    dts,
) -> ConvergenceReport:
    """Trajectory error at the final time along a refinement path.

    ``builder`` is a (dt, dx, grid_n) -> StencilScheme factory (see
    :func:`scheme_builder`).  Each cell takes n = round(T/dt) steps and is
    compared with the exact evolution at n*dt, so the final-time mismatch
    stays within dt/2; a T <= dt/2 or a T/dt past any float raises
    :class:`InvalidGridError`.  A cell whose von Neumann check passes gets
    C^n u from :func:`~laxlab.schemes.apply_power`; a stable circulant keeps
    ``||C^n u|| <= sqrt(N) ||u||``, so checking only its endpoint against
    ``OVERFLOW_LIMIT`` misses no overflow in between.  The cells that fail
    it step together in :func:`~laxlab.roundoff._stepped_runs`, one double
    row each with limit ``OVERFLOW_LIMIT``, checked at their last step and
    at every step past their n*; when they would take more than
    :data:`~laxlab.grid.MAX_UPDATES` grid-point updates (N per step),
    :class:`InvalidGridError` is raised before any cell runs.

    Convergence means: all errors finite, decreasing monotonically up to
    10% jitter or the round-off floor ``eps * ||u||``, and the finest error
    below ``1e-3 * ||u||``.  The observed order is the log-log slope of
    error against dx over at least three cells above the floor (an order
    fitted to round-off noise would mean nothing), and None unless the
    errors are all finite and monotone in that sense.
    """
    if not horizon_t > 0:
        raise ValueError(f"horizon_t must be positive, got {horizon_t}")
    dts = sorted(dts, reverse=True)
    if not dts:
        raise ValueError("need at least one dt")
    cells, symbols = [], []
    for dt in dts:
        grid_n, dx = path.grid_for(dt)
        cells.append((builder(dt, dx, grid_n), step_count(horizon_t, dt), sample(probe, grid_n)))
        symbols.append(von_neumann_check(cells[-1][0]))
    unstable = [cell for cell, symbol in zip(cells, symbols) if not symbol.passed]
    updates = sum(s.period * n_steps for s, n_steps, _ in unstable)
    if updates > MAX_UPDATES:
        raise InvalidGridError(f"unstable cells need {updates:.3g} updates, past {MAX_UPDATES:.0e}")
    stepped = iter(_stepped_runs([(s, n, u, [n], OVERFLOW_LIMIT, None) for s, n, u in unstable]))
    out = []
    for (s, n_steps, u), symbol in zip(cells, symbols):
        if symbol.passed:
            vals = apply_power(s, u.values, n_steps)
            diverged = not np.abs(vals).max() <= OVERFLOW_LIMIT
        else:
            rows, diverged = next(stepped)
            vals = None if diverged else rows[0]
        if diverged:
            error = math.inf
        else:
            exact = evolve(u, n_steps * s.dt)
            error = float(np.max(np.abs(vals - exact.values)))
        out.append(ConvergenceCell(s.dt, s.dx, n_steps, error, symbol.max_abs_g, diverged))

    errors = [c.error for c in out]
    norm = sup_norm(u)
    floor = np.finfo(float).eps * norm
    monotone = all(b <= max(a * 1.1, floor) for a, b in zip(errors, errors[1:]))
    all_finite = all(math.isfinite(e) for e in errors)
    settled = all_finite and monotone
    above_floor = [(c.dx, c.error) for c in out if c.error > floor]
    observed_order = loglog_slope(above_floor, 3) if settled else None
    converged = settled and errors[-1] < 1e-3 * norm

    return ConvergenceReport(cells=tuple(out), observed_order=observed_order, converged=converged)

"""Executable convergence, consistency, and stability diagnostics.

The three defining properties of the equivalence-theorem framework are
turned into finite, falsifiable checks:

* stability: iterated operator norms ||C^n|| over n*dt <= T, against the
  cap :data:`STABILITY_CAP` (a uniform bound cannot be observed in a finite
  experiment, so stable means "never exceeded the cap");
* consistency: one-step residuals against the exact spectral evolution;
* convergence: trajectory error at the final time along a refinement
  path, with an observed order fitted in dx.

A stability row or convergence cell whose von Neumann check passes reads
C^n from the stencil's one symbol (see :mod:`laxlab.schemes`).  One that
fails it walks the powers through :func:`~laxlab.schemes.power` and
:func:`~laxlab.schemes.compose`, whose coefficient overflow marks the
divergence (stability), or is stepped n times through
:func:`~laxlab.schemes.trajectory`, because its blow-up grows from the
round-off each step adds (convergence).  The sup-norm operator norm of the
N x N circulant is exactly the sum of absolute coefficients, and every
norm returned is validated by the sign-pattern witness that attains it.
"""
from __future__ import annotations

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
    sample,
    sup_norm,
)
from .schemes import (
    StencilScheme,
    apply_power,
    apply_values,
    backward_euler_heat,
    compose,
    ftcs_heat,
    overflow_free_steps,
    power,
    symbol_powers,
    trajectory,
)
from .semigroup import HeatSemigroup, evolve

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


def _check_witness(witness: np.ndarray, powers: np.ndarray, totals) -> None:
    """Raise RuntimeError unless ``max |C^n w|`` matches each norm in ``totals``.

    w is the sign pattern of the coefficients of C^n, which attains the
    norm at a grid point; C^n w = irfft(rfft(w) * conj(g^n)), g^n a row of
    ``powers``.  The slack covers a few ulps per transform point.
    """
    n = witness.shape[-1]
    applied = np.fft.irfft(np.fft.rfft(witness) * np.conj(powers.astype(complex)), n=n)
    attained = np.abs(applied).max(axis=-1)
    tol = max(1e-12, 64 * n * np.finfo(float).eps) * np.maximum(1.0, totals)
    if not (np.abs(attained - totals) <= tol).all():
        raise RuntimeError(f"witness ratios {attained} disagree with norms {totals}")


def operator_norm(s: StencilScheme) -> float:
    """Sup-norm operator norm of a periodic stencil: sum of |coefficients|.

    This is the norm of the operator on the stencil's N-point grid,
    validated by :func:`_check_witness`.
    """
    total = math.fsum(np.abs(s.coefficients).tolist())
    witness = np.ones(s.period)
    witness[np.mod(s.offsets, s.period)] = np.where(s.coefficients < 0, -1.0, 1.0)
    _check_witness(witness, 1 + s.symbol_minus_one, total)
    return total


def loglog_slope(pairs, min_points: int) -> float | None:
    """Least-squares slope of log(y) against log(x) over the (x, y) pairs with
    finite y > 0; None when fewer than ``min_points`` such pairs are left."""
    kept = [(x, y) for x, y in pairs if 0 < y < math.inf]
    if len(kept) < min_points:
        return None
    return float(np.polyfit(np.log([x for x, _ in kept]), np.log([y for _, y in kept]), 1)[0])


def sample_steps(n_max: int, dense: int) -> list:
    """All n up to ``dense`` (a power of two), then powers of two, always including n_max."""
    steps = set(range(1, min(dense, n_max) + 1))
    p = 2 * dense
    while p < n_max:
        steps.add(p)
        p *= 2
    steps.add(n_max)
    return sorted(steps)


def step_count(horizon_t: float, dt: float) -> int:
    """round(T/dt), at least 1; raises :class:`InvalidGridError` for a T/dt
    past any float."""
    if not horizon_t / dt < math.inf:
        raise InvalidGridError(f"t = {horizon_t!r} holds too many steps of dt = {dt!r} to count")
    return max(1, round(horizon_t / dt))


@dataclass(frozen=True)
class StabilityReport:
    n_steps: int  # n_max, the most steps n*dt <= T
    norms: tuple  # (n, ||C^n||) pairs; inf marks coefficient overflow
    bound_l: float
    stable: bool
    max_abs_g: float  # from the von Neumann check that chose the norm path

    def first_exceeding(self, cap: float):
        """Smallest sampled n with ||C^n|| > cap, or None."""
        for n, norm in self.norms:
            if norm > cap:
                return n
        return None


# Grid points transformed per irfft call, over several sampled powers: the
# rows share the call's overhead, and each long double temporary (up to 32
# bytes an entry) stays near 128 kB, so peak memory does not grow with N.
_NORM_BATCH = 4096


def _symbol_norms(s: StencilScheme, steps: list) -> list:
    """||C^n|| = sum |irfft(g^n)| for each n in ``steps``, g the stencil's symbol.

    Everything up to the coefficients of C^n is in ``np.longdouble``.  A
    run of consecutive n (the dense head of :func:`sample_steps`, n <= 65)
    is a running product of g, off by about n ulps of long double; every
    other g^n comes from :func:`~laxlab.schemes.symbol_powers`.  Each norm
    is validated like :func:`operator_norm`, by :func:`_check_witness` on
    the sign pattern of the coefficients of C^n.
    """
    n = s.period
    g = 1 + s.symbol_minus_one
    norms = []
    last_n, last = 0, np.ones_like(g)
    rows = max(1, _NORM_BATCH // n)
    for i in range(0, len(steps), rows):
        chunk = steps[i : i + rows]
        if chunk[-1] - last_n == len(chunk):
            powers = last * np.cumprod(np.broadcast_to(g, (len(chunk), g.size)), axis=0)
        else:
            powers = symbol_powers(s, chunk)
        last_n, last = chunk[-1], powers[-1]
        coeffs = np.fft.irfft(powers, n=n)
        totals = np.abs(coeffs).sum(axis=1).astype(float)
        _check_witness(np.where(coeffs < 0, -1.0, 1.0), powers, totals)
        norms.extend(totals.tolist())
    return norms


def _walked_norms(s: StencilScheme, steps: list) -> tuple:
    """(norms, diverged): C^n built by :func:`power` and :func:`compose`.

    The norm list stops at the first power whose coefficients overflow,
    with an inf entry for it.
    """
    norms = []
    current = None
    prev_n = 0
    for n in steps:
        try:
            jump = power(s, n - prev_n)
            current = jump if current is None else compose(current, jump)
        except DivergedOperatorError:
            norms.append(math.inf)
            return norms, True
        norms.append(operator_norm(current))
        prev_n = n
    return norms, False


def stability_check(s: StencilScheme, horizon_t: float) -> StabilityReport:
    """Norms of the iterates C^n for n*dt <= T, geometrically subsampled;
    stable means no norm passed :data:`STABILITY_CAP`.

    A stencil that passes :func:`von_neumann_check` takes every norm from
    its symbol (:func:`_symbol_norms`): no power drifts, because each one
    is a single long double g^n.  A stencil that fails it walks the
    powers through :func:`power` and :func:`compose`, whose coefficient
    overflow marks the first diverged sample with an inf norm.  A T shorter
    than one step, or holding more steps than a float can count, raises
    :class:`InvalidGridError`.
    """
    if s.dt > horizon_t:
        raise InvalidGridError(f"t = {horizon_t!r} is shorter than one step, dt = {s.dt!r}")
    if not horizon_t / s.dt < math.inf:
        raise InvalidGridError(f"t = {horizon_t!r} holds too many steps of dt = {s.dt!r} to count")
    n_max = int(math.floor(horizon_t / s.dt + 1e-9))
    steps = sample_steps(n_max, 64)
    symbol = von_neumann_check(s)
    if symbol.passed:
        norms, diverged = _symbol_norms(s, steps), False
    else:
        norms, diverged = _walked_norms(s, steps)
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
    wavenumber: int
    passed: bool


def von_neumann_check(s: StencilScheme) -> VonNeumannReport:
    """Scan all modes of the stencil's grid; pass iff max |g(k)| <= 1.

    |g| is ``|1 + h|`` of the stencil's symbol, whose mode k is the factor
    at wavenumber -k (reported so, in -N//2..0); |g(k)| = |g(-k)|, so
    modes 0..N//2 cover the grid.  A 1e-12 slack absorbs rounding in the
    transform.
    """
    mags = np.abs(1 + s.symbol_minus_one)
    k = int(np.argmax(mags))
    best = float(mags[k])
    return VonNeumannReport(max_abs_g=best, wavenumber=-k, passed=best <= 1.0 + 1e-12)


def consistency_check(s: StencilScheme, sg: HeatSemigroup, u: GridFunction, ts):
    """One-step residuals ||C E(t)u - E(t+dt)u|| at each requested t.

    The probe must be band-limited (|k| <= N/4) and live on the
    semigroup's grid with the stencil's spacing.
    """
    if u.n != sg.grid_n:
        raise InvalidGridError(f"probe grid {u.n} does not match semigroup {sg.grid_n}")
    if not math.isclose(s.dx, u.dx, rel_tol=1e-9):
        raise InvalidGridError(f"stencil dx {s.dx} does not match grid dx {u.dx}")
    if not is_band_limited(u, sg.grid_n // 4):
        raise InvalidGridError("probe must be band-limited to |k| <= N/4")
    out = []
    for t in ts:
        at_t = evolve(sg, u, t)
        stepped = apply_values(s, at_t.values)
        exact = evolve(sg, u, t + s.dt)
        out.append((float(t), float(np.max(np.abs(stepped - exact.values)))))
    return out


@dataclass(frozen=True)
class ConvergenceCell:
    dt: float
    dx: float
    grid_n: int
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


def _run_trajectory(s: StencilScheme, u: GridFunction, n_steps: int):
    """Step the scheme n_steps times; returns (values, diverged).

    The run diverges at the first step whose values pass ``OVERFLOW_LIMIT``
    (or are NaN).  Up to the step count of :func:`overflow_free_steps` no
    value can pass it, so those steps run unchecked; every later step (every
    step, for a stencil of more than 32 offsets, stepped through the FFT) is
    checked, and may overflow past the limit without a floating-point flag.
    """
    steps = trajectory(s, u.values)
    quiet = min(n_steps, overflow_free_steps(s, float(np.abs(u.values).max()), OVERFLOW_LIMIT))
    for _, vals in zip(range(quiet), steps):
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        for _, vals in zip(range(n_steps - quiet), steps):
            # One reduction per step; the comparison is False for NaN as well.
            if not np.abs(vals).max() <= OVERFLOW_LIMIT:
                return vals, True
    return vals, False


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
    stays within dt/2; a T/dt past any float raises
    :class:`InvalidGridError`.  A cell whose von Neumann check passes gets
    C^n u from :func:`~laxlab.schemes.apply_power`; a stable circulant keeps
    ``||C^n u|| <= sqrt(N) ||u||``, so checking only its endpoint against
    ``OVERFLOW_LIMIT`` misses no overflow in between.  A cell that fails it
    is stepped by :func:`_run_trajectory`; when those cells would take more
    than :data:`~laxlab.grid.MAX_UPDATES` grid-point updates (N per step),
    :class:`InvalidGridError` is raised before any cell runs.

    Convergence means: all errors finite, decreasing monotonically up to
    10% jitter or the round-off floor ``eps * ||u||``, and the finest error
    below ``1e-3 * ||u||``.  The observed order is the log-log slope of
    error against dx over at least three cells above the floor (an order
    fitted to round-off noise would mean nothing), and None unless the
    errors are all finite and monotone in that sense.
    """
    dts = sorted(dts, reverse=True)
    if not dts:
        raise ValueError("need at least one dt")
    plan = []
    for dt in dts:
        grid_n, dx = path.grid_for(dt)
        s = builder(dt, dx, grid_n)
        plan.append((s, step_count(horizon_t, dt), von_neumann_check(s)))
    updates = sum(s.period * n_steps for s, n_steps, symbol in plan if not symbol.passed)
    if updates > MAX_UPDATES:
        raise InvalidGridError(f"unstable cells need {updates:.3g} updates, past {MAX_UPDATES:.0e}")
    cells = []
    for s, n_steps, symbol in plan:
        u = sample(probe, s.period)
        if symbol.passed:
            vals = apply_power(s, u.values, n_steps)
            diverged = not np.abs(vals).max() <= OVERFLOW_LIMIT
        else:
            vals, diverged = _run_trajectory(s, u, n_steps)
        if diverged:
            error = math.inf
        else:
            sg = HeatSemigroup(horizon_t=horizon_t, grid_n=s.period)
            exact = evolve(sg, u, n_steps * s.dt)
            error = float(np.max(np.abs(vals - exact.values)))
        cells.append(
            ConvergenceCell(
                dt=s.dt,
                dx=s.dx,
                grid_n=s.period,
                n_steps=n_steps,
                error=error,
                max_abs_g=symbol.max_abs_g,
                diverged=diverged,
            )
        )

    errors = [c.error for c in cells]
    norm = sup_norm(u)
    floor = np.finfo(float).eps * norm
    monotone = all(b <= max(a * 1.1, floor) for a, b in zip(errors, errors[1:]))
    all_finite = all(math.isfinite(e) for e in errors)
    settled = all_finite and monotone
    above_floor = [(c.dx, c.error) for c in cells if c.error > floor]
    observed_order = loglog_slope(above_floor, 3) if settled else None
    converged = settled and errors[-1] < 1e-3 * norm

    return ConvergenceReport(
        cells=tuple(cells),
        observed_order=observed_order,
        converged=converged,
    )

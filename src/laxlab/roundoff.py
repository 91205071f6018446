"""Round-off propagation under emulated reduced precision.

Two trajectories of the same scheme on the same discretization are run
side by side: one at full working precision, one whose state is rounded
to a reduced significand after every time step.  Their sup-norm gap
isolates round-off propagation from truncation error.  ``significand_bits``
counts stored fraction bits (IEEE convention), so 52 bits reproduces
double precision and the rounding becomes a no-op (see
:func:`round_to_precision`; the twins' checks are described in
:func:`roundoff_growth_experiment`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import loglog_slope, sample_steps, step_count
from .errors import DivergedValueError, InvalidGridError
from .grid import MAX_UPDATES, GridFunction, Probe, RefinementPath, sample
from .schemes import overflow_free_steps, trajectory

__all__ = [
    "PrecisionSpec",
    "round_to_precision",
    "RoundoffGrowthReport",
    "roundoff_growth_experiment",
    "HalvingSweepReport",
    "halving_sweep",
]


@dataclass(frozen=True)
class PrecisionSpec:
    """Reduced-precision arithmetic model: per-step nearest-even rounding."""

    significand_bits: int

    def __post_init__(self) -> None:
        if not (4 <= self.significand_bits <= 52):
            raise ValueError(f"significand_bits must be in [4, 52], got {self.significand_bits}")

    @property
    def epsilon(self) -> float:
        return 2.0 ** (-self.significand_bits)

    @property
    def split(self) -> float:
        """Veltkamp's constant C = 2^(52 - bits) + 1 (see :func:`round_to_precision`)."""
        return 2.0 ** (52 - self.significand_bits) + 1


def round_to_precision(x, spec: PrecisionSpec):
    """Round to ``significand_bits`` fraction bits, nearest-even, exponent kept.

    Accepts scalars or arrays; 0-d input comes back as a float, arrays as a
    new array (the argument is never written).  The rounding is Veltkamp's
    split (Dekker 1971): with ``C = 2**(52 - bits) + 1``, ``big = x * C``
    and ``big - (big - x)`` is x rounded to ``bits + 1`` significant bits,
    to nearest with ties to even (Boldo 2006), in three float operations.
    ``x * C`` overflows once ``max|x|`` reaches ``max_double / C``; from
    there up (only diverging runs get there) the value is split by
    ``frexp``, its significand scaled and rounded by ``np.rint`` and put
    back by ``ldexp``.  At 52 bits C = 2 and both paths are exact.  Raises
    :class:`DivergedValueError` for non-finite values and for values that
    would round past the largest double.
    """
    arr = np.asarray(x, dtype=float)
    scale = spec.significand_bits + 1  # stored bits plus the implicit leading bit
    peak = np.abs(arr).max(initial=0.0)
    # From (2 - 2**-scale) * 2**1023 up, values round to 2**1024 (the tie
    # goes to it, the even neighbour); at 52 bits the bound is inf.  NaN
    # fails the comparison as well.
    if not peak < (2.0 - 2.0**-scale) * 2.0**1023:
        raise DivergedValueError("cannot round non-finite values or values past the largest double")
    split = spec.split
    if peak < sys.float_info.max / split:
        big = arr * split
        rounded = big - (big - arr)
    else:
        mantissa, exponent = np.frexp(arr)
        rounded = np.ldexp(np.rint(np.ldexp(mantissa, scale)), exponent - scale)
    if arr.ndim == 0:
        return float(rounded)
    return rounded


@dataclass(frozen=True)
class RoundoffGrowthReport:
    samples: tuple  # (n, t, gap)
    diverged: bool
    dt: float
    dx: float

    @property
    def final_gap(self) -> float:
        return math.inf if self.diverged else self.samples[-1][2]


def roundoff_growth_experiment(
    s, u: GridFunction, horizon_t: float, spec: PrecisionSpec
) -> RoundoffGrowthReport:
    """Gap between a per-step-rounded trajectory and the full-precision one.

    Both runs start from the identical initial state and use the identical
    discretization, so the gap is pure round-off propagation.  Rounding
    after every step is the experiment, so no single symbol power can
    replace the loop: the twins step as one ``(2, N)`` array through
    :func:`~laxlab.schemes.trajectory`, and row 1 is rounded and written
    back between steps.  The gap is recorded at geometrically sampled step
    counts.  A T/dt past any float raises :class:`InvalidGridError`.

    Up to the step count n* of :func:`~laxlab.schemes.overflow_free_steps`
    (limit ``max_double / C``, growth 1 + 2^-(bits+1) a step), no value of
    either row can reach the threshold where Veltkamp's split overflows,
    so those steps split row 1 in place, with no guard.  A step at a
    sample point, and every step past n*, rounds row 1 through the
    checked :func:`round_to_precision`; the run is marked diverged when
    that rounding raises, or when row 0 is not finite at a sample point.
    A stencil of more than 32 offsets, which steps through the FFT, gets
    n* = 0, so its rounding is checked every step.
    """
    n_max = step_count(horizon_t, s.dt)
    schedule = sample_steps(n_max, 8)
    split = spec.split
    safe = overflow_free_steps(
        s,
        float(np.abs(u.values).max()),
        sys.float_info.max / split,
        1 + 2.0 ** -(spec.significand_bits + 1),
    )

    # Row 0 is the full-precision twin, row 1 the rounded one; both take
    # the same step together, and only row 1 is rounded, in place, before
    # the stepper reads it again.  Row 0 is checked only where a gap is
    # recorded: a linear step keeps a non-finite value non-finite, so no
    # gap is recorded after row 0 breaks, and n_max is always in the
    # schedule, so the last step is checked.  Row 0 may overflow between
    # sample points, so the loop raises no floating-point flags.
    samples = []
    diverged = False
    target = 0
    big, rest = np.empty(u.n), np.empty(u.n)
    steps = trajectory(s, np.array([u.values, u.values]))
    with np.errstate(over="ignore", invalid="ignore"):
        for n, twins in zip(range(1, n_max + 1), steps):
            if n <= safe and n != schedule[target]:
                row = twins[1]
                np.multiply(row, split, out=big)
                np.subtract(big, row, out=rest)
                np.subtract(big, rest, out=row)
                continue
            try:
                twins[1] = round_to_precision(twins[1], spec)
            except DivergedValueError:
                diverged = True
                break
            if n == schedule[target]:
                if not np.isfinite(twins[0]).all():
                    diverged = True
                    break
                gap = float(np.max(np.abs(twins[1] - twins[0])))
                samples.append((n, n * s.dt, gap))
                target += 1

    return RoundoffGrowthReport(samples=tuple(samples), diverged=diverged, dt=s.dt, dx=s.dx)


@dataclass(frozen=True)
class HalvingSweepReport:
    rows: tuple  # (dt, dx, n_steps, final_gap)
    exponent_s: float | None
    growth_reports: tuple

    @property
    def fit_skipped(self) -> bool:
        return self.exponent_s is None


def halving_sweep(
    builder,
    path: RefinementPath,
    probe: Probe,
    horizon_t: float,
    spec: PrecisionSpec,
    dts,
) -> HalvingSweepReport:
    """Final round-off gap versus dt along a refinement path.

    Fits gap ~ dt^(-s); a nonnegative s means refinement does not improve
    the round-off floor.  Needs at least 4 dt values; the fit is skipped
    when fewer than two gaps are finite and positive (e.g. the 52-bit
    control).  Raises :class:`InvalidGridError`, before any cell runs, when
    the twins would take more than :data:`~laxlab.grid.MAX_UPDATES` updates.
    """
    dts = sorted(dts, reverse=True)
    if len(dts) < 4:
        raise ValueError(f"halving_sweep needs >= 4 dt values, got {len(dts)}")
    grids = [path.grid_for(dt) for dt in dts]
    # In floats: a step count past any float is inf here and fails the check.
    updates = sum(2 * grid_n * max(1.0, horizon_t / dt) for dt, (grid_n, _) in zip(dts, grids))
    if not updates <= MAX_UPDATES:
        raise InvalidGridError(f"twins need {updates:.3g} updates, past {MAX_UPDATES:.0e}")
    rows = []
    reports = []
    for dt, (grid_n, dx) in zip(dts, grids):
        s = builder(dt, dx, grid_n)
        u = sample(probe, grid_n)
        report = roundoff_growth_experiment(s, u, horizon_t, spec)
        rows.append((dt, dx, step_count(horizon_t, dt), report.final_gap))
        reports.append(report)

    slope = loglog_slope([(dt, g) for dt, _, _, g in rows], 2)
    exponent_s = None if slope is None else -slope

    return HalvingSweepReport(
        rows=tuple(rows), exponent_s=exponent_s, growth_reports=tuple(reports)
    )

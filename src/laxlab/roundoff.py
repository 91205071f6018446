"""Round-off propagation under emulated reduced precision.

Two trajectories of the same scheme on the same discretization are run
side by side: one at full working precision, one whose state is rounded
to a reduced significand after every time step.  Their sup-norm gap
isolates round-off propagation from truncation error.  One twin loop
(:func:`_twin_runs`) steps the twins of every cell of a batch of sweeps
together (:func:`halving_sweeps`), and a single cell is the batch of one.
``significand_bits`` counts stored
fraction bits (IEEE convention), so 52 bits reproduces double precision
and the rounding becomes a no-op (see :func:`round_to_precision`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import loglog_slope, sample_steps, step_count
from .errors import DivergedValueError, InvalidGridError
from .grid import MAX_UPDATES, GridFunction, Probe, RefinementPath, sample
from .schemes import _in_stacks, overflow_free_steps, trajectory

__all__ = [
    "PrecisionSpec",
    "round_to_precision",
    "RoundoffGrowthReport",
    "roundoff_growth_experiment",
    "HalvingSweepReport",
    "halving_sweep",
    "halving_sweeps",
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
    """Gap between a per-step-rounded trajectory and the full-precision one:
    the twin loop of :func:`halving_sweep` (:func:`_twin_runs`) on one cell.

    Both runs start from the identical initial state and use the identical
    discretization, so the gap is pure round-off propagation.  A T/dt past
    any float raises :class:`InvalidGridError`.
    """
    return _twin_runs([(s, step_count(horizon_t, s.dt), u, spec)])[0]


def _twin_runs(cells) -> list:
    """The :class:`RoundoffGrowthReport` of each (stencil, n, data,
    :class:`PrecisionSpec`) cell of a stack after n steps.

    Rounding after every step is the experiment, so no symbol power can
    replace the loop.  The cells step together through
    :func:`~laxlab.schemes.trajectory`, longest first (see
    :func:`~laxlab.schemes._in_stacks`), as one ``(2, sum N)`` array whose
    row 1 is rounded in place between steps; row 0 runs at full precision.
    A cell leaves the array once it is the last one and has ended (run its
    n steps, or diverged), so no cell takes a step past its n.  Each cell
    keeps its own precision (Veltkamp's constant C is an array, each cell's
    C on its grid points), n*, gap schedule (geometric in n) and divergence
    flag.

    Up to the step count n* of :func:`~laxlab.schemes.overflow_free_steps`
    (limit ``max_double / C``, growth 1 + 2^-(bits+1) a step, both the
    cell's own), no value of a cell can reach the threshold where
    Veltkamp's split overflows, so those steps split row 1 with no guard,
    in one pass over the array.  At its sample points and past its n*, a
    cell's row 1 is rounded instead by the checked
    :func:`round_to_precision`, bit for bit as if it ran alone; the cell
    diverges when that rounding raises, or when its row 0 is not finite at
    a sample point (a step keeps a non-finite value non-finite, and the
    last step is a sample point).  Row 0 may overflow in between, so the
    loop raises no floating-point flags.  A stencil of more than 32
    offsets, which steps through the FFT, gets n* = 0.
    """
    ends = np.cumsum([s.period for s, _, _, _ in cells]).tolist()
    spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
    schedules = [sample_steps(n, 8) for _, n, _, _ in cells]
    safe = [overflow_free_steps(s, float(np.abs(u.values).max()), sys.float_info.max / spec.split,
                                1 + 2.0 ** -(spec.significand_bits + 1))
            for s, _, u, spec in cells]
    samples = [[] for _ in cells]
    diverged = [False] * len(cells)
    live, event = len(cells), 1
    split = np.concatenate([np.full(s.period, spec.split) for s, _, _, spec in cells])
    big, rest = np.empty(ends[-1]), np.empty(ends[-1])
    values = np.concatenate([u.values for _, _, u, _ in cells])
    steps = trajectory([s for s, _, _, _ in cells], np.array([values, values]))
    twins = next(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cells[0][1] + 1):
            row, rounded = twins[1], {}
            if n >= event:  # a cell is at a sample point or past its n*
                for i in range(live):
                    if not diverged[i] and (n > safe[i] or n == schedules[i][len(samples[i])]):
                        try:
                            rounded[i] = round_to_precision(row[spans[i]], cells[i][3])
                        except DivergedValueError:
                            diverged[i] = True
            np.multiply(row, split, out=big)
            np.subtract(big, row, out=rest)
            np.subtract(big, rest, out=row)
            for i, cell in rounded.items():
                row[spans[i]] = cell
                if n != schedules[i][len(samples[i])]:
                    continue
                if not np.isfinite(twins[0, spans[i]]).all():
                    diverged[i] = True
                else:
                    gap = float(np.max(np.abs(cell - twins[0, spans[i]])))
                    samples[i].append((n, n * cells[i][0].dt, gap))
            if n >= event:
                while live and (diverged[live - 1] or n == cells[live - 1][1]):
                    live -= 1
                if not live:
                    break
                width = ends[live - 1]
                big, rest, split = big[:width], rest[:width], split[:width]
                event = min(min(schedules[i][len(samples[i])], safe[i] + 1)
                            for i in range(live) if not diverged[i])
            twins = steps.send(live)
    return [
        RoundoffGrowthReport(samples=tuple(got), diverged=bad, dt=s.dt, dx=s.dx)
        for (s, _, _, _), got, bad in zip(cells, samples, diverged)
    ]


@dataclass(frozen=True)
class HalvingSweepReport:
    rows: tuple  # (dt, dx, n_steps, final_gap)
    exponent_s: float | None
    growth_reports: tuple

    @property
    def fit_skipped(self) -> bool:
        return self.exponent_s is None


def halving_sweep(
    builder, path: RefinementPath, probe: Probe, horizon_t: float, spec: PrecisionSpec, dts
) -> HalvingSweepReport:
    """Final round-off gap versus dt along a refinement path: the batch of
    one sweep (:func:`halving_sweeps`).

    The reports come back coarse to fine.  Fits gap ~ dt^(-s); a
    nonnegative s means refinement does not improve the round-off floor.
    Needs at least 4 dt values; the fit is skipped when fewer than two gaps
    are finite and positive (e.g. the 52-bit control).  Raises
    :class:`InvalidGridError`, before any cell runs, when the twins would
    take more than :data:`~laxlab.grid.MAX_UPDATES` updates.
    """
    return halving_sweeps([(builder, path, probe, horizon_t, spec, dts)])[0]


def halving_sweeps(sweeps) -> list:
    """The :class:`HalvingSweepReport` of each sweep, given as the argument
    tuple of :func:`halving_sweep`.  Every sweep is set up and checked
    before any cell runs; then the cells of all of them step together."""
    setups = []
    for builder, path, probe, horizon_t, spec, dts in sweeps:
        dts = sorted(dts, reverse=True)
        if len(dts) < 4:
            raise ValueError(f"halving_sweep needs >= 4 dt values, got {len(dts)}")
        grids = [path.grid_for(dt) for dt in dts]
        # In floats: a step count past any float is inf here and fails the check.
        updates = sum(2 * grid_n * max(1.0, horizon_t / dt) for dt, (grid_n, _) in zip(dts, grids))
        if not updates <= MAX_UPDATES:
            raise InvalidGridError(f"twins need {updates:.3g} updates, past {MAX_UPDATES:.0e}")
        setups.append([(builder(dt, dx, grid_n), step_count(horizon_t, dt), sample(probe, grid_n), spec)
                       for dt, (grid_n, dx) in zip(dts, grids)])
    reports = iter(_in_stacks([cell for cells in setups for cell in cells], _twin_runs))
    out = []
    for cells in setups:
        growth = tuple(next(reports) for _ in cells)
        rows = tuple((s.dt, s.dx, n, r.final_gap) for (s, n, _, _), r in zip(cells, growth))
        slope = loglog_slope([(dt, g) for dt, _, _, g in rows], 2)
        out.append(HalvingSweepReport(rows, None if slope is None else -slope, growth))
    return out

"""Round-off propagation under emulated reduced precision.

Two trajectories of the same scheme on the same discretization are run
side by side: one at full working precision, one whose state is rounded
to a reduced significand after every time step.  Their sup-norm gap
isolates round-off propagation from truncation error.  One loop
(:func:`_stepped_runs`) steps every row that must step: the twins of every
cell of a batch of sweeps (:func:`halving_sweeps`, the one public way to
run twins), and the convergence cells of :mod:`laxlab.analysis` that fail
von Neumann.  ``significand_bits`` counts stored fraction bits (IEEE
convention), so 52 bits reproduces double precision and the rounding
becomes a no-op (see :func:`round_to_precision`); a 52-bit twin that no
row can overflow is therefore not stepped at all.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergedValueError, InvalidGridError
from .grid import MAX_UPDATES, loglog_slope, sample, sample_steps, step_count
from .schemes import _narrow, overflow_free_steps, trajectory

__all__ = [
    "PrecisionSpec",
    "round_to_precision",
    "RoundoffGrowthReport",
    "HalvingSweepReport",
    "halving_sweeps",
]


@dataclass(frozen=True)
class PrecisionSpec:
    """Reduced-precision arithmetic model: per-step nearest-even rounding."""

    significand_bits: int

    def __post_init__(self) -> None:
        bits = self.significand_bits
        try:
            object.__setattr__(self, "significand_bits", operator.index(bits))
        except TypeError:
            raise ValueError(f"significand_bits must be an integer, got {bits!r}") from None
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


def _stepped_runs(cells) -> list:
    """(records, diverged) of each (stencil, n, data, schedule, limit, spec)
    cell after its n steps: the one loop of every stepped row.

    Per-step round-off is what the twins measure and what unstable
    convergence cells blow up from, so no symbol power can replace the
    loop.  The cells step through :func:`~laxlab.schemes.trajectory` in
    stacks, longest first: the narrow stencils that share their offsets and
    whether they have a spec, or any other stencil alone.  Row 0 is double;
    a cell with a :class:`PrecisionSpec` (a twin) has a row 1 as well,
    rounded in place after every step.  A cell leaves the array once it is
    the last one and has ended (run its n steps, or diverged), so no cell
    takes a step past its n.

    Up to the step count n* of :func:`~laxlab.schemes.overflow_free_steps`
    (limit ``min(limit, max_double / C)``, growth 1 + eps/2 a step, C and
    eps the spec's; with no spec, ``limit`` and growth 1) no value can reach
    the limit, so those steps split row 1 with no guard, in one pass over
    the array.  A cell is checked at its ``schedule`` steps and past its n*:
    it diverges once ``max|row 0|`` is not ``<= limit`` (NaN fails as well)
    or once the checked :func:`round_to_precision` of its row 1 raises;
    otherwise that rounding replaces the split, bit for bit as if the cell
    ran alone.  At each schedule point a twin records (n, n dt, gap), the
    sup-norm gap between its rows, and any other cell its row 0.  Rows may
    overflow between checks, so the loop raises no floating-point flags.  A
    stencil of more than 32 offsets (the FFT step) gets n* = 0.

    A 52-bit twin with n <= n* takes no step: its split (C = 2) is exact
    below ``max_double / 2`` (Dekker 1971), so its two rows stay equal bit
    for bit and finite, and it records (k, k dt, 0.0) at each schedule
    point, undiverged.  A 52-bit twin past its n* (data near the largest
    double, or an unstable stencil) steps like any other.
    """
    free = [overflow_free_steps(s, float(np.abs(u.values).max()),
                                min(limit, sys.float_info.max / spec.split) if spec else limit,
                                1 + spec.epsilon / 2 if spec else 1.0)
            for s, _, u, _, limit, spec in cells]
    out = [None] * len(cells)
    stacks = {}
    for i in sorted(range(len(cells)), key=lambda i: -cells[i][1]):
        s, n, _, schedule, _, spec = cells[i]
        if spec is not None and spec.significand_bits == 52 and n <= free[i]:
            out[i] = [(k, k * s.dt, 0.0) for k in schedule], False
            continue
        stacks.setdefault((s.offsets.tobytes() if _narrow(s) else i, spec is None), []).append(i)
    for stack in stacks.values():
        run = [cells[i] for i in stack]
        twin = run[0][5] is not None
        ends = np.cumsum([s.period for s, *_ in run]).tolist()
        spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
        safe = [free[i] for i in stack]
        records = [[] for _ in run]
        diverged = [False] * len(run)
        live, event = len(run), 1
        split = np.concatenate([np.full(s.period, spec.split if twin else 1.0) for s, *_, spec in run])
        big, rest = np.empty(ends[-1]), np.empty(ends[-1])
        values = np.concatenate([u.values for _, _, u, *_ in run])
        steps = trajectory([s for s, *_ in run], np.array([values, values]) if twin else values)
        rows = next(steps)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, run[0][1] + 1):
                rounded = {}
                if n >= event:  # a cell is at a schedule point or past its n*
                    first = rows[0] if twin else rows
                    for i in range(live):
                        s, _, _, schedule, limit, spec = run[i]
                        due = n == schedule[len(records[i])]
                        if diverged[i] or not (due or n > safe[i]):
                            continue
                        row = first[spans[i]]
                        try:
                            diverged[i] = not np.abs(row).max() <= limit
                            if twin and not diverged[i]:
                                rounded[i] = round_to_precision(rows[1, spans[i]], spec)
                        except DivergedValueError:
                            diverged[i] = True
                        if due and not diverged[i]:
                            records[i].append((n, n * s.dt, float(np.max(np.abs(rounded[i] - row))))
                                              if twin else row)
                if twin:
                    row = rows[1]
                    np.multiply(row, split, out=big)
                    np.subtract(big, row, out=rest)
                    np.subtract(big, rest, out=row)
                    for i, cell in rounded.items():
                        row[spans[i]] = cell
                if n >= event:
                    while live and (diverged[live - 1] or n == run[live - 1][1]):
                        live -= 1
                    if not live:
                        break
                    width = ends[live - 1]
                    big, rest, split = big[:width], rest[:width], split[:width]
                    event = min(min(run[i][3][len(records[i])], safe[i] + 1)
                                for i in range(live) if not diverged[i])
                rows = steps.send(live)
        for i, got, bad in zip(stack, records, diverged):
            out[i] = got, bad
    return out


@dataclass(frozen=True)
class HalvingSweepReport:
    rows: tuple  # (dt, dx, n_steps, final_gap)
    exponent_s: float | None
    growth_reports: tuple

    @property
    def fit_skipped(self) -> bool:
        return self.exponent_s is None


def halving_sweeps(sweeps) -> list:
    """Final round-off gap versus dt along a refinement path: the
    :class:`HalvingSweepReport` of each sweep, given as a tuple
    ``(builder, path, probe, horizon_t, spec, dts)``.

    Each sweep needs at least 4 dt values, and its reports come back coarse
    to fine.  It fits gap ~ dt^(-s); a nonnegative s means refinement does
    not improve the round-off floor.  The fit is skipped when fewer than two
    gaps are finite and positive (e.g. the 52-bit control).  Each cell takes
    n = round(T/dt) steps (:func:`~laxlab.grid.step_count`).  Every sweep is
    set up and checked before any cell runs: :class:`InvalidGridError` is
    raised when a sweep's twins would take more than
    :data:`~laxlab.grid.MAX_UPDATES` updates.  Then the cells of all the
    sweeps step together.
    """
    setups = []
    for builder, path, probe, horizon_t, spec, dts in sweeps:
        dts = sorted(dts, reverse=True)
        if len(dts) < 4:
            raise ValueError(f"halving_sweeps needs >= 4 dt values, got {len(dts)}")
        grids = [path.grid_for(dt) for dt in dts]
        counts = [step_count(horizon_t, dt) for dt in dts]
        updates = sum(2 * grid_n * n for n, (grid_n, _) in zip(counts, grids))
        if updates > MAX_UPDATES:
            raise InvalidGridError(f"twins need {updates:.3g} updates, past {MAX_UPDATES:.0e}")
        setups.append([(builder(dt, dx, grid_n), n, sample(probe, grid_n), spec)
                       for dt, n, (grid_n, dx) in zip(dts, counts, grids)])
    runs = iter(_stepped_runs([(s, n, u, sample_steps(n, 8), sys.float_info.max, spec)
                               for cells in setups for s, n, u, spec in cells]))
    out = []
    for cells in setups:
        growth = tuple(RoundoffGrowthReport(tuple(samples), diverged, s.dt, s.dx)
                       for (s, _, _, _), (samples, diverged) in zip(cells, runs))
        rows = tuple((s.dt, s.dx, n, r.final_gap) for (s, n, _, _), r in zip(cells, growth))
        slope = loglog_slope([(dt, g) for dt, _, _, g in rows], 2)
        out.append(HalvingSweepReport(rows, None if slope is None else -slope, growth))
    return out

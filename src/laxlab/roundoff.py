"""Round-off propagation under emulated reduced precision.

Two trajectories of the same scheme on the same discretization are run
side by side: one at full working precision, one whose state is rounded
to a reduced significand after every time step.  Their sup-norm gap
isolates round-off propagation from truncation error.  ``significand_bits``
counts stored fraction bits (IEEE convention), so 52 bits reproduces
double precision and the rounding becomes a no-op.  The rounding is
Veltkamp's three-operation split, with a ``frexp`` fallback near the top of
the double range; the rounded twin's finiteness is checked by the
rounding's own guard every step, the full-precision twin's only at sample
points.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import loglog_slope, sample_steps, von_neumann_check
from .errors import DivergedValueError
from .grid import GridFunction, Probe, RefinementPath, TWO_PI, sample
from .schemes import trajectory

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
    split = 2.0 ** (52 - spec.significand_bits) + 1  # Veltkamp's C
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
    exponent_q: float | None
    diverged: bool
    flagged_unstable: bool
    bits: int
    dt: float
    dx: float
    scheme_name: str

    @property
    def final_gap(self) -> float:
        return self.samples[-1][2] if self.samples else math.nan


def roundoff_growth_experiment(
    s, u: GridFunction, horizon_t: float, spec: PrecisionSpec
) -> RoundoffGrowthReport:
    """Gap between a per-step-rounded trajectory and the full-precision one.

    Both runs start from the identical initial state and use the identical
    discretization, so the gap is pure round-off propagation.  Rounding
    after every step is the experiment, so no single symbol power can
    replace the loop: the twins step as one ``(2, N)`` array through
    :func:`~laxlab.schemes.trajectory`, and row 1 is rounded (by
    :func:`round_to_precision`) and written back between steps.  The run
    is marked diverged when that rounding raises, or when row 0 is not
    finite at a sample point (it is checked only there).  The gap is
    recorded at geometrically sampled step counts and fitted to
    gap(n) ~ C * n^q on log-log axes (fit skipped below 8 usable points).
    Unstable schemes are allowed but flagged.
    """
    n_max = max(1, round(horizon_t / s.dt))
    schedule = sample_steps(n_max, 8)
    flagged = not von_neumann_check(s).passed

    # Row 0 is the full-precision twin, row 1 the rounded one; both take
    # the same step together, and only row 1 is rounded, in place, before
    # the stepper reads it again.  The rounding's own guard stops row 1 at
    # its first non-finite (or unroundable) step.  Row 0 is checked only
    # where a gap is recorded: a linear step keeps a non-finite value
    # non-finite, so no gap is recorded after row 0 breaks, and n_max is
    # always in the schedule, so the last step is checked.
    samples = []
    diverged = False
    target = 0
    steps = trajectory(s, np.array([u.values, u.values]))
    for n, twins in zip(range(1, n_max + 1), steps):
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

    positive = [(n, g) for n, _, g in samples if g > 0]
    exponent_q = loglog_slope(positive) if len(positive) >= 8 else None

    return RoundoffGrowthReport(
        samples=tuple(samples),
        exponent_q=exponent_q,
        diverged=diverged,
        flagged_unstable=flagged,
        bits=spec.significand_bits,
        dt=s.dt,
        dx=s.dx,
        scheme_name=s.name,
    )


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
    domain_length: float = TWO_PI,
) -> HalvingSweepReport:
    """Final round-off gap versus dt along a refinement path.

    Fits gap ~ dt^(-s); a nonnegative s means refinement does not improve
    the round-off floor.  Needs at least 4 dt values; the fit is skipped
    when fewer than two gaps are positive (e.g. the 52-bit control).
    """
    dts = sorted(dts, reverse=True)
    if len(dts) < 4:
        raise ValueError(f"halving_sweep needs >= 4 dt values, got {len(dts)}")
    rows = []
    reports = []
    for dt in dts:
        grid_n, dx = path.grid_for(dt, domain_length)
        s = builder(dt, dx, grid_n)
        u = sample(probe, grid_n, domain_length)
        report = roundoff_growth_experiment(s, u, horizon_t, spec)
        final = math.inf if report.diverged else report.final_gap
        rows.append((dt, dx, max(1, round(horizon_t / dt)), final))
        reports.append(report)

    positive = [(dt, g) for dt, _, _, g in rows if math.isfinite(g) and g > 0]
    exponent_s = -loglog_slope(positive) if len(positive) >= 2 else None

    return HalvingSweepReport(
        rows=tuple(rows), exponent_s=exponent_s, growth_reports=tuple(reports)
    )

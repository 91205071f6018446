"""
Round-off error moves against refinement
========================================

Truncation error shrinks as dt -> 0, but the rounding gap does not: with
fewer significand bits the per-step rounding noise accumulates over the
growing number of steps.  Emulating reduced precision (round-to-nearest-
even at a chosen number of significand bits after every step) makes the
direction of the effect measurable.
"""
import laxlab as lx
from laxlab.analysis import scheme_builder
from laxlab.grid import RefinementPath
from laxlab.roundoff import PrecisionSpec, halving_sweeps

path = RefinementPath.cfl_boundary()
builder = scheme_builder("ftcs")

# The 12-bit sweep and its 52-bit control (below) step together, each at
# its own precision.
dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
sweep, control = halving_sweeps(
    [(builder, path, lx.Sine(1), 1.0, PrecisionSpec(bits), dts) for bits in (12, 52)]
)

# --- gap growth along a single trajectory ------------------------------
# The reduced-precision run is compared against a full-precision run of
# the identical discretization, so the gap isolates rounding alone.  The
# trajectory is the sweep's coarsest cell, dt = 1e-2.
report = sweep.growth_reports[0]
print("12-bit significand, dt = 1e-2:")
print("n        t          gap")
for n, t, gap in report.samples[:8] + report.samples[-2:]:
    print(f"{n:<8} {t:<10.4f} {gap:.3e}")
print(f"final gap      : {report.final_gap:.3e}")
print(f"machine epsilon: {PrecisionSpec(12).epsilon:.3e}")

# --- sweeping dt downward ----------------------------------------------
# If rounding behaved like truncation the gap would shrink with dt; the
# fitted exponent s in gap ~ dt^{-s} shows it does not.
print()
print("dt          n_steps    final gap")
for dt, dx, n_steps, gap in sweep.rows:
    print(f"{dt:<11.3e} {n_steps:<10} {gap:.3e}")
print(f"exponent s in gap ~ dt^-s : {sweep.exponent_s:.3f}")

# --- the 52-bit control ------------------------------------------------
# At the native significand width the rounding map is the identity and
# every gap is exactly zero.
print()
print("52-bit control gaps:", [gap for _, _, _, gap in control.rows])

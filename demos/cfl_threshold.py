"""
The CFL threshold for the explicit heat scheme
==============================================

The forward-time centered-space scheme has one-step coefficients
(r, 1 - 2r, r) with r = dt/dx^2.  For r <= 1/2 every coefficient is
nonnegative, the absolute coefficients sum to exactly 1, and all iterated
operator norms stay at 1.  The moment r crosses 1/2 the norms grow like
(4r - 1)^n and trajectories blow up within a handful of steps.

This script walks both sides of the threshold on a 128-point grid.
"""
import itertools
import math

import numpy as np

import laxlab as lx
from laxlab.analysis import operator_norm, stability_check, von_neumann_check
from laxlab.schemes import ftcs_heat, trajectory
from laxlab.semigroup import evolve

n = 128
dx = 2 * math.pi / n
probe = lx.Sine(1) + lx.Sine(31)

# --- one-step norms and amplification factors on both sides ------------
print("r        ||C||      max|g(k)|")
for r in (0.1, 0.3, 0.5, 0.55, 0.75):
    s = ftcs_heat(r * dx**2, dx, n)
    print(f"{r:<8} {operator_norm(s):<10.6f} {von_neumann_check(s).max_abs_g:.6f}")

# --- iterated norms over a unit time horizon ---------------------------
# Stable ratios keep ||C^n|| pinned at 1; unstable ones exceed any cap
# within tens of steps.
print()
print("r        bound L      first n with ||C^n|| > 10")
reports = {}
for r in (0.3, 0.5, 0.55, 0.75):
    report = reports[r] = stability_check(ftcs_heat(r * dx**2, dx, n), 1.0)
    first = report.first_exceeding(10.0)
    print(f"{r:<8} {report.bound_l:<12.4e} {first}")

# --- what instability does to an actual trajectory ---------------------
# March the mixed probe to t = 1 at r = 0.55 and compare with the exact
# spectral evolution: the error is astronomically large even though the
# scheme is consistent.  The march takes the stability row's n steps.
r = 0.55
s = ftcs_heat(r * dx**2, dx, n)
u = lx.sample(probe, n)
steps = reports[r].n_steps
vals = next(itertools.islice(trajectory(s, u.values), steps - 1, None))
exact = evolve(u, steps * s.dt)
err = float(np.max(np.abs(vals - exact.values)))
print()
print(f"r = {r}: sup error after {steps} steps = {err:.3e}")

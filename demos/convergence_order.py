"""
Observed convergence order along a refinement path
==================================================

Refining along dx = sqrt(2 dt) keeps the explicit heat scheme exactly on
the stability boundary r = 1/2.  The trajectory error at the final time
then shrinks like dx^2, and a log-log fit of error against dx recovers
the order.  The same experiment run at a fixed unstable ratio fails to
converge no matter how small dt becomes.
"""
import laxlab as lx
from laxlab.analysis import convergence_experiment, scheme_builder
from laxlab.grid import RefinementPath

# --- second-order decay on the boundary path ---------------------------
report = convergence_experiment(
    scheme_builder("ftcs"),
    RefinementPath.cfl_boundary(),
    lx.Sine(1),
    1.0,
    [1e-2, 2.5e-3, 6.25e-4],
)
print("dt          dx          error")
for cell in report.cells:
    print(f"{cell.dt:<11.3e} {cell.dx:<11.3e} {cell.error:.3e}")
print(f"observed order : {report.observed_order:.3f}")
print(f"converged      : {report.converged}")

# --- the same probe at a fixed ratio past the threshold ----------------
bad = convergence_experiment(
    scheme_builder("ftcs"),
    RefinementPath.fixed_ratio(0.55),
    lx.RandomUniform(3),
    1.0,
    [4e-3, 2e-3, 1e-3],
)
print()
print("fixed r = 0.55 (broadband probe):")
for cell in bad.cells:
    print(f"dt = {cell.dt:.3e}  error = {cell.error:.3e}  diverged = {cell.diverged}")
print(f"converged      : {bad.converged}")

# --- backward Euler converges even along dx = dt -----------------------
# The implicit scheme has no ratio restriction, so an aggressive path
# with r = dt/dx^2 growing without bound still converges (first order).
be = convergence_experiment(
    scheme_builder("backward_euler"),
    RefinementPath(1.0, 1.0),
    lx.Sine(1),
    1.0,
    [1e-2, 5e-3, 2.5e-3],
)
print()
print("backward Euler along dx = dt:")
for cell in be.cells:
    print(f"dt = {cell.dt:.3e}  error = {cell.error:.3e}")
print(f"converged      : {be.converged}")

"""
Why completeness matters: a uniform-boundedness counterexample
==============================================================

On the (incomplete) space of finitely supported sequences under the sup
norm, the operators T_k x = (0, ..., 0, k x_k, 0, ...) are pointwise
bounded -- each fixed x is annihilated by every T_k beyond its support --
yet ||T_k|| = k grows without bound.  The uniform boundedness principle
fails here precisely because the space is not complete, and the witness
sequences below show the hole: they are Cauchy but their limit has
infinite support.
"""
from laxlab.ubp import (
    FiniteSequence,
    apply_Tk,
    cauchy_witness,
    norm_Tk,
    pointwise_bound,
    seq_norm,
    subtract,
)

# --- operator norms grow linearly --------------------------------------
print("k     ||T_k||   ||T_k e_k||")
for k in (1, 5, 25, 125):
    print(f"{k:<5} {norm_Tk(k):<9} {seq_norm(apply_Tk(k, FiniteSequence.unit(k)))}")

# --- yet every fixed probe sees a finite bound -------------------------
probes = {
    "ones(3)": FiniteSequence({0: 1.0, 1: 1.0, 2: 1.0}),
    "harmonic(100)": FiniteSequence({i: 1.0 / (i + 1) for i in range(100)}),
}
print()
for name, x in probes.items():
    report = pointwise_bound(x)
    print(f"sup_k ||T_k {name}|| = {report.bound}  (attained at k = {report.saturating_k})")

# --- the incompleteness witness ----------------------------------------
# x^(m) = (1, 1/2, ..., 1/m, 0, ...) is Cauchy: the sup distance between
# x^(m) and x^(m') is exactly 1/(min(m, m') + 1).  Its would-be limit
# (1, 1/2, 1/3, ...) is not finitely supported, so the space has a hole
# -- and on that hole sup_k ||T_k x|| would be infinite.
print()
print("m     m'    ||x^(m) - x^(m')||")
for m, mp in [(3, 7), (10, 20), (50, 100)]:
    d = seq_norm(subtract(cauchy_witness(m), cauchy_witness(mp)))
    print(f"{m:<5} {mp:<5} {d}  (= 1/{min(m, mp) + 1})")

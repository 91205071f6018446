"""A pointwise-bounded but not uniformly bounded operator family.

The space is the finitely-supported real sequences under the sup-norm, a
dense but incomplete subspace of l-infinity.  The operators T_k pick out
the k-th entry and scale it by k, so ||T_k|| = k grows without bound
while every fixed sequence is annihilated by all T_k beyond its support.
So :func:`pointwise_bound` takes sup_k ||T_k x|| over the support of x
alone, which is exact and needs no range of k.  The uniform boundedness
principle therefore fails here, which is exactly what the incompleteness
of the space permits.  :func:`ubp_violation_demo`
tabulates the contrast as one :class:`UbpDemoTable`: a k column, its
||T_k|| column, and one tuple of per-probe bounds that holds for every k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FiniteSequence",
    "seq_norm",
    "apply_Tk",
    "norm_Tk",
    "PointwiseBoundReport",
    "pointwise_bound",
    "UbpDemoTable",
    "ubp_violation_demo",
    "cauchy_witness",
    "subtract",
]


@dataclass(frozen=True)
class FiniteSequence:
    """Finitely-supported real sequence, stored as a sparse index -> value map."""

    entries: dict

    def __post_init__(self) -> None:
        cleaned = {}
        for idx, val in self.entries.items():
            idx = int(idx)
            val = float(val)
            if idx < 0:
                raise ValueError(f"negative index {idx}")
            if not math.isfinite(val):
                raise ValueError(f"non-finite entry at index {idx}")
            if val != 0.0:
                cleaned[idx] = val
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def unit(cls, k: int) -> "FiniteSequence":
        return cls({k: 1.0})

    @property
    def support_bound(self) -> int:
        """Smallest m with all entries zero at indices >= m."""
        return max(self.entries, default=-1) + 1

    def __getitem__(self, idx: int) -> float:
        return self.entries.get(idx, 0.0)


def seq_norm(x: FiniteSequence) -> float:
    """Sup of |x_n|; zero for the zero sequence."""
    return max((abs(v) for v in x.entries.values()), default=0.0)


def apply_Tk(k: int, x: FiniteSequence) -> FiniteSequence:
    """T_k keeps only index k, scaled by k: (T_k x)_k = k * x_k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return FiniteSequence({k: k * x[k]})


def norm_Tk(k: int) -> float:
    """Operator norm of T_k, which is exactly k (attained at the unit e_k)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return float(k)


@dataclass(frozen=True)
class PointwiseBoundReport:
    bound: float
    saturating_k: int


def pointwise_bound(x: FiniteSequence) -> PointwiseBoundReport:
    """sup_k ||T_k x||, over every k >= 0.

    T_k x vanishes off the support of x, so the supremum is attained on
    it and a scan of the support is exact; it takes the support in
    increasing k, keeping the smallest k on ties.
    """
    bound, best_k = 0.0, 0
    for k in sorted(x.entries):
        val = k * abs(x[k])
        if val > bound:
            bound, best_k = val, k
    return PointwiseBoundReport(bound=bound, saturating_k=best_k)


@dataclass(frozen=True)
class UbpDemoTable:
    k: tuple
    op_norm: tuple  # ||T_k|| of each k
    probe_bounds: tuple  # (probe_id, bound), the same for every k


def ubp_violation_demo(k_range, probes=()) -> UbpDemoTable:
    """Table contrasting unbounded ||T_k|| with fixed per-probe bounds.

    Each probe's pointwise bound is a single finite number independent of
    how far k_range extends, so the table holds it once; the operator-norm
    column grows without limit.
    """
    k = tuple(k_range)
    if not k:
        raise ValueError("k_range must be nonempty")
    bounds = [pointwise_bound(p).bound for p in probes]
    return UbpDemoTable(k=k, op_norm=tuple(map(norm_Tk, k)), probe_bounds=tuple(enumerate(bounds)))


def cauchy_witness(m: int) -> FiniteSequence:
    """The m-th term (1, 1/2, ..., 1/m, 0, ...) of a Cauchy sequence with
    no finitely-supported limit."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return FiniteSequence({i: 1.0 / (i + 1) for i in range(m)})


def subtract(x: FiniteSequence, y: FiniteSequence) -> FiniteSequence:
    out = dict(x.entries)
    for idx, val in y.entries.items():
        out[idx] = out.get(idx, 0.0) - val
    return FiniteSequence(out)


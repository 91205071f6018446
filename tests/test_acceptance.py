"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

import laxlab as lx
from laxlab.analysis import (
    convergence_experiment,
    operator_norm,
    scheme_builder,
    stability_check,
    von_neumann_check,
)
from laxlab.cli import run
from laxlab.grid import RefinementPath
from laxlab.roundoff import PrecisionSpec, halving_sweeps
from laxlab.schemes import apply_values, backward_euler_heat, ftcs_heat
from laxlab.semigroup import evolve
from laxlab.ubp import (
    FiniteSequence,
    apply_Tk,
    cauchy_witness,
    norm_Tk,
    pointwise_bound,
    seq_norm,
    subtract,
)

TWO_PI = 2 * math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_cfl_threshold():
    start = time.monotonic()
    n = 128
    dx = TWO_PI / n
    mixture = lx.Sine(1) + lx.Sine(31)
    ok = True
    details = []

    for r in (0.3, 0.5):
        s = ftcs_heat(r * dx**2, dx, n)
        report = stability_check(s, 1.0)
        ok &= report.bound_l <= 1.0 + 1e-12
        details.append(f"r={r} bound={report.bound_l:.3e}")
        dt0 = r * dx**2 * 0.995  # nudge below the grid's exact ratio
        conv = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.fixed_ratio(r),
            mixture,
            1.0,
            [dt0, dt0 / 2, dt0 / 4],
        )
        ok &= conv.converged

    for r in (0.55, 0.75):
        s = ftcs_heat(r * dx**2, dx, n)
        report = stability_check(s, 1.0)
        first = report.first_exceeding(10.0)
        ok &= first is not None and first <= 200
        u = lx.sample(mixture, n)
        vals = u.values.copy()
        steps = round(1.0 / s.dt)
        for _ in range(steps):
            vals = apply_values(s, vals)
        exact = evolve(u, steps * s.dt)
        err = float(np.max(np.abs(vals - exact.values)))
        ok &= err > 1e3
        details.append(f"r={r} first>10@n={first} err={err:.2e}")

    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    verdict("criterion 1: CFL threshold 2dt <= dx^2", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_refinement_path_law():
    start = time.monotonic()
    report = convergence_experiment(
        scheme_builder("ftcs"),
        RefinementPath.cfl_boundary(),
        lx.Sine(1),
        1.0,
        [1e-2, 2.5e-3, 6.25e-4],
    )
    errors = [e for _, e in report.errors]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    order_ok = report.observed_order is not None and 1.8 <= report.observed_order <= 2.2
    elapsed = time.monotonic() - start
    ok = report.converged and monotone and order_ok and elapsed < 30.0
    verdict(
        "criterion 2: refinement law dx = sqrt(2 dt)",
        ok,
        f"order={report.observed_order:.3f}, errors={['%.2e' % e for e in errors]}, {elapsed:.1f}s",
    )


def test_criterion_3_one_step_operator_norms():
    ok = True
    for r in (0.1, 0.3, 0.5):
        ok &= operator_norm(ftcs_heat(r, 1.0, 16)) == 1.0
    for r in (0.55, 0.75, 1.0):
        ok &= abs(operator_norm(ftcs_heat(r, 1.0, 16)) - (4 * r - 1)) <= 1e-12
    verdict("criterion 3: one-step operator norms", ok)


def test_criterion_4_von_neumann_consistency():
    n = 128
    dx = TWO_PI / n
    ok = True
    details = []
    schemes = [ftcs_heat(r * dx**2, dx, n) for r in (0.1, 0.3, 0.5, 0.55, 0.75, 1.0)]
    schemes.append(backward_euler_heat(0.5 * dx**2, dx, n))
    for s in schemes:
        max_g = von_neumann_check(s).max_abs_g
        norm = operator_norm(s)
        ok &= max_g <= norm + 1e-12
    for r in (0.1, 0.3, 0.5, 0.55, 0.75, 1.0):
        s = ftcs_heat(r * dx**2, dx, n)
        expected = max(1.0, 4 * r - 1)
        g_ok = abs(von_neumann_check(s).max_abs_g - expected) <= 1e-12
        n_ok = abs(operator_norm(s) - expected) <= 1e-12
        ok &= g_ok and n_ok
        if not (g_ok and n_ok):
            details.append(f"r={r}")
    verdict("criterion 4: von Neumann symbol vs operator norm", ok, ", ".join(details))


def test_criterion_5_semigroup_laws():
    n = 64
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        t = rng.uniform(0, 0.5)
        s = rng.uniform(0, 0.5)
        u = lx.GridFunction(rng.uniform(-1, 1, n))
        gap = np.max(
            np.abs(evolve(evolve(u, s), t).values - evolve(u, t + s).values)
        )
        ok &= gap <= 1e-10 * lx.sup_norm(u)
    verdict("criterion 5: semigroup composition", ok)


def test_criterion_6_consistency_decay():
    from laxlab.analysis import consistency_check

    path = RefinementPath.fixed_ratio(0.5)
    residuals = []
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        n, dx = path.grid_for(dt)
        s = ftcs_heat(dt, dx, n)
        residuals.append(consistency_check(s, lx.sample(lx.Sine(1), n), [0.0])[0][1])
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = all(3.5 <= ratio <= 4.5 for ratio in ratios)
    verdict(
        "criterion 6: consistency residual decay",
        ok,
        "ratios=" + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_7_ubp_counterexample():
    ok = True
    for k in range(201):
        ok &= norm_Tk(k) == float(k)
        ok &= seq_norm(apply_Tk(k, FiniteSequence.unit(k))) == float(k)
    rng = np.random.default_rng(77)
    for _ in range(50):
        size = int(rng.integers(1, 15))
        start = int(rng.integers(0, 30))
        x = FiniteSequence(
            {start + i: float(v) for i, v in enumerate(rng.uniform(-1, 1, size))}
        )
        report = pointwise_bound(x)
        ok &= math.isfinite(report.bound)
        brute = max(seq_norm(apply_Tk(k, x)) for k in range(1001))
        ok &= report.bound == brute
        ok &= all(
            apply_Tk(k, x).entries == {}
            for k in range(x.support_bound, x.support_bound + 20)
        )
    for m in range(1, 101):
        for mp in range(m + 1, 101):
            d = seq_norm(subtract(cauchy_witness(m), cauchy_witness(mp)))
            ok &= d == 1.0 / (m + 1)
    verdict("criterion 7: uniform boundedness counterexample", ok)


def test_criterion_8_roundoff_direction():
    start = time.monotonic()
    dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    [reduced] = halving_sweeps([(
        scheme_builder("ftcs"),
        RefinementPath.cfl_boundary(),
        lx.Sine(1),
        1.0,
        PrecisionSpec(12),
        dts,
    )])
    [control] = halving_sweeps([(
        scheme_builder("ftcs"),
        RefinementPath.cfl_boundary(),
        lx.Sine(1),
        1.0,
        PrecisionSpec(52),
        dts,
    )])
    elapsed = time.monotonic() - start
    ok = (
        reduced.exponent_s is not None
        and reduced.exponent_s >= 0.0
        and all(gap == 0.0 for _, _, _, gap in control.rows)
        and control.fit_skipped
        and elapsed < 60.0
    )
    verdict(
        "criterion 8: round-off not improved by refinement",
        ok,
        f"s={reduced.exponent_s:.3f}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert configs, "acceptance config set missing"
    for cfg in configs:
        run(cfg, out_a / cfg.stem, seed=1234)
        run(cfg, out_b / cfg.stem, seed=1234)
    def collect(root):
        # key by (config dir, kind_scheme, section index), dropping the timestamp
        out = {}
        for p in root.rglob("*.csv"):
            prefix, _, index = p.name.rsplit("_", 2)
            out[(p.relative_to(root).parent, prefix, index)] = p.read_text()
        return out

    bodies_a = collect(out_a)
    bodies_b = collect(out_b)
    ok = bodies_a == bodies_b and len(bodies_a) > 0
    verdict("criterion 9: byte-identical CSV bodies across reruns", ok, f"{len(bodies_a)} files")

"""Workload configs, their grid-update counts, output checks and layer map.

Each workload is a list of config sections.  The seed only fills the
``random_uniform(seed)`` probes, so the program under test sees nothing but
the generated config file.  The checks rest on invariants of the paper's
framework that hold for any seed (the same ones ``tests/test_acceptance.py``
pins), so a failed check means the program is wrong, not the input.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

TWO_PI = 2.0 * math.pi

# Expectations a section's output is checked against.
STABILITY = "stability"        # FTCS stable iff r <= 1/2; BE rows bounded by 1
UBP = "ubp"                    # op_norm == k exactly
CONVERGES = "converges"        # converged=true
DIVERGES = "diverges"          # converged=false and error_final > 1 on every cell
CONSISTENT = "consistent"      # residual ratio per dt halving in [3.5, 4.5]
ROUNDOFF_GROWS = "grows"       # fitted s >= 0
ROUNDOFF_EXACT = "exact"       # all gaps 0, fit skipped

# Layers the traced run must find idle (zero calls) and busy on each workload.
# A later change that moves work between layers shows up as a failed map.
LAYER_MAP = {
    "stability_scan": {
        "idle": ("roundoff.round_to_precision", "semigroup.evolve"),
        "busy": ("schemes.power", "schemes.compose", "analysis.operator_norm"),
    },
    "step_sweep": {
        "idle": ("schemes.power", "schemes.compose"),
        "busy": ("schemes.apply_values", "semigroup.evolve", "roundoff.round_to_precision"),
    },
}


# Why each workload is in the benchmark (also the `why` in BENCHMARK.json).
WHY = {
    "stability_scan": "Most of a pass is schemes.power/compose (integer-line convolve, N up to 1024); "
                      "no step loop; layer map: round_to_precision and evolve idle",
    "step_sweep": "Most of a pass is schemes.apply_values in convergence and twin round-off step loops "
                  "(rounding stays stepwise); layer map: power and compose idle",
}


def _dts(first: float, count: int) -> list:
    return [first / 2**i for i in range(count)]


def sections(workload: str, seed: int) -> list:
    """(name, items, expectation) triples for one workload and seed."""
    rand = f"random_uniform({seed % 2**32})"
    if workload == "stability_scan":
        return [
            # The widest stencil: integer-line convolutions up to ~2 * n_max.
            ("stability ftcs-n1024", {"scheme": "ftcs", "grid_n": 1024, "r": [0.5], "t": 1.0}, STABILITY),
            # Both sides of the CFL threshold; r = 0.75 overflows and raises.
            ("stability ftcs-n256", {"scheme": "ftcs", "grid_n": 256, "r": [0.3, 0.5, 0.55, 0.75], "t": 1.0}, STABILITY),
            ("stability ftcs-odd-n383", {"scheme": "ftcs", "grid_n": 383, "r": [0.25], "t": 1.0}, STABILITY),
            ("stability be-n1024", {"scheme": "backward_euler", "grid_n": 1024, "r": [0.5, 4.0], "t": 0.05}, STABILITY),
            ("ubp_demo", {"k_range": "0:2000", "probes": "ones(3); harmonic(100)"}, UBP),
        ]
    if workload == "step_sweep":
        return [
            ("convergence ftcs-cfl", {"scheme": "ftcs", "probe": "sine(1)", "t": 1.0,
                                      "dts": [4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4, 1e-4], "path": "cfl"}, CONVERGES),
            ("convergence ftcs-r03", {"scheme": "ftcs", "probe": "sine(1)+sine(31)", "t": 1.0,
                                      "dts": _dts(1e-3, 3), "path": "fixed_r 0.3"}, CONVERGES),
            # Full-period stencil: every step takes the FFT apply path.
            ("convergence be-r4", {"scheme": "backward_euler", "probe": "sine(1)", "t": 1.0,
                                   "dts": _dts(4e-3, 3), "path": "fixed_r 4"}, CONVERGES),
            ("consistency ftcs-r05", {"scheme": "ftcs", "probe": "sine(1)", "r": 0.5,
                                      "dts": _dts(1e-3, 5), "ts": [0.0, 0.25, 0.5, 1.0]}, CONSISTENT),
            # Errors grow to ~1e226, under the 1e300 guard, so every step runs.
            ("convergence ftcs-r055", {"scheme": "ftcs", "probe": rand, "t": 1.0,
                                       "dts": _dts(1.4e-3, 3), "path": "fixed_r 0.55"}, DIVERGES),
            # Round-off sections: the same step loop, twice, plus rounding every step.
            ("roundoff ftcs-12bit", {"scheme": "ftcs", "probe": "sine(1)", "t": 1.0,
                                     "dts": _dts(4e-3, 5), "path": "cfl", "bits": 12}, ROUNDOFF_GROWS),
            ("roundoff ftcs-23bit", {"scheme": "ftcs", "probe": "sine(1)+sine(3)", "t": 1.0,
                                     "dts": _dts(4e-3, 5), "path": "cfl", "bits": 23}, ROUNDOFF_GROWS),
            # At 52 bits rounding is the identity: pure wasted work.
            ("roundoff ftcs-52bit", {"scheme": "ftcs", "probe": f"sine(1)+{rand}", "t": 1.0,
                                     "dts": _dts(4e-3, 4), "path": "cfl", "bits": 52}, ROUNDOFF_EXACT),
        ]
    raise ValueError(f"unknown workload: {workload!r}")


WORKLOADS = tuple(LAYER_MAP)


def _value(v) -> str:
    if isinstance(v, list):
        return ", ".join(repr(x) for x in v)
    return str(v)


def config_text(workload: str, seed: int) -> str:
    out = []
    for name, items, _ in sections(workload, seed):
        out.append(f"[{name}]")
        out.extend(f"{key} = {_value(v)}" for key, v in items.items())
        out.append("")
    return "\n".join(out)


def _path_grid(path: str, dt: float) -> int:
    """Grid size for dt on a `cfl` or `fixed_r R` path: floor(2 pi / dx(dt))."""
    toks = path.split()
    c = math.sqrt(2.0) if toks[0] == "cfl" else 1.0 / math.sqrt(float(toks[1]))
    return math.floor(TWO_PI / (c * dt**0.5))


def grid_updates(workload: str, seed: int) -> int:
    """Grid-point updates one pass performs, from the config alone."""
    total = 0
    for name, items, _ in sections(workload, seed):
        kind = name.split()[0]
        if kind == "stability":
            n = items["grid_n"]
            for r in items["r"]:
                dt = r * (TWO_PI / n) ** 2
                total += n * math.floor(items["t"] / dt + 1e-9)
        elif kind == "convergence":
            for dt in items["dts"]:
                total += _path_grid(items["path"], dt) * max(1, round(items["t"] / dt))
        elif kind == "consistency":
            for dt in items["dts"]:
                total += _path_grid(f"fixed_r {items['r']}", dt) * len(items["ts"])
        elif kind == "roundoff":
            for dt in items["dts"]:
                total += 2 * _path_grid(items["path"], dt) * max(1, round(items["t"] / dt))
    return total


def _rows(text: str) -> list:
    lines = text.splitlines()
    return [line.split(",") for line in lines[1:]]


# Config key whose values each give one CSV row, per section kind.
_ROW_KEY = {"stability": "r", "convergence": "dts", "consistency": "dts"}


def _summary_count(name: str, items: dict) -> int:
    """Lines one section writes to summary.txt: one per row of a stability
    or consistency section, one for any other section."""
    kind = name.split()[0]
    return len(items[_ROW_KEY[kind]]) if kind in ("stability", "consistency") else 1


def check_outputs(workload: str, seed: int, out_dir: Path) -> tuple:
    """Check one pass's outputs; returns (problems, csv_digest, csv_bytes)."""
    specs = sections(workload, seed)
    csvs = sorted(out_dir.glob("*.csv"), key=lambda p: int(p.stem.rsplit("_", 1)[1]))
    if len(csvs) != len(specs):
        return [f"expected {len(specs)} CSVs, found {len(csvs)}"], "", 0
    summary = (out_dir / "summary.txt").read_text().splitlines()
    if len(summary) != sum(_summary_count(name, items) for name, items, _ in specs):
        return [f"unexpected summary.txt length {len(summary)}"], "", 0
    digest = hashlib.sha256()
    csv_bytes = 0
    problems = []
    for (name, items, expect), path in zip(specs, csvs):
        body = path.read_bytes()
        digest.update(body)
        csv_bytes += len(body)
        lines = summary[: _summary_count(name, items)]
        summary = summary[len(lines):]
        rows = _rows(body.decode())
        row_key = _ROW_KEY.get(name.split()[0])
        if not rows or row_key and len(rows) != len(items[row_key]):
            bad = [f"{len(rows)} CSV rows"]
        else:
            bad = _check_section(items, expect, rows, lines)
        problems.extend(f"[{name}] {p}" for p in bad)
    return problems, digest.hexdigest(), csv_bytes


def _check_section(items: dict, expect: str, rows: list, summary: list) -> list:
    bad = []
    if expect == STABILITY:
        backward_euler = items["scheme"] == "backward_euler"
        for row, line in zip(rows, summary):
            r, bound, max_g = float(row[2]), float(row[4]), float(row[5])
            stable = "stable=True" in line
            if not max_g <= bound * (1 + 1e-12):
                bad.append(f"r={r}: max_abs_g {max_g} > bound_L {bound}")
            if (stable or backward_euler) and not bound <= 1 + 1e-12:
                bad.append(f"r={r}: bound_L {bound} > 1 on a stable row")
            if not backward_euler and stable != (r <= 0.5):
                bad.append(f"r={r}: stable={stable} contradicts the CFL threshold")
    elif expect == UBP:
        for row in rows:
            if float(row[1]) != float(row[0]):
                bad.append(f"k={row[0]}: op_norm {row[1]} != k")
    elif expect in (CONVERGES, DIVERGES):
        for row in rows:
            converged, err = row[7], float(row[6])
            if expect == CONVERGES and converged != "true":
                bad.append(f"dt={row[0]}: converged={converged}, expected true")
            if expect == DIVERGES and (converged != "false" or not err > 1):
                bad.append(f"dt={row[0]}: converged={converged} error={err}, expected divergence")
    elif expect == CONSISTENT:
        res = [float(row[6]) for row in rows]
        for coarse, fine in zip(res, res[1:]):
            if not 3.5 <= coarse / fine <= 4.5:
                bad.append(f"residual ratio {coarse / fine:.4g} outside [3.5, 4.5]")
    elif expect in (ROUNDOFF_GROWS, ROUNDOFF_EXACT):
        fit = summary[0].split(": ", 1)[1]
        if expect == ROUNDOFF_GROWS:
            if not fit.startswith("s=") or float(fit[2:]) < 0:
                bad.append(f"fit {fit!r}, expected s >= 0")
        else:
            if fit != "fit skipped":
                bad.append(f"fit {fit!r}, expected a skipped fit")
            if any(float(row[2]) != 0.0 for row in rows):
                bad.append("nonzero gap at 52 bits")
    return bad

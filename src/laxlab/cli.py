"""Experiment driver: config-file sweeps with CSV reports.

Config files are flat key=value text with one section per experiment,
parsed strictly: unknown section kinds or keys abort the run with a
diagnostic naming the offender.  Section names start with the experiment
kind, optionally followed by a label, e.g. ``[stability cfl-sweep]``.

Verdicts (stable/converged) live in the reports, never in the exit code;
a nonzero exit means the config was unusable.  CSV bodies are fully
deterministic for a fixed config and seed; timestamps appear only in
file names.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from pathlib import Path

from . import analysis, roundoff, ubp
from .errors import ConfigError, InvalidGridError, LaxlabError
from .grid import MAX_GRID_N, RefinementPath, TWO_PI, parse_probe, sample
from .semigroup import HeatSemigroup

__all__ = ["run", "main"]

_ANALYSIS_HEADER = "dt,dx,r,n_steps,bound_L,max_abs_g,error_final,converged\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _row(*values) -> str:
    return ",".join(_fmt(v) for v in values) + "\n"


def _floats(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_path(text: str) -> RefinementPath:
    toks = text.split()
    if toks[0] == "cfl":
        return RefinementPath.cfl_boundary()
    if toks[0] == "fixed_r" and len(toks) == 2:
        return RefinementPath.fixed_ratio(float(toks[1]))
    if toks[0] == "power" and len(toks) == 3:
        return RefinementPath.from_power(float(toks[1]), float(toks[2]))
    if toks[0] == "table" and len(toks) > 1:
        return RefinementPath.from_table(tok.split("=") for tok in toks[1:])
    raise ValueError(f"unparseable refinement path: {text!r}")


def _parse_k_range(text: str) -> range:
    """``a:b`` is k = a..b inclusive; a lone ``k`` is that one k.  The last k
    may not pass :data:`~laxlab.grid.MAX_GRID_N`, the cap of any grid."""
    lo, colon, hi = text.partition(":")
    top = int(hi if colon else lo)
    if top > MAX_GRID_N:
        raise ValueError(f"k = {top} past {MAX_GRID_N}")
    return range(int(lo), top + 1)


def _parse_sequence_probes(text: str) -> list:
    """A ``;``-separated list of ``ones(n)``, ``unit(k)`` and ``harmonic(m)``,
    each argument at most :data:`~laxlab.grid.MAX_GRID_N`."""
    probes = []
    for tok in filter(str.strip, text.split(";")):
        name, _, arg = tok.strip().partition("(")
        arg = int(arg.rstrip(")"))
        if arg > MAX_GRID_N:
            raise ValueError(f"{tok!r} past {MAX_GRID_N}")
        if name == "ones":
            probes.append(ubp.FiniteSequence({i: 1.0 for i in range(arg)}))
        elif name == "unit":
            probes.append(ubp.FiniteSequence.unit(arg))
        elif name == "harmonic":
            probes.append(ubp.cauchy_witness(arg))
        else:
            raise ValueError(f"unknown sequence probe: {tok!r}")
    return probes


def _positive(v) -> bool:
    v = v if isinstance(v, list) else [v]
    return bool(v) and all(0 < x < math.inf for x in v)


_SCHEME = (str, analysis.scheme_builder)  # raises ValueError for unknown names
_PROBE = (parse_probe, None)  # called with the base seed as well
_PATH = (_parse_path, None)
_POSITIVE = (float, _positive)
_POSITIVES = (_floats, _positive)

# The keys of each section kind: key -> (parse, admits[, default]).  parse
# turns the text into the value the runner reads; admits (None admits any
# parsed value) range-checks it.  A key with a default is optional.
_SCHEMA = {
    "stability": {
        "scheme": _SCHEME,
        "grid_n": (int, lambda v: 4 <= v <= MAX_GRID_N),
        "r": _POSITIVES,
        "t": _POSITIVE,
    },
    "consistency": {
        "scheme": _SCHEME,
        "probe": _PROBE,
        "r": _POSITIVE,
        "dts": _POSITIVES,
        "ts": (_floats, lambda v: bool(v) and all(0 <= x < math.inf for x in v)),
    },
    "convergence": {
        "scheme": _SCHEME,
        "probe": _PROBE,
        "t": _POSITIVE,
        "dts": _POSITIVES,
        "path": _PATH,
    },
    "roundoff": {
        "scheme": _SCHEME,
        "probe": _PROBE,
        "t": _POSITIVE,
        "dts": (_floats, lambda v: len(v) >= 4 and _positive(v)),
        "path": _PATH,
        "bits": (int, lambda v: 4 <= v <= 52),
    },
    "ubp_demo": {
        "k_range": (_parse_k_range, lambda v: bool(v) and v[0] >= 0),  # len() raises past 2**63 items
        "probes": (_parse_sequence_probes, lambda v: all(p.entries for p in v), []),
    },
}


def _validate(kind: str, section: str, items: dict, seed: int) -> dict:
    """Check a section's keys and values against ``_SCHEMA``; returns the
    values parsed, with the defaults of absent optional keys.

    ``seed`` is the base added to the seed of every ``random_uniform`` probe.
    """
    schema = _SCHEMA[kind]
    for key in items:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    typed = {}
    for key, (parse, admits, *default) in schema.items():
        if key not in items:
            if not default:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            typed[key] = default[0]
            continue
        text = items[key]
        try:
            typed[key] = parse(text, seed) if parse is parse_probe else parse(text)
            ok = admits is None or admits(typed[key])
        except (ValueError, IndexError):
            ok = False
        if not ok:
            raise ConfigError(f"bad value {text!r} for key {key!r} in section [{section}]")
    return typed


def _run_stability(items: dict, csv_lines: list, summary: list) -> str:
    scheme, grid_n, horizon = items["scheme"], items["grid_n"], items["t"]
    builder = analysis.scheme_builder(scheme)
    dx = TWO_PI / grid_n
    csv_lines.append(_ANALYSIS_HEADER)
    for r in items["r"]:
        dt = r * dx**2
        report = analysis.stability_check(builder(dt, dx, grid_n), horizon)
        csv_lines.append(_row(dt, dx, r, report.n_steps, report.bound_l, report.max_abs_g, None, None))
        summary.append(
            f"stability {scheme} r={r:g}: bound_L={report.bound_l:.6g} "
            f"stable={report.stable} max|g|={report.max_abs_g:.6g}"
        )
    return scheme


def _run_consistency(items: dict, csv_lines: list, summary: list) -> str:
    scheme = items["scheme"]
    ts = items["ts"]
    builder = analysis.scheme_builder(scheme)
    path = RefinementPath.fixed_ratio(items["r"])
    csv_lines.append(_ANALYSIS_HEADER)
    for dt in sorted(items["dts"], reverse=True):
        grid_n, dx = path.grid_for(dt)
        s = builder(dt, dx, grid_n)
        sg = HeatSemigroup(horizon_t=max(ts + [dt]) + dt, grid_n=grid_n)
        u = sample(items["probe"], grid_n)
        residuals = analysis.consistency_check(s, sg, u, ts)
        worst = max(res for _, res in residuals)
        symbol = analysis.von_neumann_check(s)
        csv_lines.append(_row(dt, dx, s.courant_ratio, 1, None, symbol.max_abs_g, worst, None))
        summary.append(f"consistency {scheme} dt={dt:g}: max residual {worst:.6g}")
    return scheme


def _run_convergence(items: dict, csv_lines: list, summary: list) -> str:
    scheme = items["scheme"]
    report = analysis.convergence_experiment(
        analysis.scheme_builder(scheme),
        items["path"],
        items["probe"],
        items["t"],
        items["dts"],
    )
    csv_lines.append(_ANALYSIS_HEADER)
    for cell in report.cells:
        r = cell.dt / cell.dx**2
        csv_lines.append(
            _row(cell.dt, cell.dx, r, cell.n_steps, None, cell.max_abs_g, cell.error, report.converged)
        )
    order = "n/a" if report.observed_order is None else f"{report.observed_order:.3g}"
    summary.append(f"convergence {scheme}: converged={report.converged} observed_order={order}")
    return scheme


def _run_roundoff(items: dict, csv_lines: list, summary: list) -> str:
    scheme = items["scheme"]
    report = roundoff.halving_sweep(
        analysis.scheme_builder(scheme),
        items["path"],
        items["probe"],
        items["t"],
        roundoff.PrecisionSpec(significand_bits=items["bits"]),
        items["dts"],
    )
    csv_lines.append("n,t,gap,bits,dt,dx,scheme\n")
    for growth in report.growth_reports:
        for n, t, gap in growth.samples:
            csv_lines.append(_row(n, t, gap, items["bits"], growth.dt, growth.dx, scheme))
    s_txt = "fit skipped" if report.fit_skipped else f"s={report.exponent_s:.3g}"
    summary.append(f"roundoff {scheme} bits={items['bits']}: {s_txt}")
    return scheme


def _run_ubp_demo(items: dict, csv_lines: list, summary: list) -> str:
    k_range, probes = items["k_range"], items["probes"]
    csv_lines.append("k,op_norm,probe_id,probe_bound\n")
    for row in ubp.ubp_violation_demo(k_range, probes):
        for pid, bound in row.probe_bounds or [(None, None)]:
            csv_lines.append(_row(row.k, row.op_norm, pid, bound))
    summary.append(
        f"ubp_demo: k up to {max(k_range)}, op norm unbounded, "
        f"{len(probes)} probe(s) with fixed pointwise bounds"
    )
    return "tk"


_RUNNERS = {
    "stability": _run_stability,
    "consistency": _run_consistency,
    "convergence": _run_convergence,
    "roundoff": _run_roundoff,
    "ubp_demo": _run_ubp_demo,
}


def run(config_path, out_dir, seed=0) -> int:
    """Execute every experiment section of a config file, in section order.

    ``seed`` is the base seed of random probes:
    ``random_uniform(k)`` samples with seed ``k + seed``.  ``summary.txt``
    is written once, when the run ends; a section that fails leaves the
    summary of the sections before it.  Returns 0 on completion;
    raises :class:`ConfigError` on malformed input, and on values that
    together choose an unusable grid (the :func:`main` wrapper converts
    that to exit code 2).
    """
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(config_path.read_text(), source=str(config_path))
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from exc

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    summary: list = []
    finished = 0  # summary lines of the sections that finished

    try:
        for index, section in enumerate(parser.sections()):
            kind = section.split()[0]
            if kind not in _RUNNERS:
                raise ConfigError(f"unknown experiment kind in section [{section}]")
            items = _validate(kind, section, dict(parser.items(section)), seed)
            csv_lines: list = []
            try:
                scheme = _RUNNERS[kind](items, csv_lines, summary)
            except (ConfigError, InvalidGridError) as exc:
                raise ConfigError(f"{exc} in section [{section}]") from exc
            name = f"{kind}_{scheme}_{stamp}_{index:02d}.csv"
            (out / name).write_text("".join(csv_lines))
            finished = len(summary)
    finally:
        (out / "summary.txt").write_text("".join(line + "\n" for line in summary[:finished]))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="laxlab", description="Run finite-difference stability/convergence experiments."
    )
    ap.add_argument("--config", required=True, help="experiment config file")
    ap.add_argument("--out", default="out", help="output directory for CSV reports")
    ap.add_argument("--seed", type=int, default=0, help="base seed for random probes")
    args = ap.parse_args(argv)
    try:
        return run(args.config, args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"laxlab: config error: {exc}", file=sys.stderr)
        return 2
    except LaxlabError as exc:
        print(f"laxlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

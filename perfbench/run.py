"""laxlab benchmark: warm passes of ``laxlab.cli.run`` on generated configs.

Run from the repository root:

    python3 perfbench/run.py --workload stability_scan --seed 1 --seconds 50 --trace 0

One run is one process on one thread (BLAS and OpenMP pools pinned to 1).
It writes the workload's config (generated from ``--seed``), runs one
warm-up pass, then repeats passes, each into a fresh output directory,
for ``--seconds`` and at least ``MIN_PASSES`` passes.  Every pass's CSVs
and summary are checked against the framework's invariants
(``workloads.check_outputs``) and against the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics from the spans
(``tracing.Tracer``), the tracing overhead, and the import profile.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full result set with
provenance goes to ``.bench_out/``.  The exit code is 1 if any check
failed and 2 if laxlab's sources are missing.
"""
from __future__ import annotations

import os

# Before numpy loads, so its thread pools start with one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TAIL_BEYOND = 10               # wall_tail_s has this many passes above it
MIN_PASSES = TAIL_BEYOND + 1   # per timed kind, so the tail percentile exists
MIN_TRACED = 3                 # traced and untraced passes in a traced run
SETUP_RUNS = 3                 # fresh interpreters per run
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import laxlab.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = ("wall_s", "wall_tail_s", "grid_updates_per_s", "setup_s", "peak_rss_mb")

# Per-layer metrics printed with --trace 1: (name, unit).  Layers the layer
# map expects idle somewhere appear as counts only; their times are in the
# printed layer table and the result file.
PER_LAYER = (
    ("schemes.power.calls", "count"),
    ("schemes.power.raised", "count"),
    ("schemes.power.coeffs_out", "count"),
    ("schemes.compose.calls", "count"),
    ("schemes.compose.raised", "count"),
    ("schemes.compose.coeffs_out", "count"),
    ("schemes.apply_values.calls", "count"),
    ("schemes.apply_values.self_s", "s"),
    ("schemes.self_s", "s"),
    ("analysis.operator_norm.calls", "count"),
    ("analysis.von_neumann_check.calls", "count"),
    ("analysis.von_neumann_check.total_s", "s"),
    ("analysis.von_neumann_symbol.calls", "count"),
    ("analysis.self_s", "s"),
    ("semigroup.evolve.calls", "count"),
    ("roundoff.round_to_precision.calls", "count"),
    ("roundoff.round_to_precision.noop_frac", "fraction"),
    ("grid.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("grid.import_s", "s"),
    ("cli.import_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )


def setup_times(runs: int) -> list:
    """Seconds a fresh interpreter takes to import laxlab.cli.

    Call after :func:`import_cli`, which fills the file cache and writes
    laxlab's bytecode, so the first fresh import is not an outlier.
    """
    return [float(_python("-c", IMPORT_PROBE).stdout) for _ in range(runs)]


def import_profile(runs: int) -> dict:
    """Median cumulative import seconds of laxlab.grid and laxlab.cli (-X importtime)."""
    found = {"laxlab.grid": [], "laxlab.cli": []}
    for _ in range(runs):
        err = _python("-X", "importtime", "-c", "import laxlab.cli").stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {
        "grid.import_s": statistics.median(found["laxlab.grid"]),
        "cli.import_s": statistics.median(found["laxlab.cli"]),
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((SRC / "laxlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "laxlab_commit": commit,
        "laxlab_src_sha256": src.hexdigest(),
        "seed": seed,
    }


def import_cli():
    """laxlab.cli from this checkout's sources, or None if they are missing."""
    if not (SRC / "laxlab" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import laxlab.cli

    if Path(laxlab.cli.__file__).resolve().parent != SRC / "laxlab":
        return None
    return laxlab.cli


def run_pass(cli, cfg: Path, workload: str, seed: int, work: Path) -> dict:
    """One pass into a fresh directory; wall time covers ``cli.run`` only."""
    out = Path(tempfile.mkdtemp(dir=work))
    try:
        t0 = time.perf_counter()
        cli.run(cfg, out)
        wall = time.perf_counter() - t0
        problems, digest, csv_bytes = workloads.check_outputs(workload, seed, out)
    except Exception as exc:  # a pass that raises is a failed pass, not a crash
        return {"wall": None, "problems": [f"raised {type(exc).__name__}: {exc}"],
                "digest": "", "csv_bytes": 0}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"wall": wall, "problems": problems, "digest": digest, "csv_bytes": csv_bytes}


def measure(cli, workload: str, seed: int, seconds: float, tracer=None,
            min_passes: int = MIN_PASSES, work: Path = OUT) -> dict:
    """Warm-up pass, then timed passes for ``seconds`` and at least ``min_passes``.

    With a tracer, passes alternate untraced and traced, ``min_passes`` each.
    """
    work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work, prefix="work-"))
    try:
        cfg = work / f"{workload}-{seed}.cfg"
        cfg.write_text(workloads.config_text(workload, seed))
        passes = [dict(run_pass(cli, cfg, workload, seed, work), traced=False, warmup=True)]
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 0
            if traced:
                tracer.install(sum(p["traced"] for p in passes))
            try:
                result = run_pass(cli, cfg, workload, seed, work)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(dict(result, traced=traced, warmup=False))
            walls = [p["wall"] for p in passes[1:] if p["wall"] is not None]
            kinds = (False, True) if tracer is not None else (False,)
            enough = all(
                sum(p["traced"] == k for p in passes[1:]) >= min_passes for k in kinds
            )
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls) if walls else 0.0
            if enough and (tracer is None or traced) and elapsed + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    first = passes[0]["digest"]
    for p in passes:
        if p["wall"] is not None and p["digest"] != first:
            p["problems"].append("CSV bodies differ from the first pass")
    return {"passes": passes, "elapsed_s": elapsed}


def _walls(passes: list, traced: bool) -> list:
    return [p["wall"] for p in passes if not p["warmup"] and p["traced"] == traced
            and p["wall"] is not None]


def tail(walls: list) -> tuple:
    """(value, rank): the pass time with TAIL_BEYOND passes above it, and its
    1-based rank, so it is the 100 * rank / len(walls) percentile."""
    ordered = sorted(walls)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], k + 1


def end_to_end(run: dict, workload: str, seed: int, setup: list) -> tuple:
    """({metric: (value, unit)}, report lines) of an untraced run."""
    walls = _walls(run["passes"], traced=False)
    wall = statistics.median(walls)
    tail_value, rank = tail(walls)
    updates = workloads.grid_updates(workload, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "wall_tail_s": (tail_value, "s"),
        "grid_updates_per_s": (updates / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"wall_s {wall:.6g} s: median of {len(walls)} warm passes over {run['elapsed_s']:.1f} s",
        f"wall_tail_s {tail_value:.6g} s: p{100 * rank / len(walls):.0f}, pass {rank} of "
        f"{len(walls)} by time, {len(walls) - rank} beyond it",
        f"grid_updates_per_s {updates / wall:.6g} 1/s: {updates} updates per pass",
        f"setup_s {statistics.median(setup):.6g} s: median of {len(setup)} fresh imports "
        f"of laxlab.cli ({', '.join(f'{t:.4f}' for t in setup)})",
        f"peak_rss_mb {rss_mb:.6g} MB",
    ]
    return metrics, lines


def per_layer(run: dict, tracer, workload: str, imports: dict) -> tuple:
    """({metric: (value, unit)}, report lines, layer-map problems) of a traced run."""
    layers = tracer.per_pass()
    passes = run["passes"]
    traced, plain = _walls(passes, traced=True), _walls(passes, traced=False)
    values = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in layers and stat in layers[layer]:
            values[name] = statistics.median(layers[layer][stat])
    rounding = layers["roundoff.round_to_precision"]
    calls = sum(rounding["calls"])
    values["roundoff.round_to_precision.noop_frac"] = sum(rounding["noop"]) / calls if calls else 0.0
    for module in ("schemes", "analysis", "grid"):
        per = [sum(v) for v in zip(*(
            layers[n]["self_s"] for n in layers if n.startswith(module + ".")
        ))]
        values[f"{module}.self_s"] = statistics.median(per)
    values["cli.csv_bytes"] = statistics.median([p["csv_bytes"] for p in passes if p["wall"] is not None])
    values.update(imports)
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    problems = []
    for name in workloads.LAYER_MAP[workload]["idle"]:
        if any(layers[name]["calls"]):
            problems.append(f"layer map: {name} called on {workload}, expected idle")
    for name in workloads.LAYER_MAP[workload]["busy"]:
        if not all(layers[name]["calls"]):
            problems.append(f"layer map: {name} idle on {workload}, expected busy")

    overhead = values["trace.overhead_s"]
    lines = [
        f"tracing overhead {overhead:+.4f} s ({100 * overhead / values['trace.untraced_wall_s']:+.1f}%): "
        f"median traced pass {values['trace.wall_s']:.4f} s over {len(traced)}, "
        f"untraced {values['trace.untraced_wall_s']:.4f} s over {len(plain)}",
        f"{'layer':36s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}  (medians per traced pass)",
    ]
    for name in sorted(layers, key=lambda n: -statistics.median(layers[n]["self_s"])):
        stats = layers[name]
        if any(stats["calls"]):
            extra = "".join(f" {c}={statistics.median(stats[c]):g}" for c in ("raised", "coeffs_out", "noop")
                            if c in stats)
            lines.append(f"{name:36s} {statistics.median(stats['calls']):9.0f} "
                         f"{statistics.median(stats['self_s']):10.5f} {statistics.median(stats['total_s']):10.5f}{extra}")
    return metrics, lines, problems, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    if cli is None:
        print(f"perfbench: laxlab sources not found under {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer

    prov = provenance(args.seed)
    tracer = Tracer() if args.trace else None
    if args.trace:
        imports = import_profile(SETUP_RUNS)
        run = measure(cli, args.workload, args.seed, args.seconds, tracer, min_passes=MIN_TRACED)
    else:
        setup = setup_times(SETUP_RUNS)
        run = measure(cli, args.workload, args.seed, args.seconds)
    passes = run["passes"]
    metrics, lines, problems, layers = {}, [], [], None
    if not all(_walls(passes, traced=k) for k in {False, bool(args.trace)}):
        problems.append("no timed pass completed")
    elif args.trace:
        metrics, lines, problems, layers = per_layer(run, tracer, args.workload, imports)
    else:
        metrics, lines = end_to_end(run, args.workload, args.seed, setup)

    failed = sum(bool(p["problems"]) for p in passes)
    problems += [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    lines.append(f"failed_frac {failed / len(passes):.6g} fraction: {failed} of {len(passes)} passes "
                 "(warm-up included) raised or failed the output checks")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": prov,
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": lines,
        "problems": problems,
        "layers": layers,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")

    print("provenance " + json.dumps(prov))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    for line in lines + problems[:20]:
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

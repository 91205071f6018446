"""Smoke test of the benchmark in short mode.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer


@pytest.fixture(scope="module")
def cli():
    module = run.import_cli()
    assert module is not None
    return module


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_checks_and_self_times_add_up(cli, workload, tmp_path):
    tracer = Tracer()
    result = run.measure(cli, workload, seed=5, seconds=0.0, tracer=tracer,
                         min_passes=1, work=tmp_path)
    passes = result["passes"]
    assert [p["problems"] for p in passes] == [[]] * len(passes)
    imports = {"grid.import_s": 0.0, "cli.import_s": 0.0}
    metrics, _, problems, layers = run.per_layer(result, tracer, workload, imports)
    assert problems == []
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    # The spans of a traced pass cover it: self times sum to the pass wall
    # time, short of it only by the outermost wrapper's own cost.
    slack = max(metrics["trace.overhead_s"][0], 0.0) + 1e-3
    for i, p in enumerate(p for p in passes if p["traced"]):
        total_self = sum(layer["self_s"][i] for layer in layers.values())
        assert 0.0 <= p["wall"] - total_self <= slack


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_checks_reject_a_wrong_verdict(cli, tmp_path):
    cfg = tmp_path / "step.cfg"
    cfg.write_text(workloads.config_text("step_sweep", 5))
    cli.run(cfg, tmp_path / "out")
    assert workloads.check_outputs("step_sweep", 5, tmp_path / "out")[0] == []
    summary = tmp_path / "out" / "summary.txt"
    summary.write_text(summary.read_text().replace("fit skipped", "s=0.1"))
    problems = workloads.check_outputs("step_sweep", 5, tmp_path / "out")[0]
    assert len(problems) == 1 and "skipped fit" in problems[0]


def test_import_timings_are_positive():
    assert all(t > 0 for t in run.setup_times(1))
    assert all(t > 0 for t in run.import_profile(1).values())


def test_exits_nonzero_without_laxlab_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "step_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""

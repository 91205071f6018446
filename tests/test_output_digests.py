"""Each shipped config's outputs against the sha256 recorded in
``output_digests.json``: the CSV bodies in section order, then
``summary.txt``, of ``laxlab --config <config> --seed 7``.

The configs are ``configs/*.cfg`` and the benchmark's two workload configs,
generated by ``perfbench/workloads.py`` ``config_text(workload, 7)`` and
recorded as ``workload_<name>``.  The digits depend on numpy's FFT and on
the width of ``np.longdouble``, so a test skips when either differs from
what the file records.  A change that moves output digits on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_output_digests.py``
and says which outputs moved and why.
"""
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from laxlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("output_digests.json")
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
SEED = 7


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
CASES = [c.stem for c in CONFIGS] + [f"workload_{w}" for w in WORKLOADS.WORKLOADS]


def _environment() -> dict:
    return {"numpy": np.__version__, "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}


def output_digest(name: str, out_dir: Path) -> str:
    """sha256 of one run's CSV bodies in section order, then its summary."""
    out_dir.mkdir(parents=True)
    if name.startswith("workload_"):
        cfg = out_dir / f"{name}.cfg"
        cfg.write_text(WORKLOADS.config_text(name.removeprefix("workload_"), SEED))
    else:
        cfg = ROOT / "configs" / f"{name}.cfg"
    run(cfg, out_dir / "out", seed=SEED)
    digest = hashlib.sha256()
    for path in sorted((out_dir / "out").glob("*.csv"), key=lambda p: int(p.stem.rsplit("_", 1)[1])):
        digest.update(path.read_bytes())
    digest.update((out_dir / "out" / "summary.txt").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_recorded_digest(name, tmp_path):
    record = json.loads(RECORD.read_text())
    for key, value in _environment().items():
        if record[key] != value:
            pytest.skip(f"digests recorded at {key} = {record[key]}, this run has {value}")
    assert output_digest(name, tmp_path / name) == record["digests"][name]


def test_every_config_is_recorded():
    assert sorted(json.loads(RECORD.read_text())["digests"]) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digest(name, Path(tmp) / name) for name in CASES}
    RECORD.write_text(json.dumps({"seed": SEED, **_environment(), "digests": digests}, indent=2) + "\n")

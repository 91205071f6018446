"""Each shipped config's outputs against the sha256 recorded in
``output_digests.json``: the CSV bodies in section order, then
``summary.txt``, of ``laxlab --config configs/<name>.cfg --seed 7``.

The digits depend on numpy's FFT and on the width of ``np.longdouble``, so
a test skips when either differs from what the file records.  A change
that moves output digits on purpose regenerates the file with
``PYTHONPATH=src python tests/test_output_digests.py`` and says which
outputs moved and why.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from laxlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("output_digests.json")
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
SEED = 7


def _environment() -> dict:
    return {"numpy": np.__version__, "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}


def output_digest(cfg: Path, out_dir: Path) -> str:
    """sha256 of one run's CSV bodies in section order, then its summary."""
    run(cfg, out_dir, seed=SEED)
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv"), key=lambda p: int(p.stem.rsplit("_", 1)[1])):
        digest.update(path.read_bytes())
    digest.update((out_dir / "summary.txt").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_recorded_digest(cfg, tmp_path):
    record = json.loads(RECORD.read_text())
    for key, value in _environment().items():
        if record[key] != value:
            pytest.skip(f"digests recorded at {key} = {record[key]}, this run has {value}")
    assert output_digest(cfg, tmp_path) == record["digests"][cfg.stem]


def test_every_config_is_recorded():
    assert sorted(json.loads(RECORD.read_text())["digests"]) == [c.stem for c in CONFIGS]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {cfg.stem: output_digest(cfg, Path(tmp) / cfg.stem) for cfg in CONFIGS}
    RECORD.write_text(json.dumps({"seed": SEED, **_environment(), "digests": digests}, indent=2) + "\n")

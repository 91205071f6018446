import math
import subprocess
import sys
from pathlib import Path

import pytest

import laxlab
from laxlab.cli import _RUNNERS, _SCHEMA, _validate, main, run
from laxlab.errors import ConfigError

STABILITY_CFG = """\
[stability]
scheme = ftcs
grid_n = 64
r = 0.5
t = 1.0
"""

UBP_CFG = """\
[ubp_demo]
k_range = 0:20
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def csv_files(out_dir, kind):
    return sorted(out_dir.glob(f"{kind}_*.csv"))


class TestRun:
    def test_stability_report_bound_one(self, tmp_path):
        cfg = write_cfg(tmp_path, STABILITY_CFG)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        (csv,) = csv_files(out, "stability")
        header, row = csv.read_text().strip().splitlines()
        assert header == "dt,dx,r,n_steps,bound_L,max_abs_g,error_final,converged"
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["bound_L"]) == pytest.approx(1.0, abs=1e-12)
        assert float(fields["max_abs_g"]) == pytest.approx(1.0, abs=1e-12)
        assert (out / "summary.txt").exists()

    def test_ubp_demo_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path, UBP_CFG)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        (csv,) = csv_files(out, "ubp_demo")
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 22  # header plus k = 0..20

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = write_cfg(tmp_path, STABILITY_CFG.replace("scheme", "shceme"))
        with pytest.raises(ConfigError, match="shceme"):
            run(cfg, tmp_path / "out")

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[telepathy]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="telepathy"):
            run(cfg, tmp_path / "out")

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "[stability]\nscheme = ftcs\n")
        with pytest.raises(ConfigError, match="grid_n|r|t"):
            run(cfg, tmp_path / "out")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            run(tmp_path / "nope.cfg", tmp_path / "out")

    def test_convergence_and_roundoff_sections(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """\
[convergence]
scheme = ftcs
probe = sine(1)
t = 1.0
dts = 1e-2, 5e-3, 2.5e-3
path = cfl

[roundoff]
scheme = ftcs
probe = sine(1)
t = 0.5
dts = 2e-2, 1e-2, 5e-3, 2.5e-3
path = cfl
bits = 12
""",
        )
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        (conv,) = csv_files(out, "convergence")
        rows = conv.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith("true") for row in rows)
        (ro,) = csv_files(out, "roundoff")
        assert ro.read_text().startswith("n,t,gap,bits,dt,dx,scheme\n")

    def test_reruns_byte_identical_bodies(self, tmp_path):
        cfg = write_cfg(tmp_path, STABILITY_CFG + "\n" + UBP_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(cfg, out_a)
        run(cfg, out_b)
        bodies_a = sorted(p.read_text() for p in out_a.glob("*.csv"))
        bodies_b = sorted(p.read_text() for p in out_b.glob("*.csv"))
        assert bodies_a == bodies_b
        assert (out_a / "summary.txt").read_text() == (out_b / "summary.txt").read_text()

    def test_failing_section_keeps_earlier_summary(self, tmp_path):
        short = stability_cfg_with("t", "1e-6").replace("[stability]", "[stability short]")
        cfg = write_cfg(tmp_path, UBP_CFG + "\n" + short)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        run(write_cfg(tmp_path, UBP_CFG, "first.cfg"), tmp_path / "first")
        assert (out / "summary.txt").read_text() == (tmp_path / "first" / "summary.txt").read_text()

    def test_successful_run_writes_summary_once(self, tmp_path, monkeypatch):
        written = []
        write_text = Path.write_text

        def counting(path, *args, **kwargs):
            written.append(path.name)
            return write_text(path, *args, **kwargs)

        cfg = write_cfg(tmp_path, STABILITY_CFG + "\n" + UBP_CFG + "\n" + STABILITY_CFG.replace(
            "[stability]", "[stability again]"))
        monkeypatch.setattr(Path, "write_text", counting)
        assert run(cfg, tmp_path / "out") == 0
        assert written.count("summary.txt") == 1
        assert len(written) == 4  # three CSVs and the summary
        assert len((tmp_path / "out" / "summary.txt").read_text().splitlines()) == 3

    def test_one_von_neumann_check_per_stability_row(self, tmp_path, monkeypatch):
        # max_abs_g comes from the check stability_check runs to pick its path.
        from laxlab import analysis

        calls = []
        check = analysis.von_neumann_check

        def counting(s):
            calls.append(s.courant_ratio)
            return check(s)

        monkeypatch.setattr(analysis, "von_neumann_check", counting)
        cfg = write_cfg(tmp_path, STABILITY_CFG.replace("r = 0.5", "r = 0.3, 0.5, 0.75"))
        assert run(cfg, tmp_path / "out") == 0
        assert len(calls) == 3
        (csv,) = csv_files(tmp_path / "out", "stability")
        max_g = [float(row.split(",")[5]) for row in csv.read_text().splitlines()[1:]]
        assert max_g == pytest.approx([1.0, 1.0, 2.0], abs=1e-12)

    def test_seed_is_the_base_of_random_probes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[roundoff]\nscheme = ftcs\nprobe = random_uniform(1)\nt = 0.05\n"
            "dts = 2e-2, 1e-2, 5e-3, 2.5e-3\npath = cfl\nbits = 12\n",
        )

        def body(seed, out):
            assert main(["--config", str(cfg), "--out", str(tmp_path / out), "--seed", seed]) == 0
            (csv,) = csv_files(tmp_path / out, "roundoff")
            return csv.read_text()

        first = body("1", "a")
        assert body("1", "b") == first
        assert body("2", "c") != first


BAD_VALUES = [
    ("scheme", "crank"), ("grid_n", "abc"), ("grid_n", "100000000"), ("r", "-0.3"), ("t", "0"),
]


def stability_cfg_with(key, value):
    """STABILITY_CFG with one key's value replaced."""
    return "".join(
        f"{key} = {value}\n" if line.startswith(f"{key} = ") else line + "\n"
        for line in STABILITY_CFG.splitlines()
    )


class TestBadValues:
    @pytest.mark.parametrize("key, bad", BAD_VALUES)
    def test_stability_value_names_section_and_key(self, tmp_path, key, bad):
        cfg = write_cfg(tmp_path, stability_cfg_with(key, bad))
        with pytest.raises(ConfigError, match=rf"{bad!r} for key {key!r} in section \[stability\]"):
            run(cfg, tmp_path / "out")

    @pytest.mark.parametrize("key, bad", BAD_VALUES)
    def test_main_exits_2_without_traceback(self, tmp_path, capsys, key, bad):
        cfg = write_cfg(tmp_path, stability_cfg_with(key, bad))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "[stability]" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, message",
        [
            ("[convergence]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2, 0\npath = cfl\n",
             "bad value"),
            ("[roundoff]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2\npath = cfl\nbits = 12\n",
             "bad value"),
            ("[roundoff]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2 5e-3 2e-3 1e-3\n"
             "path = cfl\nbits = 60\n", "bad value"),
            ("[convergence]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2\npath = fixed_r x\n",
             "bad value"),
            ("[consistency]\nscheme = ftcs\nprobe = sine(1)\nr = 0.5\ndts = 1e-3\nts = -1\n",
             "bad value"),
            ("[convergence]\nscheme = ftcs\nprobe = random_uniform(-1)\nt = 1\ndts = 1e-2\npath = cfl\n",
             "bad value"),
            ("[convergence]\nscheme = ftcs\nprobe = 1e309*sine(1)\nt = 1\ndts = 1e-2\npath = cfl\n",
             "bad value '1e309\\*sine\\(1\\)' for key 'probe'"),
            ("[convergence]\nscheme = ftcs\nprobe = constant(1e999)\nt = 1\ndts = 1e-2\npath = cfl\n",
             "bad value 'constant\\(1e999\\)' for key 'probe'"),
            ("[convergence]\nscheme = ftcs\nprobe = 1e308*sine(1)+1e308*cosine(1)\nt = 0.1\n"
             "dts = 4e-3, 2e-3, 1e-3\npath = fixed_r 0.496\n", "bad value '1e308\\*sine.*' for key 'probe'"),
            ("[ubp_demo]\nk_range = 0:abc\n", "bad value '0:abc' for key 'k_range'"),
            ("[ubp_demo]\nk_range = 5:2\n", "bad value '5:2' for key 'k_range'"),
            ("[ubp_demo]\nk_range = -3\n", "bad value '-3' for key 'k_range'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = ones(x)\n", "bad value 'ones\\(x\\)' for key 'probes'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = unit(-1)\n", "bad value 'unit\\(-1\\)' for key 'probes'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = ones(-1)\n", "bad value 'ones\\(-1\\)' for key 'probes'"),
            ("[ubp_demo]\nk_range = 0:5\nk_max = 5\n", "unknown key 'k_max'"),
            # An index past MAX_GRID_N = 65536 is a bad value, rejected before
            # any range or probe is built.
            ("[ubp_demo]\nk_range = 0:1000000\n", "bad value '0:1000000' for key 'k_range'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = ones(3000000)\n",
             "bad value 'ones\\(3000000\\)' for key 'probes'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = unit(100000000)\n",
             "bad value 'unit\\(100000000\\)' for key 'probes'"),
            (f"[ubp_demo]\nk_range = 0:5\nprobes = unit({10**309})\n",
             "bad value 'unit\\(10{309}\\)' for key 'probes'"),
            (f"[ubp_demo]\nk_range = {10**309}\n", "bad value '10{309}' for key 'k_range'"),
            (f"[ubp_demo]\nk_range = -{10**19}:5\n", "bad value '-10{19}:5' for key 'k_range'"),
        ],
        ids=[
            "zero-dt", "three-dts-short", "bits-60", "path-ratio-x", "negative-ts", "negative-seed",
            "infinite-amplitude", "infinite-constant", "amplitudes-past-overflow-limit",
            "k-range-abc", "k-range-reversed", "k-range-negative", "probes-ones-x", "probes-unit-negative",
            "probes-ones-negative", "k-max", "k-range-past-cap", "probes-ones-past-cap",
            "probes-unit-past-cap", "probes-unit-1e309", "k-range-1e309", "k-range-start-past-ssize",
        ],
    )
    def test_other_bad_values_raise_config_error(self, tmp_path, section, message):
        with pytest.raises(ConfigError, match=message):
            run(write_cfg(tmp_path, section), tmp_path / "out")

    def test_stability_t_shorter_than_one_step_exits_2(self, tmp_path, capsys):
        # Each value is in range; only together (r*dx^2 = 4.8e-3 > t) are they unusable.
        cfg = write_cfg(tmp_path, stability_cfg_with("t", "1e-6"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "t = 1e-06" in err and "[stability]" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "r, message",
        [("1e-310", "too many steps"), ("1e-320", "too many steps"), ("1e-323", "dt, dx must be positive")],
        ids=["1e-310", "1e-320", "1e-323"],
    )
    def test_stability_step_count_past_any_float_exits_2(self, tmp_path, capsys, r, message):
        # r*dx^2 is a subnormal (so t/dt overflows) or underflows to 0.
        cfg = write_cfg(tmp_path, stability_cfg_with("r", r))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "[stability]" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, cause",
        [
            ("[convergence coarse]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2\n"
             "path = power 100 0.5\n", "too coarse"),
            ("[convergence short-table]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2, 5e-3\n"
             "path = table 1e-2=0.5\n", "not in refinement table"),
            ("[consistency broadband]\nscheme = ftcs\nprobe = random_uniform(1)\nr = 0.5\n"
             "dts = 1e-3\nts = 0.0\n", "band-limited"),
            # Past MAX_GRID_N points: N ~ 4e155, a target that underflows to 0,
            # and one whose L/target overflows.
            ("[convergence fine-cfl]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-310\n"
             "path = cfl\n", "too fine"),
            ("[roundoff fine-r05]\nscheme = ftcs\nprobe = sine(1)\nt = 1\n"
             "dts = 1e-310, 1e-2, 5e-3, 2.5e-3\npath = fixed_r 0.5\nbits = 12\n", "too fine"),
            ("[convergence underflow]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-4\n"
             "path = power 1 100\n", "too fine"),
            ("[convergence overflow]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-3\n"
             "path = power 1e-300 3\n", "too fine"),
            # Round-off twins past MAX_UPDATES: ~1.2e12 updates (hours of
            # stepping), and a step count past any float.
            ("[roundoff long-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e6\n"
             "dts = 4e-3, 2e-3, 1e-3, 5e-4\npath = cfl\nbits = 12\n", "updates"),
            ("[roundoff huge-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e308\n"
             "dts = 4e-3, 2e-3, 1e-3, 5e-4\npath = cfl\nbits = 12\n", "updates"),
            ("[convergence huge-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e308\n"
             "dts = 4e-3, 2e-3, 1e-3\npath = cfl\n", "too many steps"),
            # One cell that fails von Neumann (N = 70, r ~ 0.50001) and must
            # step 2.48e6 times: 1.74e8 updates, past MAX_UPDATES.
            ("[convergence unstable-long-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e4\n"
             "dts = 0.004028497\npath = table 0.004028497=0.08975979010256552\n", "updates"),
            # r = 1e308: the FTCS side coefficient r overflows to inf.
            ("[stability ftcs-r-past-max]\nscheme = ftcs\ngrid_n = 64\nr = 1e308\nt = 4\n",
             "coefficients must be finite"),
            # dx = 2 * 64**65536 is past any float: an infinite target.
            ("[convergence power-overflows]\nscheme = ftcs\nprobe = sine(1)\nt = 3\ndts = 64\n"
             "path = power 2 65536\n", "too coarse"),
        ],
        ids=[
            "path-too-coarse", "table-lacks-dt", "probe-not-band-limited", "cfl-past-max-grid",
            "fixed-r-past-max-grid", "target-underflows", "n-overflows", "twins-past-budget",
            "twin-steps-past-any-float", "convergence-steps-past-any-float",
            "unstable-cells-past-budget", "ftcs-coefficient-overflows", "path-target-overflows",
        ],
    )
    def test_unusable_grid_exits_2(self, tmp_path, capsys, section, cause):
        # Each value is in range; only together do they choose an unusable grid.
        cfg = write_cfg(tmp_path, section)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert cause in err and section.split("\n")[0] in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, verdict",
        [
            # Every eigenvalue but mode 0's overflows to inf: the mean projection.
            ("[stability be-r-past-max]\nscheme = backward_euler\ngrid_n = 64\nr = 1e308\nt = 1e307\n",
             "bound_L=1 stable=True"),
            # k^2 t overflows: exp(-inf) = 0 damps every mode but k = 0.
            ("[consistency late]\nscheme = ftcs\nprobe = sine(1)\nr = 0.5\ndts = 1e-3\nts = 1e308\n",
             "max residual 0"),
            # Row 0 of the unstable twins overflows between sample points.
            ("[roundoff r4]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 4e-3, 2e-3, 1e-3, 5e-4\n"
             "path = fixed_r 4\nbits = 12\n", "fit skipped"),
            # The coefficients overflow inside the fold of a composition.
            ("[stability n5]\nscheme = ftcs\ngrid_n = 5\nr = 2\nt = 1.7e308\n", "bound_L=inf stable=False"),
            # At r = 3e12 one checked step of a cell overflows on its way past OVERFLOW_LIMIT.
            ("[convergence r3e12]\nscheme = ftcs\nprobe = sine(1)\nt = 1e8\ndts = 1e6, 5e5, 2.5e5\n"
             "path = fixed_r 3e12\n", "converged=False"),
        ],
        ids=["backward-euler-r-past-max", "consistency-t-past-max", "twins-overflow-between-samples",
             "composition-overflows-in-fold", "convergence-step-overflows"],
    )
    def test_overflow_inside_a_run_ends_in_a_verdict(self, tmp_path, capsys, section, verdict):
        # Under the suite's warnings-as-errors, a floating-point flag would end the run.
        cfg = write_cfg(tmp_path, section)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert verdict in (tmp_path / "o" / "summary.txt").read_text()


MINIMAL_SECTIONS = {
    "stability": {"scheme": "ftcs", "grid_n": "64", "r": "0.5", "t": "1.0"},
    "consistency": {"scheme": "ftcs", "probe": "sine(1)", "r": "0.5", "dts": "1e-3", "ts": "0.0"},
    "convergence": {"scheme": "ftcs", "probe": "sine(1)", "t": "1.0", "dts": "1e-2", "path": "cfl"},
    "roundoff": {"scheme": "ftcs", "probe": "sine(1)", "t": "0.1", "dts": "2e-2 1e-2 5e-3 2.5e-3",
                 "path": "cfl", "bits": "12"},
    "ubp_demo": {"k_range": "0:5"},
}


# A value for each optional key, so that a section can set every key.
OPTIONAL_KEYS = {"ubp_demo": {"probes": "ones(3); harmonic(4)"}}


class ReadRecorder(dict):
    """Parsed section items that remember which keys a runner read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def section_cfg(kind, items):
    return f"[{kind}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())


@pytest.mark.parametrize("kind", _SCHEMA)
def test_minimal_sections_run(tmp_path, kind):
    assert run(write_cfg(tmp_path, section_cfg(kind, MINIMAL_SECTIONS[kind])), tmp_path / "out") == 0


@pytest.mark.parametrize("kind", _SCHEMA)
def test_runner_reads_every_schema_key(kind):
    # A key the runner never reads is parsed and then ignored: it does nothing.
    text = {**MINIMAL_SECTIONS[kind], **OPTIONAL_KEYS.get(kind, {})}
    assert set(text) == set(_SCHEMA[kind])
    items = ReadRecorder(_validate(kind, kind, text, 0))
    _RUNNERS[kind](items, [], [])
    assert items.read == set(_SCHEMA[kind])


@pytest.mark.parametrize("kind, key", [(kind, key) for kind in _SCHEMA for key in _SCHEMA[kind]])
def test_every_schema_key_rejects_garbage(tmp_path, capsys, kind, key):
    cfg = write_cfg(tmp_path, section_cfg(kind, {**MINIMAL_SECTIONS[kind], key: "@@"}))
    with pytest.raises(ConfigError, match=rf"'@@' for key {key!r} in section \[{kind}\]"):
        run(cfg, tmp_path / "out")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and f"[{kind}]" in err and "Traceback" not in err


def test_cli_import_leaves_scipy_unloaded():
    # laxlab depends on numpy alone.  scipy is installed next to it (perfbench
    # records its version) but no code or test of laxlab uses it any more; an
    # import of it would add about a second to every CLI start.
    src = Path(laxlab.__file__).resolve().parent.parent
    code = "import sys, laxlab.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"


class TestMain:
    def test_exit_codes(self, tmp_path):
        good = write_cfg(tmp_path, UBP_CFG, "good.cfg")
        bad = write_cfg(tmp_path, "[stability]\nshceme = ftcs\n", "bad.cfg")
        assert main(["--config", str(good), "--out", str(tmp_path / "o1")]) == 0
        assert main(["--config", str(bad), "--out", str(tmp_path / "o2")]) == 2

    def test_error_message_names_key(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "[stability]\nshceme = ftcs\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "shceme" in capsys.readouterr().err

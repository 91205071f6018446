import contextlib
import io
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxlab
from conftest import _counting_stepper
from laxlab import cli, roundoff, ubp
from laxlab.grid import RefinementPath, step_count
from laxlab.cli import (
    _RUNNERS,
    _SCHEMA,
    _parse_k_range,
    _parse_path,
    _parse_sequence_probes,
    _row,
    _validate,
    main,
    run,
)
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


def assert_ubp_csv_matches_rows(k_range, probes):
    text = UBP_CFG.replace("0:20", k_range) + (f"probes = {probes}\n" if probes else "")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run(write_cfg(Path(tmp), text), out) == 0
        (csv,) = csv_files(out, "ubp_demo")
        data = csv.read_bytes()
    table = ubp.ubp_violation_demo(_parse_k_range(k_range), _parse_sequence_probes(probes))
    expected = "k,op_norm,probe_id,probe_bound\n" + "".join(
        _row(k, norm, pid, bound)
        for k, norm in zip(table.k, table.op_norm)
        for pid, bound in table.probe_bounds or [(None, None)]
    )
    assert data == expected.encode()
    assert data.count(b"\n") == 1 + len(_parse_k_range(k_range)) * max(1, len(table.probe_bounds))


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

    @pytest.mark.parametrize("probes", ["ones(3); harmonic(100)", ""])
    def test_ubp_demo_csv_bytes_match_row_by_row_formatting(self, probes):
        # The runner formats the shared probe cells once per section; the
        # bytes must be those of formatting every row whole with _row.
        assert_ubp_csv_matches_rows("0:20", probes)

    @given(
        k_range=st.one_of(
            st.integers(0, 300).map(str),
            st.lists(st.integers(0, 300), min_size=2, max_size=2).map(lambda ab: f"{min(ab)}:{max(ab)}"),
        ),
        probes=st.lists(
            st.tuples(st.sampled_from(["ones", "unit", "harmonic"]), st.integers(1, 200)).map(lambda term: f"{term[0]}({term[1]})"),
            max_size=3,
        ).map("; ".join),
    )
    @settings(max_examples=50, deadline=None)
    def test_ubp_demo_csv_bytes_match_rows_over_k_ranges_and_probes(self, k_range, probes):
        assert_ubp_csv_matches_rows(k_range, probes)

    def test_norm_past_the_largest_double_reads_inf(self, tmp_path):
        cfg = write_cfg(tmp_path, STABILITY_CFG.replace("r = 0.5\nt = 1.0", "r = 5e307\nt = 1e306"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        (csv,) = csv_files(tmp_path / "out", "stability")
        assert csv.read_text().splitlines()[1].split(",")[4] == "inf"
        assert "bound_L=inf stable=False" in (tmp_path / "out" / "summary.txt").read_text()

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = write_cfg(tmp_path, STABILITY_CFG.replace("scheme", "shceme"))
        with pytest.raises(ConfigError, match="shceme"):
            run(cfg, tmp_path / "out")

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[telepathy]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="telepathy"):
            run(cfg, tmp_path / "out")

    def test_blank_section_name_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "[ ]\nscheme = ftcs\n")
        with pytest.raises(ConfigError, match="unknown experiment kind in section \\[ \\]"):
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


ROUNDOFF_SECTIONS = {
    "roundoff r12": "scheme = ftcs\nprobe = sine(1)\nt = 0.5\ndts = 1e-2, 5e-3, 2.5e-3, 2e-3\n"
                    "path = cfl\nbits = 12\n",
    "roundoff r23": "scheme = ftcs\nprobe = sine(1)+random_uniform(3)\nt = 1.0\n"
                    "dts = 1e-2, 5e-3, 4e-3, 2.5e-3\npath = cfl\nbits = 23\n",
    "roundoff unstable": "scheme = ftcs\nprobe = random_uniform(5)\nt = 1.0\n"
                         "dts = 1e-2, 5e-3, 2e-3, 1e-3\npath = fixed_r 0.9\nbits = 17\n",
    "roundoff be52": "scheme = backward_euler\nprobe = sine(2)\nt = 0.2\n"
                     "dts = 1e-2, 5e-3, 2.5e-3, 2e-3\npath = cfl\nbits = 52\n",
}


# (N, n) of the cells of "roundoff r12" and "roundoff r23": all FTCS on the cfl path.
TWO_SWEEPS = [
    (RefinementPath.cfl_boundary().grid_for(dt)[0], step_count(t, dt))
    for t, dts in [(0.5, [1e-2, 5e-3, 2.5e-3, 2e-3]), (1.0, [1e-2, 5e-3, 4e-3, 2.5e-3])]
    for dt in dts
]


def sections_cfg(names, sections):
    return "\n".join(f"[{name}]\n{sections[name]}" for name in names)


def csv_bodies(out_dir) -> list:
    """CSV bodies in section order (the index ends each file name)."""
    return [p.read_bytes() for p in sorted(out_dir.glob("*.csv"), key=lambda p: p.stem.rsplit("_", 1)[1])]


class TestRoundoffBatch:
    """The round-off sections of a run step together; the outputs, and the
    errors, still come section by section."""

    def test_interleaved_sections_write_what_each_writes_alone(self, tmp_path):
        sections = {
            **ROUNDOFF_SECTIONS,
            "stability s": STABILITY_CFG.split("\n", 1)[1],
            "convergence c": "scheme = ftcs\nprobe = sine(1)\nt = 1.0\ndts = 1e-2, 5e-3\npath = cfl\n",
        }
        order = ["roundoff r12", "stability s", "roundoff unstable", "convergence c", "roundoff r23",
                 "roundoff be52"]
        assert run(write_cfg(tmp_path, sections_cfg(order, sections)), tmp_path / "all", seed=4) == 0
        bodies, summary = [], ""
        for i, name in enumerate(order):
            out = tmp_path / f"alone{i}"
            assert run(write_cfg(tmp_path, sections_cfg([name], sections), f"{i}.cfg"), out, seed=4) == 0
            bodies += csv_bodies(out)
            summary += (out / "summary.txt").read_text()
        assert csv_bodies(tmp_path / "all") == bodies
        assert (tmp_path / "all" / "summary.txt").read_text() == summary

    def test_sections_on_one_path_step_as_one_stack(self, tmp_path, monkeypatch):
        widths = []
        _counting_stepper(monkeypatch, widths)
        names = ["roundoff r12", "roundoff r23"]
        assert run(write_cfg(tmp_path, sections_cfg(names, ROUNDOFF_SECTIONS)), tmp_path / "out") == 0
        assert max(widths) == sum(n for n, _ in TWO_SWEEPS)
        assert sum(widths) == sum(n * steps for n, steps in TWO_SWEEPS)

    def test_a_section_past_the_budget_fails_in_turn(self, tmp_path, capsys, monkeypatch):
        # The third of four sections needs ~1.2e12 updates.  The two before
        # it step as one stack and write their CSVs and summary lines; the
        # fourth never runs.
        sections = {
            **ROUNDOFF_SECTIONS,
            "roundoff long-t": "scheme = ftcs\nprobe = sine(1)\nt = 1e6\n"
                               "dts = 4e-3, 2e-3, 1e-3, 5e-4\npath = cfl\nbits = 12\n",
        }
        widths = []
        _counting_stepper(monkeypatch, widths)
        names = ["roundoff r12", "roundoff r23", "roundoff long-t", "roundoff be52"]
        cfg = write_cfg(tmp_path, sections_cfg(names, sections))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "updates" in err and "[roundoff long-t]" in err and "Traceback" not in err
        assert max(widths) == sum(n for n, _ in TWO_SWEEPS)
        assert sum(widths) == sum(n * steps for n, steps in TWO_SWEEPS)
        first = tmp_path / "first"
        run(write_cfg(tmp_path, sections_cfg(names[:2], sections), "first.cfg"), first)
        assert csv_bodies(tmp_path / "out") == csv_bodies(first)
        assert (tmp_path / "out" / "summary.txt").read_text() == (first / "summary.txt").read_text()

    @pytest.mark.parametrize("first", [
        "[convergence c]\nscheme = ftcs\nprobe = sine(1)\nt = 1.0\ndts = 1e-2\npath = cfl\ntypo = 1\n",
        "[convergense c]\nscheme = ftcs\n",
    ], ids=["unknown-key", "unknown-kind"])
    def test_a_rejected_first_section_runs_no_sweep(self, tmp_path, capsys, monkeypatch, first):
        def no_sweeps(sweeps):
            raise AssertionError("halving_sweeps ran")

        monkeypatch.setattr(roundoff, "halving_sweeps", no_sweeps)
        cfg = write_cfg(tmp_path, first + "\n" + sections_cfg(["roundoff r12"], ROUNDOFF_SECTIONS))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[convergen" in err and "Traceback" not in err

    def test_a_section_that_fails_as_it_runs_costs_no_sweep(self, tmp_path, capsys, monkeypatch):
        # t is shorter than one step: only the run itself finds that, so the
        # batch must wait for the first round-off section's turn.
        def no_sweeps(sweeps):
            raise AssertionError("halving_sweeps ran")

        monkeypatch.setattr(roundoff, "halving_sweeps", no_sweeps)
        first = "[stability s]\nscheme = ftcs\ngrid_n = 64\nr = 0.5\nt = 1e-9\n"
        cfg = write_cfg(tmp_path, first + "\n" + sections_cfg(["roundoff be52"], ROUNDOFF_SECTIONS))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[stability s]" in err and "Traceback" not in err

    def test_sections_before_a_rejected_one_still_batch(self, tmp_path, capsys, monkeypatch):
        batches = []
        sweeps = roundoff.halving_sweeps

        def recording(batch):
            batches.append(len(batch))
            return sweeps(batch)

        monkeypatch.setattr(roundoff, "halving_sweeps", recording)
        names = ["roundoff r12", "roundoff r23"]
        bad = "[stability s]\nscheme = ftcs\ngrid_n = 64\nr = 0.5\n"  # no t
        cfg = write_cfg(tmp_path, sections_cfg(names[:1], ROUNDOFF_SECTIONS) + "\n" + bad + "\n"
                        + sections_cfg(names[1:], ROUNDOFF_SECTIONS))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "[stability s]" in capsys.readouterr().err
        assert batches == [1]
        first = tmp_path / "first"
        run(write_cfg(tmp_path, sections_cfg(names[:1], ROUNDOFF_SECTIONS), "first.cfg"), first)
        assert csv_bodies(tmp_path / "out") == csv_bodies(first)

    def test_each_section_is_validated_once(self, tmp_path, monkeypatch):
        # The round-off batch is built from the sections the run has checked,
        # not from a second walk over the config.
        calls = []
        validate = cli._validate

        def counted(kind, section, items, seed):
            calls.append(section)
            return validate(kind, section, items, seed)

        monkeypatch.setattr(cli, "_validate", counted)
        sections = {
            **ROUNDOFF_SECTIONS,
            "stability s": STABILITY_CFG.split("\n", 1)[1],
            "convergence c": "scheme = ftcs\nprobe = sine(1)\nt = 1.0\ndts = 1e-2, 5e-3\npath = cfl\n",
        }
        order = ["stability s", "roundoff r12", "convergence c", "roundoff be52"]
        assert run(write_cfg(tmp_path, sections_cfg(order, sections)), tmp_path / "out") == 0
        assert calls == order


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
            ("[convergence]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2\npath = table 1e-2=0.5\n",
             "bad value 'table 1e-2=0.5' for key 'path'"),
            ("[convergence]\nscheme = ftcs\nprobe = sine(1)\nt = 1\ndts = 1e-2\npath = cfl 0.4\n",
             "bad value 'cfl 0.4' for key 'path'"),
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
            ("[ubp_demo]\nk_range = 0:5\nprobes = unit(3\n", "bad value 'unit\\(3' for key 'probes'"),
            ("[ubp_demo]\nk_range = 0:5\nprobes = unit(3)))\n", "bad value 'unit\\(3\\)\\)\\)' for key 'probes'"),
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
            "zero-dt", "three-dts-short", "bits-60", "path-ratio-x", "path-table", "path-cfl-extra", "negative-ts",
            "negative-seed", "infinite-amplitude", "infinite-constant", "amplitudes-past-overflow-limit",
            "k-range-abc", "k-range-reversed", "k-range-negative", "probes-ones-x", "probes-unit-negative",
            "probes-ones-negative", "probes-unclosed", "probes-closed-thrice", "k-max", "k-range-past-cap", "probes-ones-past-cap",
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
             "dts = 4e-3, 2e-3, 1e-3, 5e-4\npath = cfl\nbits = 12\n", "too many steps"),
            ("[convergence huge-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e308\n"
             "dts = 4e-3, 2e-3, 1e-3\npath = cfl\n", "too many steps"),
            # One cell that fails von Neumann (N = 70, r ~ 0.50001) and must
            # step 2.48e6 times: 1.74e8 updates, past MAX_UPDATES.
            ("[convergence unstable-long-t]\nscheme = ftcs\nprobe = sine(1)\nt = 1e4\n"
             "dts = 0.004028497\npath = fixed_r 0.500012\n", "updates"),
            # r = 1e308: the FTCS side coefficient r overflows to inf.
            ("[stability ftcs-r-past-max]\nscheme = ftcs\ngrid_n = 64\nr = 1e308\nt = 4\n",
             "coefficients must be finite"),
            # dx = 2 * 64**65536 is past any float: an infinite target.
            ("[convergence power-overflows]\nscheme = ftcs\nprobe = sine(1)\nt = 3\ndts = 64\n"
             "path = power 2 65536\n", "too coarse"),
            # r*dx^2 underflows to 0, and overflows (dx^2 = 2.47 at N = 4).
            ("[stability be-dt-underflows]\nscheme = backward_euler\ngrid_n = 64\nr = 5e-324\nt = 1\n",
             "dt/dx^2"),
            ("[stability be-dt-overflows]\nscheme = backward_euler\ngrid_n = 4\n"
             "r = 1.7976931348623157e308\nt = 1e308\n", "dt/dx^2"),
        ],
        ids=[
            "path-too-coarse", "probe-not-band-limited", "cfl-past-max-grid",
            "fixed-r-past-max-grid", "target-underflows", "n-overflows", "twins-past-budget",
            "twin-steps-past-any-float", "convergence-steps-past-any-float",
            "unstable-cells-past-budget", "ftcs-coefficient-overflows", "path-target-overflows",
            "backward-euler-dt-underflows", "backward-euler-dt-overflows",
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
            # Every coefficient is about 1/N: the mean projection.
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
            # max|g| = 1 + 4e-13 passes von Neumann with c0 = -2e-13: the symbol
            # path, whose max|g|^n passes the largest double from n ~ 1.8e15 on.
            ("[stability ftcs-in-slack]\nscheme = ftcs\ngrid_n = 64\nr = 0.5000000000001\nt = 1e16\n",
             "bound_L=inf stable=False"),
            # N = 6, r = 9.1e299: the one step overflows, so the residual is inf.
            ("[consistency step-overflows]\nscheme = ftcs\nprobe = 1e300*sine(1)\nr = 1e300\n"
             "dts = 1e300\nts = 0.0\n", "max residual inf"),
        ],
        ids=["backward-euler-r-past-max", "consistency-t-past-max", "twins-overflow-between-samples",
             "composition-overflows-in-fold", "convergence-step-overflows", "symbol-norms-overflow",
             "consistency-step-overflows"],
    )
    def test_overflow_inside_a_run_ends_in_a_verdict(self, tmp_path, capsys, section, verdict):
        # Under the suite's warnings-as-errors, a floating-point flag would end the run.
        cfg = write_cfg(tmp_path, section)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert verdict in (tmp_path / "o" / "summary.txt").read_text()


# r from the subnormals, around the von Neumann slack at 1/2 and up to the
# largest double; t from the subnormals to the largest double, with the
# moderate horizons that let most sections reach a verdict.
FUZZ_R = st.one_of(
    st.floats(2.0**-1074, 2.0**-1022),
    st.floats(0.5 - 1e-13, 0.5 + 1e-13),
    st.floats(-16, 308).map(lambda x: 10.0**x),
    st.sampled_from([0.5, 1e308, sys.float_info.max]),
)
FUZZ_T = st.one_of(
    st.floats(2.0**-1074, 2.0**-1022),
    st.floats(-300, 308).map(lambda x: 10.0**x),
    st.floats(0.01, 100.0),
    st.sampled_from([1.0, 1e16, 1e308, sys.float_info.max]),
)


@given(
    scheme=st.sampled_from(["ftcs", "backward_euler"]),
    # Capped: a row that fails von Neumann walks its powers, whose cost grows
    # like N^2 per sample and has no other bound.
    grid_n=st.integers(4, 128),
    rs=st.one_of(st.tuples(FUZZ_R), st.tuples(FUZZ_R, FUZZ_R)),
    horizon=FUZZ_T,
)
# 2r is finite but sum |c| = 4r is not: the norm reads inf, not a traceback.
@example(scheme="ftcs", grid_n=64, rs=(5e307,), horizon=1e306)
@settings(max_examples=300)
def test_stability_sections_end_in_a_verdict_or_a_config_error(scheme, grid_n, rs, horizon):
    r = ", ".join(map(repr, rs))
    text = f"[stability fuzz]\nscheme = {scheme}\ngrid_n = {grid_n}\nr = {r}\nt = {horizon!r}\n"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        code = main(["--config", str(write_cfg(Path(tmp), text)), "--out", str(out)])
        assert code in (0, 2)
        if code == 0 and scheme == "backward_euler":
            (csv,) = csv_files(out, "stability")
            bounds = [float(row.split(",")[4]) for row in csv.read_text().splitlines()[1:]]
            assert bounds == [1.0] * len(rs)


# Path parameters (fixed_r's x, power's c and p), r and dts: the subnormals,
# 1e-300, 1e308, inf, nan and the negatives, beside (three draws in four)
# moderate values that reach a verdict.
FUZZ_EXTREMES = st.one_of(
    st.floats(2.0**-1074, 2.0**-1022),
    st.sampled_from([1e-300, 1e308, math.inf, math.nan, 0.0, -1e-3, -2.0]),
    st.floats(-1e308, -2.0**-1074),
)


def mostly(moderate):
    return st.one_of(moderate, moderate, moderate, FUZZ_EXTREMES)


FUZZ_R = mostly(st.floats(0.05, 4.0))
FUZZ_PATH = st.one_of(
    st.just("cfl"),
    FUZZ_R.map(lambda x: f"fixed_r {x!r}"),
    st.tuples(mostly(st.floats(0.5, 4.0)), mostly(st.floats(0.4, 1.2))).map(
        lambda cp: f"power {cp[0]!r} {cp[1]!r}"
    ),
    st.sampled_from(["table 1e-2=0.5", "table 4e-3=0.09 2e-3=0.06"]),
)
FUZZ_DT = st.floats(-4, -1).map(lambda x: 10.0**x)
# Two draws in three list only moderate dts, enough for a round-off sweep.
FUZZ_DTS = st.one_of(
    st.lists(FUZZ_DT, min_size=4, max_size=6),
    st.lists(FUZZ_DT, min_size=4, max_size=6),
    st.lists(mostly(FUZZ_DT), min_size=1, max_size=6),
)
# Amplitudes from 1e-100 up: a run on data near underflow takes subnormal
# arithmetic, whose wall time no update budget bounds.
FUZZ_PROBE = st.tuples(
    st.floats(-100, 300).map(lambda x: 10.0**x),
    st.sampled_from(["sine(1)", "sine(1)+cosine(3)", "random_uniform(1)", "point_mass(0)"]),
).map(lambda term: f"{term[0]!r}*{term[1]}")
# Grid-point updates that one fuzzed sweep may step, counting the overhead of
# a step as 200 updates: a few tens of milliseconds.
FUZZ_WORK = 1e6


def fuzz_horizon(path, dts, horizon):
    """The horizon, cut so that the cells of a sweep step at most FUZZ_WORK
    updates in all.  A path that gives some dt no grid ends the section
    before any step, so there the horizon stands."""
    try:
        grids = [_parse_path(path).grid_for(dt)[0] for dt in dts]
    except ValueError:
        return horizon
    rate = sum((n + 200) / dt for n, dt in zip(grids, dts))
    return min(horizon, max(FUZZ_WORK / rate, 5e-324))


@given(
    kind=st.sampled_from(["convergence", "roundoff", "consistency"]),
    scheme=st.sampled_from(["ftcs", "backward_euler"]),
    probe=FUZZ_PROBE,
    path=FUZZ_PATH,
    r=FUZZ_R,
    dts=FUZZ_DTS,
    horizon=FUZZ_T,
    ts=st.lists(st.one_of(st.just(0.0), FUZZ_T), min_size=1, max_size=2),
    bits=st.integers(4, 52),
)
# N = 6, r = 9.1e299: the one step overflows, and the residual reads inf.
@example(kind="consistency", scheme="ftcs", probe="1e300*sine(1)", path="cfl", r=1e300, dts=[1e300],
         horizon=1.0, ts=[0.0], bits=12)
# A wavenumber past the largest double, or one whose k*x overflows, has no
# finite samples: every kind rejects it as a config error.
@example(kind="convergence", scheme="ftcs", probe=f"sine({'9' * 400})", path="cfl", r=0.4,
         dts=[4e-3, 2e-3], horizon=0.01, ts=[0.0], bits=12)
@example(kind="consistency", scheme="ftcs", probe=f"cosine({'9' * 400})", path="cfl", r=0.4,
         dts=[4e-3], horizon=0.01, ts=[0.0], bits=12)
@example(kind="roundoff", scheme="ftcs", probe=f"sine({'9' * 400})", path="cfl", r=0.4,
         dts=[4e-3, 2e-3, 1e-3, 5e-4], horizon=0.01, ts=[0.0], bits=12)
@example(kind="convergence", scheme="backward_euler", probe=f"cosine({10**308})", path="cfl", r=0.4,
         dts=[4e-3, 2e-3], horizon=0.01, ts=[0.0], bits=12)
@settings(max_examples=400)
def test_sweep_sections_end_in_a_verdict_or_a_config_error(
    kind, scheme, probe, path, r, dts, horizon, ts, bits
):
    items = {"scheme": scheme, "probe": probe, "dts": ", ".join(map(repr, dts))}
    if kind == "consistency":
        items.update(r=repr(r), ts=", ".join(map(repr, ts)))
    else:
        items.update(t=repr(fuzz_horizon(path, dts, horizon)), path=path)
    if kind == "roundoff":
        items["bits"] = str(bits)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        code = main(["--config", str(write_cfg(Path(tmp), section_cfg(kind, items))), "--out", str(out)])
        csv_text = "".join(csv.read_text() for csv in csv_files(out, kind))
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == "" and "nan" not in csv_text
    else:
        assert err.getvalue().startswith("laxlab: config error: ") and err.getvalue().count("\n") == 1
    if kind != "consistency" and path.startswith("table"):
        assert code == 2


# Indices for [ubp_demo]: moderate ones up to 4096, negatives, and ones past
# MAX_GRID_N = 65536, which are rejected before any range is built.  The ones
# in between are left out: a k_range up to 65536 is legal and takes about
# 1.2 s to tabulate.
FUZZ_K = st.one_of(
    st.integers(0, 4096),
    st.integers(0, 4096),
    st.integers(-(10**6), -1),
    st.integers(2**16 + 1, 10**30),
).flatmap(lambda k: st.sampled_from([str(k), hex(k)]))
FUZZ_K_RANGE = st.one_of(FUZZ_K, st.tuples(FUZZ_K, FUZZ_K).map(":".join))
MALFORMED_PROBES = ("unit(3", "unit(3)))", "ones()", "harmonic(x)", "unit(0x10)", "unit 3", "(3)", "sine(1)")
FUZZ_SEQUENCE_PROBE = st.one_of(
    st.tuples(
        st.sampled_from(["ones", "unit", "harmonic"]),
        st.one_of(st.integers(1, 4096), st.sampled_from([0, -1, -70000, 10**309]), st.integers(2**16 + 1, 10**12)),
    ).map(lambda term: f"{term[0]}({term[1]})"),
    st.sampled_from(MALFORMED_PROBES),
)


@given(
    k_range=FUZZ_K_RANGE,
    probes=st.one_of(st.none(), st.lists(FUZZ_SEQUENCE_PROBE, max_size=3).map("; ".join)),
)
@example(k_range="0:5", probes="unit(3")
@example(k_range="0:5", probes="unit(3)))")
@settings(max_examples=200)
def test_ubp_demo_sections_end_in_a_table_or_a_config_error(k_range, probes):
    items = {"k_range": k_range} if probes is None else {"k_range": k_range, "probes": probes}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        code = main(["--config", str(write_cfg(Path(tmp), section_cfg("ubp_demo", items))), "--out", str(out)])
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("laxlab: config error: ") and err.getvalue().count("\n") == 1
    if probes is not None and any(tok.strip() in MALFORMED_PROBES for tok in probes.split(";")):
        assert code == 2


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

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import laxlab as lx
from conftest import _counting_stepper
from laxlab import roundoff
from laxlab.analysis import convergence_experiment, scheme_builder
from laxlab.errors import DivergedValueError, InvalidGridError
from laxlab.grid import MAX_UPDATES, RefinementPath, sample_steps, step_count
from laxlab.roundoff import (
    PrecisionSpec,
    RoundoffGrowthReport,
    _stepped_runs,
    halving_sweeps,
    round_to_precision,
)
from laxlab.schemes import apply_values, backward_euler_heat, ftcs_heat, overflow_free_steps

TWO_PI = 2 * math.pi
DTS = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


def _split_limit(bits: int) -> float:
    """Smallest max|x| that round_to_precision rounds by its frexp fallback."""
    return float(np.finfo(float).max) / (2.0 ** (52 - bits) + 1)


class TestRoundToPrecision:
    def test_exactly_representable(self):
        for bits in (4, 12, 52):
            assert round_to_precision(1.0, PrecisionSpec(bits)) == 1.0

    def test_below_half_ulp_snaps_to_one(self):
        assert round_to_precision(1 + 2.0**-20, PrecisionSpec(10)) == 1.0

    def test_tenth_at_eight_bits_matches_neighbor_oracle(self):
        # enumerate the two bracketing 8-bit-significand values around 0.1
        spec = PrecisionSpec(8)
        got = round_to_precision(0.1, spec)
        # 0.1 lies in [2^-4, 2^-3), where a 9-bit significand (8 stored plus
        # the implicit bit) has spacing 2^-12
        below = math.floor(0.1 * 2**12) * 2.0**-12
        above = below + 2.0**-12
        assert got in (below, above)
        assert abs(got - 0.1) == min(abs(below - 0.1), abs(above - 0.1))

    def test_idempotent(self):
        spec = PrecisionSpec(9)
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 100)
        once = round_to_precision(x, spec)
        assert np.array_equal(round_to_precision(once, spec), once)

    def test_52_bits_is_identity_on_doubles(self):
        spec = PrecisionSpec(52)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e6, 1e6, 1000)
        assert np.array_equal(round_to_precision(x, spec), x)

    def test_non_finite_rejected(self):
        with pytest.raises(DivergedValueError):
            round_to_precision(math.inf, PrecisionSpec(12))

    def test_bits_range_enforced(self):
        with pytest.raises(ValueError):
            PrecisionSpec(3)
        with pytest.raises(ValueError):
            PrecisionSpec(53)

    def test_bits_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            PrecisionSpec(12.5)
        spec = PrecisionSpec(np.int64(12))
        assert spec.significand_bits == 12 and type(spec.significand_bits) is int
        assert round_to_precision(1 / 3, spec) == round_to_precision(1 / 3, PrecisionSpec(12))

    @given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), st.integers(4, 52))
    @example(1 + 2.0**-13, 12)  # a tie, rounded down to the even neighbour
    @example(1 + 3 * 2.0**-13, 12)  # a tie, rounded up to the even neighbour
    @example(-(1 + 2.0**-5), 4)
    @example(33 * 2.0**-1074, 4)  # a tie among subnormals
    @example(5e-324, 4)
    @example(0.0, 12)
    @example(-0.0, 52)
    @example(float(np.finfo(float).max), 4)  # rounds up past the largest double
    @example((2 - 2.0**-5) * 2.0**1023, 4)  # a tie at the overflow bound, rounded up
    @example(float(np.nextafter((2 - 2.0**-5) * 2.0**1023, 0)), 4)
    @example(-float(np.finfo(float).max), 23)
    @example(float(np.finfo(float).max), 52)
    # Around the top of the three-operation split, where x * (2**(52 - bits) + 1)
    # would overflow and rounding falls back to frexp/rint/ldexp.
    @example(float(np.nextafter(_split_limit(4), 0)), 4)
    @example(_split_limit(4), 4)
    @example(float(np.nextafter(_split_limit(4), math.inf)), 4)
    @example(float(np.nextafter(_split_limit(23), 0)), 23)
    @example(_split_limit(23), 23)
    @example(float(np.nextafter(_split_limit(23), math.inf)), 23)
    @example(float(np.nextafter(_split_limit(52), 0)), 52)
    @example(_split_limit(52), 52)
    @example(float(np.nextafter(_split_limit(52), math.inf)), 52)
    @settings(max_examples=400)
    @pytest.mark.filterwarnings("error")
    def test_matches_exact_rational_oracle(self, x, bits):
        want = _round_exact(x, bits)
        if math.isinf(want):  # rounds past the largest double
            for arg in (x, np.array([x])):
                with pytest.raises(DivergedValueError):
                    round_to_precision(arg, PrecisionSpec(bits))
            return
        got = round_to_precision(x, PrecisionSpec(bits))
        got_array = round_to_precision(np.array([x]), PrecisionSpec(bits))
        for value in (got, float(got_array[0])):
            assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)


def _round_exact(x: float, bits: int) -> float:
    """Oracle: x rounded to bits + 1 significant bits, half to even, with an
    unbounded exponent, in exact rational arithmetic; past the largest
    double the result is +-inf."""
    q = abs(Fraction(x))
    if q == 0:
        return x
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if q < Fraction(2) ** e:
        e -= 1  # now 2**e <= q < 2**(e + 1)
    rounded = round(q * Fraction(2) ** (bits - e)) * Fraction(2) ** (e - bits)
    try:
        return math.copysign(float(rounded), x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _twin_loop_checking_every_step(s, values, n_max, spec):
    """Reference twin loop: (samples, diverged), both rows checked for
    finiteness after every step, before row 1 is rounded."""
    schedule = set(sample_steps(n_max, 8))
    twins = np.array([values, values])
    samples = []
    for n in range(1, n_max + 1):
        twins = apply_values(s, twins)
        if not np.isfinite(twins).all():
            return tuple(samples), True
        twins[1] = round_to_precision(twins[1], spec)
        if n in schedule:
            samples.append((n, n * s.dt, float(np.max(np.abs(twins[1] - twins[0])))))
    return tuple(samples), False


def _run_alone(s, u, horizon, spec):
    """The report of one twin cell stepped alone by the round-off loop, with
    the sample points and limit that :func:`halving_sweeps` gives it."""
    n = step_count(horizon, s.dt)
    [(samples, diverged)] = _stepped_runs([(s, n, u, sample_steps(n, 8), sys.float_info.max, spec)])
    return RoundoffGrowthReport(tuple(samples), diverged, s.dt, s.dx)


def _cfl_cell(dt):
    path = RefinementPath.cfl_boundary()
    n, dx = path.grid_for(dt)
    return ftcs_heat(dt, dx, n), lx.sample(lx.Sine(1), n)


class TestGrowthExperiment:
    def test_full_precision_control_gap_zero(self):
        s, u = _cfl_cell(1e-3)
        report = _run_alone(s, u, 1.0, PrecisionSpec(52))
        assert all(gap == 0.0 for _, _, gap in report.samples)

    def test_reduced_precision_gap_grows_into_band(self):
        s, u = _cfl_cell(1e-3)
        report = _run_alone(s, u, 1.0, PrecisionSpec(12))
        gaps = [gap for _, _, gap in report.samples]
        eps = 2.0**-12
        assert eps <= gaps[-1] <= 1e4 * eps
        # nondecreasing up to 15% jitter from round-off cancellation
        assert all(gaps[i + 1] >= 0.85 * gaps[i] for i in range(len(gaps) - 1))

    def test_unstable_scheme_gap_grows_geometrically(self):
        n = 64
        dx = TWO_PI / n
        r = 0.55
        s = ftcs_heat(r * dx**2, dx, n)
        u = lx.sample(lx.Sine(1), n)
        report = _run_alone(s, u, 0.5, PrecisionSpec(12))
        # growth-factor oracle: per-step ratio about max |g| = 4r - 1
        (n1, _, g1), (n2, _, g2) = report.samples[-2:]
        per_step = (g2 / g1) ** (1.0 / (n2 - n1))
        assert per_step == pytest.approx(4 * r - 1, rel=0.05)

    @pytest.mark.parametrize("bits", [8, 12, 52])
    def test_twin_rows_match_separate_trajectories(self, bits):
        # Oracle: the two trajectories stepped one at a time, as 1-d arrays.
        s, u = _cfl_cell(4e-3)
        spec = PrecisionSpec(bits)
        report = _run_alone(s, u, 1.0, spec)
        reference, reduced = u.values.copy(), u.values.copy()
        gaps = {}
        for n in range(1, round(1.0 / s.dt) + 1):
            reference = apply_values(s, reference)
            reduced = round_to_precision(apply_values(s, reduced), spec)
            gaps[n] = float(np.max(np.abs(reduced - reference)))
        assert [(n, gap) for n, _, gap in report.samples] == [
            (n, gaps[n]) for n, _, _ in report.samples
        ]

    def test_diverging_twins_stop_at_the_first_non_finite_step(self):
        n = 16
        dx = TWO_PI / n
        s = ftcs_heat(4.0 * dx**2, dx, n)
        u = lx.sample(lx.Sine(8) + lx.Cosine(8), n)
        report = _run_alone(s, u, 1000.0, PrecisionSpec(12))
        assert report.diverged
        assert all(math.isfinite(gap) for _, _, gap in report.samples)

    def test_row_rounded_past_the_largest_double_diverges(self):
        # Row 1 stays finite but climbs above the 6-bit overflow bound while
        # row 0 is still finite: the run is diverged, not an error.
        n = 24
        dx = TWO_PI / n
        s = ftcs_heat(0.75 * dx**2, dx, n)
        report = _run_alone(s, lx.sample(lx.Sine(1), n), 6000 * s.dt, PrecisionSpec(6))
        assert report.diverged
        assert len(report.samples) == 15 and report.samples[-1][0] == 1024
        assert all(math.isfinite(gap) for _, _, gap in report.samples)

    def test_a_diverged_run_has_an_infinite_final_gap(self):
        # The last gap recorded (about 1.85e305) is not the final one: the
        # run passed the largest double before its last step.
        n = 64
        dx = TWO_PI / n
        s = ftcs_heat(0.75 * dx**2, dx, n)
        u = lx.sample(lx.Sine(1) + lx.RandomUniform(1), n)
        report = _run_alone(s, u, 3000 * s.dt, PrecisionSpec(12))
        assert report.diverged and 1e300 < report.samples[-1][2] < math.inf
        assert report.final_gap == math.inf
        stable = _run_alone(*_cfl_cell(4e-3), 1.0, PrecisionSpec(12))
        assert not stable.diverged and stable.final_gap == stable.samples[-1][2]

    @given(
        r=st.floats(0.3, 1.0, exclude_min=True),
        # Backward Euler at N > 32 steps through the FFT with n* = 0, so both
        # rows are checked every step.
        case=st.one_of(st.tuples(st.just(ftcs_heat), st.integers(8, 64)),
                       st.tuples(st.just(backward_euler_heat), st.integers(33, 64))),
        bits=st.integers(4, 52),
        magnitude=st.integers(0, 300),
        past_overflow=st.integers(-32, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    # Row 0 overflows at the last step while row 1 is still below its bound.
    @example(r=1.0, case=(ftcs_heat, 8), bits=4, magnitude=0, past_overflow=0, seed=1)
    @example(r=0.5, case=(backward_euler_heat, 33), bits=12, magnitude=300, past_overflow=0, seed=2)
    @settings(max_examples=40)
    def test_matches_a_loop_checking_both_rows_every_step(
        self, r, case, bits, magnitude, past_overflow, seed
    ):
        # An unstable FTCS run goes on until about past_overflow steps after
        # the highest mode, growing by |1 - 4r| a step from 10**magnitude,
        # would pass the largest double; a stable one takes 200 steps.
        builder, n = case
        rate = abs(1 - 4 * r) if builder is ftcs_heat else 1.0
        n_steps = 200
        if rate > 1:
            to_overflow = math.ceil((309 - magnitude) / math.log10(rate))
            n_steps = max(1, min(1500, to_overflow + past_overflow))
        dx = TWO_PI / n
        s = builder(r * dx**2, dx, n)
        values = 10.0**magnitude * np.random.default_rng(seed).uniform(-1, 1, n)
        spec = PrecisionSpec(bits)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = _twin_loop_checking_every_step(s, values, n_steps, spec)
            except DivergedValueError:  # row 1 finite but past the rounding bound
                reject()
        report = _run_alone(s, lx.GridFunction(values), n_steps * s.dt, spec)
        assert (report.samples, report.diverged) == want

    @given(
        n=st.integers(33, 96),  # backward Euler is wider than the narrow path takes
        where=st.integers(0, 95),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
        builder=st.sampled_from([ftcs_heat, backward_euler_heat]),
    )
    def test_a_step_keeps_a_non_finite_row_non_finite(self, n, where, bad, builder):
        # What checking row 0 only at sample points rests on, on the narrow
        # and on the full-period (FFT) path of the stepper.
        dx = TWO_PI / n
        values = np.ones((2, n))
        values[0, where % n] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = apply_values(builder(0.6 * dx**2, dx, n), values)
        assert not np.isfinite(stepped[0]).all()
        assert np.isfinite(stepped[1]).all()

    def test_determinism(self):
        s, u = _cfl_cell(2e-3)
        a = _run_alone(s, u, 1.0, PrecisionSpec(12))
        b = _run_alone(s, u, 1.0, PrecisionSpec(12))
        assert a.samples == b.samples

    def test_monotone_information_loss(self):
        s, u = _cfl_cell(1e-3)
        finals = [
            _run_alone(s, u, 1.0, PrecisionSpec(bits)).final_gap
            for bits in (8, 12, 16, 24)
        ]
        assert all(finals[i] >= finals[i + 1] for i in range(len(finals) - 1))


class TestHalvingSweep:
    def test_refinement_does_not_improve_roundoff(self):
        [report] = halving_sweeps([(
            scheme_builder("ftcs"),
            RefinementPath.cfl_boundary(),
            lx.Sine(1),
            1.0,
            PrecisionSpec(12),
            DTS,
        )])
        assert report.exponent_s is not None
        assert report.exponent_s >= 0.0

    def test_full_precision_control_skips_fit(self):
        [report] = halving_sweeps([(
            scheme_builder("ftcs"),
            RefinementPath.cfl_boundary(),
            lx.Sine(1),
            1.0,
            PrecisionSpec(52),
            DTS,
        )])
        assert report.fit_skipped
        assert all(gap == 0.0 for _, _, _, gap in report.rows)

    def test_backward_euler_table_shape(self):
        [report] = halving_sweeps([(
            scheme_builder("backward_euler"),
            RefinementPath(1.0, 1.0),
            lx.Sine(1),
            1.0,
            PrecisionSpec(12),
            [2e-1, 1e-1, 5e-2, 2.5e-2],
        )])
        assert len(report.rows) == 4
        for dt, dx, n_steps, gap in report.rows:
            assert dt > 0 and dx > 0 and n_steps >= 1 and math.isfinite(gap)

    def test_rejects_work_past_the_budget_before_any_cell_runs(self):
        # Each cell has N = 31 points and takes 1e6 steps: 2 * 31 * 1e6 * 4 updates.
        def no_cell(*args):
            raise AssertionError("a cell was built")

        path = RefinementPath.fixed_ratio(0.25)
        assert path.grid_for(1e-2)[0] == 31 and 2 * 31 * 1e6 * 4 > MAX_UPDATES
        with pytest.raises(InvalidGridError, match="2.48e\\+08 updates"):
            halving_sweeps([(no_cell, path, lx.Sine(1), 1e4, PrecisionSpec(12), [1e-2] * 4)])

    @pytest.mark.parametrize("horizon, message", [(0.0, "shorter than one step"),
                                                  (-1.0, "shorter than one step"),
                                                  (math.nan, "not a number of steps")],
                             ids=["0.0", "-1.0", "nan"])
    def test_rejects_a_horizon_shorter_than_one_step(self, horizon, message):
        # Each cell would take one step and fit an exponent to gaps at t = dt.
        with pytest.raises(InvalidGridError, match=message):
            halving_sweeps([(scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), horizon,
                             PrecisionSpec(12), DTS)])

    def test_requires_four_dts(self):
        with pytest.raises(ValueError, match="halving_sweeps needs >= 4 dt values"):
            halving_sweeps([(
                scheme_builder("ftcs"),
                RefinementPath.cfl_boundary(),
                lx.Sine(1),
                1.0,
                PrecisionSpec(12),
                [1e-2, 5e-3],
            )])


def _probe(kind, magnitude, seed):
    amp = 10.0**magnitude
    terms = {"sine": [lx.Sine(1, amp)], "random": [lx.RandomUniform(seed, amp)]}
    terms["mixed"] = terms["sine"] + terms["random"]
    return sum(terms[kind][1:], terms[kind][0])


class TestStackedSweeps:
    """A sweep steps its cells together; each cell must come out bit for bit
    as if it ran alone."""

    @given(
        dts=st.lists(
            st.one_of(st.sampled_from([1e-2, 7e-3, 5e-3, 3e-3, 2e-3]), st.floats(2e-3, 1e-2)),
            min_size=4,
            max_size=6,
        ),
        r=st.one_of(st.none(), st.floats(0.3, 1.0, exclude_min=True)),  # None: the cfl path
        bits=st.integers(4, 52),
        magnitude=st.integers(0, 300),
        kind=st.sampled_from(["sine", "random", "mixed"]),
        seed=st.integers(0, 2**16),
        horizon=st.sampled_from([0.2, 0.5, 1.0]),
    )
    # The finest cell (N = 133, the first of the stack) diverges at step 70,
    # while the four coarser cells after it go on.
    @example(dts=[3e-3, 2e-3, 3e-3, 3e-3, 5e-3], r=0.9, bits=17, magnitude=280, kind="mixed", seed=81,
             horizon=1.0)
    # The 52-bit control: rounding is the identity, so every gap is 0.
    @example(dts=[1e-2, 5e-3, 5e-3, 2e-3], r=None, bits=52, magnitude=0, kind="mixed", seed=7, horizon=1.0)
    @settings(max_examples=25)
    def test_each_cell_equals_the_cell_run_alone(self, dts, r, bits, magnitude, kind, seed, horizon):
        path = RefinementPath.cfl_boundary() if r is None else RefinementPath.fixed_ratio(r)
        probe = _probe(kind, magnitude, seed)
        spec = PrecisionSpec(bits)
        [sweep] = halving_sweeps([(ftcs_heat, path, probe, horizon, spec, dts)])
        for dt, report in zip(sorted(dts, reverse=True), sweep.growth_reports):
            grid_n, dx = path.grid_for(dt)
            s, u = ftcs_heat(dt, dx, grid_n), lx.sample(probe, grid_n)
            assert report == _run_alone(s, u, horizon, spec)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    want = _twin_loop_checking_every_step(s, u.values, step_count(horizon, dt), spec)
                except DivergedValueError:  # row 1 finite but past the rounding bound
                    continue
            assert (report.samples, report.diverged) == want
        if bits == 52:
            assert sweep.fit_skipped and all(gap == 0.0 for _, _, _, gap in sweep.rows)

        report = convergence_experiment(ftcs_heat, path, probe, horizon, dts)
        for cell in report.cells:
            (alone,) = convergence_experiment(ftcs_heat, path, probe, horizon, [cell.dt]).cells
            assert (cell.error, cell.diverged) == (alone.error, alone.diverged)

    @pytest.mark.parametrize("bits", [12, 52])
    def test_no_cell_is_stepped_past_its_end(self, monkeypatch, bits):
        # Every cell takes exactly its own n steps of N points, however many
        # cells share the array; a repeated dt gives two cells of one length.
        # A 52-bit cell within its overflow bound n* takes none.
        widths = []
        _counting_stepper(monkeypatch, widths)
        path, dts = RefinementPath.cfl_boundary(), [4e-3, 2e-3, 2e-3, 1e-3, 5e-4]
        halving_sweeps([(ftcs_heat, path, lx.Sine(1), 1.0, PrecisionSpec(bits), dts)])
        if bits == 52:
            assert widths == []
            return
        assert sum(widths) == sum(path.grid_for(dt)[0] * step_count(1.0, dt) for dt in dts)
        assert max(widths) == sum(path.grid_for(dt)[0] for dt in dts)

    def test_a_stepper_is_built_per_stack_and_per_cut(self, monkeypatch):
        # Two 12- and 17-bit FTCS sweeps stack their eight twins, with five
        # step counts.  The loop builds one stepper for the stack, then one
        # at each cut that leaves cells running, on the cells left: five
        # steppers for 100 steps, not one a step.
        widths, built = [], []
        _counting_stepper(monkeypatch, widths)
        counted = roundoff.trajectory

        def building(s, values):
            built.append(values.shape[-1])
            return counted(s, values)

        monkeypatch.setattr(roundoff, "trajectory", building)
        path = RefinementPath.cfl_boundary()
        sweeps = [(ftcs_heat, path, lx.Sine(1), 0.05, PrecisionSpec(bits), dts)
                  for bits, dts in [(12, [4e-3, 2e-3, 1e-3, 5e-4]), (17, [4e-3, 3e-3, 2e-3, 1e-3])]]
        halving_sweeps(sweeps)
        cells = [(path.grid_for(dt)[0], step_count(0.05, dt)) for *_, dts in sweeps for dt in dts]
        ends = sorted({n for _, n in cells})
        assert ends == [12, 17, 25, 50, 100]
        assert built == [sum(grid_n for grid_n, n in cells if n > end) for end in [0] + ends[:-1]]
        assert len(widths) == 100 and sum(widths) == sum(grid_n * n for grid_n, n in cells)

    @pytest.mark.parametrize("r, amplitude, stepped", [(0.5, 1.0, False), (0.6, 1e300, True)],
                             ids=["within-n*", "past-n*"])
    def test_52_bit_twin_steps_only_past_its_overflow_bound(self, monkeypatch, r, amplitude, stepped):
        # Within n* the split with C = 2 is exact and no row can overflow, so
        # the twin takes no step; past it (an unstable stencil from 1e300,
        # which overflows) the twin steps.  Both match the loop that checks
        # both rows every step.
        n, steps, spec = 16, 200, PrecisionSpec(52)
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        values = amplitude * np.random.default_rng(5).uniform(-1, 1, n)
        bound = overflow_free_steps(s, float(np.abs(values).max()), np.finfo(float).max / spec.split,
                                    1 + spec.epsilon / 2)
        assert (steps > bound) == stepped
        widths = []
        _counting_stepper(monkeypatch, widths)
        report = _run_alone(s, lx.GridFunction(values), steps * s.dt, spec)
        assert bool(widths) == stepped
        with np.errstate(over="ignore", invalid="ignore"):
            want = _twin_loop_checking_every_step(s, values, steps, spec)
        assert (report.samples, report.diverged) == want
        assert report.diverged == stepped

    def test_no_unstable_convergence_cell_is_stepped_past_its_end(self, monkeypatch):
        widths = []
        _counting_stepper(monkeypatch, widths)
        path, dts = RefinementPath.fixed_ratio(0.55), [4e-3, 2e-3, 1e-3]
        report = convergence_experiment(ftcs_heat, path, lx.Sine(1), 1.0, dts)
        assert not any(cell.diverged for cell in report.cells)
        assert sum(widths) == sum(path.grid_for(dt)[0] * step_count(1.0, dt) for dt in dts)

    def test_backward_euler_cells_run_alone(self, monkeypatch):
        # N = 15, 20 and 31 are narrow with offsets 0..N-1, one set per N;
        # N = 62 and 125 step through the FFT: every cell is a stack of one.
        widths = []
        _counting_stepper(monkeypatch, widths)
        path, dts = RefinementPath(1.0, 1.0), [4e-1, 3e-1, 2e-1, 1e-1, 5e-2]
        grids = [path.grid_for(dt) for dt in dts]
        assert [n for n, _ in grids] == [15, 20, 31, 62, 125]
        spec = PrecisionSpec(12)
        [sweep] = halving_sweeps([(backward_euler_heat, path, lx.Sine(1), 1.0, spec, dts)])
        assert sum(widths) == sum(n * step_count(1.0, dt) for dt, (n, _) in zip(dts, grids))
        assert set(widths) == {n for n, _ in grids}
        for dt, (n, dx), report in zip(dts, grids, sweep.growth_reports):
            s = backward_euler_heat(dt, dx, n)
            assert report == _run_alone(s, lx.sample(lx.Sine(1), n), 1.0, spec)


@st.composite
def sweep_args(draw):
    """The tuple of one sweep for :func:`halving_sweeps`: FTCS or backward
    Euler on the cfl path or a fixed r up to 1 (unstable FTCS included)."""
    r = draw(st.one_of(st.none(), st.floats(0.3, 1.0, exclude_min=True)))  # None: the cfl path
    probe = _probe(draw(st.sampled_from(["sine", "random", "mixed"])), draw(st.integers(0, 300)),
                   draw(st.integers(0, 2**16)))
    dts = draw(st.lists(st.one_of(st.sampled_from([1e-2, 5e-3, 3e-3, 2e-3]), st.floats(2e-3, 1e-2)),
                        min_size=4, max_size=5))
    return (
        draw(st.sampled_from([ftcs_heat, backward_euler_heat])),
        RefinementPath.cfl_boundary() if r is None else RefinementPath.fixed_ratio(r),
        probe,
        draw(st.sampled_from([0.2, 0.5, 1.0])),
        PrecisionSpec(draw(st.integers(4, 52))),
        dts,
    )


class TestBatchedSweeps:
    """halving_sweeps steps the cells of several sweeps, each at its own
    precision, together; each report must be the sweep's run alone."""

    # The finest cell of the first sweep (N = 133, r = 0.9) diverges at step
    # 70 in a stack beside the stable cfl cells of the 12-bit sweep.
    @example([
        (ftcs_heat, RefinementPath.fixed_ratio(0.9), _probe("mixed", 280, 81), 1.0, PrecisionSpec(17),
         [3e-3, 2e-3, 3e-3, 3e-3, 5e-3]),
        (ftcs_heat, RefinementPath.cfl_boundary(), lx.Sine(1), 1.0, PrecisionSpec(12),
         [1e-2, 5e-3, 2.5e-3, 2e-3]),
        (backward_euler_heat, RefinementPath.cfl_boundary(), lx.Sine(1), 0.5, PrecisionSpec(52), DTS),
    ])
    @given(st.lists(sweep_args(), min_size=2, max_size=4))
    @settings(max_examples=15)
    def test_each_sweep_equals_the_sweep_run_alone(self, sweeps):
        for batched, sweep in zip(halving_sweeps(sweeps), sweeps, strict=True):
            assert [batched] == halving_sweeps([sweep])

    def test_a_failed_setup_raises_before_any_cell_runs(self, monkeypatch):
        widths = []
        _counting_stepper(monkeypatch, widths)
        ok = (ftcs_heat, RefinementPath.cfl_boundary(), lx.Sine(1), 1.0, PrecisionSpec(12), DTS)
        with pytest.raises(InvalidGridError, match="updates"):
            halving_sweeps([ok, ok[:3] + (1e6,) + ok[4:]])
        assert widths == []

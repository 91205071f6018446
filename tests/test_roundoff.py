import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from laxlab.analysis import scheme_builder
from laxlab.errors import DivergedValueError
from laxlab.grid import RefinementPath
from laxlab.roundoff import (
    PrecisionSpec,
    halving_sweep,
    round_to_precision,
    roundoff_growth_experiment,
)
from laxlab.schemes import apply_values, ftcs_heat

TWO_PI = 2 * math.pi
DTS = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


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


def _cfl_cell(dt):
    path = RefinementPath.cfl_boundary()
    n, dx = path.grid_for(dt)
    return ftcs_heat(dt, dx, n), lx.sample(lx.Sine(1), n)


class TestGrowthExperiment:
    def test_full_precision_control_gap_zero(self):
        s, u = _cfl_cell(1e-3)
        report = roundoff_growth_experiment(s, u, 1.0, PrecisionSpec(52))
        assert all(gap == 0.0 for _, _, gap in report.samples)

    def test_reduced_precision_gap_grows_into_band(self):
        s, u = _cfl_cell(1e-3)
        report = roundoff_growth_experiment(s, u, 1.0, PrecisionSpec(12))
        gaps = [gap for _, _, gap in report.samples]
        eps = 2.0**-12
        assert eps <= gaps[-1] <= 1e4 * eps
        # nondecreasing up to 15% jitter from round-off cancellation
        assert all(gaps[i + 1] >= 0.85 * gaps[i] for i in range(len(gaps) - 1))
        assert not report.flagged_unstable

    def test_unstable_scheme_flagged_and_geometric(self):
        n = 64
        dx = TWO_PI / n
        r = 0.55
        s = ftcs_heat(r * dx**2, dx, n)
        u = lx.sample(lx.Sine(1), n)
        report = roundoff_growth_experiment(s, u, 0.5, PrecisionSpec(12))
        assert report.flagged_unstable
        # growth-factor oracle: per-step ratio about max |g| = 4r - 1
        (n1, _, g1), (n2, _, g2) = report.samples[-2:]
        per_step = (g2 / g1) ** (1.0 / (n2 - n1))
        assert per_step == pytest.approx(4 * r - 1, rel=0.05)

    @pytest.mark.parametrize("bits", [8, 12, 52])
    def test_twin_rows_match_separate_trajectories(self, bits):
        # Oracle: the two trajectories stepped one at a time, as 1-d arrays.
        s, u = _cfl_cell(4e-3)
        spec = PrecisionSpec(bits)
        report = roundoff_growth_experiment(s, u, 1.0, spec)
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
        with np.errstate(over="ignore", invalid="ignore"):
            report = roundoff_growth_experiment(s, u, 1000.0, PrecisionSpec(12))
        assert report.diverged
        assert all(math.isfinite(gap) for _, _, gap in report.samples)

    def test_determinism(self):
        s, u = _cfl_cell(2e-3)
        a = roundoff_growth_experiment(s, u, 1.0, PrecisionSpec(12))
        b = roundoff_growth_experiment(s, u, 1.0, PrecisionSpec(12))
        assert a.samples == b.samples

    def test_monotone_information_loss(self):
        s, u = _cfl_cell(1e-3)
        finals = [
            roundoff_growth_experiment(s, u, 1.0, PrecisionSpec(bits)).final_gap
            for bits in (8, 12, 16, 24)
        ]
        assert all(finals[i] >= finals[i + 1] for i in range(len(finals) - 1))


class TestHalvingSweep:
    def test_refinement_does_not_improve_roundoff(self):
        report = halving_sweep(
            scheme_builder("ftcs"),
            RefinementPath.cfl_boundary(),
            lx.Sine(1),
            1.0,
            PrecisionSpec(12),
            DTS,
        )
        assert report.exponent_s is not None
        assert report.exponent_s >= 0.0

    def test_full_precision_control_skips_fit(self):
        report = halving_sweep(
            scheme_builder("ftcs"),
            RefinementPath.cfl_boundary(),
            lx.Sine(1),
            1.0,
            PrecisionSpec(52),
            DTS,
        )
        assert report.fit_skipped
        assert all(gap == 0.0 for _, _, _, gap in report.rows)

    def test_backward_euler_table_shape(self):
        report = halving_sweep(
            scheme_builder("backward_euler"),
            RefinementPath.from_power(1.0, 1.0),
            lx.Sine(1),
            1.0,
            PrecisionSpec(12),
            [2e-1, 1e-1, 5e-2, 2.5e-2],
        )
        assert len(report.rows) == 4
        for dt, dx, n_steps, gap in report.rows:
            assert dt > 0 and dx > 0 and n_steps >= 1 and math.isfinite(gap)

    def test_requires_four_dts(self):
        with pytest.raises(ValueError):
            halving_sweep(
                scheme_builder("ftcs"),
                RefinementPath.cfl_boundary(),
                lx.Sine(1),
                1.0,
                PrecisionSpec(12),
                [1e-2, 5e-3],
            )

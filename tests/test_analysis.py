import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from conftest import EXTENDED_FFT, _circulant_power_ld, _counting_stepper
from laxlab import analysis, schemes
from laxlab.analysis import (
    STABILITY_CAP,
    consistency_check,
    convergence_experiment,
    operator_norm,
    scheme_builder,
    stability_check,
    von_neumann_check,
    von_neumann_symbol,
)
from laxlab.errors import DivergedOperatorError, InvalidGridError
from laxlab.grid import OVERFLOW_LIMIT, RefinementPath, loglog_slope, sample_steps, step_count
from laxlab.roundoff import PrecisionSpec, _stepped_runs
from laxlab.schemes import (
    StencilScheme,
    apply_values,
    backward_euler_heat,
    compose,
    ftcs_heat,
    power,
)
from laxlab.semigroup import evolve

TWO_PI = 2 * math.pi


@st.composite
def stencil_stacks(draw):
    """1-20 stencils with signed coefficients on one N-point grid, N in
    4..512; the stack may hold one stencil whose sum |c| passes the largest
    double."""
    n = draw(st.integers(4, 512))
    stack = []
    for _ in range(draw(st.integers(1, 20))):
        offsets = draw(st.lists(st.integers(-((n - 1) // 2), n // 2), min_size=1, max_size=12, unique=True))
        coefficients = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(offsets), max_size=len(offsets)))
        stack.append(StencilScheme(np.array(offsets), np.array(coefficients), 0.1, 0.1, period=n))
    if draw(st.booleans()):
        big = draw(st.sampled_from([1e308, -1e308]))
        stack.insert(draw(st.integers(0, len(stack))),
                     StencilScheme(np.array([0, 1]), np.array([big, 1e308]), 0.1, 0.1, period=n))
    return stack


class TestOperatorNorm:
    def test_ftcs_quarter(self):
        assert operator_norm(ftcs_heat(0.25, 1.0, 16)) == 1.0

    def test_ftcs_unstable(self):
        assert operator_norm(ftcs_heat(0.75, 1.0, 16)) == pytest.approx(2.0, abs=1e-15)

    def test_identity_stencil(self):
        s = StencilScheme(np.array([0]), np.array([1.0]), 0.1, 0.1, period=16)
        assert operator_norm(s) == 1.0

    def test_witness_vector_attains_norm(self):
        # independent oracle: the sign-pattern probe attains sum |c| at a node
        from laxlab.schemes import apply_values

        s = ftcs_heat(0.75, 1.0, 8)
        n = 8
        witness = np.ones(n)
        witness[np.mod(s.offsets, n)] = np.sign(s.coefficients)
        attained = np.max(np.abs(apply_values(s, witness)))
        assert attained == pytest.approx(operator_norm(s), rel=1e-12)

    @given(st.data(), st.integers(4, 256))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_dense_circulant_row_sum(self, data, n):
        offsets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
        coefficients = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(offsets), max_size=len(offsets)))
        shift = data.draw(st.integers(-n, n))
        s = StencilScheme(np.array(offsets) + shift, np.array(coefficients), 0.1, 0.1, period=n)
        dense = np.zeros((n, n))
        for o, c in zip(s.offsets, s.coefficients):
            dense[np.arange(n), (np.arange(n) + o) % n] = c
        assert operator_norm(s) == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-13, abs=0)

    @pytest.mark.parametrize("s", [
        ftcs_heat(0.75, 1.0, 16),
        ftcs_heat(0.3, 1.0, 256),
        backward_euler_heat(4.0, 1.0, 64),
        StencilScheme(np.array([-3, 0, 2, 5]), np.array([0.5, -1.25, 2.0, -0.125]), 0.1, 0.1, period=383),
    ])
    def test_witness_check_rejects_a_total_off_by_1e_9(self, s):
        # The double transform must keep the check as strict as the long
        # double symbol did: 1e-9 relative is far above its 64 N eps slack.
        kernel = np.bincount(np.mod(s.offsets, s.period), s.coefficients, minlength=s.period)
        witness, g = np.where(kernel < 0, -1.0, 1.0), np.fft.rfft(kernel)
        total = operator_norm(s)
        analysis._check_witness(witness, g, total)
        for off in (1 - 1e-9, 1 + 1e-9):
            with pytest.raises(RuntimeError, match="disagree"):
                analysis._check_witness(witness, g, total * off)

    def test_leaves_the_long_double_symbol_untaken(self):
        s = ftcs_heat(0.75, 1.0, 64)
        operator_norm(s)
        assert "symbol_minus_one" not in vars(s)

    def test_sum_past_the_largest_double_is_infinite(self):
        s = StencilScheme(np.array([0, 1]), np.array([1e308, 1e308]), 0.1, 0.1, period=16)
        assert operator_norm(s) == math.inf
        report = stability_check(s, 0.3)
        assert report.bound_l == math.inf and not report.stable

    @given(stencil_stacks())
    @settings(max_examples=100, deadline=None)
    def test_list_form_matches_each_stencil_bit_for_bit(self, stack):
        norms = operator_norm(stack)
        one_by_one = [operator_norm(s) for s in stack]
        assert all(isinstance(norm, float) for norm in one_by_one)
        assert list(map(float.hex, norms)) == list(map(float.hex, one_by_one))

    def test_list_form_of_nothing_is_empty(self):
        assert operator_norm([]) == []

    def test_list_form_rejects_two_grids_before_any_transform(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed a list of stencils on two grids")

        overflowing = StencilScheme(np.array([0, 1]), np.array([1e308, 1e308]), 0.1, 0.1, period=32)
        monkeypatch.setattr(np.fft, "rfft", no_transform)
        for other in (ftcs_heat(0.75, 1.0, 32), overflowing):
            with pytest.raises(InvalidGridError, match="periods"):
                operator_norm([ftcs_heat(0.75, 1.0, 16), other])

    def test_witness_check_rejects_one_row_of_a_batch_off_by_1e_9(self):
        # The rows of one call share nothing but the transform: each keeps
        # its own 64 N eps slack, so one wrong total fails the whole batch.
        s = StencilScheme(np.array([-3, 0, 2, 5]), np.array([0.5, -1.25, 2.0, -0.125]), 0.1, 0.1, period=256)
        stack = [power(s, n) for n in (1, 2, 3, 5, 8, 13)]
        kernels = np.stack([np.bincount(np.mod(p.offsets, p.period), p.coefficients, minlength=p.period)
                            for p in stack])
        witness, g = np.where(kernels < 0, -1.0, 1.0), np.fft.rfft(kernels)
        totals = np.array(operator_norm(stack))
        analysis._check_witness(witness, g, totals)
        for row in range(len(stack)):
            for off in (1 - 1e-9, 1 + 1e-9):
                wrong = totals.copy()
                wrong[row] *= off
                with pytest.raises(RuntimeError, match="disagree"):
                    analysis._check_witness(witness, g, wrong)


class TestStability:
    def test_cfl_boundary_all_norms_one(self):
        n = 128
        dx = TWO_PI / n
        s = ftcs_heat(0.5 * dx**2, dx, n)
        report = stability_check(s, 1.0)
        assert report.stable
        for _, norm in report.norms:
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_just_past_threshold_unstable(self):
        n = 128
        dx = TWO_PI / n
        s = ftcs_heat(0.55 * dx**2, dx, n)
        report = stability_check(s, 1.0)
        assert not report.stable
        assert report.bound_l > STABILITY_CAP

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_backward_euler_unconditionally_stable(self, r):
        n = 32
        dx = TWO_PI / n
        s = backward_euler_heat(r * dx**2, dx, n)
        report = stability_check(s, 20 * s.dt)
        assert report.stable
        assert report.bound_l <= 1.0 + 1e-10

    def test_geometric_growth_visible_in_norms(self):
        # n-fold convolution oracle: norms grow like (4r-1)^n for r > 1/2
        s = ftcs_heat(0.75, 1.0, 64)
        report = stability_check(s, 20.0 * 1.0 * 0.75 / 0.75)  # n_max about 20
        norms = dict(report.norms)
        assert norms[10] == pytest.approx((4 * 0.75 - 1) ** 10, rel=1e-8)

    def test_submultiplicativity_and_nonnegative_equality(self):
        s_pos = ftcs_heat(0.3, 1.0, 64)
        s_neg = ftcs_heat(0.75, 1.0, 64)
        for s in (s_pos, s_neg):
            base = operator_norm(s)
            for n in (2, 3, 5, 8):
                assert operator_norm(power(s, n)) <= base**n * (1 + 1e-12)
        for n in (2, 3, 5, 8):
            assert operator_norm(power(s_pos, n)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2047, 2048])
    def test_grid_norms_do_not_drift_at_the_cfl_boundary(self, n):
        # Every power of (1/2, 0, 1/2) is a nonnegative kernel summing to 1;
        # wrapping it mod N must not let rounding push a norm off 1.
        dx = TWO_PI / n
        report = stability_check(ftcs_heat(0.5 * dx**2, dx, n), 1.0)
        assert report.stable
        for _, norm in report.norms:
            assert abs(norm - 1.0) <= 1e-12

    def test_grid_overflow_reports_infinite_norm(self):
        n = 256
        dx = TWO_PI / n
        report = stability_check(ftcs_heat(0.75 * dx**2, dx, n), 1.0)
        assert not report.stable
        assert report.norms[-1] == (1024, math.inf)
        assert report.first_exceeding(10.0) == 4

    @pytest.mark.parametrize(
        "n_max, dense, expected",
        [
            (1, 8, [1]),
            (8, 8, list(range(1, 9))),
            (9, 8, list(range(1, 10))),
            (40, 8, list(range(1, 9)) + [16, 32, 40]),
            (64, 8, list(range(1, 9)) + [16, 32, 64]),
            (5, 64, [1, 2, 3, 4, 5]),
            (128, 64, list(range(1, 65)) + [128]),
            (1000, 64, list(range(1, 65)) + [128, 256, 512, 1000]),
        ],
    )
    def test_sample_steps_schedule(self, n_max, dense, expected):
        assert sample_steps(n_max, dense) == expected

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(InvalidGridError, match="shorter than one step"):
            stability_check(ftcs_heat(0.5, 1.0, 16), 0.1)

    def test_step_count_past_any_float_rejected(self):
        # t/dt = 1e310 overflows to inf: a typed error, not an OverflowError.
        # step_count is where the round-off twins take their step count.
        s = ftcs_heat(1e-310, TWO_PI / 64, 64)
        with pytest.raises(InvalidGridError, match="too many steps"):
            stability_check(s, 1.0)
        with pytest.raises(InvalidGridError, match="too many steps"):
            step_count(1.0, s.dt)

    def test_walk_reuses_each_square_at_scale(self, monkeypatch):
        # An FTCS row just past r = 1/2 fails von Neumann, so its 88 sampled
        # norms come from the power/compose walk.  bound_l is pinned from
        # binary powering without a cache; with the squares cached per
        # stencil the walk takes 87 compositions plus O(log n_max)
        # convolutions for the powers, not one squaring chain per sample.
        n = 1024
        dx = TWO_PI / n
        s = ftcs_heat(0.5000001 * dx**2, dx, n)
        calls = []
        conv = schemes._conv
        monkeypatch.setattr(schemes, "_conv", lambda *args: calls.append(1) or conv(*args))
        report = stability_check(s, 1e9 * s.dt)
        assert not report.stable and len(report.norms) == 88
        assert report.bound_l.hex() == "0x1.0e3400b786637p+577"
        assert len(calls) <= 88 + 2 * report.n_steps.bit_length()

    def test_report_counts_the_steps_in_the_horizon(self):
        report = stability_check(ftcs_heat(0.1, 1.0, 16), 1.0)
        assert report.n_steps == 10 and report.norms[-1][0] == 10


def _walked_norms_reference(s, horizon_t):
    """The power/compose walk every stability row took before symbol norms."""
    n_max = step_count(horizon_t, s.dt)
    norms = []
    current = None
    prev_n = 0
    for n in sample_steps(n_max, 64):
        try:
            jump = power(s, n - prev_n)
            current = jump if current is None else compose(current, jump)
        except DivergedOperatorError:
            norms.append((n, math.inf))
            break
        norms.append((n, operator_norm(current)))
        prev_n = n
    return tuple(norms)


class TestSymbolNorms:
    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(st.integers(128, 4096), st.floats(0.0, 0.5, exclude_min=True))
    @example(3000, 0.45)
    @example(3000, 0.1)
    @example(2047, 0.3)
    @example(4096, 0.5)
    @example(128, 2.0**-52)
    @example(401, 1e-100)
    @settings(max_examples=12)
    def test_stable_ftcs_rows_stay_within_one(self, n, r):
        # The power/compose walk drifted to 1 + 2.8e-11 at N = 3000, r = 0.45,
        # and r = 0.1 also needs the exact FTCS row sum (1 + 1.3e-10 without).
        # At r = 2^-52 a plain long double g**n read 1.002: g = 1 - 1e-18
        # keeps few bits of g - 1, and n is 2e18.
        # A dt that underflows to 0 is no stencil, and one so small that
        # 1/dt overflows has no step count.
        dx = TWO_PI / n
        dt = r * dx**2
        assume(dt > 0 and 1.0 / dt < math.inf)
        report = stability_check(ftcs_heat(dt, dx, n), 1.0)
        assert report.stable
        assert report.bound_l <= 1.0 + 1e-12

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(st.floats(1e-6, 1.0, exclude_max=True), st.integers(4, 64), st.integers(1, 3000))
    @example(0.5, 64, 3000)
    @example(0.9, 61, 2000)
    @example(1e-3, 4, 1)
    @settings(max_examples=12)
    def test_symbol_norms_match_dense_powers(self, nu, n, n_max):
        # Against C^k formed by direct circular convolutions in long double.
        # Lax-Wendroff passes von Neumann with a negative coefficient, so
        # its rows take the symbol path, and its norms grow past 1.
        s = lax_wendroff(nu, n)
        assert von_neumann_check(s).passed
        with mock.patch.object(analysis, "_symbol_norms", wraps=analysis._symbol_norms) as spy:
            report = stability_check(s, float(n_max))
        spy.assert_called_once()
        for k, norm in report.norms:
            exact = float(np.abs(_circulant_power_ld(s, k)).sum(axis=1).max())
            assert abs(norm - exact) <= 1e-13 * exact, (k, norm, exact)

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @pytest.mark.parametrize("offsets", [[-1, 0, 1], [0, 3, 7]])
    def test_symbol_norms_of_a_tiny_row_sum_keep_relative_accuracy(self, offsets):
        # Every mode has |g| <= sum c = 1e-6, far below the noise that g - 1
        # carries relative to g; the norms of a nonnegative stencil are
        # exactly (sum c)^n.
        coefficients = np.array([0.2, 0.5, 0.3]) * 1e-6
        s = StencilScheme(np.array(offsets), coefficients, 1.0, 1.0, 61)
        total = sum(map(Fraction, coefficients.tolist()))
        steps = [1, 2, 10, 40]
        for k, norm in zip(steps, analysis._symbol_norms(s, steps), strict=True):
            assert abs(Fraction(norm) - total**k) <= Fraction(1, 10**12) * total**k, (k, norm)

    def test_symbol_norms_of_the_zero_stencil_are_zero(self):
        # N = 307 is prime: the transform of the identity carries noise.
        s = StencilScheme(np.array([-1, 0, 1]), np.zeros(3), 1.0, 1.0, 307)
        assert analysis._symbol_norms(s, [1, 2, 10, 40]) == [0.0] * 4

    def test_overflowing_symbol_norms_are_infinite_and_unstable(self):
        # max|g|^n passes the largest double from n ~ 1.8e15 on: those
        # samples read inf with no transform.
        s = _in_slack_with_a_negative_coefficient()
        assert von_neumann_check(s).passed
        report = stability_check(s, 1e16)
        norms = dict(report.norms)
        assert math.isfinite(norms[2**50]) and norms[2**51] == math.inf
        assert report.norms[-1] == (10**16, math.inf)
        assert report.bound_l == math.inf and not report.stable

    def test_symbol_norm_just_below_the_largest_double_is_finite(self):
        # ||C^n|| = 1.02e308: its witness check, scaled by the norm, must not
        # overflow on the way.
        n = 1772990521605769
        report = stability_check(_in_slack_with_a_negative_coefficient(), float(n))
        assert report.norms[-1] == (n, pytest.approx(math.exp(n * math.log1p((0.5 + 4e-13) - 0.5)), rel=1e-9))
        assert report.bound_l > 1e308 and not report.stable

    def test_passing_rows_never_walk_powers(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("a row that passes the von Neumann check walked its powers")

        monkeypatch.setattr(analysis, "power", no_walk)
        monkeypatch.setattr(analysis, "compose", no_walk)
        n = 256
        dx = TWO_PI / n
        for s, horizon in (
            (ftcs_heat(0.3 * dx**2, dx, n), 1.0),
            (ftcs_heat(0.5 * dx**2, dx, n), 1.0),
            (backward_euler_heat(4.0 * dx**2, dx, n), 0.05),
        ):
            report = stability_check(s, horizon)
            assert report.stable
            assert report.bound_l <= 1.0 + 1e-12
        # A row that fails the check still walks.
        with pytest.raises(AssertionError, match="walked"):
            stability_check(ftcs_heat(0.55 * dx**2, dx, n), 1.0)

    @pytest.mark.parametrize("r", [0.55, 0.75])
    def test_failing_rows_keep_the_walk_bit_for_bit(self, r):
        n = 256
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        report = stability_check(s, 1.0)
        assert not von_neumann_check(s).passed
        assert report.norms == _walked_norms_reference(s, 1.0)
        assert report.bound_l == max(norm for _, norm in report.norms)

    def test_walk_builds_no_power_through_the_checked_constructor(self, monkeypatch):
        n = 256
        dx = TWO_PI / n
        s = ftcs_heat(0.55 * dx**2, dx, n)
        built = []
        check = StencilScheme.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(StencilScheme, "__post_init__", counted)
        report = stability_check(s, 1.0)
        assert built == []
        assert report.bound_l.hex() == "0x1.c990f5357d438p+793"
        ftcs_heat(0.55 * dx**2, dx, n)  # the count does see a checked build
        assert len(built) == 1

    @pytest.mark.parametrize("n", [256, 8192])
    @pytest.mark.parametrize("r", [0.55, 0.75])
    def test_walk_checks_every_norm_in_bounded_batches(self, n, r, monkeypatch):
        checked = []
        check = analysis._check_witness

        def record(witness, powers, totals):
            checked.append(witness.shape)
            check(witness, powers, totals)

        monkeypatch.setattr(analysis, "_check_witness", record)
        dx = TWO_PI / n
        report = stability_check(ftcs_heat(r * dx**2, dx, n), 1.0)
        assert not report.stable
        finite = sum(math.isfinite(norm) for _, norm in report.norms)
        assert finite > 64
        assert sum(math.prod(shape[:-1]) for shape in checked) == finite
        assert all(shape[-1] == n and math.prod(shape) <= max(n, analysis._NORM_BATCH) for shape in checked)

    @pytest.mark.parametrize("r", [0.3, 0.75])
    def test_report_carries_the_von_neumann_factor(self, r):
        n = 64
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        assert stability_check(s, 1.0).max_abs_g == von_neumann_check(s).max_abs_g


def _in_slack_with_a_negative_coefficient():
    """max|g| = 1 + 4e-13 passes the von Neumann slack, and the -1e-30 keeps
    the row off the row-sum path."""
    return StencilScheme(np.array([-1, 0, 1, 2]), np.array([0.25, 0.5 + 4e-13, 0.25, -1e-30]), 1.0, 1.0, 64)


def lax_wendroff(nu, n):
    """Lax-Wendroff for u_t + u_x = 0 at Courant number nu on n points."""
    return StencilScheme(
        np.array([-1, 0, 1]), np.array([nu * (1 + nu) / 2, 1 - nu**2, -nu * (1 - nu) / 2]), 1.0, 1.0, n
    )


@st.composite
def backward_euler_rows(draw):
    """(N, r, T): N in 4..4096, r from 1e-16 to 1e3, and 1 to 1e18 steps."""
    n = draw(st.integers(4, 4096))
    r = 10.0 ** draw(st.floats(-16, 3))
    steps = 10.0 ** draw(st.floats(0, 18))
    return n, r, steps * r * (TWO_PI / n) ** 2


@st.composite
def nonnegative_stencils(draw, max_n, min_sum=0.0):
    """A stencil of 1-8 distinct offsets with nonnegative coefficients whose
    sum is between ``min_sum`` and 1, on an N-point grid, N in 4..max_n."""
    n = draw(st.integers(4, max_n))
    offsets = draw(
        st.lists(st.integers(-((n - 1) // 2), n // 2), min_size=1, max_size=8, unique=True)
    )
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(offsets), max_size=len(offsets))))
    total = draw(st.floats(min_sum, 1.0))
    if not weights.sum() > 0:
        weights = np.ones(len(offsets))
    coefficients = weights / weights.sum() * total
    return StencilScheme(np.array(offsets), coefficients, dt=1.0, dx=1.0, period=n)


def _close(norm, exact):
    # Relative, except among subnormals, whose spacing is absolute.
    return abs(norm - exact) <= 1e-13 * exact + np.finfo(float).smallest_subnormal


class TestRowSumNorms:
    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(nonnegative_stencils(64), st.integers(1, 3000))
    @example(StencilScheme(np.array([-1, 0, 1]), np.array([0.25, 0.5, 0.25]), 1.0, 1.0, 4), 3000)
    @example(StencilScheme(np.array([0, 3]), np.array([0.3, 0.2]), 1.0, 1.0, 61), 1000)
    @settings(max_examples=30)
    def test_row_sum_norms_match_dense_powers(self, s, n_max):
        assert von_neumann_check(s).passed
        report = stability_check(s, float(n_max))
        for k, norm in report.norms:
            exact = float(np.abs(_circulant_power_ld(s, k)).sum(axis=1).max())
            assert _close(norm, exact), (k, norm, exact)

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(nonnegative_stencils(512, min_sum=0.1), st.integers(1, 3000))
    @example(StencilScheme(np.array([-1, 0, 1]), np.array([0.2, 0.55, 0.25]), 1.0, 1.0, 383), 3000)
    @example(StencilScheme(np.array([-2, 5]), np.array([0.6, 0.39]), 1.0, 1.0, 509), 3000)
    @example(StencilScheme(np.array([0, 1, 2]), np.array([0.1, 0.2, 0.3]), 1.0, 1.0, 255), 1000)
    @settings(max_examples=30)
    def test_row_sum_norms_match_symbol_norms(self, s, n_max):
        # Each mode of the symbol carries noise of about N long double ulps of
        # 1, so the symbol path resolves a norm to 1e-13 only while the row
        # sum stays near 1; below 0.1 the dense oracle above is the reference.
        report = stability_check(s, float(n_max))
        steps = [k for k, _ in report.norms]
        for (k, norm), symbol_norm in zip(report.norms, analysis._symbol_norms(s, steps)):
            assert _close(norm, symbol_norm), (k, norm, symbol_norm)

    @pytest.mark.parametrize("n", [64, 383, 1024])
    @pytest.mark.parametrize("r", [0.1, 0.25, 0.3, 0.5])
    def test_stable_ftcs_norms_are_exactly_one_with_no_transform(self, monkeypatch, n, r):
        # At N = 383 the symbol's mode 0 carries 1e-19 of Bluestein noise;
        # the row sum of an FTCS stencil at r <= 1/2 is exactly 1.
        def no_symbol(*args):
            raise AssertionError("a nonnegative stencil took its norms from the symbol")

        monkeypatch.setattr(analysis, "_symbol_norms", no_symbol)
        dx = TWO_PI / n
        report = stability_check(ftcs_heat(r * dx**2, dx, n), 1.0)
        assert report.bound_l == 1.0
        assert all(norm == 1.0 for _, norm in report.norms)
        assert report.stable

    @given(backward_euler_rows())
    # The rows of the ROADMAP's table, on which the transformed inverse used
    # to read 1.17e82 (a wrong verdict), 1.21, 1.44, 2.32 and a traceback.
    @example((4096, 1e-12, 4.0))
    @example((4096, 1e-9, 4.0))
    @example((1024, 1e-12, 4.0))
    @example((64, 1e-16, 1.0))
    @example((65536, 1e-12, 4.0))
    @example((64, 1e308, 1e307))
    @settings(max_examples=40)
    def test_backward_euler_norms_are_exactly_one_with_no_transform(self, row):
        # Every backward Euler row is nonnegative and sums to exactly 1.
        n, r, horizon = row
        dx = TWO_PI / n
        s = backward_euler_heat(r * dx**2, dx, n)
        with mock.patch.object(analysis, "_symbol_norms", side_effect=AssertionError("took the symbol")):
            report = stability_check(s, horizon)
        assert report.bound_l == 1.0 and report.stable
        assert all(norm == 1.0 for _, norm in report.norms)

    def test_overflowing_norm_is_infinite_and_unstable(self):
        # max|g| = 1 + 4e-13 passes the von Neumann slack; (1 + 4e-13)^1e16
        # is e^4000, finite in long double and past the largest double.
        s = StencilScheme(np.array([-1, 0, 1]), np.array([0.25, 0.5 + 4e-13, 0.25]), 1.0, 1.0, 64)
        assert von_neumann_check(s).passed
        report = stability_check(s, 1e16)
        assert report.bound_l == math.inf
        assert not report.stable
        assert report.norms[-1] == (10**16, math.inf)

    def test_zero_stencil_has_zero_norms(self):
        s = StencilScheme(np.array([0, 1]), np.array([0.0, 0.0]), 1.0, 1.0, 8)
        report = stability_check(s, 100.0)
        assert report.bound_l == 0.0 and report.stable


class TestVonNeumann:
    def test_symbol_at_pi(self):
        n = 16
        dx = TWO_PI / n
        s = ftcs_heat(0.5 * dx**2, dx, n)
        g = von_neumann_symbol(s, n // 2)
        assert g.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(g.imag) < 1e-12

    def test_zero_wavenumber_is_row_sum(self):
        s = ftcs_heat(0.4, 1.0, 16)
        g = von_neumann_symbol(s, 0)
        assert g.real == pytest.approx(math.fsum(s.coefficients), abs=1e-15)

    def test_unstable_symbol_at_pi(self):
        n = 16
        dx = TWO_PI / n
        s = ftcs_heat(0.75 * dx**2, dx, n)
        g = von_neumann_symbol(s, n // 2)
        assert g.real == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("r,expected_pass", [(0.1, True), (0.5, True), (0.75, False)])
    def test_check_matches_calculus_oracle(self, r, expected_pass):
        # max of |1 - 4 r sin^2| over representable modes; max |1-4r| at sin^2=1
        n = 64
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        report = von_neumann_check(s)
        assert report.passed is expected_pass
        assert report.max_abs_g == pytest.approx(max(1.0, 4 * r - 1), rel=1e-12)

    def test_unit_domain_symbol_uses_grid_phase(self):
        # On L = 1 the mode k = N/2 still alternates in sign, so
        # g = 1 - 4r = -2 at r = 0.75 whatever dx is.
        n = 16
        dx = 1.0 / n
        s = ftcs_heat(0.75 * dx**2, dx, n)
        assert von_neumann_check(s).max_abs_g == 2.0
        assert von_neumann_symbol(s, n // 2) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [6, 7, 15, 16, 33, 64])
    def test_fft_scan_matches_mode_by_mode_symbols(self, n):
        dx = 1.0 / n
        for s in (
            ftcs_heat(0.3 * dx**2, dx, n),
            ftcs_heat(0.7 * dx**2, dx, n),
            backward_euler_heat(2.0 * dx**2, dx, n),
            StencilScheme(
                np.array([-2, 0, 3]), np.array([0.2, -0.5, 0.4]), 0.1, dx, period=n
            ),
        ):
            ks = list(range(-(n // 2), (n + 1) // 2))
            mags = [abs(von_neumann_symbol(s, k)) for k in ks]
            assert von_neumann_check(s).max_abs_g == pytest.approx(max(mags), abs=1e-12)

    def test_identity_scheme_passes(self):
        s = StencilScheme(np.array([0]), np.array([1.0]), 0.1, 0.1, period=32)
        report = von_neumann_check(s)
        assert report.passed and report.max_abs_g == pytest.approx(1.0, abs=1e-15)

    def test_symbol_bounded_by_operator_norm(self):
        for r in (0.1, 0.3, 0.5, 0.55, 0.75, 1.0):
            n = 64
            dx = TWO_PI / n
            s = ftcs_heat(r * dx**2, dx, n)
            assert von_neumann_check(s).max_abs_g <= operator_norm(s) + 1e-12


class TestConsistency:
    def test_small_dt_residual(self):
        dt = 1e-4
        path = RefinementPath.cfl_boundary()
        n, dx = path.grid_for(dt)
        s = ftcs_heat(dt, dx, n)
        u = lx.sample(lx.Sine(1), n)
        residuals = consistency_check(s, u, [0.0])
        # closed-form oracle: |g(1) - e^{-dt}| times the grid sup of sin
        g1 = 1 - 4 * s.courant_ratio * math.sin(dx / 2) ** 2
        oracle = abs(g1 - math.exp(-dt)) * lx.sup_norm(u)
        assert residuals[0][1] <= 1e-7
        assert residuals[0][1] == pytest.approx(oracle, rel=1e-6)

    def test_constant_residual_zero(self):
        n = 32
        dx = TWO_PI / n
        s = ftcs_heat(0.4 * dx**2, dx, n)
        u = lx.sample(lx.Constant(1.0), n)
        residuals = consistency_check(s, u, [0.0, 0.3, 0.7])
        assert max(res for _, res in residuals) < 1e-14

    def test_second_order_one_step_ratio(self):
        path = RefinementPath.fixed_ratio(0.5)
        res = []
        for dt in (1e-3, 5e-4):
            n, dx = path.grid_for(dt)
            s = ftcs_heat(dt, dx, n)
            u = lx.sample(lx.Sine(1), n)
            res.append(consistency_check(s, u, [0.0])[0][1])
        assert 3.5 <= res[0] / res[1] <= 4.5

    def test_grid_mismatch_rejected(self):
        s = ftcs_heat(0.01, TWO_PI / 32, 32)
        with pytest.raises(InvalidGridError, match="dx"):
            consistency_check(s, lx.sample(lx.Sine(1), 64), [0.0])


class TestConvergence:
    def test_ftcs_along_cfl_boundary_converges(self):
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.cfl_boundary(),
            lx.Sine(1),
            1.0,
            [1e-2, 2.5e-3, 6.25e-4],
        )
        assert report.converged
        errors = [e for _, e in report.errors]
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))

    def test_unstable_ratio_diverges_on_broadband_probe(self):
        # growth-factor oracle: |g| > 1 at the top modes for r = 0.55
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.fixed_ratio(0.55),
            lx.RandomUniform(3),
            1.0,
            [4e-3, 2e-3, 1e-3],
        )
        assert not report.converged
        assert any(c.diverged or c.error > 1e3 for c in report.cells)

    def test_backward_euler_along_dt_equals_dx(self):
        report = convergence_experiment(
            scheme_builder("backward_euler"),
            RefinementPath(1.0, 1.0),
            lx.Sine(1),
            1.0,
            [1e-2, 5e-3, 2.5e-3],
        )
        assert report.converged

    @pytest.mark.parametrize("horizon_t", [0.0, -1.0, math.nan])
    def test_nonpositive_horizon_rejected(self, horizon_t):
        with pytest.raises(ValueError, match="horizon_t must be positive"):
            convergence_experiment(
                scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), horizon_t, [1e-2]
            )

    def test_horizon_shorter_than_one_step_rejected(self):
        # T = 1e-4 is under half of every dt: a cell would take one step and
        # be compared at t = dt, not at T, and read as converged.
        with pytest.raises(InvalidGridError, match="shorter than one step"):
            convergence_experiment(
                scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), 1e-4, [1e-2, 5e-3, 2.5e-3]
            )

    def test_stable_and_consistent_implies_convergent(self):
        # the forward implication of the equivalence theorem, observed
        cases = [
            ("ftcs", RefinementPath.fixed_ratio(0.3), 0.3),
            ("ftcs", RefinementPath.fixed_ratio(0.5), 0.5),
            ("backward_euler", RefinementPath(1.0, 1.0), None),
        ]
        for name, path, _ in cases:
            dts = [5e-3, 2.5e-3, 1.25e-3]
            builder = scheme_builder(name)
            for dt in dts:
                n, dx = path.grid_for(dt)
                s = builder(dt, dx, n)
                assert stability_check(s, 1.0).stable
                res = consistency_check(s, lx.sample(lx.Sine(1), n), [0.0, 0.5])
                assert max(r for _, r in res) < 1e-3
            report = convergence_experiment(builder, path, lx.Sine(1), 1.0, dts)
            assert report.converged

    def test_no_order_fitted_to_growing_errors(self):
        # Finite but exploding errors (~1e15 .. 1e74) have a log-log slope,
        # but it measures blow-up, not convergence.
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.fixed_ratio(0.55),
            lx.RandomUniform(3),
            1.0,
            [4e-3, 2e-3, 1e-3],
        )
        assert all(math.isfinite(c.error) for c in report.cells)
        assert report.observed_order is None

    def test_errors_at_round_off_level_converge_with_no_order(self):
        # e^-40 ~ 4e-18: every error sits below eps*||u||, where a 10%
        # monotone gate reads noise, and no order can be fitted to noise.
        report = convergence_experiment(
            scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), 40.0, [4e-3, 2e-3, 1e-3]
        )
        errors = [c.error for c in report.cells]
        assert max(errors) < np.finfo(float).eps and errors[2] > 1.1 * errors[1]
        assert report.converged and report.observed_order is None

    def test_unstable_cells_past_the_update_budget_rejected(self, monkeypatch):
        # N = 70, r ~ 0.50001 fails von Neumann: 2.48e6 steps, 1.74e8 updates.
        widths = []
        _counting_stepper(monkeypatch, widths)
        path = RefinementPath.fixed_ratio(0.500012)
        with pytest.raises(InvalidGridError, match="1.74e\\+08 updates"):
            convergence_experiment(scheme_builder("ftcs"), path, lx.Sine(1), 1e4, [0.004028497])
        assert widths == []

    def test_cells_report_the_symbol_of_the_grid_they_land_on(self):
        # The path asks for r = 0.7500001; flooring N lands on N = 16, r = 0.75.
        dx = TWO_PI / 16
        dt = 0.75 * dx**2
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.fixed_ratio(0.7500001),
            lx.Sine(1),
            1.0,
            [dt],
        )
        assert round(TWO_PI / report.cells[0].dx) == 16
        assert report.cells[0].max_abs_g == 2.0

    def test_diverged_cell_reports_infinite_error(self):
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.fixed_ratio(1.0),
            lx.RandomUniform(1),
            1.0,
            [1e-3],
        )
        assert not report.converged
        assert report.cells[0].error == math.inf

    def test_only_cells_failing_von_neumann_are_stepped(self, monkeypatch):
        # r = 0.55 fails the check, so each cell must equal a plain step
        # loop bit for bit: its blow-up grows from per-step round-off.
        probe = lx.RandomUniform(3)
        report = convergence_experiment(
            scheme_builder("ftcs"), RefinementPath.fixed_ratio(0.55), probe, 1.0, [4e-3, 2e-3, 1e-3]
        )
        for cell in report.cells:
            grid_n = round(TWO_PI / cell.dx)
            s = ftcs_heat(cell.dt, cell.dx, grid_n)
            u = lx.sample(probe, grid_n)
            vals, expected = u.values, None
            for _ in range(cell.n_steps):
                vals = apply_values(s, vals)
                if not np.abs(vals).max() <= OVERFLOW_LIMIT:
                    expected = math.inf
                    break
            if expected is None:
                expected = float(np.max(np.abs(vals - evolve(u, cell.n_steps * cell.dt).values)))
            assert not von_neumann_check(s).passed
            assert cell.error == expected

        # Cells that pass the check take the symbol power and never step.
        widths = []
        _counting_stepper(monkeypatch, widths)
        report = convergence_experiment(
            scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), 1.0, [1e-2, 2.5e-3]
        )
        assert report.converged and widths == []

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(1, 10**6),
                st.one_of(
                    st.floats(-1e300, 1e300),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                ),
            ),
            max_size=12,
        ),
        min_points=st.integers(2, 8),
    )
    # One x thrice (a dt listed three times): no slope to fit.
    @example([(10, 1.0), (10, 2.0), (10, 3.0)], 3)
    def test_loglog_slope_fits_only_finite_positive_points(self, pairs, min_points):
        kept = [(x, y) for x, y in pairs if y > 0 and math.isfinite(y)]
        got = loglog_slope(pairs, min_points)
        if len({x for x, _ in kept}) < min_points:
            assert got is None
        else:
            xs, ys = zip(*kept)
            assert got == float(np.polyfit(np.log(xs), np.log(ys), 1)[0])

    @given(
        r=st.floats(0.5, 1.0, exclude_min=True),
        n=st.integers(8, 96),
        magnitude=st.floats(0, 299.9),
        n_steps=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    # Starts a step or two below the limit: n* is 0 or 1 and the checked tail runs.
    @example(r=1.0, n=8, magnitude=299.9, n_steps=50, seed=0)
    @example(r=0.75, n=96, magnitude=299.5, n_steps=3, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_unstable_trajectory_matches_a_loop_guarding_every_step(self, r, n, magnitude, n_steps, seed):
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        u = lx.GridFunction(10.0**magnitude * np.random.default_rng(seed).uniform(-1, 1, n))
        vals, diverged = u.values, False
        with np.errstate(over="ignore", invalid="ignore"):
            for taken in range(1, n_steps + 1):
                vals = apply_values(s, vals)
                if not np.abs(vals).max() <= OVERFLOW_LIMIT:
                    diverged = True
                    break
        widths = []
        with pytest.MonkeyPatch.context() as patch:
            _counting_stepper(patch, widths)
            [(rows, got_diverged)] = _stepped_runs([(s, n_steps, u, [n_steps], OVERFLOW_LIMIT, None)])
        # The run stops at the step the guarding loop stops at.
        assert got_diverged == diverged and len(widths) == taken
        if not diverged:
            [got] = rows
            assert np.array_equal(got.view(np.int64), vals.view(np.int64))

    @given(
        cells=st.lists(
            st.tuples(
                st.floats(0.5, 1.0, exclude_min=True),
                st.integers(8, 96),
                st.floats(0, 299.9),
                st.integers(1, 400),
                st.integers(0, 2**32 - 1),
                st.one_of(st.none(), st.integers(4, 52)),  # None: a convergence cell, else a twin
            ),
            min_size=2,
            max_size=6,
        )
    )
    # Three cells of different lengths in one stack; the longest diverges at
    # step 11, before the shorter two end.
    @example([(1.0, 8, 296.0, 300, 0, None), (0.75, 40, 0.0, 120, 1, None), (0.6, 17, 1.0, 20, 2, None)])
    @settings(max_examples=40, deadline=None)
    def test_each_cell_of_a_mixed_stack_equals_its_run_alone(self, cells):
        runs = []
        for r, n, magnitude, n_steps, seed, bits in cells:
            dx = TWO_PI / n
            u = lx.GridFunction(10.0**magnitude * np.random.default_rng(seed).uniform(-1, 1, n))
            if bits is None:
                runs.append((ftcs_heat(r * dx**2, dx, n), n_steps, u, [n_steps], OVERFLOW_LIMIT, None))
            else:
                runs.append((ftcs_heat(r * dx**2, dx, n), n_steps, u, sample_steps(n_steps, 8),
                             np.finfo(float).max, PrecisionSpec(bits)))
        for cell, (got, diverged) in zip(runs, _stepped_runs(runs), strict=True):
            [(alone, alone_diverged)] = _stepped_runs([cell])
            assert diverged == alone_diverged and len(got) == len(alone)
            for a, b in zip(got, alone):
                if cell[5] is None:
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))
                else:
                    assert a == b

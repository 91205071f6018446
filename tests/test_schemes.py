import functools
import math
import sys
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from conftest import EXTENDED_FFT, _circulant_power_ld
from laxlab.analysis import operator_norm, von_neumann_symbol
from laxlab.errors import DivergedOperatorError, InvalidGridError
from laxlab.grid import OVERFLOW_LIMIT
from laxlab.roundoff import PrecisionSpec, _stepped_runs, round_to_precision
from laxlab.schemes import (
    StencilScheme,
    apply_power,
    apply_values,
    backward_euler_heat,
    compose,
    ftcs_heat,
    overflow_free_steps,
    power,
    trajectory,
)

TWO_PI = 2 * math.pi


class TestFtcs:
    def test_cfl_boundary_coefficients(self):
        s = ftcs_heat(0.5, 1.0, 16)
        assert np.array_equal(s.offsets, [-1, 0, 1])
        assert np.array_equal(s.coefficients, [0.5, 0.0, 0.5])

    def test_quarter_ratio(self):
        s = ftcs_heat(0.25, 1.0, 16)
        assert np.array_equal(s.coefficients, [0.25, 0.5, 0.25])

    def test_unstable_ratio(self):
        s = ftcs_heat(0.75, 1.0, 16)
        assert np.array_equal(s.coefficients, [0.75, -0.5, 0.75])

    def test_row_sum_is_one(self):
        for r in (0.1, 0.3, 0.5, 0.75, 1.0):
            s = ftcs_heat(r, 1.0, 16)
            assert math.fsum(s.coefficients) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.0, 1.0, exclude_min=True))
    @example(0.1)
    @example(2.0**-60)
    @example(0.25)
    @settings(max_examples=200)
    def test_row_sum_is_exactly_one(self, r):
        # Stored as (1 - c0)/2 beside c0 = 1 - 2r, so no power of a stable
        # stencil inherits a row sum of 1 + ulp.  From r = 1/4 on, 1 - 2r is
        # exact (Sterbenz) and the side coefficient is r bit for bit.
        side, c0, other = ftcs_heat(r, 1.0, 16).coefficients
        assert side == other
        assert 2 * Fraction(side) + Fraction(c0) == 1
        if r >= 0.25:
            assert (side, c0) == (r, 1.0 - 2.0 * r)
        else:
            assert abs(side - r) <= 2.0**-55


class TestBackwardEuler:
    def test_constants_are_fixed_points(self):
        s = backward_euler_heat(0.1, TWO_PI / 64, 64)
        out = apply_values(s, np.ones(64))
        assert np.max(np.abs(out - 1.0)) < 1e-12

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_sine_scaling_matches_circulant_eigenvalue_oracle(self, k):
        n, dt = 64, 0.05
        dx = TWO_PI / n
        r = dt / dx**2
        s = backward_euler_heat(dt, dx, n)
        u = lx.sample(lx.Sine(k), n)
        predicted = 1.0 / (1.0 + 4.0 * r * math.sin(k * dx / 2) ** 2)
        out = apply_values(s, u.values)
        assert np.max(np.abs(out - predicted * u.values)) < 1e-12

    @given(st.integers(4, 300), st.floats(1e-3, 1e3))
    @example(4, 1e3)
    @example(299, 1e-3)
    @settings(max_examples=40, deadline=None)
    def test_coefficients_match_dense_inverse_oracle(self, n, r):
        dx = TWO_PI / n
        s = backward_euler_heat(r * dx**2, dx, n)
        eye = np.eye(n)
        d2 = np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)
        row = np.linalg.inv(eye - s.courant_ratio * d2)[0]
        assert np.max(np.abs(s.coefficients - row)) <= 1e-12 * np.max(np.abs(row))

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(
        st.integers(4, 4096),
        st.one_of(st.floats(-16, 308).map(lambda x: 10.0**x), st.floats(2.0**-1074, 2.0**-1022)),
    )
    # The rows of the ROADMAP's table, where the transformed inverse left
    # -1e-17 noise in the tail, and the largest r.
    @example(4096, 1e-12)
    @example(4096, 1e-9)
    @example(1024, 1e-12)
    @example(64, 1e-16)
    @example(65536, 1e-12)
    @example(64, 1e308)
    @example(4, 1.7976931348623157e308)
    @settings(max_examples=60)
    def test_nonnegative_symmetric_row_summing_to_exactly_one(self, n, r):
        # Against the inverse DFT of the circulant's eigenvalues
        # 1 + 4r sin^2(pi k/N), in long double.  Rounding the tail to
        # multiples of 2^-53 moves each of its coefficients by up to 2^-54,
        # an absolute amount, and c_0 by up to their sum.
        coefficients = backward_euler_heat(r, 1.0, n).coefficients
        assert (coefficients >= 0).all()
        assert sum(map(Fraction, coefficients.tolist())) == 1
        assert np.array_equal(coefficients[1:], coefficients[:0:-1])
        modes = np.arange(n // 2 + 1, dtype=np.longdouble)
        row = np.fft.irfft(1 / (1 + 4 * np.longdouble(r) * np.sin(np.pi * modes / n) ** 2), n=n)
        assert np.max(np.abs(coefficients[1:] - row[1:])) <= 2.0**-53
        assert abs(coefficients[0] - row[0]) <= n * 2.0**-53

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_one_step_sup_norm_at_most_one(self, r):
        n = 32
        dx = TWO_PI / n
        s = backward_euler_heat(r * dx**2, dx, n)
        # oracle: sum of absolute inverse-stencil coefficients
        assert math.fsum(abs(c) for c in s.coefficients) <= 1.0 + 1e-10


class TestApply:
    def test_point_mass_readout(self):
        s = ftcs_heat(0.25, 1.0, 8)
        u = lx.sample(lx.PointMass(0), 8)
        out = apply_values(s, u.values)
        assert np.allclose(out, [0.5, 0.25, 0, 0, 0, 0, 0, 0.25], atol=0)

    def test_zero_function(self):
        s = ftcs_heat(0.75, 1.0, 16)
        out = apply_values(s, np.zeros(16))
        assert np.array_equal(out, np.zeros(16))

    def test_sine_matches_symbol_oracle(self):
        n = 64
        dx = TWO_PI / n
        s = ftcs_heat(0.5 * dx**2, dx, n)
        u = lx.sample(lx.Sine(1), n)
        g = 1.0 - 4.0 * 0.5 * math.sin(dx / 2.0) ** 2
        out = apply_values(s, u.values)
        assert np.max(np.abs(out - g * u.values)) < 1e-12

    def test_stencil_wider_than_grid(self):
        wide = StencilScheme(np.arange(-3, 4), np.ones(7), 0.1, 0.1, period=7)
        with pytest.raises(InvalidGridError):
            apply_values(wide, np.zeros(4))

    def test_fft_path_matches_roll_path(self):
        # a stencil above the FFT cutoff must act identically to direct sums
        rng = np.random.default_rng(4)
        offs = np.arange(-20, 20)
        coefs = rng.uniform(-1, 1, offs.size)
        s = StencilScheme(offs, coefs, 0.1, 0.1, period=64)
        u = rng.uniform(-1, 1, 64)
        direct = np.zeros(64)
        for o, c in zip(offs, coefs):
            direct += c * np.roll(u, -int(o))
        assert np.max(np.abs(apply_values(s, u) - direct)) < 1e-12


def _shifted_sum(s: StencilScheme, values: np.ndarray) -> np.ndarray:
    """Oracle: sum_m c_m * roll(u, -o_m) along the last axis, in offset
    order, from the first term (so an exactly zero sum keeps its sign)."""
    terms = [coef * np.roll(values, -int(off), axis=-1) for off, coef in zip(s.offsets, s.coefficients)]
    return functools.reduce(np.add, terms)


@st.composite
def _narrow_stencils(draw):
    """(stencil, N): distinct offsets anywhere on the integer line, width <= N."""
    n = draw(st.integers(1, 70))
    width = draw(st.sampled_from([n, draw(st.integers(1, n))]))
    lo = draw(st.integers(-3 * n, 3 * n))
    inner = draw(st.sets(st.integers(lo, lo + width - 1), max_size=30))
    offsets = sorted({lo, lo + width - 1} | inner)
    seed = draw(st.integers(0, 2**32 - 1))
    coefs = np.random.default_rng(seed).uniform(-1, 1, len(offsets))
    return StencilScheme(np.array(offsets), coefs, 0.1, 0.1, period=n), n


@st.composite
def _narrow_stacks(draw):
    """1-4 narrow cells that share their offsets: FTCS at random r and N, or
    backward Euler at one N <= 32 (offsets 0..N-1) and random r."""
    count = draw(st.integers(1, 4))
    rs = draw(st.lists(st.floats(0.01, 2.0), min_size=count, max_size=count))
    if draw(st.booleans()):
        ns = draw(st.lists(st.integers(3, 40), min_size=count, max_size=count))
        return [ftcs_heat(r * (TWO_PI / n) ** 2, TWO_PI / n, n) for r, n in zip(rs, ns)]
    n = draw(st.integers(4, 32))
    return [backward_euler_heat(r * (TWO_PI / n) ** 2, TWO_PI / n, n) for r in rs]


class TestApplyFastPaths:
    @given(
        _narrow_stacks(),
        st.sampled_from([(), (2,), (2, 3), (0,)]),
        st.lists(st.one_of(st.none(), st.integers(1, 4)), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stack_steps_bitwise_equal_per_cell_roll(self, stack, lead, cuts, seed):
        # Each step is checked against every live cell stepped alone by the
        # roll oracle; after a step, send(k) keeps only the first k cells.
        rng = np.random.default_rng(seed)
        cells = [rng.uniform(-1, 1, lead + (s.period,)) for s in stack]
        values = np.concatenate(cells, axis=-1)
        start = values.copy()
        steps, live, seen = trajectory(stack, values), len(stack), []
        for cut in [None] + cuts:
            got = steps.send(cut) if seen else next(steps)
            live = min(live, cut or live)
            cells = [_shifted_sum(s, u) for s, u in zip(stack[:live], cells)]
            want = np.concatenate(cells, axis=-1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            seen.append((got, got.copy()))
        assert all(got.tobytes() == kept.tobytes() for got, kept in seen)
        assert values.tobytes() == start.tobytes()

    @given(
        _narrow_stencils(),
        st.sampled_from([(), (2,), (2, 3), (0,)]),
        st.integers(1, 5),
        st.sampled_from([None, 4, 12]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_narrow_path_bitwise_equals_shifted_sum(self, stencil_n, lead, steps, bits, seed):
        # k steps of the stepper against the oracle iterated k times; with
        # bits set, the test rounds each yielded array in place before the
        # stepper resumes, as the round-off twins do.
        s, n = stencil_n
        values = np.random.default_rng(seed).uniform(-1, 1, lead + (n,))
        start = values.copy()
        assert s.offsets.size <= 32  # the gather path, not the FFT path
        assert np.array_equal(apply_values(s, values), _shifted_sum(s, values))
        expected = values
        for got in islice(trajectory(s, values), steps):
            expected = _shifted_sum(s, expected)
            assert np.array_equal(got, expected)
            if bits is not None:
                got[...] = round_to_precision(got, PrecisionSpec(bits))
                expected = round_to_precision(expected, PrecisionSpec(bits))
        assert np.array_equal(values, start)

    @pytest.mark.parametrize("n, r", [(33, 0.7), (127, 4.0), (444, 4.0)])
    def test_full_period_steps_bitwise_equal_per_step_kernel_fft(self, n, r):
        # The step written out from the coefficients: the long double kernel
        # minus the identity, transformed, plus one, conjugated, in double.
        dx = TWO_PI / n
        s = backward_euler_heat(r * dx**2, dx, n)
        assert s.offsets.size > 32  # the FFT path
        minus_identity = np.zeros(n, np.longdouble)
        minus_identity[np.mod(s.offsets, n)] = s.coefficients
        minus_identity[0] -= 1
        factor = np.conj(1 + np.fft.rfft(minus_identity)).astype(complex)
        values = np.random.default_rng(n).uniform(-1, 1, (2, n))
        expected = values
        for k, got in enumerate(islice(trajectory(s, values), 6), start=1):
            expected = np.fft.irfft(np.fft.rfft(expected) * factor, n=n)
            assert np.array_equal(got, expected)
            # Each step adds at most one transform pair's rounding.
            exact = values.astype(np.longdouble) @ _circulant_power_ld(s, k).T
            bound = k * 8 * math.log2(n) * np.finfo(float).eps * np.max(np.abs(values))
            assert np.max(np.abs(got - exact)) <= bound

    @given(st.integers(4, 200), st.floats(0.05, 8.0), st.integers(0, 2**32 - 1))
    @example(33, 0.7, 0)
    @example(127, 0.7, 1)
    @example(444, 4.0, 2)
    @settings(max_examples=40, deadline=None)
    def test_batched_rows_bitwise_equal_single_rows(self, n, r, seed):
        # Backward Euler takes the FFT path once N exceeds the cutoff.
        dx = TWO_PI / n
        values = np.random.default_rng(seed).uniform(-1, 1, (2, n))
        for s in (backward_euler_heat(r * dx**2, dx, n), ftcs_heat(r * dx**2, dx, n)):
            batched = apply_values(s, values)
            for row, out in zip(values, batched):
                assert np.array_equal(out, apply_values(s, row))


def _rho(s: StencilScheme, growth: float):
    """||C|| (1 + 2^-53)^w growth in mpmath at the working precision (a
    wide one sums the coefficients exactly)."""
    norm = mpmath.fsum(abs(mpmath.mpf(float(c))) for c in s.coefficients)
    return norm * (1 + mpmath.mpf(2) ** -53) ** s.offsets.size * growth


class TestOverflowFreeSteps:
    @given(
        _narrow_stencils(),
        st.integers(4, 52),
        st.integers(1, 60),
        st.integers(-300, 300),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # All-positive coefficients on data of one sign: the bound is nearly met.
    @example((StencilScheme(np.array([-1, 0, 1]), [0.25, 0.75, 0.5], 0.1, 0.1, 3), 3),
             4, 60, 0, True, 0)
    @settings(max_examples=80, deadline=None)
    def test_rounded_steps_stay_within_peak_times_rho_to_the_n(
        self, stencil_n, bits, steps, magnitude, one_sign, seed
    ):
        # A limit the bound reaches after about `steps` steps; the data are
        # stepped and rounded n* times (or `steps` times when n* is inf).
        s, n = stencil_n
        spec = PrecisionSpec(bits)
        growth = 1 + 2.0 ** -(bits + 1)
        values = 10.0**magnitude * np.random.default_rng(seed).uniform(-1, 1, n)
        if one_sign:
            values = np.abs(values)
        peak = float(np.abs(values).max())
        with mpmath.workprec(2200):
            rho = _rho(s, growth)
            reach = peak * rho**steps if rho > 1 else 2 * peak
            limit = min(float(reach), sys.float_info.max / spec.split)
            assume(peak < limit)
            count = overflow_free_steps(s, peak, limit, growth)
            if rho > 1:
                assert count <= steps
            else:
                assert count > steps
            for k, got in zip(range(1, min(count, steps) + 1), trajectory(s, values)):
                got[...] = round_to_precision(got, spec)
                top = float(np.abs(got).max())
                bound = peak * rho**k + mpmath.mpf(2) ** -1000 * max(1, rho**k)
                assert top <= bound and top < limit

    def test_edge_cases(self):
        n = 64
        dx = TWO_PI / n
        ftcs = ftcs_heat(0.55 * dx**2, dx, n)
        assert overflow_free_steps(ftcs, 0.0, 1e300) == math.inf
        assert overflow_free_steps(ftcs, 1e300, 1e300) == 0
        assert overflow_free_steps(ftcs, 2e300, 1e300) == 0
        assert overflow_free_steps(ftcs, math.nan, 1e300) == 0
        # A full-period stencil steps through the FFT, which takes no bound.
        assert overflow_free_steps(backward_euler_heat(4 * dx**2, dx, n), 1.0, 1e300) == 0
        # The margin costs at most one step against the exact count.
        with mpmath.workprec(200):
            exact = int(mpmath.floor(mpmath.log(1e300) / mpmath.log(_rho(ftcs, 1.0))))
        assert exact - 1 <= overflow_free_steps(ftcs, 1.0, 1e300) <= exact

    @pytest.mark.parametrize("r", [0.5, 0.3, 1e-3, 1e-12])
    @pytest.mark.parametrize("bits", [12, 23, 52])
    def test_stable_ftcs_counts_pass_any_horizon_in_reach(self, r, bits):
        # 1e6 steps is far past any config in configs/ and the benchmark.
        n = 256
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        spec = PrecisionSpec(bits)
        assert overflow_free_steps(s, 1.0, OVERFLOW_LIMIT) > 10**17
        assert overflow_free_steps(s, 1.0, sys.float_info.max / spec.split, 1 + 2.0 ** -(bits + 1)) > 10**6


@st.composite
def _backward_euler_stencils(draw):
    n = draw(st.integers(4, 70))
    return backward_euler_heat(draw(st.floats(0.01, 20.0)), 1.0, n), n


class TestSymbol:
    @given(st.one_of(_narrow_stencils(), _backward_euler_stencils()))
    @example((ftcs_heat(0.75, 1.0, 16), 16))
    @example((backward_euler_heat(4.0, 1.0, 33), 33))
    @settings(max_examples=60)
    def test_matches_mode_by_mode_von_neumann_factors(self, stencil_n):
        # Mode k of the symbol is the factor at wavenumber -k.
        s, n = stencil_n
        g = 1 + s.symbol_minus_one
        assert g.shape == (n // 2 + 1,)
        tol = 1e-13 * math.fsum(np.abs(s.coefficients).tolist())
        for k, gk in enumerate(g):
            assert abs(complex(gk) - von_neumann_symbol(s, -k)) <= tol

    def test_is_read_only_and_taken_once(self):
        s = backward_euler_heat(4.0, 1.0, 64)
        h = s.symbol_minus_one
        with pytest.raises(ValueError, match="read-only"):
            h[0] = 0
        apply_power(s, np.ones(64), 3)
        next(trajectory(s, np.ones(64)))
        assert s.symbol_minus_one is h

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(
        st.one_of(_narrow_stencils(), _backward_euler_stencils()).filter(lambda sn: sn[1] <= 64),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    @example((ftcs_heat(0.25, 1.0, 16), 16), 7, 0)  # a mode with g = 0
    @settings(max_examples=40)
    def test_apply_power_matches_dense_powers(self, stencil_n, steps, seed):
        # Scaled to sum |c| <= 1, so every |g| <= 1 and C^n stays bounded;
        # one transform pair's rounding is all apply_power may add.
        s, n = stencil_n
        total = math.fsum(np.abs(s.coefficients).tolist())
        s = StencilScheme(s.offsets, s.coefficients / max(1.0, total), s.dt, s.dx, period=n)
        u = np.random.default_rng(seed).uniform(-1, 1, n)
        exact = _circulant_power_ld(s, steps) @ u.astype(np.longdouble)
        bound = 8 * max(1, math.log2(n)) * np.finfo(float).eps * np.max(np.abs(u))
        assert np.max(np.abs(apply_power(s, u, steps) - exact)) <= bound


class TestApplyPower:
    @given(
        st.one_of(
            st.tuples(st.just(ftcs_heat), st.floats(0.0, 0.5, exclude_min=True)),
            st.tuples(st.just(backward_euler_heat), st.floats(0.01, 20.0)),
        ),
        st.integers(4, 300),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    @example((ftcs_heat, 0.5), 2047, 3, 0)
    @example((ftcs_heat, 0.5), 2048, 2, 1)
    @example((backward_euler_heat, 4.0), 2047, 2, 2)
    @example((backward_euler_heat, 4.0), 2048, 3, 3)
    @settings(max_examples=12, deadline=None)
    def test_matches_step_loop_within_rounding(self, build_r, n, steps, seed):
        # The FTCS loop rounds about once per step; backward Euler's
        # full-width stencil costs a sum of N terms or a transform pair per
        # step, charged log2 N (at N = 149, r = 0.01 its loop alone drifted
        # 2.5 ulps per step).  The transform pair of apply_power is charged
        # 8 log2 N once.
        build, r = build_r
        s = build(r, 1.0, n)
        u = np.random.default_rng(seed).uniform(-1, 1, n)
        stepped = u
        for _ in range(steps):
            stepped = apply_values(s, stepped)
        per_step = 1 if build is ftcs_heat else math.log2(n)
        bound = (steps * per_step + 8 * math.log2(n)) * np.finfo(float).eps * np.max(np.abs(u))
        assert np.max(np.abs(apply_power(s, u, steps) - stepped)) <= bound

    @pytest.mark.skipif(not EXTENDED_FFT, reason="needs an extended-precision long double FFT")
    @given(
        st.one_of(
            st.tuples(st.just(ftcs_heat), st.floats(0.0, 0.5, exclude_min=True)),
            st.tuples(st.just(backward_euler_heat), st.floats(0.01, 20.0)),
        ),
        st.integers(4, 300),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    @example((ftcs_heat, 2.0**-8), 293, 38, 0)
    @example((ftcs_heat, 2.0**-8), 293, 3000, 1)
    @example((backward_euler_heat, 0.01), 149, 3000, 2)
    @settings(max_examples=12, deadline=None)
    def test_no_drift_with_step_count(self, build_r, n, steps, seed):
        # Against C^n formed by direct circular convolutions in long double,
        # the error stays within one transform pair's rounding for any n.
        # A double-precision symbol power was 105 ulps off at the first
        # example and 2,000 at the second.
        build, r = build_r
        s = build(r, 1.0, n)
        u = np.random.default_rng(seed).uniform(-1, 1, n)
        exact = _circulant_power_ld(s, steps) @ u.astype(np.longdouble)
        bound = 8 * math.log2(n) * np.finfo(float).eps * np.max(np.abs(u))
        assert np.max(np.abs(apply_power(s, u, steps) - exact)) <= bound


class TestLinearityProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        s = ftcs_heat(float(rng.uniform(0.05, 0.9)), 1.0, 16)
        u = rng.uniform(-1, 1, 16)
        v = rng.uniform(-1, 1, 16)
        a, b = rng.uniform(-2, 2, 2)
        lhs = apply_values(s, a * u + b * v)
        rhs = a * apply_values(s, u) + b * apply_values(s, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 15))
    @settings(max_examples=25, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        s = ftcs_heat(0.4, 1.0, 16)
        u = rng.uniform(-1, 1, 16)
        assert np.max(
            np.abs(apply_values(s, np.roll(u, shift)) - np.roll(apply_values(s, u), shift))
        ) <= 1e-12


def _fold_oracle(a: tuple, b: tuple, period: int) -> tuple:
    """Convolve two dense stencils, folding the product by a zero-padded
    two-row sum, and raise where a coefficient passes OVERFLOW_LIMIT."""
    lo = a[0] + b[0]
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.convolve(a[1], b[1])
        if full.size > period:
            lo %= period
            full = np.pad(full, (0, -full.size % period)).reshape(-1, period).sum(axis=0)
    if not np.abs(full).max() <= OVERFLOW_LIMIT:
        raise DivergedOperatorError("oracle coefficients overflowed")
    return lo, full


def _power_oracle(s: StencilScheme, n: int) -> tuple:
    """Dense C^n, (offset of the first entry, coefficients), by stateless
    repeated squaring from the identity (0, [1.0]), each product folded by
    :func:`_fold_oracle`; C itself for n = 1."""
    lo = int(s.offsets.min())
    sq = (lo, np.zeros(s.width))
    sq[1][s.offsets - lo] = s.coefficients
    if n == 1:
        return sq
    result = (0, np.array([1.0]))
    while n:
        if n & 1:
            result = _fold_oracle(result, sq, s.period)
        n >>= 1
        if n:
            sq = _fold_oracle(sq, sq, s.period)
    return result


def _assert_bits(got: StencilScheme, dense: tuple) -> None:
    lo, coefficients = dense
    assert np.array_equal(got.offsets, np.arange(lo, lo + coefficients.size))
    assert np.array_equal(np.signbit(got.coefficients), np.signbit(coefficients))
    assert np.array_equal(got.coefficients.view(np.int64), coefficients.view(np.int64))


@st.composite
def _power_calls(draw):
    """A stencil on N = 4..256 points, with 1 to 6 distinct offsets within
    one period and signed coefficients, some -0.0, at scales whose powers
    underflow, hold or overflow, and 2 to 10 exponents up to 2^12, in the
    order they are asked for."""
    n = draw(st.integers(4, 256))
    shift = draw(st.integers(-n, n))
    offsets = [o + shift for o in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))]
    scale = draw(st.sampled_from([2.0**-600, 1 / 8, 1.0, 2.0**80]))
    coefficient = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1, 1).map(lambda c: c * scale))
    coefficients = draw(st.lists(coefficient, min_size=len(offsets), max_size=len(offsets)))
    s = StencilScheme(np.array(offsets), np.array(coefficients), 0.1, 0.1, period=n)
    return s, draw(st.lists(st.integers(1, 2**12), min_size=2, max_size=10))


class TestPower:
    def test_identity_of_iteration(self):
        s = ftcs_heat(0.3, 1.0, 16)
        p1 = power(s, 1)
        assert np.array_equal(p1.coefficients, s.coefficients)
        assert np.array_equal(p1.offsets, s.offsets)

    def test_square_matches_convolution_oracle(self):
        r = 0.75
        s = ftcs_heat(r, 1.0, 16)
        p2 = power(s, 2)
        # direct convolution oracle
        oracle = np.convolve([r, 1 - 2 * r, r], [r, 1 - 2 * r, r])
        assert np.array_equal(p2.offsets, np.arange(-2, 3))
        assert np.max(np.abs(p2.coefficients - oracle)) < 1e-15
        assert np.allclose(
            p2.coefficients, [0.5625, -0.75, 1.375, -0.75, 0.5625], atol=1e-12
        )

    def test_cube_matches_repeated_application_oracle(self):
        rng = np.random.default_rng(17)
        s = StencilScheme(
            np.array([-1, 0, 2]), rng.uniform(-1, 1, 3), 0.1, 0.1, period=32
        )
        u = rng.uniform(-1, 1, 32)
        p3 = power(s, 3)
        iterated = u
        for _ in range(3):
            iterated = apply_values(s, iterated)
        assert np.max(np.abs(apply_values(p3, u) - iterated)) <= 1e-12 * np.max(
            np.abs(iterated)
        )

    def test_power_addition_consistency(self):
        s = ftcs_heat(0.45, 1.0, 16)
        p5 = power(s, 5)
        composed = compose(power(s, 2), power(s, 3))
        assert np.array_equal(p5.offsets, composed.offsets)
        assert np.max(np.abs(p5.coefficients - composed.coefficients)) <= 1e-12

    def test_overflow_raises_diverged_operator(self):
        s = StencilScheme(np.array([0]), np.array([1e200]), 0.1, 0.1, period=16)
        with pytest.raises(DivergedOperatorError):
            power(s, 2)

    @given(_power_calls())
    @example((StencilScheme(np.array([-1, 0, 1]), np.array([0.25, -0.0, 0.25]), 0.1, 0.1, period=16), [4, 3, 1, 4]))
    @settings(max_examples=120, deadline=None)
    def test_cached_squares_match_stateless_squaring(self, case):
        # Both cold and warm calls on one stencil give the coefficients of
        # binary powering without a cache, bit for bit, and raise on the
        # same calls; so does the composition of each power with the one
        # before it, as the stability walk composes them.
        s, ns = case
        before = None
        for k in ns:
            try:
                expected = _power_oracle(s, k)
            except DivergedOperatorError:
                with pytest.raises(DivergedOperatorError):
                    power(s, k)
                before = None
                continue
            got = power(s, k)
            if k == 1:
                assert got is s
            else:
                _assert_bits(got, expected)
            if before is not None:
                try:
                    composed = _fold_oracle(before[1], expected, s.period)
                except DivergedOperatorError:
                    with pytest.raises(DivergedOperatorError):
                        compose(before[0], got)
                else:
                    _assert_bits(compose(before[0], got), composed)
            before = got, expected

    @given(_power_calls())
    @example((StencilScheme(np.array([-1, 0, 1]), np.array([0.25, -0.0, 0.25]), 0.1, 0.1, period=16), [4, 3, 1, 4]))
    @settings(max_examples=60, deadline=None)
    def test_results_equal_their_checked_build(self, case):
        # power and compose build their results without __post_init__; each
        # result must equal the stencil that the checked constructor makes
        # of its fields, and leave its operands' cached squares as they were.
        s, ns = case
        current = s
        for k in ns:
            jump = _built_unchecked(power, s, k)
            if jump is not None:
                composed = _built_unchecked(compose, current, jump)
                current = jump if composed is None else composed

    def test_exponent_must_be_an_integer(self):
        s = ftcs_heat(0.3, 1.0, 16)
        for n in (1.0, 2.0):
            with pytest.raises(TypeError):
                power(s, n)
        assert power(s, np.int64(1)) is s
        _assert_bits(power(s, np.int64(3)), _power_oracle(s, 3))


def _built_unchecked(build, *operands):
    """``build(*operands)`` (None if it diverges), checked against the
    stencil that :class:`StencilScheme`'s constructor makes of its fields;
    the operands' cached squares must keep their bits."""
    stencils = [o for o in operands if isinstance(o, StencilScheme)]
    kept = [[(lo, arr.copy()) for lo, arr in o._squares] for o in stencils]
    try:
        got = build(*operands)
    except DivergedOperatorError:
        got = None
    for o, squares in zip(stencils, kept):
        assert [lo for lo, _ in o._squares[: len(squares)]] == [lo for lo, _ in squares]
        for (_, arr), (_, old) in zip(o._squares, squares):
            assert np.array_equal(arr.view(np.int64), old.view(np.int64))
    if got is None:
        return None
    checked = StencilScheme(got.offsets, got.coefficients, got.dt, got.dx, got.period)
    assert got.offsets.dtype == checked.offsets.dtype
    assert np.array_equal(got.offsets, checked.offsets)
    assert np.array_equal(got.coefficients.view(np.int64), checked.coefficients.view(np.int64))
    assert (got.width, got.period, got.dt, got.dx) == (checked.width, checked.period, checked.dt, checked.dx)
    assert np.isfinite(got.coefficients).all()
    for arr in (got.offsets, got.coefficients):
        with pytest.raises(ValueError):
            arr[0] = 0
    return got


def _circulant(s: StencilScheme, n: int) -> np.ndarray:
    """Dense N x N matrix of v_j = sum_m c_m u_{(j + o_m) mod N}."""
    mat = np.zeros((n, n))
    for off, coef in zip(s.offsets, s.coefficients):
        for j in range(n):
            mat[j, (j + off) % n] += coef
    return mat


def _kernel(s: StencilScheme, n: int) -> np.ndarray:
    kernel = np.zeros(n)
    np.add.at(kernel, np.mod(s.offsets, n), s.coefficients)
    return kernel


class TestGridWrap:
    def test_grid_built_ftcs_keeps_three_offsets(self):
        s = ftcs_heat(0.25, 1.0, 16)
        assert s.period == 16
        assert np.array_equal(s.offsets, [-1, 0, 1])
        assert np.array_equal(s.coefficients, [0.25, 0.5, 0.25])

    def test_powers_never_outgrow_the_grid(self):
        s = ftcs_heat(0.3, 1.0, 12)
        for n in (2, 5, 6, 7, 100):
            p = power(s, n)
            assert p.period == 12
            assert p.width == min(2 * n + 1, 12)

    def test_width_beyond_period_rejected(self):
        with pytest.raises(ValueError):
            StencilScheme(np.arange(-3, 4), np.ones(7), 0.1, 0.1, period=6)
        with pytest.raises(ValueError):
            ftcs_heat(0.25, 1.0, 2)

    def test_compose_rejects_mismatched_grids(self):
        with pytest.raises(InvalidGridError):
            compose(ftcs_heat(0.25, 1.0, 16), ftcs_heat(0.25, 1.0, 17))

    @given(st.integers(4, 64), st.integers(2, 128), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_data_on_another_grid_rejected(self, n, m, steps):
        # A stencil built for N points must not act on M-point data, where
        # its powers (folded mod N) would silently compute the wrong operator.
        assume(m != n)
        dx = TWO_PI / n
        s = ftcs_heat(0.3 * dx**2, dx, n)
        for op in (s, power(s, steps), backward_euler_heat(0.3 * dx**2, dx, n)):
            with pytest.raises(InvalidGridError):
                apply_values(op, np.zeros(m))
            with pytest.raises(InvalidGridError):
                apply_power(op, np.zeros(m), steps)
        with pytest.raises(InvalidGridError):
            _stepped_runs([(s, 10, lx.sample(lx.Sine(1), m), [10], sys.float_info.max, PrecisionSpec(12))])

    @given(
        st.integers(4, 64),
        st.one_of(st.floats(0.05, 0.5), st.floats(0.5, 0.95)),
        st.integers(1, 200),
        st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrapped_power_and_compose_match_circulant_oracle(self, n, r, steps, split):
        s = ftcs_heat(r, 1.0, n)
        oracle = np.linalg.matrix_power(_circulant(s, n), steps)
        # Both sides round each entry within about N * steps ulps of
        # ||C||^steps, at most 64 * 200 * 2.2e-16 = 2.8e-12 relative.
        tol = 1e-10 * math.fsum(np.abs(s.coefficients)) ** steps
        products = [power(s, steps)]
        first = split % steps
        if first:
            products.append(compose(power(s, first), power(s, steps - first)))
        for p in products:
            assert p.period == n and p.width <= n
            assert np.max(np.abs(_kernel(p, n) - oracle[0])) <= tol
            assert abs(operator_norm(p) - np.abs(oracle).sum(axis=1).max()) <= tol


def test_offsets_must_be_distinct():
    with pytest.raises(ValueError):
        StencilScheme(np.array([0, 0]), np.array([1.0, 2.0]), 0.1, 0.1, period=16)


def test_period_must_be_an_integer():
    with pytest.raises(InvalidGridError, match="integer"):
        StencilScheme(np.array([-1, 0, 1]), np.array([0.25, 0.5, 0.25]), 0.1, 0.1, period=20.0)
    s = StencilScheme(np.array([-1, 0, 1]), np.array([0.25, 0.5, 0.25]), 0.1, 0.1, period=np.int64(20))
    assert s.period == 20 and type(s.period) is int

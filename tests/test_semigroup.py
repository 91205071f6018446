import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxlab as lx
from laxlab.grid import TWO_PI
from laxlab.semigroup import _multipliers, evolve


def diff(a, b):
    return float(np.max(np.abs(a.values - b.values)))


class TestEvolve:
    def test_sine_is_eigenfunction(self):
        u = lx.sample(lx.Sine(1), 64)
        out = evolve(u, 1.0)
        assert np.max(np.abs(out.values - math.exp(-1) * u.values)) < 1e-14

    def test_t_zero_is_identity(self):
        u = lx.sample(lx.RandomUniform(3), 16)
        assert diff(evolve(u, 0.0), u) == 0.0

    def test_point_mass_semigroup_law_oracle(self):
        # composing two half steps is the independent oracle for one full step
        u = lx.sample(lx.PointMass(0), 32)
        once = evolve(u, 0.1)
        twice = evolve(evolve(u, 0.05), 0.05)
        assert diff(once, twice) < 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(lx.sample(lx.Sine(1), 16), -0.1)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected_without_a_warning(self, t):
        u = lx.sample(lx.Sine(1), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t must be finite"):
                evolve(u, t)

    def test_multipliers_in_unit_interval(self):
        for t in (0.0, 0.3, 5.0):
            m = _multipliers(32, t)
            # e^{-k^2 t} underflows to exactly 0.0 for large k^2 t
            assert np.all(m >= 0.0) and np.all(m <= 1.0)


@st.composite
def trig_polynomials(draw):
    """(n, terms): N = 4..512, odd and even, and a few (k, a_k, sine) modes
    with k <= N // 2; the top mode, the Nyquist mode of an even N, is always in."""
    n = draw(st.integers(4, 512))
    mode = st.tuples(st.integers(0, n // 2), st.floats(-1.0, 1.0), st.booleans())
    top = (n // 2, draw(st.floats(-1.0, 1.0)), draw(st.booleans()))
    return n, [top] + draw(st.lists(mode, max_size=6))


def closed_form(n, terms, t):
    """Sum of a_k e^{-k^2 t} sin or cos(k x) on the grid, each phase reduced mod N exactly."""
    j = np.arange(n)
    out = np.zeros(n)
    for k, a, sine in terms:
        phase = TWO_PI * ((k * j) % n) / n
        out += a * math.exp(-(k**2) * t) * (np.sin(phase) if sine else np.cos(phase))
    return lx.GridFunction(out)


class TestSemigroupLaw:
    @given(trig_polynomials(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_trig_polynomials_evolve_mode_by_mode(self, case, s, t):
        n, terms = case
        scale = sum(abs(a) for _, a, _ in terms)
        u = closed_form(n, terms, 0.0)
        assert diff(evolve(u, t), closed_form(n, terms, t)) <= 1e-13 * scale
        assert diff(evolve(evolve(u, s), t), evolve(u, s + t)) <= 1e-13 * scale

    def test_random_compositions(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = rng.uniform(0, 0.5)
            s = rng.uniform(0, 0.5)
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            lhs = evolve(evolve(u, s), t)
            rhs = evolve(u, t + s)
            assert diff(lhs, rhs) <= 1e-10 * lx.sup_norm(u)

    def test_strong_continuity(self):
        u = lx.sample(lx.Sine(1) + lx.Sine(3, 0.5), 64)
        gaps = [diff(evolve(u, dt), u) for dt in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-5

    def test_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            for t in (0.01, 0.5, 2.0):
                assert lx.sup_norm(evolve(u, t)) <= lx.sup_norm(u) * (1 + 1e-12)


class TestExtendEvolve:
    """E(t) past a horizon T: E(T)^m E(t - m T) = E(t), m = floor(t / T),
    applied as one transform pair whatever m."""

    def test_exponential_law(self):
        u = lx.sample(lx.Sine(1), 64)
        out = evolve(u, 2.5)
        assert np.max(np.abs(out.values - math.exp(-2.5) * u.values)) < 1e-10

    def test_floor_arithmetic_just_past_horizon(self):
        u = lx.sample(lx.Sine(1), 16)
        t = 1.0 + 1e-9
        assert math.floor(t / 1.0) == 1
        assert diff(evolve(evolve(u, 1.0), t - 1.0), evolve(u, t)) < 1e-10

    def test_matches_direct_multiplier_oracle(self):
        # Oracle: each real mode k of the half-spectrum damped by exp(-k^2 t).
        u = lx.sample(lx.RandomUniform(7), 32)
        damped = np.fft.rfft(u.values) * np.exp(-np.arange(17) ** 2 * 2.0)
        assert np.max(np.abs(evolve(u, 2.0).values - np.fft.irfft(damped, n=32))) < 1e-10

    @pytest.mark.parametrize("t, horizon_t", [(1e9, 1e-3), (1.0, 1e-12), (1e3, 1e-300)])
    def test_cost_does_not_grow_with_t_over_horizon(self, t, horizon_t):
        # t / T = 1e12 takes one transform pair, where m = floor(t / T) steps
        # of E(T) would run for hours; 1e303 is past any int64
        u = lx.sample(lx.RandomUniform(4), 64)
        start = time.perf_counter()
        out = evolve(u, t)
        assert time.perf_counter() - start < 0.1
        assert diff(out, evolve(evolve(u, horizon_t), t - horizon_t)) <= 1e-10 * lx.sup_norm(u)

    def test_power_bound_past_horizon(self):
        rng = np.random.default_rng(2)
        for t in (1.5, 2.0, 3.0):
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            assert lx.sup_norm(evolve(u, t)) <= lx.sup_norm(u) * (1 + 1e-12)

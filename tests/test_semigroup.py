import math

import numpy as np
import pytest

import laxlab as lx
from laxlab.errors import InvalidGridError
from laxlab.semigroup import HeatSemigroup, evolve, extend_evolve


def diff(a, b):
    return float(np.max(np.abs(a.values - b.values)))


class TestEvolve:
    def test_sine_is_eigenfunction(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=64)
        u = lx.sample(lx.Sine(1), 64)
        out = evolve(sg, u, 1.0)
        assert np.max(np.abs(out.values - math.exp(-1) * u.values)) < 1e-14

    def test_t_zero_is_identity(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=16)
        u = lx.sample(lx.RandomUniform(3), 16)
        assert diff(evolve(sg, u, 0.0), u) == 0.0

    def test_point_mass_semigroup_law_oracle(self):
        # composing two half steps is the independent oracle for one full step
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        u = lx.sample(lx.PointMass(0), 32)
        once = evolve(sg, u, 0.1)
        twice = evolve(sg, evolve(sg, u, 0.05), 0.05)
        assert diff(once, twice) < 1e-10

    def test_grid_mismatch(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        with pytest.raises(InvalidGridError):
            evolve(sg, lx.sample(lx.Sine(1), 16), 0.1)

    def test_negative_time_rejected(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=16)
        with pytest.raises(ValueError):
            evolve(sg, lx.sample(lx.Sine(1), 16), -0.1)

    def test_multipliers_in_unit_interval(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        for t in (0.0, 0.3, 5.0):
            m = sg.multipliers(t)
            # e^{-k^2 t} underflows to exactly 0.0 for large k^2 t
            assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestSemigroupLaw:
    def test_random_compositions(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = rng.uniform(0, 0.5)
            s = rng.uniform(0, 0.5)
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            lhs = evolve(sg, evolve(sg, u, s), t)
            rhs = evolve(sg, u, t + s)
            assert diff(lhs, rhs) <= 1e-10 * lx.sup_norm(u)

    def test_strong_continuity(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=64)
        u = lx.sample(lx.Sine(1) + lx.Sine(3, 0.5), 64)
        gaps = [diff(evolve(sg, u, dt), u) for dt in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-5

    def test_contraction(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            for t in (0.01, 0.5, 2.0):
                assert lx.sup_norm(evolve(sg, u, t)) <= lx.sup_norm(u) * (1 + 1e-12)


class TestExtendEvolve:
    def test_exponential_law(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=64)
        u = lx.sample(lx.Sine(1), 64)
        out = extend_evolve(sg, u, 2.5)
        assert np.max(np.abs(out.values - math.exp(-2.5) * u.values)) < 1e-10

    def test_floor_arithmetic_just_past_horizon(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=16)
        u = lx.sample(lx.Sine(1), 16)
        t = 1.0 + 1e-9
        assert math.floor(t / sg.horizon_t) == 1
        out = extend_evolve(sg, u, t)
        direct = evolve(sg, u, t)
        assert diff(out, direct) < 1e-10

    def test_matches_direct_multiplier_oracle(self):
        sg = HeatSemigroup(horizon_t=0.7, grid_n=32)
        u = lx.sample(lx.RandomUniform(7), 32)
        assert diff(extend_evolve(sg, u, 2.0), evolve(sg, u, 2.0)) < 1e-10

    def test_inside_horizon_rejected(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=16)
        with pytest.raises(ValueError):
            extend_evolve(sg, lx.sample(lx.Sine(1), 16), 0.5)

    def test_power_bound_past_horizon(self):
        sg = HeatSemigroup(horizon_t=1.0, grid_n=32)
        rng = np.random.default_rng(2)
        for t in (1.5, 2.0, 3.0):
            u = lx.GridFunction(rng.uniform(-1, 1, 32))
            assert lx.sup_norm(extend_evolve(sg, u, t)) <= lx.sup_norm(u) * (1 + 1e-12)


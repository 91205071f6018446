import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from laxlab.errors import DivergedValueError, InvalidGridError
from laxlab.grid import is_band_limited


def grid(values, length=2 * math.pi):
    return lx.GridFunction(np.asarray(values, dtype=float), length)


class TestGridFunction:
    def test_rejects_single_sample(self):
        with pytest.raises(InvalidGridError):
            grid([1.0])

    def test_rejects_non_finite_samples(self):
        with pytest.raises(DivergedValueError):
            grid([1.0, math.nan])

    def test_dx_times_n_is_domain_length(self):
        u = grid(np.zeros(7), length=3.5)
        assert u.dx * u.n == pytest.approx(3.5, rel=1e-12)

    def test_values_are_immutable(self):
        u = grid([1.0, 2.0])
        with pytest.raises(ValueError):
            u.values[0] = 5.0


class TestSupNorm:
    def test_zero_function(self):
        assert lx.sup_norm(grid(np.zeros(8))) == 0.0

    def test_max_abs(self):
        assert lx.sup_norm(grid([1.0, -3.0, 2.0])) == 3.0

    def test_sine_matches_enumeration_oracle(self):
        u = lx.sample(lx.Sine(1), 64)
        oracle = max(abs(math.sin(2 * math.pi * j / 64)) for j in range(64))
        assert lx.sup_norm(u) == pytest.approx(oracle, rel=0, abs=0)

    def test_diverged_raises(self):
        with pytest.raises(DivergedValueError):
            lx.sup_norm(grid([1.0, math.inf]))


class TestSample:
    def test_sine_quarter_points(self):
        u = lx.sample(lx.Sine(1), 4)
        assert np.allclose(u.values, [0.0, 1.0, 0.0, -1.0], atol=1e-15)

    def test_point_mass(self):
        u = lx.sample(lx.PointMass(0), 4)
        assert np.array_equal(u.values, [1.0, 0.0, 0.0, 0.0])

    def test_random_uniform_deterministic(self):
        a = lx.sample(lx.RandomUniform(42), 8)
        b = lx.sample(lx.RandomUniform(42), 8)
        assert np.array_equal(a.values, b.values)

    def test_too_small_grid(self):
        with pytest.raises(InvalidGridError):
            lx.sample(lx.Sine(1), 1)

    def test_mixture_and_parse_roundtrip(self):
        parsed = lx.parse_probe("sine(1)+sine(31)")
        direct = lx.Sine(1) + lx.Sine(31)
        assert np.allclose(
            lx.sample(parsed, 128).values, lx.sample(direct, 128).values
        )

    def test_parse_rejects_junk(self):
        with pytest.raises(InvalidGridError):
            lx.parse_probe("wavelet(3)")


class TestSpectralCoefficients:
    def test_sine_mode_one(self):
        coeffs = lx.spectral_coefficients(lx.sample(lx.Sine(1), 8))
        ks = lx.wavenumbers(8)
        lookup = dict(zip(ks, coeffs))
        assert abs(lookup[1] - (-0.5j)) < 1e-12
        assert abs(lookup[-1] - 0.5j) < 1e-12
        others = [lookup[k] for k in ks if k not in (1, -1)]
        assert max(abs(c) for c in others) < 1e-12

    def test_constant(self):
        coeffs = lx.spectral_coefficients(lx.sample(lx.Constant(1.0), 8))
        lookup = dict(zip(lx.wavenumbers(8), coeffs))
        assert abs(lookup[0] - 1.0) < 1e-12
        assert max(abs(lookup[k]) for k in lx.wavenumbers(8) if k != 0) < 1e-12

    def test_point_mass_matches_direct_dft(self):
        u = lx.sample(lx.PointMass(0), 4)
        # direct DFT oracle: c_k = (1/N) sum_j u_j exp(-i k x_j)
        x = u.nodes
        oracle = {
            k: sum(u.values[j] * np.exp(-1j * k * x[j]) for j in range(4)) / 4
            for k in lx.wavenumbers(4)
        }
        coeffs = dict(zip(lx.wavenumbers(4), lx.spectral_coefficients(u)))
        for k in oracle:
            assert abs(coeffs[k] - oracle[k]) < 1e-12
            assert abs(coeffs[k] - 0.25) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_roundtrip_identity(self, n):
        u = lx.sample(lx.RandomUniform(n), n)
        back = lx.from_spectral_coefficients(
            lx.spectral_coefficients(u), u.domain_length
        )
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * max(
            1.0, lx.sup_norm(u)
        )


class TestNormAxioms:
    @given(st.integers(0, 2**32 - 1), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scaling_and_triangle(self, seed, c):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, 16)
        v = rng.uniform(-1, 1, 16)
        gu, gv = grid(u), grid(v)
        assert lx.sup_norm(gu) >= 0
        assert lx.sup_norm(grid(c * u)) == pytest.approx(
            abs(c) * lx.sup_norm(gu), rel=1e-12, abs=1e-300
        )
        assert lx.sup_norm(grid(u + v)) <= lx.sup_norm(gu) + lx.sup_norm(gv) + 1e-12

    def test_zero_iff_all_zero(self):
        assert lx.sup_norm(grid(np.zeros(5))) == 0.0
        assert lx.sup_norm(grid([0.0, 1e-300])) > 0.0


class TestRefinementPath:
    def test_power_rule(self):
        path = lx.RefinementPath.from_power(2.0, 0.5)
        assert path.dx_for(0.25) == pytest.approx(1.0)

    def test_cfl_boundary(self):
        path = lx.RefinementPath.cfl_boundary()
        assert path.dx_for(0.02) == pytest.approx(math.sqrt(0.04))

    def test_table_monotone_required(self):
        with pytest.raises(InvalidGridError):
            lx.RefinementPath.from_table([(0.1, 0.1), (0.2, 0.05)])
        path = lx.RefinementPath.from_table([(0.2, 0.2), (0.1, 0.1)])
        assert path.dx_for(0.1) == 0.1

    def test_grid_for_never_undershoots_dx(self):
        path = lx.RefinementPath.cfl_boundary()
        for dt in (1e-2, 2.5e-3, 6.25e-4):
            n, dx = path.grid_for(dt)
            assert dx >= path.dx_for(dt)
            assert dt / dx**2 <= 0.5


def test_band_limit_detection():
    assert is_band_limited(lx.sample(lx.Sine(3), 64), 16)
    assert not is_band_limited(lx.sample(lx.Sine(31), 64), 16)


@given(st.integers(2, 90), st.integers(2, 200), st.integers(0, 2**32 - 1))
@example(444, 888, 0)
@example(888, 444, 1)
@example(313, 628, 2)
@example(628, 313, 3)
@settings(max_examples=80, deadline=None)
def test_resample_bitwise_equals_scipy_oracle(n, n_new, seed):
    signal = pytest.importorskip("scipy.signal")  # scipy is a test-only oracle
    u = grid(np.random.default_rng(seed).uniform(-1, 1, n))
    assert np.array_equal(lx.resample(u, n_new).values, signal.resample(u.values, n_new))


def test_resample_preserves_band_limited_data():
    u = lx.sample(lx.Sine(3), 32)
    fine = lx.resample(u, 128)
    exact = lx.sample(lx.Sine(3), 128)
    assert np.max(np.abs(fine.values - exact.values)) < 1e-12

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from laxlab.analysis import convergence_experiment, scheme_builder, stability_check
from laxlab.errors import DivergedValueError, InvalidGridError
from laxlab.grid import OVERFLOW_LIMIT, TWO_PI, is_band_limited, step_count
from laxlab.roundoff import PrecisionSpec, halving_sweeps


def grid(values):
    return lx.GridFunction(np.asarray(values, dtype=float))


class TestGridFunction:
    def test_rejects_single_sample(self):
        with pytest.raises(InvalidGridError):
            grid([1.0])

    def test_rejects_non_finite_samples(self):
        with pytest.raises(DivergedValueError):
            grid([1.0, math.nan])

    def test_dx_times_n_is_domain_length(self):
        u = grid(np.zeros(7))
        assert u.dx * u.n == pytest.approx(2 * math.pi, rel=1e-12)

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

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(InvalidGridError, match="integer"):
            lx.sample(lx.Sine(1), 8.5)
        assert np.array_equal(lx.sample(lx.Sine(1), np.int64(8)).values, lx.sample(lx.Sine(1), 8).values)

    def test_mixture_and_parse_roundtrip(self):
        parsed = lx.parse_probe("sine(1)+sine(31)")
        direct = lx.Sine(1) + lx.Sine(31)
        assert np.allclose(
            lx.sample(parsed, 128).values, lx.sample(direct, 128).values
        )

    def test_parse_rejects_junk(self):
        with pytest.raises(InvalidGridError):
            lx.parse_probe("wavelet(3)")

    def test_parse_reads_exponent_signs(self):
        def samples(text):
            return lx.sample(lx.parse_probe(text), 64).values

        assert np.array_equal(samples("2e+0*sine(1)"), samples("2*sine(1)"))
        assert np.array_equal(samples("constant(1e+3)"), np.full(64, 1e3))
        assert np.array_equal(samples("sine(1) + cosine(2)"), samples("sine(1)+cosine(2)"))

    @pytest.mark.parametrize("text", ["sine(1)+", "sine(1) + ", "+sine(1)", "sine(1)++cosine(2)"])
    def test_parse_rejects_a_stray_plus(self, text):
        with pytest.raises(InvalidGridError):
            lx.parse_probe(text)

    @pytest.mark.parametrize(
        "text", ["1e309*sine(1)", "-1e309*cosine(2)", "constant(1e999)", "1e200*constant(1e200)",
                 "sine(1)+1e309*sine(2)"]
    )
    def test_parse_rejects_non_finite_amplitudes(self, text):
        with pytest.raises(InvalidGridError, match="non-finite"):
            lx.parse_probe(text)

    @pytest.mark.parametrize(
        "text", ["1e308*sine(1)+1e308*cosine(1)", "2e300*point_mass(0)",
                 "6e299*random_uniform(1)+-6e299*constant(1)"]
    )
    def test_parse_rejects_amplitudes_summing_past_overflow_limit(self, text):
        with pytest.raises(InvalidGridError, match="past"):
            lx.parse_probe(text)

    def test_parse_accepts_amplitudes_summing_to_overflow_limit(self):
        half = OVERFLOW_LIMIT / 2
        probe = lx.parse_probe(f"{half!r}*sine(1)+{-half!r}*cosine(1)")
        assert lx.sup_norm(lx.sample(probe, 8)) <= OVERFLOW_LIMIT


@given(
    st.sampled_from(["sine", "cosine", "constant", "point_mass", "random_uniform"]),
    st.integers(0, 40),
    st.floats(-1e6, 1e6),
    st.integers(2, 64),
)
@example("point_mass", 3, 2.0, 8)
@example("random_uniform", 1, -0.5, 16)
@settings(max_examples=100, deadline=None)
def test_amplitude_scales_every_kind_bit_for_bit(kind, arg, amplitude, n):
    scaled = lx.sample(lx.parse_probe(f"{amplitude!r}*{kind}({arg})"), n).values
    unit = lx.sample(lx.parse_probe(f"{kind}({arg})"), n).values
    assert scaled.tobytes() == (amplitude * unit).tobytes()


def _band_limited_by_full_dft(u, max_mode):
    """Oracle: the centred full DFT, fftshift(fft(u)) / N, read at wavenumbers
    -N//2 .. (N-1)//2; no |k| above max_mode may pass 1e-12 of the largest."""
    coeffs = np.abs(np.fft.fftshift(np.fft.fft(u.values)) / u.n)
    ks = np.arange(-(u.n // 2), (u.n + 1) // 2)
    total = coeffs.max()
    if total == 0.0:
        return True
    high = coeffs[np.abs(ks) > max_mode]
    return bool(high.size == 0 or high.max() <= 1e-12 * total)


@st.composite
def _planted_modes(draw):
    """(u, max_mode): a few sine or cosine modes of amplitude 1e-14..1 on N = 4..512."""
    n = draw(st.integers(4, 512))
    terms = draw(st.lists(
        st.tuples(st.integers(0, n // 2), st.floats(1e-14, 1.0), st.booleans()), min_size=1, max_size=4
    ))
    x = np.arange(n) * (TWO_PI / n)
    values = sum(a * (np.sin(k * x) if sine else np.cos(k * x)) for k, a, sine in terms)
    return grid(values), draw(st.integers(0, n // 2))


@given(_planted_modes())
@example((grid(np.cos(np.arange(64) * (TWO_PI / 64) * 17) * 1e-14 + 1.0), 16))
@example((grid(np.zeros(8)), 0))
@settings(max_examples=300, deadline=None)
def test_band_limit_check_matches_the_full_dft(case):
    u, max_mode = case
    assert is_band_limited(u, max_mode) == _band_limited_by_full_dft(u, max_mode)


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
        path = lx.RefinementPath(2.0, 0.5)
        assert path.dx_for(0.25) == pytest.approx(1.0)

    def test_cfl_boundary(self):
        path = lx.RefinementPath.cfl_boundary()
        assert path.dx_for(0.02) == pytest.approx(math.sqrt(0.04))

    def test_grid_for_never_undershoots_dx(self):
        path = lx.RefinementPath.cfl_boundary()
        for dt in (1e-2, 2.5e-3, 6.25e-4):
            n, dx = path.grid_for(dt)
            assert dx >= path.dx_for(dt)
            assert dt / dx**2 <= 0.5


# dx = dt^0.05 keeps every FTCS cell drawn below on 7 to 12 points at
# r <= 0.13, so a 52-bit twin takes no step and T/dt = 1e5 stays within
# MAX_UPDATES.
_COARSE_PATH = lx.RefinementPath(1.0, 0.05)


@given(
    st.floats(1e-3, 1e5) | st.sampled_from([0.5, 1.5, 2.5, 0.5 + 2.0**-52]),
    st.floats(1e-6, 0.1) | st.sampled_from([2.0**-4, 2.0**-10, 2.0**-20]),
)
@example(0.5, 2.0**-10)
@example(1.5, 2.0**-10)
@example(2.5, 2.0**-10)
@settings(max_examples=40)
def test_every_entry_point_takes_the_step_count(ratio, dt):
    # A stability row, a convergence cell and a round-off twin at one
    # (dt, T) all take round(T/dt) steps, and all reject a T that holds none.
    horizon = ratio * dt
    ftcs, probe = scheme_builder("ftcs"), lx.Sine(1)
    grid_n, dx = _COARSE_PATH.grid_for(dt)
    sweep = (ftcs, _COARSE_PATH, probe, horizon, PrecisionSpec(52), [dt] * 4)
    entry_points = [
        lambda: [stability_check(ftcs(dt, dx, grid_n), horizon).n_steps],
        lambda: [c.n_steps for c in convergence_experiment(ftcs, _COARSE_PATH, probe, horizon, [dt]).cells],
        lambda: [row[2] for row in halving_sweeps([sweep])[0].rows],
    ]
    if round(horizon / dt) == 0:
        for run in entry_points:
            with pytest.raises(InvalidGridError, match="shorter than one step"):
                run()
    else:
        n = step_count(horizon, dt)
        assert n == round(horizon / dt)
        assert [run() for run in entry_points] == [[n], [n], [n] * 4]


def test_band_limit_detection():
    assert is_band_limited(lx.sample(lx.Sine(3), 64), 16)
    assert not is_band_limited(lx.sample(lx.Sine(31), 64), 16)

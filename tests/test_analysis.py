import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import laxlab as lx
from conftest import EXTENDED_FFT, _circulant_power_ld
from laxlab import analysis
from laxlab.analysis import (
    STABILITY_CAP,
    consistency_check,
    convergence_experiment,
    operator_norm,
    sample_steps,
    scheme_builder,
    stability_check,
    von_neumann_check,
    von_neumann_symbol,
)
from laxlab.errors import DivergedOperatorError, InvalidGridError
from laxlab.grid import OVERFLOW_LIMIT, RefinementPath
from laxlab.roundoff import PrecisionSpec, roundoff_growth_experiment
from laxlab.schemes import (
    StencilScheme,
    apply_values,
    backward_euler_heat,
    compose,
    ftcs_heat,
    power,
)
from laxlab.semigroup import HeatSemigroup, evolve

TWO_PI = 2 * math.pi


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
        s = ftcs_heat(1e-310, TWO_PI / 64, 64)
        with pytest.raises(InvalidGridError, match="too many steps"):
            stability_check(s, 1.0)
        with pytest.raises(InvalidGridError, match="too many steps"):
            roundoff_growth_experiment(s, lx.sample(lx.Sine(1), 64), 1.0, PrecisionSpec(12))

    def test_report_counts_the_steps_in_the_horizon(self):
        report = stability_check(ftcs_heat(0.1, 1.0, 16), 1.0)
        assert report.n_steps == 10 and report.norms[-1][0] == 10


def _walked_norms_reference(s, horizon_t):
    """The power/compose walk every stability row took before symbol norms."""
    n_max = int(math.floor(horizon_t / s.dt + 1e-9))
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
    @given(
        st.one_of(
            st.tuples(st.just(ftcs_heat), st.floats(0.0, 0.5, exclude_min=True)),
            st.tuples(st.just(backward_euler_heat), st.floats(0.01, 20.0)),
        ),
        st.integers(4, 64),
        st.integers(1, 3000),
    )
    @example((ftcs_heat, 0.5), 64, 3000)
    @example((ftcs_heat, 0.1), 61, 2000)
    @example((backward_euler_heat, 4.0), 64, 1000)
    @settings(max_examples=12)
    def test_symbol_norms_match_dense_powers(self, build_r, n, n_max):
        # Against C^k formed by direct circular convolutions in long double.
        build, r = build_r
        s = build(r, 1.0, n)
        assert von_neumann_check(s).passed
        report = stability_check(s, n_max * s.dt)
        for k, norm in report.norms:
            exact = float(np.abs(_circulant_power_ld(s, k)).sum(axis=1).max())
            assert abs(norm - exact) <= 1e-13 * exact

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

    @pytest.mark.parametrize("r", [0.3, 0.75])
    def test_report_carries_the_von_neumann_factor(self, r):
        n = 64
        dx = TWO_PI / n
        s = ftcs_heat(r * dx**2, dx, n)
        assert stability_check(s, 1.0).max_abs_g == von_neumann_check(s).max_abs_g


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
            report = von_neumann_check(s)
            assert report.wavenumber in ks
            assert report.max_abs_g == pytest.approx(max(mags), abs=1e-12)
            assert mags[ks.index(report.wavenumber)] == pytest.approx(
                max(mags), abs=1e-12
            )

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
        sg = HeatSemigroup(horizon_t=1.0, grid_n=n)
        u = lx.sample(lx.Sine(1), n)
        residuals = consistency_check(s, sg, u, [0.0])
        # closed-form oracle: |g(1) - e^{-dt}| times the grid sup of sin
        g1 = 1 - 4 * s.courant_ratio * math.sin(dx / 2) ** 2
        oracle = abs(g1 - math.exp(-dt)) * lx.sup_norm(u)
        assert residuals[0][1] <= 1e-7
        assert residuals[0][1] == pytest.approx(oracle, rel=1e-6)

    def test_constant_residual_zero(self):
        n = 32
        dx = TWO_PI / n
        s = ftcs_heat(0.4 * dx**2, dx, n)
        sg = HeatSemigroup(horizon_t=1.0, grid_n=n)
        u = lx.sample(lx.Constant(1.0), n)
        residuals = consistency_check(s, sg, u, [0.0, 0.3, 0.7])
        assert max(res for _, res in residuals) < 1e-14

    def test_second_order_one_step_ratio(self):
        path = RefinementPath.fixed_ratio(0.5)
        res = []
        for dt in (1e-3, 5e-4):
            n, dx = path.grid_for(dt)
            s = ftcs_heat(dt, dx, n)
            sg = HeatSemigroup(horizon_t=1.0, grid_n=n)
            u = lx.sample(lx.Sine(1), n)
            res.append(consistency_check(s, sg, u, [0.0])[0][1])
        assert 3.5 <= res[0] / res[1] <= 4.5

    def test_grid_mismatch_rejected(self):
        s = ftcs_heat(0.01, TWO_PI / 32, 32)
        sg = HeatSemigroup(horizon_t=1.0, grid_n=64)
        with pytest.raises(InvalidGridError):
            consistency_check(s, sg, lx.sample(lx.Sine(1), 32), [0.0])


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
            RefinementPath.from_power(1.0, 1.0),
            lx.Sine(1),
            1.0,
            [1e-2, 5e-3, 2.5e-3],
        )
        assert report.converged

    def test_stable_and_consistent_implies_convergent(self):
        # the forward implication of the equivalence theorem, observed
        cases = [
            ("ftcs", RefinementPath.fixed_ratio(0.3), 0.3),
            ("ftcs", RefinementPath.fixed_ratio(0.5), 0.5),
            ("backward_euler", RefinementPath.from_power(1.0, 1.0), None),
        ]
        for name, path, _ in cases:
            dts = [5e-3, 2.5e-3, 1.25e-3]
            builder = scheme_builder(name)
            for dt in dts:
                n, dx = path.grid_for(dt)
                s = builder(dt, dx, n)
                assert stability_check(s, 1.0).stable
                sg = HeatSemigroup(horizon_t=1.0, grid_n=n)
                res = consistency_check(s, sg, lx.sample(lx.Sine(1), n), [0.0, 0.5])
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
        def no_stepping(*args):
            raise AssertionError("a cell was stepped")

        monkeypatch.setattr(analysis, "_run_trajectory", no_stepping)
        path = RefinementPath.from_table([(0.004028497, 0.08975979010256552)])
        with pytest.raises(InvalidGridError, match="1.74e\\+08 updates"):
            convergence_experiment(scheme_builder("ftcs"), path, lx.Sine(1), 1e4, [0.004028497])

    def test_table_path_cells_report_grid_symbol(self):
        dx = TWO_PI / 16
        dt = 0.75 * dx**2
        report = convergence_experiment(
            scheme_builder("ftcs"),
            RefinementPath.from_table([(dt, dx)]),
            lx.Sine(1),
            0.01,
            [dt],
        )
        assert report.cells[0].grid_n == 16
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
            s = ftcs_heat(cell.dt, cell.dx, cell.grid_n)
            u = lx.sample(probe, cell.grid_n)
            vals, expected = u.values, None
            for _ in range(cell.n_steps):
                vals = apply_values(s, vals)
                if not np.abs(vals).max() <= OVERFLOW_LIMIT:
                    expected = math.inf
                    break
            if expected is None:
                sg = HeatSemigroup(horizon_t=1.0, grid_n=cell.grid_n)
                expected = float(np.max(np.abs(vals - evolve(sg, u, cell.n_steps * cell.dt).values)))
            assert not von_neumann_check(s).passed
            assert cell.error == expected

        # Cells that pass the check take the symbol power and never step.
        def no_stepping(*args):
            raise AssertionError("a stable cell was stepped")

        monkeypatch.setattr(analysis, "_run_trajectory", no_stepping)
        report = convergence_experiment(
            scheme_builder("ftcs"), RefinementPath.cfl_boundary(), lx.Sine(1), 1.0, [1e-2, 2.5e-3]
        )
        assert report.converged

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
            unique_by=lambda p: p[0],
        ),
        min_points=st.integers(2, 8),
    )
    def test_loglog_slope_fits_only_finite_positive_points(self, pairs, min_points):
        kept = [(x, y) for x, y in pairs if y > 0 and math.isfinite(y)]
        got = analysis.loglog_slope(pairs, min_points)
        if len(kept) < min_points:
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
            for _ in range(n_steps):
                vals = apply_values(s, vals)
                if not np.abs(vals).max() <= OVERFLOW_LIMIT:
                    diverged = True
                    break
        got, got_diverged = analysis._run_trajectory(s, u, n_steps)
        assert got_diverged == diverged
        assert np.array_equal(got.view(np.int64), vals.view(np.int64))

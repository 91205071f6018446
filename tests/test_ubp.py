import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxlab.ubp import (
    FiniteSequence,
    apply_Tk,
    cauchy_witness,
    norm_Tk,
    pointwise_bound,
    seq_norm,
    subtract,
    ubp_violation_demo,
)


def combine(a: float, x: FiniteSequence, b: float, y: FiniteSequence) -> FiniteSequence:
    """The linear combination a*x + b*y."""
    out = {idx: a * val for idx, val in x.entries.items()}
    for idx, val in y.entries.items():
        out[idx] = out.get(idx, 0.0) + b * val
    return FiniteSequence(out)


def random_unit_sequence(rng: np.random.Generator, max_support: int) -> FiniteSequence:
    """Random finitely-supported sequence with sup-norm exactly 1."""
    size = int(rng.integers(1, max_support + 1))
    vals = rng.uniform(-1.0, 1.0, size=size)
    peak = int(rng.integers(0, size))
    vals[peak] = 1.0 if rng.uniform() < 0.5 else -1.0
    return FiniteSequence({i: v for i, v in enumerate(vals)})


class TestFiniteSequence:
    def test_zero_entries_dropped(self):
        x = FiniteSequence({0: 1.0, 5: 0.0})
        assert x.support_bound == 1

    def test_support_bound(self):
        assert FiniteSequence({}).support_bound == 0
        assert FiniteSequence({5: 0.5, 100: -0.25}).support_bound == 101

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FiniteSequence({-1: 1.0})


class TestSeqNorm:
    def test_zero(self):
        assert seq_norm(FiniteSequence({})) == 0.0

    def test_max_abs(self):
        assert seq_norm(FiniteSequence(dict(enumerate([1.0, -3.0, 2.0])))) == 3.0

    def test_sparse_enumeration(self):
        assert seq_norm(FiniteSequence({5: 0.5, 100: -0.25})) == 0.5


class TestApplyTk:
    def test_paper_substitution(self):
        x = FiniteSequence(dict(enumerate([1.0, 1.0, 1.0])))
        y = apply_Tk(2, x)
        assert y.entries == {2: 2.0}

    def test_t_zero_annihilates(self):
        x = FiniteSequence(dict(enumerate([3.0, 4.0])))
        assert apply_Tk(0, x).entries == {}

    def test_scaling(self):
        x = FiniteSequence({5: -2.0})
        assert apply_Tk(5, x).entries == {5: -10.0}

    def test_linearity_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = random_unit_sequence(rng, 12)
            y = random_unit_sequence(rng, 12)
            a, b = 2.0, -3.0  # exact in binary, so equality is exact
            k = int(rng.integers(0, 15))
            lhs = apply_Tk(k, combine(a, x, b, y))
            rhs = combine(a, apply_Tk(k, x), b, apply_Tk(k, y))
            assert lhs.entries == rhs.entries


class TestNormTk:
    def test_zero_operator(self):
        assert norm_Tk(0) == 0.0

    def test_witness_attains(self):
        e7 = FiniteSequence.unit(7)
        assert norm_Tk(7) == 7.0
        assert seq_norm(apply_Tk(7, e7)) / seq_norm(e7) == 7.0

    def test_randomized_search_never_exceeds(self):
        rng = np.random.default_rng(3)
        k = 3
        best = 0.0
        for _ in range(1000):
            x = random_unit_sequence(rng, 20)
            best = max(best, seq_norm(apply_Tk(k, x)) / seq_norm(x))
        assert best <= k + 1e-12

    def test_exact_for_all_k_up_to_200(self):
        for k in range(201):
            assert norm_Tk(k) == float(k)
            assert seq_norm(apply_Tk(k, FiniteSequence.unit(k))) == float(k)


def dense_pointwise_bound(x: FiniteSequence) -> tuple:
    """(bound, saturating k) by the scan of every k below the support bound."""
    bound, best_k = 0.0, 0
    for k in range(x.support_bound):
        val = k * abs(x[k])
        if val > bound:
            bound, best_k = val, k
    return bound, best_k


@st.composite
def sparse_sequences_with_ties(draw):
    entries = draw(st.dictionaries(st.integers(0, 300), st.floats(-1e300, 1e300), max_size=8))
    # An entry +-c / 2**j at k = 2**j has k * |x_k| = c exactly, so these tie.
    c = draw(st.floats(1e-300, 1e300))
    for j in draw(st.sets(st.integers(0, 8), max_size=4)):
        entries[2**j] = draw(st.sampled_from([1.0, -1.0])) * c / 2**j
    return FiniteSequence(entries)


class TestPointwiseBound:
    def test_ones_example(self):
        x = FiniteSequence(dict(enumerate([1.0, 1.0, 1.0])))
        report = pointwise_bound(x)
        assert report.bound == 2.0
        assert report.saturating_k == 2

    def test_unit_zero(self):
        report = pointwise_bound(FiniteSequence.unit(0))
        assert report.bound == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        x = FiniteSequence({i: float(v) for i, v in enumerate(rng.uniform(-1, 1, 10))})
        brute = max(seq_norm(apply_Tk(k, x)) for k in range(1001))
        report = pointwise_bound(x)
        assert report.bound == brute

    @given(sparse_sequences_with_ties())
    @settings(max_examples=200, deadline=None)
    def test_support_scan_matches_the_dense_scan(self, x):
        report = pointwise_bound(x)
        assert (report.bound, report.saturating_k) == dense_pointwise_bound(x)

    def test_far_unit_is_scanned_at_once(self):
        report = pointwise_bound(FiniteSequence.unit(10**12))
        assert (report.bound, report.saturating_k) == (1e12, 10**12)

    def test_annihilated_beyond_support(self):
        x = FiniteSequence(dict(enumerate([1.0, 0.5, 0.25])))
        for k in range(x.support_bound, x.support_bound + 50):
            assert apply_Tk(k, x).entries == {}


class TestViolationDemo:
    def test_table_contrast(self):
        probe = FiniteSequence(dict(enumerate([1.0, 1.0, 1.0])))
        table = ubp_violation_demo(range(101), [probe])
        assert list(table.op_norm) == [float(k) for k in range(101)]
        assert table.probe_bounds == ((0, 2.0),)

    def test_empty_probe_set(self):
        table = ubp_violation_demo(range(5))
        assert table.probe_bounds == ()

    def test_single_zero_row(self):
        table = ubp_violation_demo([0])
        assert len(table.k) == len(table.op_norm) == 1 and table.op_norm[0] == 0.0

    def test_no_uniform_bound_exists(self):
        # for any candidate bound B some k <= ceil(B) + 1 exceeds it
        for candidate in (1.5, 10.0, 99.0):
            k = math.ceil(candidate) + 1
            table = ubp_violation_demo(range(k + 1))
            assert any(norm > candidate for kk, norm in zip(table.k, table.op_norm) if kk <= k)

    def test_empty_k_range_rejected(self):
        with pytest.raises(ValueError):
            ubp_violation_demo([])


class TestIncompletenessWitness:
    def test_distance_formula_exact(self):
        for m in (1, 5, 40, 100):
            for mp in (2, 17, 100):
                if m == mp:
                    continue
                d = seq_norm(subtract(cauchy_witness(m), cauchy_witness(mp)))
                assert d == 1.0 / (min(m, mp) + 1)

    def test_pointwise_limit_leaves_the_space(self):
        # the limit (1, 1/2, 1/3, ...) has no trailing zeros: every truncation
        # changes it at the truncation index, so no finite support bound works
        x = cauchy_witness(200)
        assert all(x[i] != 0.0 for i in range(200))
        assert x.support_bound == 200  # grows without bound as m grows
        assert cauchy_witness(400).support_bound == 400

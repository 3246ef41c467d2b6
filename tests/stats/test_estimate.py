"""Unit tests for the UI skyline-size estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import InvalidParameterError
from repro.stats.estimate import (
    expected_skyline_size,
    expected_skyline_size_asymptotic,
)
from tests.oracles.estimate import (
    expected_skyline_size as reference_skyline_size,
)


class TestHarmonicRecurrence:
    def test_d1_is_one(self):
        assert expected_skyline_size(1000, 1) == 1.0

    def test_n1_is_one(self):
        assert expected_skyline_size(1, 7) == 1.0

    def test_d2_is_harmonic_number(self):
        # H_5 = 1 + 1/2 + 1/3 + 1/4 + 1/5
        assert expected_skyline_size(5, 2) == pytest.approx(137 / 60)

    def test_d3_small_case(self):
        # H_{2,3} = sum_{i<=3} H_{1,i}/i = 1/1 + (3/2)/2 + (11/6)/3
        assert expected_skyline_size(3, 3) == pytest.approx(1 + 0.75 + 11 / 18)

    def test_monotone_in_n_and_d(self):
        assert expected_skyline_size(2000, 4) > expected_skyline_size(1000, 4)
        assert expected_skyline_size(1000, 5) > expected_skyline_size(1000, 4)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            expected_skyline_size(0, 3)
        with pytest.raises(InvalidParameterError):
            expected_skyline_size(5, 0)

    def test_asymptotic_tracks_exact_at_large_n(self):
        exact = expected_skyline_size(100_000, 4)
        approx = expected_skyline_size_asymptotic(100_000, 4)
        assert 0.5 < approx / exact < 1.5

    def test_predicts_measured_ui_skylines(self):
        """The estimator lands within ~35% of measured UI skyline sizes."""
        for d in (3, 4, 5):
            sizes = []
            for seed in range(3):
                data = repro.generate("UI", n=3000, d=d, seed=seed)
                sizes.append(repro.skyline(data, algorithm="sdi").size)
            measured = sum(sizes) / len(sizes)
            predicted = expected_skyline_size(3000, d)
            assert 0.65 < predicted / measured < 1.35


class TestCumsumMatchesScalarReference:
    """The cumulative-sum passes reproduce the scalar loop float for float."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 12))
    def test_matches_reference_exactly(self, n, d):
        assert expected_skyline_size(n, d) == reference_skyline_size(n, d)

    @pytest.mark.parametrize("d", [2, 8])
    def test_largest_planner_call(self, d):
        # n = 50_000 is the planner's exact-estimate limit.
        assert expected_skyline_size(50_000, d) == reference_skyline_size(50_000, d)

    def test_returns_python_float(self):
        # The value lands in Plan.signals; an np.float64 would change its repr.
        assert type(expected_skyline_size(10, 3)) is float

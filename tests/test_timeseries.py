import numpy as np
import pytest

from sncoint import CointegrationSample, Deterministics, build_deterministics, first_difference, partial_sum


class TestPartialSum:
    def test_simple_vector(self):
        assert partial_sum(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 3.0, 6.0]

    def test_zeros(self):
        assert partial_sum(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_alternating(self):
        assert partial_sum(np.array([1.0, -1.0, 1.0])).tolist() == [1.0, 0.0, 1.0]

    def test_matrix_columns_independent(self):
        a = np.array([[1.0, 10.0], [2.0, 20.0]])
        out = partial_sum(a)
        assert out.tolist() == [[1.0, 10.0], [3.0, 30.0]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            partial_sum(np.array([]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(17)
            b = rng.standard_normal(17)
            alpha = rng.standard_normal()
            lhs = partial_sum(alpha * a + b)
            rhs = alpha * partial_sum(a) + partial_sum(b)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestFirstDifference:
    def test_inverts_partial_sum(self):
        assert first_difference(np.array([1.0, 3.0, 6.0])).tolist() == [2.0, 3.0]

    def test_constant_gives_zeros(self):
        assert first_difference(np.full(5, 2.5)).tolist() == [0.0] * 4

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            first_difference(np.array([1.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(2, 40))
            np.testing.assert_allclose(first_difference(partial_sum(a)), a[1:], rtol=0, atol=1e-12)


class TestDeterministics:
    def test_intercept(self):
        assert build_deterministics(Deterministics.INTERCEPT, 3).tolist() == [[1.0], [1.0], [1.0]]

    def test_none_has_zero_columns(self):
        assert build_deterministics(Deterministics.NONE, 5).shape == (5, 0)

    def test_intercept_trend(self):
        out = build_deterministics(Deterministics.TREND, 3)
        assert out.tolist() == [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]

    def test_cubic_columns(self):
        out = build_deterministics(Deterministics.CUBIC, 4)
        np.testing.assert_array_equal(out[:, 3], np.arange(1.0, 5.0) ** 3)

    def test_aliases(self):
        assert Deterministics.from_alias("const") is Deterministics.INTERCEPT
        assert Deterministics.from_alias("quad") is Deterministics.QUADRATIC
        with pytest.raises(ValueError):
            Deterministics.from_alias("cubic+quartic")


class TestCointegrationSample:
    def test_shapes_and_innovations(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.standard_normal((30, 2)), axis=0)
        y = x @ [1.0, 1.0] + rng.standard_normal(30)
        s = CointegrationSample(y=y, x=x)
        assert (s.nobs, s.n_regressors) == (30, 2)
        v = s.innovations()
        # first innovation is the level itself (regressors start from zero)
        np.testing.assert_array_equal(v[0], x[0])
        np.testing.assert_allclose(np.cumsum(v, axis=0), x, atol=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="same number"):
            CointegrationSample(y=np.zeros(5), x=np.zeros((6, 1)))

    def test_minimum_observations(self):
        # m=2, intercept: needs 2*2 + 1 + 3 = 8 observations
        x = np.cumsum(np.random.default_rng(3).standard_normal((7, 2)), axis=0)
        with pytest.raises(ValueError, match="observations"):
            CointegrationSample(y=np.zeros(7), x=x, det=Deterministics.INTERCEPT)

    def test_1d_regressor_promoted(self):
        x = np.cumsum(np.random.default_rng(4).standard_normal(20))
        s = CointegrationSample(y=np.zeros(20), x=x)
        assert s.x.shape == (20, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, bad):
        x = np.cumsum(np.random.default_rng(5).standard_normal((20, 1)), axis=0)
        y = x[:, 0].copy()
        y[3] = bad
        with pytest.raises(ValueError, match=r"y holds a non-finite value .* t = 4"):
            CointegrationSample(y=y, x=x)

    def test_non_finite_regressor_names_column(self):
        x = np.cumsum(np.random.default_rng(6).standard_normal((20, 2)), axis=0)
        x[7, 1] = np.nan
        with pytest.raises(ValueError, match=r"x column 1 holds a non-finite value \(nan\) at t = 8"):
            CointegrationSample(y=np.zeros(20), x=x)

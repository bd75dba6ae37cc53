import numpy as np
import pytest

from sncoint import (
    BARTLETT,
    QUADRATIC_SPECTRAL,
    KernelSpec,
    andrews_bandwidth,
    conditional_lrv,
    estimate_lrv,
    kernel_weight,
    lrv_matrix,
    one_sided_lrv,
)

# Frozen from a 40-digit evaluation of the spectral-window formula.
QS_AT_HALF = 0.68693073006405944663
QS_AT_TWO = -0.0096508008555533068742


def brute_force_lrv(w, kind, bandwidth):
    """Literal O(T^2) transcription of the weighted double sum."""
    w = np.atleast_2d(w.T).T if w.ndim == 1 else w
    T, k = w.shape
    out = np.zeros((k, k))
    for i in range(T):
        for j in range(T):
            out += kernel_weight(kind, abs(i - j) / bandwidth) * np.outer(w[i], w[j])
    return out / T


def brute_force_one_sided(w, kind, bandwidth):
    T, k = w.shape
    out = np.zeros((k, k))
    for h in range(T):
        weight = kernel_weight(kind, h / bandwidth)
        gamma = np.zeros((k, k))
        for t in range(T - h):
            gamma += np.outer(w[t], w[t + h])
        out += weight * gamma / T
    return out


class TestKernelWeight:
    def test_bartlett_values(self):
        assert kernel_weight(BARTLETT, 0.0) == 1.0
        assert kernel_weight(BARTLETT, 0.5) == 0.5
        assert kernel_weight(BARTLETT, 1.2) == 0.0

    def test_qs_values(self):
        assert kernel_weight(QUADRATIC_SPECTRAL, 0.0) == 1.0
        assert kernel_weight(QUADRATIC_SPECTRAL, 0.5) == pytest.approx(QS_AT_HALF, rel=1e-14)
        assert kernel_weight(QUADRATIC_SPECTRAL, 2.0) == pytest.approx(QS_AT_TWO, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kernel_weight(BARTLETT, -0.1)

    def test_vectorized(self):
        x = np.array([0.0, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(kernel_weight(BARTLETT, x), [1.0, 0.5, 0.0, 0.0])


class TestAndrewsBandwidth:
    @staticmethod
    def plug_in_reference(w, kind):
        """Independent scalar transcription of the AR(1) plug-in rule."""
        T = w.shape[0]
        num1 = num2 = den = 0.0
        for i in range(w.shape[1]):
            col = w[:, i]
            rho = float(col[1:] @ col[:-1]) / float(col[:-1] @ col[:-1])
            resid = col[1:] - rho * col[:-1]
            s2 = float(resid @ resid) / (T - 1)
            num1 += 4 * rho**2 * s2**2 / ((1 - rho) ** 6 * (1 + rho) ** 2)
            num2 += 4 * rho**2 * s2**2 / (1 - rho) ** 8
            den += s2**2 / (1 - rho) ** 4
        if kind == BARTLETT:
            return 1.1447 * (num1 / den * T) ** (1 / 3)
        return 1.3221 * (num2 / den * T) ** (1 / 5)

    def test_matches_reference_on_fixed_matrix(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((40, 2))
        w[:, 0] = np.convolve(w[:, 0], [1.0, 0.6], mode="same")  # some persistence
        for kind in (BARTLETT, QUADRATIC_SPECTRAL):
            assert andrews_bandwidth(w, kind) == pytest.approx(self.plug_in_reference(w, kind), rel=1e-12)

    def test_small_persistence_limit(self):
        # AR(1) column with slope 0.05 exactly: y_t = 0.05 y_{t-1} + known resid
        rng = np.random.default_rng(9)
        base = rng.standard_normal(500)
        col = np.empty(500)
        col[0] = base[0]
        for t in range(1, 500):
            col[t] = 0.05 * col[t - 1] + base[t]
        w = col[:, None]
        assert andrews_bandwidth(w, BARTLETT) == pytest.approx(self.plug_in_reference(w, BARTLETT), rel=1e-12)
        # weak dependence -> small bandwidth
        assert andrews_bandwidth(w, BARTLETT) < 4.0

    def test_monotone_in_persistence(self):
        rng = np.random.default_rng(10)
        wins = 0
        for _ in range(30):
            eps = rng.standard_normal((400, 2))
            series = []
            for rho in (0.3, 0.9):
                col = np.empty(400)
                col[0] = eps[0, 0]
                for t in range(1, 400):
                    col[t] = rho * col[t - 1] + eps[t, int(rho > 0.5)]
                series.append(col)
            low = andrews_bandwidth(series[0][:, None], BARTLETT)
            high = andrews_bandwidth(series[1][:, None], BARTLETT)
            wins += high > low
        assert wins >= 28

    def test_near_unit_root_clamped_with_warning(self):
        t = np.arange(300.0)
        w = (t + 1.0)[:, None]  # slope estimate essentially one
        with pytest.warns(RuntimeWarning, match="clamped"):
            bw = andrews_bandwidth(w, BARTLETT)
        assert np.isfinite(bw) and bw > 0


class TestLrvMatrix:
    def test_small_bandwidth_keeps_lag_zero_only(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((25, 3))
        out = lrv_matrix(w, KernelSpec(BARTLETT, 0.5))
        np.testing.assert_allclose(out, w.T @ w / 25, atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((8, 2))
        out = lrv_matrix(w, KernelSpec(BARTLETT, 3.0))
        np.testing.assert_allclose(out, brute_force_lrv(w, BARTLETT, 3.0), atol=1e-12)

    def test_univariate_alternating(self):
        w = np.array([1.0, -1.0, 1.0, -1.0])
        out = lrv_matrix(w, KernelSpec(BARTLETT, 2.0))
        expected = brute_force_lrv(w[:, None], BARTLETT, 2.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_qs_matches_brute_force(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((10, 2))
        out = lrv_matrix(w, KernelSpec(QUADRATIC_SPECTRAL, 2.5))
        np.testing.assert_allclose(out, brute_force_lrv(w, QUADRATIC_SPECTRAL, 2.5), atol=1e-12)

    def test_symmetry_and_scale(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            w = rng.standard_normal((rng.integers(5, 30), 2))
            out = lrv_matrix(w, KernelSpec(BARTLETT, 4.0))
            np.testing.assert_allclose(out, out.T, atol=1e-12)
            scaled = lrv_matrix(3.0 * w, KernelSpec(BARTLETT, 4.0))
            np.testing.assert_allclose(scaled, 9.0 * out, rtol=1e-12)

    def test_full_bandwidth_equals_brute_force(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((12, 2))
        T = w.shape[0]
        out = lrv_matrix(w, KernelSpec(BARTLETT, float(T)))
        np.testing.assert_allclose(out, brute_force_lrv(w, BARTLETT, float(T)), atol=1e-12)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(BARTLETT, -1.0)

    def test_nan_bandwidth(self):
        with pytest.raises(ValueError, match="^bandwidth must be 'andrews' or a positive number, got nan$"):
            KernelSpec(BARTLETT, float("nan"))

    def test_infinite_bandwidth(self):
        with pytest.raises(ValueError, match="^bandwidth must be 'andrews' or a positive number, got inf$"):
            KernelSpec(QUADRATIC_SPECTRAL, float("inf"))


class TestOneSided:
    def test_small_bandwidth_keeps_lag_zero(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((20, 2))
        out = one_sided_lrv(w, KernelSpec(BARTLETT, 0.5))
        np.testing.assert_allclose(out, w.T @ w / 20, atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((8, 2))
        out = one_sided_lrv(w, KernelSpec(BARTLETT, 4.0))
        np.testing.assert_allclose(out, brute_force_one_sided(w, BARTLETT, 4.0), atol=1e-12)

    def test_symmetrization_identity(self):
        rng = np.random.default_rng(18)
        for kind in (BARTLETT, QUADRATIC_SPECTRAL):
            w = rng.standard_normal((15, 3))
            spec = KernelSpec(kind, 5.0)
            half = one_sided_lrv(w, spec)
            gamma0 = w.T @ w / 15
            np.testing.assert_allclose(half + half.T - gamma0, lrv_matrix(w, spec), atol=1e-12)


class TestConditional:
    def test_block_diagonal(self):
        omega = np.diag([2.0, 1.0, 3.0])
        assert conditional_lrv(omega) == pytest.approx(2.0)

    def test_two_by_two(self):
        assert conditional_lrv(np.array([[2.0, 1.0], [1.0, 1.0]])) == pytest.approx(1.0)

    def test_schur_positive_and_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            a = rng.standard_normal((4, 4))
            omega = a @ a.T + 0.1 * np.eye(4)
            value = conditional_lrv(omega)
            assert 0.0 < value <= omega[0, 0] + 1e-12

    def test_singular_regressor_block(self):
        omega = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            conditional_lrv(omega)


    def test_one_column_is_its_variance(self):
        est = estimate_lrv(np.random.default_rng(23).standard_normal((80, 1)), KernelSpec(BARTLETT, "andrews"))
        assert est.omega.shape == (1, 1)
        assert est.conditional == est.omega[0, 0]


class TestFftAutocovariances:
    def test_matches_lag_loop(self):
        """The QS kernel's FFT pass against the lag-by-lag sums it replaces."""
        from sncoint.kernels import _all_autocovariances, autocovariances

        rng = np.random.default_rng(22)
        for T in (2, 3, 17, 250):
            w = rng.standard_normal((3, T, 2)) * [1.0, 1e3]
            expected = autocovariances(w, T - 1)
            assert np.abs(_all_autocovariances(w) - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_fast_length_matches_scipy(self):
        from scipy.fft import next_fast_len

        from sncoint.kernels import _fast_length

        assert [_fast_length(n) for n in range(1, 20_001)] == [next_fast_len(n, real=True) for n in range(1, 20_001)]

    @pytest.mark.parametrize("c, k", [(1, 2), (5, 3), (3, 5), (25, 3)])
    def test_matches_scipy_fft_bit_for_bit(self, c, k):
        """numpy's FFT gives the autocovariances of the scipy.fft pass it replaced, to the last bit."""
        from scipy import fft

        from sncoint.kernels import _all_autocovariances

        rng = np.random.default_rng(23)
        for T in (7, 8, 100, 250, 1000, 1021, 10_000):
            w = rng.standard_normal((c, T, k))
            n = fft.next_fast_len(2 * T - 1, real=True)
            F = fft.rfft(w, n=n, axis=1)
            expected = fft.irfft(F.conj()[:, :, :, None] * F[:, :, None, :], n=n, axis=1)[:, :T] / T
            np.testing.assert_array_equal(_all_autocovariances(w), expected)


class TestEstimateLrv:
    def test_partition_consistency(self):
        rng = np.random.default_rng(20)
        w = rng.standard_normal((60, 3))
        est = estimate_lrv(w, KernelSpec(BARTLETT, "andrews"))
        assert est.omega.shape == (3, 3)
        assert isinstance(est.uu, float) and est.uu == pytest.approx(est.omega[0, 0])
        np.testing.assert_array_equal(est.uv, est.omega[0, 1:])
        expected = est.uu - est.uv @ np.linalg.solve(est.vv, est.uv)
        assert est.conditional == pytest.approx(expected, rel=1e-12)

    def test_one_sided_at_resolved_bandwidth(self):
        w = np.random.default_rng(21).standard_normal((80, 2))
        for kind in (BARTLETT, QUADRATIC_SPECTRAL):
            est = estimate_lrv(w, KernelSpec(kind, "andrews"))
            fixed = KernelSpec(kind, est.bandwidth)
            np.testing.assert_allclose(est.one_sided, brute_force_one_sided(w, kind, est.bandwidth), atol=1e-12)
            np.testing.assert_array_equal(est.one_sided, one_sided_lrv(w, fixed))
            np.testing.assert_array_equal(est.omega, lrv_matrix(w, fixed))

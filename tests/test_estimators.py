import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncoint import (
    CointegrationSample,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    build_deterministics,
    d_ols,
    fm_ols,
    im_ols,
    levels_residuals,
    ols,
    partial_sum,
    restricted_im_ols,
)
from sncoint.estimators import FittedSample, FmOlsFit, ImOlsFit, OlsFit


def random_sample(rng, T=60, m=2, det=Deterministics.NONE, beta=None, endo=0.0):
    v = rng.standard_normal((T, m))
    x = np.cumsum(v, axis=0)
    u = rng.standard_normal(T) + endo * v.sum(axis=1)
    beta = np.ones(m) if beta is None else np.asarray(beta)
    y = x @ beta + u
    if det.n_columns:
        from sncoint import build_deterministics

        y = y + build_deterministics(det, T) @ np.arange(1.0, det.n_columns + 1)
    return CointegrationSample(y=y, x=x, det=det)


def brute_force_sandwich(Z):
    """Direct transcription: (sum Z Z')^{-1} (sum c c') (sum Z Z')^{-1}."""
    T, k = Z.shape
    SZ = np.zeros(k)
    running = []
    for t in range(T):
        SZ = SZ + Z[t]
        running.append(SZ.copy())
    ST = running[-1]
    A = np.zeros((k, k))
    B = np.zeros((k, k))
    for t in range(T):
        A += np.outer(Z[t], Z[t])
        c_t = ST - (running[t - 1] if t > 0 else np.zeros(k))
        B += np.outer(c_t, c_t)
    Ainv = np.linalg.inv(A)
    return Ainv @ B @ Ainv


class TestOls:
    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((15, 3))
        coef = np.array([1.0, -2.0, 0.5])
        fit = ols(X @ coef, X)
        np.testing.assert_allclose(fit.params, coef, atol=1e-10)
        np.testing.assert_allclose(fit.resid, 0.0, atol=1e-10)

    def test_mean(self):
        fit = ols(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)))
        assert fit.params[0] == pytest.approx(2.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        fit = ols(y, X)
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.params, expected, atol=1e-10)
        np.testing.assert_allclose(X.T @ fit.resid, 0.0, atol=1e-8)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(np.linalg.LinAlgError, match="regressor matrix is rank deficient"):
            ols(np.arange(10.0), X)

    def test_fewer_rows_than_columns(self):
        with pytest.raises(np.linalg.LinAlgError, match="regressor matrix is rank deficient"):
            ols(np.ones(2), np.arange(6.0).reshape(2, 3))

    def test_memory_order_does_not_change_the_bits(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        c, f = ols(y, X), ols(y, np.asfortranarray(X))
        np.testing.assert_array_equal(f.params, c.params)
        np.testing.assert_array_equal(f.resid, c.resid)

    def test_root_factors_inverse_moments(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3)) * [1.0, 1e3, 1e-3]
        root = ols(rng.standard_normal(30), X).root
        np.testing.assert_allclose(root @ root.T @ (X.T @ X), np.eye(3), atol=1e-10)


class TestQrSolve:
    """The least-squares kernel on a stack: degenerate rows masked, healthy
    rows bit-identical to their one-row fits."""

    def test_degenerate_rows_masked_and_healthy_rows_exact(self):
        import warnings

        from sncoint.estimators import _qr_solve

        rng = np.random.default_rng(33)
        X = rng.standard_normal((6, 40, 3)) * [1.0, 1e3, 1e-3]
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal((6, 40))
        X[1, :, 2] = 0.0  # a zero column
        y[2, 5] = np.inf  # a non-finite y
        X[4, :, 2] = 3.0 * X[4, :, 0] - X[4, :, 1]  # collinear columns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            theta, norms, root, degenerate, Ry, _, _ = _qr_solve(y, X)
        assert degenerate.tolist() == [False, True, True, False, True, False]
        assert np.isnan(theta[degenerate]).all() and np.isnan(root[degenerate]).all()
        for i in np.flatnonzero(~degenerate):
            one = ols(y[i], X[i])
            assert (theta[i] / norms[i]).tobytes() == one.params.tobytes()
            assert root[i].tobytes() == one.root.tobytes()
            tails = np.cumsum(Ry[i, ::-1, 0] ** 2)[::-1]  # tails[j]: the SSR on the first j columns
            for j in (1, 2, 3):
                resid = ols(y[i], X[i, :, :j]).resid
                assert tails[j] == pytest.approx(resid @ resid, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    def test_equilibrated_columns_are_the_row_major_quotient(self, k):
        from sncoint.estimators import _qr_solve

        rng = np.random.default_rng(34 + k)
        X = np.cumsum(rng.standard_normal((4, 50, k)), axis=1) * np.array([1.0, 1e3, 1e-3])[:k]
        Xs = _qr_solve(rng.standard_normal((4, 50)), X)[5]
        assert Xs.shape == X.shape
        np.testing.assert_array_equal(Xs, X / np.sqrt(np.einsum("ctj,ctj->cj", X, X))[:, None, :])


class TestImOls:
    def test_noiseless_recovers_beta_exactly(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.standard_normal((40, 2)), axis=0)
        beta = np.array([0.7, -1.2])
        s = CointegrationSample(y=x @ beta, x=x)
        fit = im_ols(s)
        np.testing.assert_allclose(fit.beta, beta, atol=1e-8)
        np.testing.assert_allclose(fit.gamma, 0.0, atol=1e-8)
        np.testing.assert_allclose(fit.resid, 0.0, atol=1e-7)

    def test_matches_normal_equations_on_small_fixed_data(self):
        x = np.array([[0.3], [0.8], [0.5], [1.4], [1.1], [1.9]])
        y = np.array([0.2, 0.9, 0.4, 1.5, 1.3, 1.7])
        s = CointegrationSample(y=y, x=x)
        fit = im_ols(s)
        Z = np.column_stack([np.cumsum(x[:, 0]), x[:, 0]])
        Sy = np.cumsum(y)
        expected = np.linalg.solve(Z.T @ Z, Z.T @ Sy)
        np.testing.assert_allclose(fit.params, expected, atol=1e-10)
        np.testing.assert_array_equal(fit.regressors, Z)

    def test_dimensions_with_intercept(self):
        rng = np.random.default_rng(3)
        s = random_sample(rng, T=50, m=2, det=Deterministics.INTERCEPT)
        fit = im_ols(s)
        assert fit.params.shape == (5,)
        assert fit.regressors.shape == (50, 5)
        assert fit.delta.shape == (1,)
        assert fit.beta.shape == (2,)
        assert fit.gamma.shape == (2,)

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        s = random_sample(rng)
        fit = im_ols(s)
        scale = np.linalg.norm(fit.regressors, axis=0) * np.linalg.norm(fit.resid)
        rel = np.abs(fit.regressors.T @ fit.resid) / np.maximum(scale, 1e-300)
        assert rel.max() < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        s = random_sample(rng, det=Deterministics.INTERCEPT)
        fit = im_ols(s)
        scaled = CointegrationSample(y=3.0 * s.y, x=s.x, det=s.det)
        fit3 = im_ols(scaled)
        np.testing.assert_allclose(fit3.params, 3.0 * fit.params, rtol=1e-9)
        np.testing.assert_allclose(fit3.resid, 3.0 * fit.resid, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(fit3.scaled_cov, fit.scaled_cov, rtol=1e-12)

    def test_collinear_rejected(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(30)
        x = np.cumsum(np.column_stack([v, v]), axis=0)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            im_ols(CointegrationSample(y=rng.standard_normal(30), x=x))


class TestImOlsBatch:
    def test_reads_a_fitted_sample(self):
        from sncoint.estimators import im_ols_batch

        det = Deterministics.INTERCEPT
        one = FittedSample(random_sample(np.random.default_rng(13), T=50, m=2, det=det))
        assert im_ols(one) is one.im
        y, x = stacked_rows(14, 4, 50, 2, det)
        stacked, batch = im_ols(FittedSample(y, x, det)), im_ols_batch(y, x, det)
        for name in ("params", "regressors", "resid", "scaled_cov", "root"):
            np.testing.assert_array_equal(getattr(stacked, name), getattr(batch, name))

    def test_rows_match_im_ols(self):
        from sncoint.estimators import im_ols_batch
        from sncoint.streams import substream

        rng = substream(130, 0)
        samples = [random_sample(rng, T=70, endo=0.5) for _ in range(5)]
        # a sixth row repeats the first regressor, so its design is collinear
        y = np.stack([s.y for s in samples] + [samples[0].y])
        x = np.stack([s.x for s in samples] + [np.column_stack([samples[0].x[:, 0]] * 2)])
        batch = im_ols_batch(y, x, Deterministics.NONE)
        for i, sample in enumerate(samples):
            fit = im_ols(sample)
            np.testing.assert_allclose(batch.params[i], fit.params, rtol=1e-9)
            np.testing.assert_allclose(batch.scaled_cov[i], fit.scaled_cov, rtol=1e-9)
            np.testing.assert_allclose(batch.root[i], fit.root, rtol=1e-9)
        assert np.isnan(batch.params[-1]).all() and np.isnan(batch.scaled_cov[-1]).all()
        assert np.isnan(batch.root[-1]).all()

    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.INTERCEPT, Deterministics.TREND])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_input_layout_does_not_matter(self, m, det):
        """A strided y and an x sliced from a wider array or Fortran-ordered
        give the fit of their contiguous copies bit for bit, on healthy and
        degenerate rows alike, with C-contiguous (c, T, k) regressors."""
        from sncoint.estimators import im_ols_batch

        c, T = 5, 60
        rng = np.random.default_rng(10 * m + det.n_columns)
        y = rng.standard_normal((c, 2 * T))[:, ::2]
        x = np.cumsum(rng.standard_normal((c, T, m + 2)), axis=1)[:, :, 1 : m + 1]
        x[1, :, 0] = 0.0  # a zero regressor
        y[2, 7] = np.nan
        if m > 1:
            x[3, :, 1] = 2.0 * x[3, :, 0]  # a collinear pair
        expected = im_ols_batch(np.ascontiguousarray(y), np.ascontiguousarray(x), det)
        assert np.isnan(expected.params[[1, 2] + [3] * (m > 1)]).all()
        assert not np.isnan(expected.params[[0, 4]]).any()
        for x_in in (x, np.asfortranarray(x)):
            assert not x_in.flags.c_contiguous
            fit = im_ols_batch(y, x_in, det)
            for name in ("params", "regressors", "resid", "scaled_cov", "root"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(expected, name), err_msg=name)
            assert fit.regressors.flags.c_contiguous
            assert fit.regressors.shape == (c, T, det.n_columns + 2 * m)


class TestScaledVariance:
    def test_matches_brute_force_tiny_case(self):
        # T=3, m=1: hand-enumerable regressor matrix
        x = np.array([[1.0], [2.0], [0.5]])
        y = np.array([0.9, 2.2, 0.4])
        s = CointegrationSample(y=np.concatenate([y, [1.0, 2.0]]), x=np.vstack([x, [[1.5], [2.5]]]))
        fit = im_ols(s)
        np.testing.assert_allclose(fit.scaled_cov, brute_force_sandwich(fit.regressors), rtol=1e-10)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_sample(rng, T=int(rng.integers(12, 30)), m=1)
            fit = im_ols(s)
            np.testing.assert_allclose(fit.scaled_cov, brute_force_sandwich(fit.regressors), rtol=1e-9)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = random_sample(rng, T=int(rng.integers(15, 45)), m=int(rng.integers(1, 3)))
            V = im_ols(s).scaled_cov
            np.testing.assert_allclose(V, V.T, atol=1e-12)
            assert np.linalg.eigvalsh(V).min() > -1e-10

    def test_rate_scaling_stabilizes(self):
        # diag(T^{-1} I_m, I_m)-scaled sandwich settles as T grows
        rng = np.random.default_rng(9)
        norms = {}
        for T in (200, 400, 800):
            vals = []
            for _ in range(40):
                s = random_sample(rng, T=T, m=1)
                V = im_ols(s).scaled_cov
                A_inv = np.diag([T, 1.0])
                vals.append(np.linalg.norm(A_inv @ V @ A_inv))
            norms[T] = np.median(vals)
        # same order of magnitude across a 4x range of sample sizes
        assert 0.2 < norms[800] / norms[200] < 5.0


class TestRestrictedImOls:
    def test_no_op_when_already_satisfied(self):
        rng = np.random.default_rng(10)
        s = random_sample(rng)
        fit = im_ols(s)
        r = RestrictionSpec(R=np.eye(2), value=fit.beta.copy())
        np.testing.assert_allclose(restricted_im_ols(fit, r), fit.beta, atol=1e-12)

    def test_restriction_holds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            s = random_sample(rng, T=int(rng.integers(25, 60)), m=m)
            fit = im_ols(s)
            n_restr = int(rng.integers(1, m + 1))
            R = rng.standard_normal((n_restr, m))
            value = rng.standard_normal(n_restr)
            beta_r = restricted_im_ols(fit, RestrictionSpec(R=R, value=value))
            assert np.abs(R @ beta_r - value).max() <= 1e-10

    def test_matches_constrained_least_squares_oracle(self):
        rng = np.random.default_rng(12)
        s = random_sample(rng, T=40, m=2)
        fit = im_ols(s)
        r = RestrictionSpec(R=np.array([[1.0, 0.0]]), value=np.array([1.0]))
        beta_r = restricted_im_ols(fit, r)

        # oracle: minimize ||Sy - Z theta|| s.t. padded R theta = value,
        # solved through the first-order (KKT) system
        Z = fit.regressors
        Sy = partial_sum(s.y)
        R2 = np.array([[1.0, 0.0, 0.0, 0.0]])
        A = Z.T @ Z
        K = np.block([[A, R2.T], [R2, np.zeros((1, 1))]])
        rhs = np.concatenate([Z.T @ Sy, [1.0]])
        theta_r = np.linalg.solve(K, rhs)[:4]
        np.testing.assert_allclose(beta_r, theta_r[:2], atol=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        s = random_sample(rng)
        fit = im_ols(s)
        r = RestrictionSpec(R=np.array([[1.0, 1.0]]), value=np.array([2.0]))
        first = restricted_im_ols(fit, r)
        # refit on data regenerated with the restricted coefficients: projecting
        # again with the same restriction returns the same vector
        again = restricted_im_ols(fit, r)
        np.testing.assert_allclose(first, again, rtol=1e-12)

    def test_padding_respects_deterministics(self):
        rng = np.random.default_rng(14)
        s = random_sample(rng, det=Deterministics.INTERCEPT)
        fit = im_ols(s)
        r = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        beta_r = restricted_im_ols(fit, r)
        np.testing.assert_allclose(beta_r, [1.0, 1.0], atol=1e-10)

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(ValueError, match="full row rank"):
            RestrictionSpec(R=np.array([[1.0, 0.0], [2.0, 0.0]]), value=np.zeros(2))


class TestLevelsResiduals:
    def test_consistent_with_fit(self):
        rng = np.random.default_rng(15)
        s = random_sample(rng, det=Deterministics.INTERCEPT)
        fit = im_ols(s)
        resid = levels_residuals(s, fit)
        d = s.deterministics()
        np.testing.assert_allclose(resid, s.y - d @ fit.delta - s.x @ fit.beta, atol=1e-12)

    def test_zero_for_perfect_fit(self):
        rng = np.random.default_rng(16)
        x = np.cumsum(rng.standard_normal((30, 1)), axis=0)
        s = CointegrationSample(y=2.0 * x[:, 0], x=x)
        fit = im_ols(s)
        np.testing.assert_allclose(levels_residuals(s, fit), 0.0, atol=1e-8)


class TestFmOls:
    def test_corrections_vanish_for_orthogonal_errors(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal((50, 2))
        x = np.cumsum(v, axis=0)
        u = rng.standard_normal(50)
        # orthogonal to the regressors (so the static residual is u itself)
        # and to the innovations (so the estimated cross moments vanish)
        basis = np.column_stack([x, v])
        u -= basis @ np.linalg.solve(basis.T @ basis, basis.T @ u)
        s = CointegrationSample(y=x @ [1.0, 1.0] + u, x=x)
        # bandwidth below one: only the lag-zero moment enters, and it is zero
        fm = fm_ols(s, KernelSpec("bartlett", 0.5))
        expected = ols(s.y, x).params
        np.testing.assert_allclose(fm.beta, expected, atol=1e-10)

    def test_reduces_bias_under_endogeneity(self):
        rng = np.random.default_rng(18)
        bias_fm = []
        bias_ols = []
        for _ in range(500):
            T = 500
            nu = rng.standard_normal((T, 1))
            v = nu + 0.5 * np.vstack([np.zeros((1, 1)), nu[:-1]])
            e = rng.standard_normal(T)
            u = e + 0.8 * nu[:, 0]
            u_ar = np.empty(T)
            u_ar[0] = u[0]
            for t in range(1, T):
                u_ar[t] = 0.5 * u_ar[t - 1] + u[t]
            x = np.cumsum(v, axis=0)
            s = CointegrationSample(y=x[:, 0] + u_ar, x=x)
            bias_fm.append(fm_ols(s, KernelSpec("bartlett", "andrews")).beta[0] - 1.0)
            bias_ols.append(ols(s.y, x).params[0] - 1.0)
        assert abs(np.mean(bias_fm)) < abs(np.mean(bias_ols))

    def test_intercept_handled(self):
        rng = np.random.default_rng(19)
        s = random_sample(rng, det=Deterministics.INTERCEPT)
        fm = fm_ols(s, KernelSpec("bartlett", "andrews"))
        assert fm.beta.shape == (2,)
        assert fm.delta.shape == (1,)
        assert fm.conditional_lrv > 0
        assert fm.moment_inv_beta.shape == (2, 2)


class TestDOls:
    def test_forced_contemporaneous_only(self):
        rng = np.random.default_rng(20)
        s = random_sample(rng, T=50, m=1)
        fit = d_ols(s, max_leads_lags=0)
        v = s.innovations()
        X = np.column_stack([s.x, v])
        expected = ols(s.y, X)
        np.testing.assert_allclose(fit.params, expected.params, atol=1e-10)
        assert fit.leads_lags == 0

    def test_k1_matches_hand_built_regression(self):
        rng = np.random.default_rng(21)
        T = 40
        v = rng.standard_normal((T, 1))
        x = np.cumsum(v, axis=0)
        u = rng.standard_normal(T) + 1.5 * v[:, 0]  # strong contemporaneous link
        s = CointegrationSample(y=x[:, 0] + u, x=x)
        fit = d_ols(s, max_leads_lags=1)
        K = fit.leads_lags
        lo, hi = K + 1, T - K
        rows = slice(lo - 1, hi)
        blocks = [x[rows]]
        for j in range(-K, K + 1):
            blocks.append(v[lo - 1 + j : hi + j])
        X = np.column_stack(blocks)
        expected = ols(s.y[rows], X)
        np.testing.assert_allclose(fit.params, expected.params, atol=1e-10)

    def test_selection_scored_on_common_sample(self):
        from sncoint.estimators import _dols_design

        rng = np.random.default_rng(22)
        s = random_sample(rng, T=30, m=1)
        kmax = 2
        for K in range(kmax + 1):
            y_c, X_c = (a[0] for a in _dols_design(FittedSample(s), K, kmax + 1, 30 - kmax))
            assert y_c.shape[0] == 30 - 2 * kmax
            assert X_c.shape[1] == 1 + 1 * (2 * K + 1)
            np.testing.assert_array_equal(y_c, s.y[kmax : 30 - kmax])

    def test_infeasible_range(self):
        rng = np.random.default_rng(23)
        s = random_sample(rng, T=12, m=2)
        with pytest.raises(ValueError, match="infeasible"):
            d_ols(s, max_leads_lags=4)

    @staticmethod
    def leads_lags_sample(rng, T, m, det):
        """Errors that load on up to four leads and lags of v, so that BIC
        picks a spread of K."""
        v = rng.standard_normal((T + 8, m))
        load = rng.uniform(-1.0, 1.0, size=9)
        u = rng.standard_normal(T + 8) + sum(a * np.roll(v.sum(axis=1), j - 4) for j, a in enumerate(load))
        x = np.cumsum(v[4:-4], axis=0) * rng.uniform(0.01, 100.0)
        y = x.sum(axis=1) + u[4:-4] + build_deterministics(det, T) @ np.arange(1.0, det.n_columns + 1)
        return CointegrationSample(y=y, x=x, det=det)

    def test_design_matches_loop_transcription(self):
        from sncoint.estimators import _dols_design

        rng = np.random.default_rng(25)
        for T, m, det, K in [(20, 1, Deterministics.NONE, 0), (60, 2, Deterministics.INTERCEPT, 2),
                             (101, 3, Deterministics.TREND, 1), (60, 3, Deterministics.NONE, 2)]:  # fmt: skip
            s = random_sample(rng, T=T, m=m, det=det)
            v = s.innovations()
            for lo, hi in [(K + 1, T - K), (3 + 1, T - 3)]:
                rows = slice(lo - 1, hi)
                blocks = [s.deterministics()[rows], s.x[rows]] + [v[lo - 1 + j : hi + j] for j in range(-K, K + 1)]
                y_c, X_c = (a[0] for a in _dols_design(FittedSample(s), K, lo, hi))
                np.testing.assert_array_equal(y_c, s.y[rows])
                np.testing.assert_array_equal(X_c, np.column_stack(blocks))

    def test_matches_per_candidate_refits(self):
        """Transcription of the search that fits every candidate: the same K,
        and the winner's estimate and moment block bit for bit."""
        from sncoint.estimators import _dols_design

        rng = np.random.default_rng(26)
        chosen = set()
        for T in (60, 150):
            for m in (1, 2, 3):
                for det in (Deterministics.NONE, Deterministics.INTERCEPT, Deterministics.TREND):
                    for kmax in (0, 1, 2, 4):
                        s = self.leads_lags_sample(rng, T, m, det)
                        fitted, best = FittedSample(s), (np.inf, 0)
                        for K in range(kmax + 1):
                            y_c, X_c = (a[0] for a in _dols_design(fitted, K, kmax + 1, T - kmax))
                            resid, n = ols(y_c, X_c).resid, y_c.shape[0]
                            bic = np.log(float(resid @ resid) / n) + X_c.shape[1] * np.log(n) / n
                            if bic < best[0]:
                                best = (bic, K)
                        K = best[1]
                        y_f, X_f = (a[0] for a in _dols_design(fitted, K, K + 1, T - K))
                        refit, p = ols(y_f, X_f), det.n_columns
                        fit = d_ols(s, kmax)
                        assert fit.leads_lags == K
                        assert fit.params.tobytes() == refit.params.tobytes()
                        block = (refit.root @ refit.root.T)[p : p + m, p : p + m]
                        assert fit.moment_inv_beta.tobytes() == block.tobytes()
                        assert_relative(fit.moment_inv_beta, gram_inverse(X_f)[p : p + m, p : p + m])
                        chosen.add(K)
        assert chosen == {0, 1, 2, 3, 4}

    def test_one_ols_call(self, count_calls):
        from sncoint.estimators import _qr_solve

        s = self.leads_lags_sample(np.random.default_rng(27), 100, 2, Deterministics.INTERCEPT)
        calls = count_calls(_qr_solve)
        d_ols(s, max_leads_lags=4)
        # one kernel call scans every K, one refits the chosen K
        assert len(calls) == 2

    def test_refit_degenerate_row_is_nan(self):
        """y not finite only outside the scan's common sample: the scan picks
        K = 0, and the refit on t = 1..T, which reaches y_1, is NaN."""
        y, x = stacked_rows(34, 3, 80, 1, Deterministics.INTERCEPT)
        y[1, 0] = np.inf
        fit = FittedSample(y, x, Deterministics.INTERCEPT).dols(2)
        assert fit.leads_lags[1] == 0
        assert np.isnan(fit.params[1]).all() and np.isnan(fit.moment_inv_beta[1]).all()
        assert not np.isnan(fit.beta[[0, 2]]).any() and not np.isnan(fit.moment_inv_beta[[0, 2]]).any()

    def test_one_row_refit_rank_deficient_raises(self):
        """Finite data: a jump of 1e15 in x at t = T makes x_t and v_t both about
        1e15 e_T once equilibrated. The scan's common sample t = 2..T-1 does not
        reach row T, so the widest design passes the rank rule and BIC picks
        K = 0; the refit on t = 1..T fails it, and the one-row fit raises."""
        from sncoint.estimators import _dols_design, _qr_solve

        rng = np.random.default_rng(29)
        x = np.cumsum(rng.standard_normal(60))
        x[-1] = x[-2] + 1e15
        s = CointegrationSample(y=x + rng.standard_normal(60), x=x[:, None])
        fitted = FittedSample(s)
        assert not _qr_solve(*_dols_design(fitted, 1, 2, 59))[3][0]
        assert _qr_solve(*_dols_design(fitted, 0, 1, 60))[3][0]
        stacked = FittedSample(s.y[None], s.x[None]).dols(1)
        assert stacked.leads_lags[0] == 0 and np.isnan(stacked.params[0]).all()
        with pytest.raises(np.linalg.LinAlgError, match="regressor matrix is rank deficient"):
            d_ols(s, max_leads_lags=1)
        with pytest.raises(np.linalg.LinAlgError, match="regressor matrix is rank deficient"):
            fitted.dols(1)

    def test_rank_deficient_designs_raise(self):
        rng = np.random.default_rng(28)
        x1 = np.cumsum(rng.standard_normal(60))
        x2 = np.cumsum(rng.standard_normal(60))
        x2[1:58] = x2[1]  # v_2 vanishes on the common sample t = 3..58
        for x in (np.column_stack([x1, 2.0 * x1]), np.column_stack([x1, x2])):
            s = CointegrationSample(y=x1 + rng.standard_normal(60), x=x)
            with pytest.raises(np.linalg.LinAlgError, match="regressor matrix is rank deficient"):
                d_ols(s, max_leads_lags=2)


class TestAugmentedRegressors:
    def test_block_layout(self):
        rng = np.random.default_rng(24)
        s = random_sample(rng, T=20, m=2, det=Deterministics.TREND)
        Z = im_ols(s).regressors
        assert Z.shape == (20, 2 + 4)
        d = s.deterministics()
        np.testing.assert_array_equal(Z[:, :2], np.cumsum(d, axis=0))
        np.testing.assert_array_equal(Z[:, 2:4], np.cumsum(s.x, axis=0))
        np.testing.assert_array_equal(Z[:, 4:], s.x)


def assert_relative(actual, expected, tol=1e-10):
    """Agreement to ``tol`` relative to the largest entry of ``expected``."""
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


def gram_inverse(Z):
    """(Z'Z)^{-1} by normal equations on the equilibrated Gram matrix."""
    norms = np.linalg.norm(Z, axis=0)
    return np.linalg.inv((Z / norms).T @ (Z / norms)) / np.outer(norms, norms)


ORACLE_CASES = [(T, m, det) for T in (50, 1000, 100_000) for m in (1, 3)
                for det in (Deterministics.NONE, Deterministics.CUBIC)]  # fmt: skip


class TestNormalEquationOracles:
    """FM-OLS, the D-OLS moment block and the restricted projection read the
    QR factor ``root``; the normal-equation formulas they replaced are the
    oracles here, on designs up to a cubic trend over 100,000 rows. FM-OLS
    projects y+ = y - v a in the static QR, so its oracle projects y+ by
    numpy's SVD least squares: the normal equations Z'y+ lose 3e-10 of
    the intercept at T = 100,000 against an 80-digit solve, the SVD 1.5e-13."""

    @staticmethod
    def sample(T, m, det):
        """A trend of the same order as the regressors: coefficient (j + 1) / T^j on t^j."""
        rng = np.random.default_rng(T + 10 * m + det.n_columns)
        s = random_sample(rng, T=T, m=m, endo=0.5)
        p = det.n_columns
        trend = build_deterministics(det, T) @ (np.arange(1.0, p + 1) / float(T) ** np.arange(p))
        return CointegrationSample(y=s.y + trend, x=s.x, det=det)

    @pytest.mark.parametrize("T,m,det", ORACLE_CASES)
    def test_fm_ols(self, T, m, det):
        fitted = FittedSample(self.sample(T, m, det))
        kernel = KernelSpec("bartlett", "andrews")
        fm, est, Z, p = fm_ols(fitted, kernel), fitted.lrv(kernel), fitted.design, det.n_columns
        vv_inv_vu = np.linalg.solve(est.vv, est.uv)
        y_plus = fitted.sample.y - fitted.sample.innovations() @ vv_inv_vu
        bias = np.concatenate([np.zeros(p), est.one_sided[1:, 0] - est.one_sided[1:, 1:] @ vv_inv_vu])
        norms = np.linalg.norm(Z, axis=0)
        params = np.linalg.lstsq(Z / norms, y_plus, rcond=None)[0] / norms - T * gram_inverse(Z) @ bias
        assert_relative(fm.params, params)
        np.testing.assert_allclose(fm.beta, params[p:], rtol=1e-10)
        assert_relative(fm.moment_inv_beta, gram_inverse(Z)[p:, p:])

    @pytest.mark.parametrize("T,m,det", ORACLE_CASES)
    def test_d_ols_moment_block(self, T, m, det):
        from sncoint.estimators import _dols_design

        s, p = self.sample(T, m, det), det.n_columns
        fit = d_ols(s, 2)
        _, X_f = (a[0] for a in _dols_design(FittedSample(s), fit.leads_lags, fit.leads_lags + 1, T - fit.leads_lags))
        assert_relative(fit.moment_inv_beta, gram_inverse(X_f)[p : p + m, p : p + m])

    @pytest.mark.parametrize("T,m,det", ORACLE_CASES)
    def test_restricted_vector(self, T, m, det):
        fit = im_ols(self.sample(T, m, det))
        restriction = RestrictionSpec(R=np.ones((1, m)), value=np.array([m + 0.5]))
        R2 = restriction.padded(fit.n_det, fit.n_reg)
        norms = np.linalg.norm(fit.regressors, axis=0)
        A = (fit.regressors / norms).T @ (fit.regressors / norms)
        G = np.linalg.solve(A, (R2 / norms).T) / norms[:, None]
        params = fit.params
        for _ in range(2):
            params = params - G @ np.linalg.solve(R2 @ G, R2 @ params - restriction.value)
        np.testing.assert_allclose(restricted_im_ols(fit, restriction), params[fit.beta_slice()], rtol=1e-10)


def test_no_fit_reaches_lstsq(monkeypatch):
    """Every least-squares fit runs through the one QR kernel: an analysis
    with a bootstrap, a D-OLS fit and a Monte Carlo chunk never call numpy's
    SVD-based lstsq."""
    from sncoint import BootstrapConfig, DgpConfig, run_analysis, size_adjusted_power, standard_statistics

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    s = random_sample(np.random.default_rng(29), T=80, m=1, det=Deterministics.INTERCEPT, endo=0.5)
    restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
    report = run_analysis(s, restriction, boot=BootstrapConfig(n_boot=19, seed=5))
    assert [o.method for o in report.outcomes] == ["SN-asymptotic", "Wald-FM", "SN-bootstrap"]
    d_ols(s, max_leads_lags=2)
    stats = standard_statistics(["SN", "Wald-IM", "Wald-FM", "Wald-D"])
    size_adjusted_power(DgpConfig(T=60), stats, [1.0], reps=5, seed=1, workers=1)


def stacked_rows(seed, c, T, m, det):
    """c samples with endogenous regressors and AR(1) errors, and a trend
    of the size of y, stacked as (y, x) arrays."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((c, T, m))
    e = rng.standard_normal((c, T)) + 0.5 * v.sum(axis=2)
    u = np.empty((c, T))
    u[:, 0] = e[:, 0]
    for t in range(1, T):
        u[:, t] = 0.5 * u[:, t - 1] + e[:, t]
    x = np.cumsum(v, axis=1)
    p = det.n_columns
    trend = build_deterministics(det, T) @ (np.arange(1.0, p + 1) / float(T) ** np.arange(p))
    return x.sum(axis=2) + u + trend, x


def assert_rows_match(stack, one, tol=1e-9):
    """Every array field of the stacked fit's row equals the one-row fit to ``tol``
    relative to the largest entry."""
    from dataclasses import fields

    for f in fields(one):
        expected = getattr(one, f.name)
        if isinstance(expected, (np.ndarray, float)) and not isinstance(expected, bool):
            assert_relative(np.asarray(getattr(stack, f.name)), np.asarray(expected), tol)


class TestBatchedFits:
    """Each row of a stacked FittedSample is the one-row FittedSample of its
    sample, fit by fit; rows where the one-row fit raises are NaN."""

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 12),
        st.integers(40, 120),
        st.integers(1, 3),
        st.sampled_from(list(Deterministics)),
        st.sampled_from(["bartlett", "qs"]),
        st.one_of(st.just("andrews"), st.floats(0.5, 12.0)),
        st.randoms(use_true_random=False),
    )
    def test_rows_match_one_row_fits(self, seed, c, T, m, det, kind, bandwidth, random):
        y, x = stacked_rows(seed, c, T, m, det)
        kernel = KernelSpec(kind, bandwidth)
        stack = FittedSample(y, x, det)
        static, im, lrv, fm, dols = stack.static, stack.im, stack.lrv(kernel), stack.fm(kernel), stack.dols(2)
        for i in range(c):
            one = FittedSample(CointegrationSample(y[i], x[i], det))
            row = lambda fit: {f: getattr(fit, f)[i] for f in vars(fit) if isinstance(getattr(fit, f), np.ndarray)}
            assert_rows_match(OlsFit(**row(static)), one.static)
            assert_rows_match(ImOlsFit(**row(im), n_det=im.n_det, n_reg=im.n_reg), one.im)
            est = one.lrv(kernel)
            for name in ("omega", "one_sided", "bandwidth", "conditional"):
                assert_relative(np.asarray(getattr(lrv, name)[i]), np.asarray(getattr(est, name)))
            assert_rows_match(FmOlsFit(**row(fm), n_det=fm.n_det), one.fm(kernel))
            d = one.dols(2)
            assert dols.leads_lags[i] == d.leads_lags
            assert_relative(dols.beta[i], d.beta)
            assert_relative(dols.moment_inv_beta[i], d.moment_inv_beta)

        perm = list(range(c))
        random.shuffle(perm)
        shuffled = FittedSample(y[perm], x[perm], det)
        for mine, theirs in [(shuffled.im.params, im.params), (shuffled.lrv(kernel).omega, lrv.omega),
                             (shuffled.fm(kernel).params, fm.params), (shuffled.dols(2).beta, dols.beta)]:  # fmt: skip
            assert_relative(mine, theirs[perm])
        np.testing.assert_array_equal(shuffled.dols(2).leads_lags, dols.leads_lags[perm])

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match=r"need y \(c, T\) and x \(c, T, m\)"):
            FittedSample(np.zeros((2, 30)), np.zeros((2, 29, 1)))

    def test_clamped_and_ill_conditioned_rows(self):
        from sncoint.selfnorm import traditional_statistic

        T, kernel = 80, KernelSpec("bartlett", "andrews")
        y, x = stacked_rows(7, 4, T, 2, Deterministics.NONE)
        rng = np.random.default_rng(8)
        # row 1: v_1 is nearly constant, so its AR(1) slope is within 1e-6 of one
        x[1, :, 0] = np.cumsum(1.0 + 1e-4 * rng.standard_normal(T))
        # row 3: x_2 - x_1 is tiny, so Omega_vv has a condition number near 1e14
        x[3, :, 1] = x[3, :, 0] + 1e-7 * np.cumsum(rng.standard_normal(T))
        y[[1, 3]] = x[[1, 3]].sum(axis=2) + rng.standard_normal((2, T))
        stack = FittedSample(y, x)
        with pytest.warns(RuntimeWarning, match="clamped"):
            est = stack.lrv(kernel)
        fm = stack.fm(kernel)
        assert np.isnan(est.conditional).tolist() == [False, False, False, True]
        assert np.isnan(fm.params).any(axis=1).tolist() == [False, False, False, True]
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        assert np.isnan(traditional_statistic("FM", stack, restriction, kernel)).tolist() == [False] * 3 + [True]
        for i in range(3):
            one = FittedSample(CointegrationSample(y[i], x[i]))
            if i == 1:
                with pytest.warns(RuntimeWarning, match="clamped"):
                    one.lrv(kernel)
            assert_relative(est.omega[i], one.lrv(kernel).omega)
            assert_relative(fm.params[i], one.fm(kernel).params)
        one = FittedSample(CointegrationSample(y[3], x[3]))
        for fit in (lambda: one.lrv(kernel), lambda: one.fm(kernel)):
            with pytest.raises(np.linalg.LinAlgError, match="long-run variance singular"):
                fit()
        with pytest.raises(np.linalg.LinAlgError, match="long-run variance singular"):
            traditional_statistic("FM", one, restriction, kernel)

    @staticmethod
    def read_every_fit(fitted, kernel):
        return fitted.static, fitted.im, fitted.lrv(kernel), fitted.fm(kernel), fitted.dols(2)

    def test_one_row_builds_each_fit_once(self, count_calls):
        from sncoint.estimators import _d_ols_batch, _qr_solve, estimate_lrv, im_ols_batch

        counts = [count_calls(fn) for fn in (_qr_solve, im_ols_batch, estimate_lrv, _d_ols_batch)]
        kernel = KernelSpec("bartlett", "andrews")
        one = FittedSample(random_sample(np.random.default_rng(31), T=80, m=2, det=Deterministics.INTERCEPT))
        first = self.read_every_fit(one, kernel)
        # _qr_solve: the static fit, the IM-OLS fit, the D-OLS scan and its one refit
        assert [len(calls) for calls in counts] == [4, 1, 1, 1]
        second = self.read_every_fit(one, kernel)
        assert [len(calls) for calls in counts] == [4, 1, 1, 1]
        assert all(a is b for a, b in zip(first, second))

    def test_degenerate_row_raises_the_same_error_on_every_read(self, count_calls):
        from sncoint.estimators import im_ols_batch

        im_calls = count_calls(im_ols_batch)
        rng = np.random.default_rng(32)
        x1 = np.cumsum(rng.standard_normal(60))
        one = FittedSample(CointegrationSample(y=x1 + rng.standard_normal(60), x=np.column_stack([x1, 2.0 * x1])))
        kernel = KernelSpec("bartlett", "andrews")
        reads = {
            "rank deficient": (lambda: one.static, lambda: one.lrv(kernel), lambda: one.fm(kernel), lambda: one.dols(2)),
            "augmented regression singular": (lambda: one.im,),
        }
        for message, fits in reads.items():
            for read in fits:
                for _ in range(2):
                    with pytest.raises(np.linalg.LinAlgError, match=message):
                        read()
        assert len(im_calls) == 1


class TestRowsIndependentOfStackMates:
    """A row's fits and statistics are bit for bit the same whatever rows
    share its stack: in sub-stacks of 1, 3 and 8 rows and in the stack
    permuted. So a Monte Carlo study does not depend on its chunk size."""

    @staticmethod
    def persistent_rows(m, det):
        """24 rows whose AR(1) errors range from white noise to rho = 0.9, so
        their plug-in bandwidths, and Bartlett lag counts, differ."""
        c, T = 24, 100
        y, x = stacked_rows(40 + m, c, T, m, det)
        u, rho = np.random.default_rng(50 + m).standard_normal((c, T)), np.linspace(0.0, 0.9, c)
        for t in range(1, T):
            u[:, t] += rho * u[:, t - 1]
        return y + 2.0 * u, x

    @staticmethod
    def row_values(fitted, kernel, restriction):
        """Arrays with one leading row per sample: the long-run covariance,
        FM-OLS, D-OLS, then SN, tau(1), Wald-IM, Wald-FM and Wald-D."""
        from sncoint.selfnorm import bootstrap_statistic, traditional_statistic

        lrv, fm, dols = fitted.lrv(kernel), fitted.fm(kernel), fitted.dols(2)
        fits = [getattr(fit, name) for fit in (lrv, fm, dols) for name in vars(fit) if name not in ("kind", "n_det", "n_reg")]
        statistics = [bootstrap_statistic(fitted, restriction, name) for name in ("sn", "tau1")]
        return fits + statistics + [traditional_statistic(tag, fitted, restriction, kernel) for tag in ("IM", "FM", "D")]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.TREND])
    @pytest.mark.parametrize("kernel", [KernelSpec("bartlett", "andrews"), KernelSpec("bartlett", 3.7),
                                        KernelSpec("qs", "andrews"), KernelSpec("qs", 3.7)])  # fmt: skip
    def test_row_values_do_not_depend_on_stack_mates(self, m, det, kernel):
        from sncoint.kernels import kernel_weight

        y, x = self.persistent_rows(m, det)
        restriction = RestrictionSpec(R=np.eye(1, m), value=np.ones(1))
        stack = FittedSample(y, x, det)
        full = self.row_values(stack, kernel, restriction)
        assert len(full) == 17 and all(len(values) == 24 for values in full)
        if kernel == KernelSpec("bartlett", "andrews"):  # rows reach different lag counts
            lags = [np.count_nonzero(kernel_weight("bartlett", np.arange(100) / b)) for b in stack.lrv(kernel).bandwidth]
            assert len(set(lags)) > 3
        perm = np.random.default_rng(m).permutation(24)
        groups = [np.arange(start, start + size) for size in (1, 3, 8) for start in range(0, 24, size)] + [perm]
        for rows in groups:
            sub = self.row_values(FittedSample(y[rows], x[rows], det), kernel, restriction)
            for j, (mine, theirs) in enumerate(zip(sub, full)):
                assert np.array_equal(mine, theirs[rows], equal_nan=True), (j, rows)

    def test_power_study_does_not_depend_on_chunk_size(self, monkeypatch):
        """On this seed a Bartlett sum formed as one matmul over the stack's
        longest lag moved an adjusted critical value with the chunk size."""
        from sncoint import DgpConfig, montecarlo, size_adjusted_power, standard_statistics

        stats = standard_statistics(["SN", "Wald-IM", "Wald-FM", "Wald-D"])
        results = []
        for size in (1, 8, 32):
            monkeypatch.setattr(montecarlo, "_chunk_size", lambda reps, T, rows: size)
            result = size_adjusted_power(DgpConfig(T=100), stats, [1.0, 1.02, 1.05], reps=40, seed=7)
            assert result.meta["chunk_size"] == size
            results.append(({k: v.tolist() for k, v in result.rates.items()}, result.meta["adjusted_critical_values"]))
        assert results[0] == results[1] == results[2]


class TestRowView:
    """``row(i)`` of a stack is the one-sample FittedSample of row i: the same
    bits and the same errors, read from the stack's fits."""

    KERNELS = (KernelSpec("bartlett", "andrews"), KernelSpec("qs", "andrews"))

    @classmethod
    def reads(cls, fitted):
        """Every one-sample read, by name: a fit, the design or a statistic."""
        from sncoint.selfnorm import bootstrap_statistic

        restriction = RestrictionSpec(R=np.eye(1, fitted.x.shape[2]), value=np.ones(1))
        reads = {"static": lambda: fitted.static, "im": lambda: fitted.im, "design": lambda: fitted.design}
        for kernel in cls.KERNELS:
            reads[f"lrv {kernel.kind}"] = lambda kernel=kernel: fitted.lrv(kernel)
            reads[f"fm {kernel.kind}"] = lambda kernel=kernel: fitted.fm(kernel)
        reads["dols"] = lambda: fitted.dols(2)
        for statistic in ("sn", "tau1", "wald-lrv"):
            reads[statistic] = lambda statistic=statistic: bootstrap_statistic(fitted, restriction, statistic, cls.KERNELS[0])
        return reads

    @staticmethod
    def assert_identical(mine, theirs, name):
        if isinstance(theirs, np.ndarray) or np.isscalar(theirs):
            assert np.array_equal(mine, theirs), name
            return
        assert type(mine) is type(theirs), name
        for field, value in vars(theirs).items():
            assert np.array_equal(getattr(mine, field), value), (name, field)

    @staticmethod
    def outcome(read):
        try:
            return read(), None
        except (ValueError, np.linalg.LinAlgError) as exc:
            return None, (type(exc), str(exc))

    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.INTERCEPT, Deterministics.TREND])
    def test_rows_match_one_sample_fits(self, det):
        y, x = stacked_rows(60, 5, 80, 2, det)
        x[3, :, 1] = 0.0  # a degenerate row: a zero regressor column
        stack = FittedSample(y, x, det)
        for i in range(5):
            view = stack.row(i)
            assert np.array_equal(view.sample.y, y[i]) and np.array_equal(view.sample.x, x[i]) and view.det is det
            row, one = self.reads(view), self.reads(FittedSample(CointegrationSample(y[i], x[i], det)))
            raised = set()
            for name in one:
                (mine, mine_error), (theirs, their_error) = self.outcome(row[name]), self.outcome(one[name])
                assert mine_error == their_error, (i, name)
                if their_error is None:
                    self.assert_identical(mine, theirs, (i, name))
                else:
                    raised.add(name)
            assert raised == (set(one) - {"design"} if i == 3 else set()), i

    def test_views_share_the_stacked_fits_but_not_their_rows(self, count_calls):
        from sncoint.estimators import _static_batch, im_ols_batch

        im_calls, static_calls = count_calls(im_ols_batch), count_calls(_static_batch)
        y, x = stacked_rows(61, 4, 70, 2, Deterministics.INTERCEPT)
        stack = FittedSample(y, x, Deterministics.INTERCEPT)
        kernel = self.KERNELS[0]
        first, second = stack.row(0), stack.row(1)
        fits = [(view.static, view.im, view.lrv(kernel), view.fm(kernel), view.dols(2)) for view in (first, second)]
        for i, view_fits in enumerate(fits):
            np.testing.assert_array_equal(view_fits[1].params, stack.im.params[i])
            np.testing.assert_array_equal(view_fits[0].params, stack.static.params[i])
            np.testing.assert_array_equal(view_fits[2].omega, stack.lrv(kernel).omega[i])
            np.testing.assert_array_equal(view_fits[3].params, stack.fm(kernel).params[i])
            assert view_fits[4].leads_lags == stack.dols(2).leads_lags[i]
        assert not any(a is b for a, b in zip(*fits))
        assert stack.row(-4).im is first.im and stack.row(1).im is second.im
        assert len(im_calls) == len(static_calls) == 1
        with pytest.raises(IndexError):
            stack.row(4)


class TestOneCacheOneLengthRule:
    """The design and v live in the stack's memo, and a stack is as long as its rows must be."""

    def test_views_share_the_stack_design(self, count_calls):
        from sncoint.estimators import _design_batch, _increments

        design_calls, increment_calls = count_calls(_design_batch), count_calls(_increments)
        y, x = stacked_rows(62, 4, 50, 2, Deterministics.INTERCEPT)
        stack = FittedSample(y, x, Deterministics.INTERCEPT)
        stack.row(0).static
        assert np.shares_memory(stack.row(1).design, stack.design)
        np.testing.assert_array_equal(stack.row(1).design, np.column_stack([np.ones(50), x[1]]))
        stack.row(2).lrv(KernelSpec("bartlett", "andrews"))
        stack.dols(1)
        assert len(design_calls) == len(increment_calls) == 1

    @pytest.mark.parametrize("T", [3, 5])
    def test_short_stack_is_refused(self, T):
        y, x = np.ones((2, T)), np.cumsum(np.ones((2, T, 2)), axis=1)
        with pytest.raises(ValueError) as one:
            CointegrationSample(y[0], x[0])
        with pytest.raises(ValueError) as stacked:
            FittedSample(y, x)
        message = f"need at least 7 observations for m=2 regressors and 0 deterministic columns, got {T}"
        assert str(stacked.value) == str(one.value) == message

    def test_short_batch_is_rank_deficient(self):
        from sncoint.estimators import im_ols_batch

        rng = np.random.default_rng(63)
        with pytest.raises(np.linalg.LinAlgError, match="^regressor matrix is rank deficient$"):
            im_ols_batch(rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 2)), Deterministics.NONE)


def test_fm_ols_as_precise_as_static_ols():
    """On a cubic trend 1 + 2t + 3t^2 + 4t^3, the FM-OLS beta, formed from the
    static QR, is as close to an 80-digit solve of its normal equations as
    the static OLS beta is to its own."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    kernel = KernelSpec("bartlett", "andrews")
    for T in (1_000, 10_000):
        fitted = FittedSample(random_sample(np.random.default_rng(T), T=T, m=1, det=Deterministics.CUBIC, endo=0.5))
        est, Z, p = fitted.lrv(kernel), fitted.design, 4
        a = np.linalg.solve(est.vv, est.uv)
        bias = np.concatenate([np.zeros(p), est.one_sided[1:, 0] - est.one_sided[1:, 1:] @ a])
        y_plus = [mpmath.mpf(float(yt)) - mpmath.mpf(float(vt)) * mpmath.mpf(float(a[0]))
                  for yt, vt in zip(fitted.sample.y, fitted.sample.innovations()[:, 0])]  # fmt: skip
        cols = [[mpmath.mpf(float(z)) for z in Z[:, j]] for j in range(Z.shape[1])]
        gram = mpmath.matrix([[mpmath.fdot(ci, cj) for cj in cols] for ci in cols])
        ys = [mpmath.mpf(float(yt)) for yt in fitted.sample.y]
        exact_ols = mpmath.lu_solve(gram, mpmath.matrix([mpmath.fdot(ci, ys) for ci in cols]))
        rhs = [mpmath.fdot(ci, y_plus) - T * mpmath.mpf(float(b)) for ci, b in zip(cols, bias)]
        exact_fm = mpmath.lu_solve(gram, mpmath.matrix(rhs))
        ols_error = abs(fitted.static.params[p] - float(exact_ols[p]))
        fm_error = abs(fitted.fm(kernel).beta[0] - float(exact_fm[p]))
        assert fm_error <= 10.0 * ols_error, (T, fm_error, ols_error)

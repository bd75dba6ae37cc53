import numpy as np
import pytest
from scipy import stats

from sncoint import (
    BARTLETT,
    CointegrationSample,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    default_table,
    diff_residual_lrv,
    im_ols,
    self_normalized_test,
    self_normalizer,
    traditional_wald,
    wald_statistic,
)
from sncoint.montecarlo import DgpConfig, generate_dgp
from sncoint.streams import substream


def make_sample(rng, T=60, m=2, rho=0.0, endo=0.0):
    v = rng.standard_normal((T, m))
    x = np.cumsum(v, axis=0)
    e = rng.standard_normal(T)
    u = np.empty(T)
    u[0] = e[0]
    for t in range(1, T):
        u[t] = rho * u[t - 1] + e[t]
    u = u + endo * v.sum(axis=1)
    return CointegrationSample(y=x @ np.ones(m) + u, x=x)


def brute_force_normalizer(resid):
    """Two-loop transcription: squared inner sums of the differences."""
    T = resid.shape[0]
    diffs = [resid[t] - resid[t - 1] for t in range(1, T)]
    total = 0.0
    for t in range(1, T):  # inner sums over s = 2..t in 1-based terms
        inner = sum(diffs[: t])
        total += inner**2
    return total / T**2


class TestSelfNormalizer:
    def test_zero_residuals(self):
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.standard_normal((20, 1)), axis=0)
        fit = im_ols(CointegrationSample(y=1.5 * x[:, 0], x=x))
        assert self_normalizer(fit) == pytest.approx(0.0, abs=1e-14)

    def test_hand_case(self):
        class Stub:
            resid = np.array([0.0, 1.0, 2.0, 3.0])
            nobs = 4

        assert self_normalizer(Stub()) == pytest.approx(0.875)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            fit = im_ols(make_sample(rng, T=int(rng.integers(12, 40)), m=1))
            assert self_normalizer(fit) == pytest.approx(brute_force_normalizer(fit.resid), rel=1e-12)


class TestWaldStatistic:
    def test_kappa_factoring(self):
        rng = np.random.default_rng(2)
        fit = im_ols(make_sample(rng))
        r = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        base = wald_statistic(fit, r, 1.0)
        for kappa in (0.1, 1.0, 7.3):
            assert wald_statistic(fit, r, kappa) * kappa == pytest.approx(base, rel=1e-12)

    def test_zero_when_restriction_satisfied(self):
        rng = np.random.default_rng(3)
        fit = im_ols(make_sample(rng))
        r = RestrictionSpec(R=np.eye(2), value=fit.beta.copy())
        assert wald_statistic(fit, r, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_formula_single_regressor(self):
        rng = np.random.default_rng(4)
        fit = im_ols(make_sample(rng, m=1))
        r = RestrictionSpec(R=np.eye(1), value=np.array([0.8]))
        kappa = 2.3
        expected = (fit.beta[0] - 0.8) ** 2 / (kappa * fit.scaled_cov[0, 0])
        assert wald_statistic(fit, r, kappa) == pytest.approx(expected, rel=1e-12)

    def test_beta_block_equivalence(self):
        # the restriction can be evaluated on the leading block of the
        # sandwich matrix alone; the padded form must agree exactly
        rng = np.random.default_rng(5)
        fit = im_ols(make_sample(rng, m=2))
        R = np.array([[1.0, -1.0]])
        r = RestrictionSpec(R=R, value=np.array([0.0]))
        full = wald_statistic(fit, r, 1.0)
        block = fit.scaled_cov[:2, :2]
        gap = R @ fit.beta
        manual = float(gap @ np.linalg.solve(R @ block @ R.T, gap))
        assert full == pytest.approx(manual, rel=1e-10)

    def test_degenerate_kappa_rejected(self):
        rng = np.random.default_rng(6)
        fit = im_ols(make_sample(rng))
        r = RestrictionSpec(R=np.eye(2), value=np.zeros(2))
        with pytest.raises(ValueError, match="degenerate"):
            wald_statistic(fit, r, 0.0)

    def test_scale_invariance_of_statistic(self):
        rng = np.random.default_rng(7)
        s = make_sample(rng)
        r = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        fit = im_ols(s)
        stat = wald_statistic(fit, r, self_normalizer(fit))
        c = 4.2
        s2 = CointegrationSample(y=c * s.y, x=s.x)
        r2 = RestrictionSpec(R=np.eye(2), value=c * np.array([1.0, 1.0]))
        fit2 = im_ols(s2)
        stat2 = wald_statistic(fit2, r2, self_normalizer(fit2))
        assert stat2 == pytest.approx(stat, rel=1e-9)

    def test_normalizer_times_statistic_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            fit = im_ols(make_sample(rng, T=40))
            r = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
            eta = self_normalizer(fit)
            lhs = wald_statistic(fit, r, eta) * eta
            assert lhs == pytest.approx(wald_statistic(fit, r, 1.0), rel=1e-12)


class TestSelfNormalizedTest:
    def test_uses_packaged_critical_value(self):
        rng = np.random.default_rng(9)
        s = make_sample(rng, m=1)
        r = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        out = self_normalized_test(s, r, default_table(1, 1, Deterministics.NONE), alpha=0.05)
        assert out.critical_value == 56.58
        assert out.method == "SN-asymptotic"
        assert out.reject == (out.statistic > 56.58)

    def test_table_mismatch_raises(self):
        rng = np.random.default_rng(10)
        s = make_sample(rng, m=2)
        r = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        with pytest.raises(KeyError, match="table is for"):
            self_normalized_test(s, r, default_table(1, 1, Deterministics.NONE))

    def test_monotone_decision_in_alpha(self):
        rng = np.random.default_rng(11)
        table = default_table(2, 2, Deterministics.NONE)
        r_spec = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        seen_reject = False
        for _ in range(40):
            s = make_sample(rng, T=40, rho=0.7, endo=0.7)
            decisions = [self_normalized_test(s, r_spec, table, alpha).reject for alpha in (0.01, 0.025, 0.05, 0.10)]
            # reject at a level implies reject at every larger level
            for a, b in zip(decisions, decisions[1:]):
                assert (not a) or b
            seen_reject = seen_reject or decisions[-1]
        assert seen_reject  # the check above must have bitten at least once

    def test_null_rejection_rate_iid(self):
        # i.i.d.-innovations design, nominal 5% level
        config = DgpConfig(T=500, a1=0.0, b1=0.0, rho3=0.0)
        table = default_table(2, 2, Deterministics.NONE)
        r_spec = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        rejections = 0
        reps = 1000
        for i in range(reps):
            sample = generate_dgp(config, substream(2024, i))
            rejections += self_normalized_test(sample, r_spec, table).reject
        assert rejections / reps == pytest.approx(0.05, abs=0.02)


class TestTraditionalWald:
    def test_chi2_critical_value(self):
        rng = np.random.default_rng(12)
        s = make_sample(rng, m=1)
        r = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        out = traditional_wald("FM", s, r, KernelSpec(BARTLETT, "andrews"), alpha=0.10)
        assert out.critical_value == pytest.approx(2.7055, abs=5e-4)
        assert out.p_value == pytest.approx(stats.chi2.sf(out.statistic, 1), rel=1e-12)

    def test_all_estimator_tags_run(self):
        rng = np.random.default_rng(13)
        s = make_sample(rng, T=80)
        r = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        for tag in ("IM", "FM", "D"):
            out = traditional_wald(tag, s, r, KernelSpec(BARTLETT, "andrews"))
            assert out.method == f"Wald-{tag}"
            assert out.statistic >= 0.0

    def test_unknown_tag(self):
        rng = np.random.default_rng(14)
        s = make_sample(rng)
        r = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        with pytest.raises(ValueError, match="unknown estimator"):
            traditional_wald("CCR", s, r, KernelSpec(BARTLETT, "andrews"))


class TestDiffResidualLrv:
    @staticmethod
    def decomposition_sides(fit):
        diffs = np.diff(fit.resid)
        n = diffs.shape[0]
        partial = np.cumsum(diffs)
        lhs = diff_residual_lrv(fit)  # Bartlett, bandwidth n
        eta_n = float(partial @ partial) / n**2
        complement = float((partial - partial[-1]) @ (partial - partial[-1])) / n**2
        return lhs, eta_n + complement

    def test_two_term_hand_case(self):
        class Stub:
            resid = np.array([0.0, 0.7, 0.2])  # diffs a1=0.7, a2=-0.5
            nobs = 3

        a1, a2 = 0.7, -0.5
        expected = 0.5 * (a1**2 + a2**2 + a1 * a2)
        assert diff_residual_lrv(Stub()) == pytest.approx(expected, rel=1e-12)
        lhs, rhs = self.decomposition_sides(Stub())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_single_spike_case(self):
        class Stub:
            resid = np.array([0.0, 2.0, 2.0, 2.0, 2.0])  # diffs [2, 0, 0, 0]
            nobs = 5

        lhs, rhs = self.decomposition_sides(Stub())
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # all partial sums equal 2, total 2: complement term vanishes
        assert lhs == pytest.approx(16.0 / 16.0, rel=1e-12)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            fit = im_ols(make_sample(rng, T=int(rng.integers(12, 80)), m=1))
            lhs, rhs = self.decomposition_sides(fit)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            fit = im_ols(make_sample(rng, T=25, m=1))
            assert diff_residual_lrv(fit) >= 0.0

    def test_custom_kernel(self):
        rng = np.random.default_rng(17)
        fit = im_ols(make_sample(rng, T=30, m=1))
        value = diff_residual_lrv(fit, KernelSpec(BARTLETT, 3.0))
        diffs = np.diff(fit.resid)
        n = diffs.shape[0]
        expected = 0.0
        for i in range(n):
            for j in range(n):
                expected += max(0.0, 1.0 - abs(i - j) / 3.0) * diffs[i] * diffs[j]
        assert value == pytest.approx(expected / n, rel=1e-12)


class TestTestOutcome:
    def test_nan_statistic_refused(self):
        from sncoint import TestOutcome

        with pytest.raises(ValueError, match="NaN"):
            TestOutcome(statistic=float("nan"), critical_value=1.0, reject=False, method="SN-asymptotic")

    def test_diagnostics_default_empty(self):
        from sncoint import TestOutcome

        out = TestOutcome(statistic=2.0, critical_value=1.0, reject=True, method="SN-asymptotic")
        assert dict(out.diagnostics) == {}


class TestWaldBatch:
    def test_rows_match_per_sample_path(self):
        from sncoint.selfnorm import _degenerate_fit, wald_batch

        rng = substream(130, 0)
        samples = [make_sample(rng, T=70, rho=0.5, endo=0.5) for _ in range(5)]
        restriction = RestrictionSpec(R=np.array([[1.0, -1.0]]), value=np.array([0.0]))
        y = np.stack([s.y for s in samples])
        x = np.stack([s.x for s in samples])
        batch = wald_batch(y, x, Deterministics.NONE, restriction)
        assert not batch.degenerate.any() and not batch.perfect_fit.any()
        for i, sample in enumerate(samples):
            fit = im_ols(sample)
            assert not _degenerate_fit(fit)
            np.testing.assert_allclose(batch.fit.params[i], fit.params, rtol=1e-9)
            np.testing.assert_allclose(batch.fit.scaled_cov[i], fit.scaled_cov, rtol=1e-9)
            assert batch.kappa[i] == pytest.approx(self_normalizer(fit), rel=1e-9)
            assert batch.wald_unit[i] == pytest.approx(wald_statistic(fit, restriction, 1.0), rel=1e-9)

    def test_collinear_and_non_finite_rows_flagged(self):
        from sncoint.selfnorm import wald_batch

        rng = substream(131, 0)
        good = make_sample(rng, T=40)
        x = np.stack([good.x, np.column_stack([good.x[:, 0], good.x[:, 0]]), good.x])
        y = np.stack([good.y, good.y, np.where(np.arange(40) == 5, np.nan, good.y)])
        batch = wald_batch(y, x, Deterministics.NONE, RestrictionSpec(R=np.eye(2), value=np.ones(2)))
        np.testing.assert_array_equal(batch.degenerate, [False, True, True])
        assert np.isfinite(batch.wald_unit[0]) and np.isnan(batch.wald_unit[1:]).all()

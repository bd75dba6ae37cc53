from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from sncoint import (
    BootstrapConfig,
    CointegrationSample,
    Deterministics,
    RestrictionSpec,
    VarSieveModel,
    bootstrap_statistic,
    bootstrap_test,
    generate_bootstrap_sample,
    im_ols,
    select_order,
    self_normalizer,
    wald_statistic,
    yule_walker,
)
from sncoint.bootstrap import companion_spectral_radius, critical_rank, max_sieve_order
from sncoint.streams import substream


def simulate_var1(rng, T, phi, k=1):
    """Warm-started VAR(1) with standard normal innovations."""
    phi = np.atleast_2d(phi)
    w = np.zeros((T + 200, k))
    eps = rng.standard_normal((T + 200, k))
    for t in range(1, T + 200):
        w[t] = phi @ w[t - 1] + eps[t]
    return w[-T:]


def mild_sample(rng, T=80):
    v = rng.standard_normal((T, 2))
    x = np.cumsum(v, axis=0)
    u = rng.standard_normal(T) + 0.4 * v.sum(axis=1)
    return CointegrationSample(y=x @ [1.0, 1.0] + u, x=x)


class TestYuleWalker:
    def test_iid_gives_small_coefficients(self):
        hits = 0
        for seed in range(25):
            w = substream(100, seed).standard_normal((2000, 2))
            model = yule_walker(w, 1)
            hits += np.linalg.norm(model.coefs[0]) < 0.1
        assert hits >= 24

    def test_recovers_ar1_coefficient(self):
        w = simulate_var1(substream(101, 0), 5000, 0.5)
        model = yule_walker(w, 1)
        assert 0.45 <= model.coefs[0, 0, 0] <= 0.55

    def test_residual_pool_centered(self):
        rng = substream(102, 0)
        w = simulate_var1(rng, 300, 0.6)
        model = yule_walker(w, 2)
        assert np.abs(model.resid_pool.mean(axis=0)).max() <= 1e-12

    def test_stability_on_random_inputs(self):
        for seed in range(60):
            rng = substream(103, seed)
            k = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            w = rng.standard_normal((150, k))
            model = yule_walker(w, q)
            assert companion_spectral_radius(model.coefs) < 1.0

    def test_stability_near_unit_root(self):
        for seed in range(40):
            w = simulate_var1(substream(104, seed), 250, 0.95)
            model = yule_walker(w, 3)
            assert companion_spectral_radius(model.coefs) < 1.0

    def test_too_short_sample(self):
        with pytest.raises(ValueError, match="too short"):
            yule_walker(np.random.default_rng(0).standard_normal((7, 2)), 3)


class TestSelectOrder:
    def test_max_order_rule(self):
        assert max_sieve_order(100) == 4
        assert max_sieve_order(75) == 4
        assert max_sieve_order(1000) == 10
        assert max_sieve_order(8) == 2

    def test_fixed_order_passthrough(self):
        w = np.random.default_rng(1).standard_normal((200, 2))
        assert select_order(w, 3) == 3

    def test_fixed_order_above_growth_cap_warns(self):
        w = np.random.default_rng(2).standard_normal((100, 2))
        with pytest.warns(RuntimeWarning, match="growth-rate cap"):
            select_order(w, 9)

    def test_selection_consistency_var1(self):
        hits = 0
        for seed in range(200):
            w = simulate_var1(substream(105, seed), 2000, np.array([[0.8, 0.0], [0.3, 0.5]]), k=2)
            hits += select_order(w, "aic") == 1
        assert hits >= 160

    def test_bic_never_larger_than_sample_allows(self):
        w = np.random.default_rng(3).standard_normal((40, 3))
        q = select_order(w, "bic")
        assert 1 <= q <= max_sieve_order(40)


class TestGenerateBootstrapSample:
    def test_degenerate_model_replays_residual(self):
        r = np.array([[0.5, -0.25, 1.0]])
        model = VarSieveModel(order=1, coefs=np.zeros((1, 3, 3)), resid_pool=r, sigma=np.zeros((3, 3)))
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=0)
        star = generate_bootstrap_sample(model, 20, np.array([1.0, 1.0]), Deterministics.NONE, np.array([]), cfg, 0)
        # every innovation equals the single pooled residual
        np.testing.assert_allclose(np.diff(star.x, axis=0), np.tile(r[0, 1:], (19, 1)))
        u_star = star.y - star.x @ np.array([1.0, 1.0])
        np.testing.assert_allclose(u_star, 0.5)

    def test_deterministic_per_index(self):
        rng = substream(106, 0)
        model = yule_walker(rng.standard_normal((150, 3)), 1)
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=42)
        a = generate_bootstrap_sample(model, 60, np.ones(2), Deterministics.NONE, np.array([]), cfg, 7)
        b = generate_bootstrap_sample(model, 60, np.ones(2), Deterministics.NONE, np.array([]), cfg, 7)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)
        c = generate_bootstrap_sample(model, 60, np.ones(2), Deterministics.NONE, np.array([]), cfg, 8)
        assert not np.array_equal(a.y, c.y)

    def test_null_holds_in_generated_data(self):
        rng = substream(107, 0)
        sample = mild_sample(rng, T=100)
        fit = im_ols(sample)
        restriction = RestrictionSpec(R=np.array([[1.0, 1.0]]), value=np.array([2.0]))
        from sncoint import levels_residuals, restricted_im_ols

        beta_r = restricted_im_ols(fit, restriction)
        assert np.abs(restriction.R @ beta_r - restriction.value).max() < 1e-10
        w_hat = np.column_stack([levels_residuals(sample, fit), sample.innovations()])
        model = yule_walker(w_hat, 1)
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=3)
        star = generate_bootstrap_sample(model, 100, beta_r, sample.det, fit.delta, cfg, 0)
        # the generated outcome is exactly linear in the coefficient vector:
        # regenerating with a shifted vector changes y by x* times the shift,
        # so the star data's true coefficients are beta_r (which satisfies
        # the restriction exactly)
        shift = np.array([0.3, -0.1])
        star2 = generate_bootstrap_sample(model, 100, beta_r + shift, sample.det, fit.delta, cfg, 0)
        np.testing.assert_array_equal(star.x, star2.x)
        np.testing.assert_allclose(star2.y - star.y, star.x @ shift, atol=1e-12)

    def test_second_moment_capture(self):
        # sample autocovariances of regenerated data match the fitted
        # model's implied autocovariances within Monte Carlo error
        rng = substream(108, 0)
        w = simulate_var1(rng, 400, np.array([[0.6, 0.2], [0.0, 0.4]]), k=2)
        model = yule_walker(w, 1)
        phi = model.coefs[0]
        implied0 = solve_discrete_lyapunov(phi, model.sigma)
        implied1 = phi @ implied0

        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=11, burn_in=200)
        draws0, draws1 = [], []
        T = 200
        for i in range(2000):
            star = generate_bootstrap_sample(model, T, np.array([1.0]), Deterministics.NONE, np.array([]), cfg, i)
            u = star.y - star.x[:, 0]  # first component of the regenerated series
            v = np.diff(star.x[:, 0], prepend=0.0)
            ws = np.column_stack([u, v])
            draws0.append(ws.T @ ws / T)
            draws1.append(ws[1:].T @ ws[:-1] / T)
        mean0 = np.mean(draws0, axis=0)
        mean1 = np.mean(draws1, axis=0)
        se0 = np.std(draws0, axis=0) / np.sqrt(len(draws0))
        se1 = np.std(draws1, axis=0) / np.sqrt(len(draws1))
        assert np.all(np.abs(mean0 - implied0) <= 3 * se0 + 0.02)
        assert np.all(np.abs(mean1 - implied1) <= 3 * se1 + 0.02)


class TestBootstrapStatistic:
    def test_same_code_path_as_original(self):
        rng = substream(109, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        fit = im_ols(sample)
        expected = wald_statistic(fit, restriction, self_normalizer(fit))
        assert bootstrap_statistic(sample, restriction, "sn") == pytest.approx(expected, rel=1e-14)

    def test_tau1_uses_unit_scale(self):
        rng = substream(110, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        fit = im_ols(sample)
        assert bootstrap_statistic(sample, restriction, "tau1") == pytest.approx(
            wald_statistic(fit, restriction, 1.0), rel=1e-14
        )

    def test_degenerate_normalizer_raises(self):
        rng = substream(111, 0)
        x = np.cumsum(rng.standard_normal((30, 1)), axis=0)
        sample = CointegrationSample(y=2.0 * x[:, 0], x=x)
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([2.0]))
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            bootstrap_statistic(sample, restriction, "sn")

    def test_unknown_statistic(self):
        rng = substream(112, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        with pytest.raises(ValueError, match="unknown statistic"):
            bootstrap_statistic(sample, restriction, "studentized")


class TestCriticalRank:
    def test_large_design(self):
        assert critical_rank(1499, 0.05) == 1425  # 75th from the top

    def test_tiny_design_uses_maximum(self):
        assert critical_rank(19, 0.05) == 19

    def test_ten_percent(self):
        assert critical_rank(1499, 0.10) == 1350


class TestBootstrapTest:
    def test_outcome_structure_and_pvalue_grid(self):
        rng = substream(113, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        cfg = BootstrapConfig(n_boot=39, alpha=0.05, seed=5)
        out = bootstrap_test(sample, restriction, cfg)
        assert out.method == "SN-bootstrap"
        assert out.reject == (out.statistic > out.critical_value)
        # p-values live on the grid k / (B + 1)
        assert (out.p_value * 40) == pytest.approx(round(out.p_value * 40), abs=1e-9)

    def test_integer_level_validation(self):
        with pytest.raises(ValueError, match="integer"):
            BootstrapConfig(n_boot=100, alpha=0.05)

    def test_deterministic_given_seed(self):
        rng = substream(114, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        cfg = BootstrapConfig(n_boot=39, alpha=0.05, seed=9)
        a = bootstrap_test(sample, restriction, cfg)
        b = bootstrap_test(sample, restriction, cfg)
        assert (a.statistic, a.critical_value, a.p_value) == (b.statistic, b.critical_value, b.p_value)

    def test_statistic_variants_run(self):
        rng = substream(115, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=2)
        from sncoint import BARTLETT, KernelSpec

        for statistic, tag in (("tau1", "tau1-bootstrap"), ("wald-lrv", "Wald-IM-bootstrap")):
            out = bootstrap_test(sample, restriction, cfg, statistic=statistic, kernel=KernelSpec(BARTLETT, "andrews"))
            assert out.method == tag

    def test_exchangeable_residual_pool(self):
        # permuting the pool leaves the bootstrap distribution unchanged;
        # draws differ only through seed-equivalent resampling
        from scipy.stats import ks_2samp

        from sncoint import levels_residuals, restricted_im_ols
        from sncoint.bootstrap import bootstrap_draws

        rng = substream(116, 0)
        sample = mild_sample(rng, T=100)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        fit = im_ols(sample)
        w_hat = np.column_stack([levels_residuals(sample, fit), sample.innovations()])
        model = yule_walker(w_hat, 1)
        perm = substream(116, 1).permutation(model.resid_pool.shape[0])
        permuted = VarSieveModel(
            order=model.order,
            coefs=model.coefs,
            resid_pool=model.resid_pool[perm],
            sigma=model.sigma,
        )
        beta_r = restricted_im_ols(fit, restriction)
        cfg = BootstrapConfig(n_boot=299, alpha=0.05, seed=21)
        draws = {}
        for name, mod in (("base", model), ("perm", permuted)):
            draws[name], _ = bootstrap_draws(
                mod, sample.nobs, beta_r, sample.det, fit.delta, cfg, restriction, "sn", None, np.arange(cfg.n_boot)
            )
        assert ks_2samp(draws["base"], draws["perm"]).pvalue > 0.01


def _reference_draw(model, T, beta_r, det, delta, cfg, restriction, statistic, kernel, index):
    """Per-sample reference: retry once from the attempt-1 substream, then NaN."""
    for attempt in (0, 1):
        star = generate_bootstrap_sample(model, T, beta_r, det, delta, cfg, index, attempt)
        try:
            return bootstrap_statistic(star, restriction, statistic, kernel), attempt
        except (ValueError, np.linalg.LinAlgError):
            continue
    return np.nan, 1


def _reference_draws(model, T, beta_r, det, delta, cfg, restriction, statistic, kernel):
    pairs = [
        _reference_draw(model, T, beta_r, det, delta, cfg, restriction, statistic, kernel, i) for i in range(cfg.n_boot)
    ]
    return np.array([d for d, _ in pairs]), sum(a for _, a in pairs)


def _kernel_draws(model, T, beta_r, det, delta, cfg, restriction, statistic, kernel, rows):
    from functools import partial

    from sncoint.bootstrap import _chunked_draws, bootstrap_draws

    draw = partial(bootstrap_draws, model, T, beta_r, det, delta, cfg, restriction, statistic, kernel)
    return _chunked_draws(draw, cfg.n_boot, rows, 1)


class TestBatchedKernel:
    @pytest.mark.parametrize("statistic", ["sn", "tau1", "wald-lrv"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.TREND])
    def test_matches_per_sample_reference(self, statistic, m, det):
        from sncoint import BARTLETT, KernelSpec, levels_residuals, restricted_im_ols

        rng = substream(117, m, det.n_columns)
        T = 90
        v = rng.standard_normal((T, m))
        x = np.cumsum(v, axis=0)
        y = x @ np.ones(m) + rng.standard_normal(T) + 0.4 * v.sum(axis=1)
        sample = CointegrationSample(y=y, x=x, det=det)
        restriction = RestrictionSpec(R=np.eye(m), value=np.ones(m))
        fit = im_ols(sample)
        w_hat = np.column_stack([levels_residuals(sample, fit), sample.innovations()])
        model = yule_walker(w_hat, 2)
        beta_r = restricted_im_ols(fit, restriction)
        cfg = BootstrapConfig(n_boot=39, alpha=0.05, seed=8)
        kernel = KernelSpec(BARTLETT, "andrews")
        args = (model, T, beta_r, det, fit.delta, cfg, restriction, statistic, kernel)
        # 16-draw chunks: the 39 draws span three chunks, the last one partial
        draws, retried = _kernel_draws(*args, rows=16)
        expected, expected_retried = _reference_draws(*args)
        assert retried == expected_retried
        np.testing.assert_array_equal(np.isnan(draws), np.isnan(expected))
        np.testing.assert_allclose(draws, expected, rtol=1e-9)

    def test_single_residual_pool_discards_every_draw(self):
        # zero coefficients and one pooled residual: every draw is the same
        # perfect fit, the retry reproduces it, and every draw is discarded
        r = np.array([[0.5, -0.25, 1.0]])
        model = VarSieveModel(order=1, coefs=np.zeros((1, 3, 3)), resid_pool=r, sigma=np.zeros((3, 3)))
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=0)
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        args = (model, 20, np.ones(2), Deterministics.NONE, np.array([]), cfg, restriction, "sn", None)
        draws, retried = _kernel_draws(*args, rows=8)
        expected, expected_retried = _reference_draws(*args)
        assert np.isnan(expected).all() and expected_retried == 19
        assert np.isnan(draws).all() and retried == 19

    def test_retry_and_discard_match_reference(self):
        # a pool whose error component is zero three times in four: a draw
        # of all-zero errors is a perfect fit, so some draws are retried
        # and a few of those discarded
        pool = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        model = VarSieveModel(order=1, coefs=np.zeros((1, 2, 2)), resid_pool=pool, sigma=np.eye(2))
        cfg = BootstrapConfig(n_boot=199, alpha=0.05, seed=4, burn_in=0)
        restriction = RestrictionSpec(R=np.eye(1), value=np.ones(1))
        args = (model, 5, np.ones(1), Deterministics.NONE, np.array([]), cfg, restriction, "sn", None)
        draws, retried = _kernel_draws(*args, rows=64)
        expected, expected_retried = _reference_draws(*args)
        assert retried == expected_retried > 0
        np.testing.assert_array_equal(np.isnan(draws), np.isnan(expected))
        assert np.isnan(draws).any()
        np.testing.assert_allclose(draws, expected, rtol=1e-9)


class TestDeterminismAcrossChunks:
    def test_workers_give_identical_outcomes(self):
        from sncoint.estimators import batch_rows

        rng = substream(118, 0)
        T = 400
        v = rng.standard_normal((T, 2))
        x = np.cumsum(v, axis=0)
        sample = CointegrationSample(y=x @ [1.0, 1.0] + rng.standard_normal(T), x=x, det=Deterministics.TREND)
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        cfg = BootstrapConfig(n_boot=199, alpha=0.05, seed=6)
        assert cfg.n_boot > 3 * batch_rows(T, 6)
        outcomes = [bootstrap_test(sample, restriction, replace(cfg, workers=w)) for w in (1, 2)]
        assert outcomes[0] == outcomes[1]


class TestDiagnostics:
    def test_outcome_reports_sieve_and_counts(self):
        rng = substream(119, 0)
        sample = mild_sample(rng)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        out = bootstrap_test(sample, restriction, BootstrapConfig(n_boot=39, alpha=0.05, seed=5, order_rule=2))
        assert out.diagnostics["sieve_order"] == 2
        assert 0.0 <= out.diagnostics["spectral_radius"] < 1.0
        assert out.diagnostics["n_retried"] == 0
        assert out.diagnostics["n_discarded"] == 0

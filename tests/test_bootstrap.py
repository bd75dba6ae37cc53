from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from sncoint import (
    BootstrapConfig,
    CointegrationSample,
    Deterministics,
    NullModel,
    RestrictionSpec,
    VarSieveModel,
    bootstrap_statistic,
    bootstrap_test,
    generate_bootstrap_sample,
    im_ols,
    self_normalizer,
    wald_statistic,
    yule_walker,
)
from sncoint.bootstrap import (
    _BLOCK,
    _block_map,
    _var_residuals,
    companion_spectral_radius,
    critical_rank,
    generate_bootstrap_batch,
    max_sieve_order,
)
from sncoint.kernels import autocovariances
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
        with pytest.raises(ValueError, match="too short"):  # before the growth cap, which divides by log T
            yule_walker(np.ones((1, 1)), 1)

    def test_unstable_fit_raises(self, monkeypatch):
        from sncoint import bootstrap

        monkeypatch.setattr(bootstrap, "companion_spectral_radius", lambda coefs: 1.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"fitted VAR unstable \(spectral radius 1\.000000\)"):
            yule_walker(simulate_var1(substream(105, 0), 200, 0.5), 1)


def loop_yule_walker(w, rule):
    """Loop transcription of the sieve fit: assemble and solve the
    block-Toeplitz system of each candidate order from its own
    autocovariances, score the candidates, and refit the winner."""
    w = np.asarray(w, dtype=float).reshape(len(w), -1)
    T, k = w.shape
    wd = w - w.mean(axis=0)

    def solve(q):
        gammas = autocovariances(wd, q).transpose(0, 2, 1)
        G = np.empty((q * k, q * k))
        for a in range(q):
            for b in range(q):
                G[a * k : (a + 1) * k, b * k : (b + 1) * k] = gammas[b - a] if b >= a else gammas[a - b].T
        stacked = np.linalg.solve(G, np.hstack(gammas[1 : q + 1]).T).T
        return np.ascontiguousarray(stacked.reshape(k, q, k).swapaxes(0, 1))

    order = rule
    if isinstance(rule, str):
        q_max = max(1, min(max_sieve_order(T), (T - 2) // k))
        n_eval = T - q_max
        order, best_ic = 1, np.inf
        for q in range(1, q_max + 1):
            resid = _var_residuals(wd[q_max - q :], solve(q))
            sign, logdet = np.linalg.slogdet(resid.T @ resid / n_eval)
            penalty = 2.0 if rule == "aic" else np.log(n_eval)
            if sign > 0 and logdet + penalty * q * k**2 / n_eval < best_ic:
                order, best_ic = q, logdet + penalty * q * k**2 / n_eval
    coefs = solve(order)
    resid = _var_residuals(w, coefs)
    pool = resid - resid.mean(axis=0)
    return order, coefs, pool, pool.T @ pool / pool.shape[0]


class TestSelectOrder:
    """Order selection inside :func:`yule_walker`: a fixed order, or the
    AIC or BIC minimizer from one system at the largest candidate order."""

    def test_max_order_rule(self):
        assert max_sieve_order(100) == 4
        assert max_sieve_order(75) == 4
        assert max_sieve_order(1000) == 10
        assert max_sieve_order(8) == 2

    def test_max_order_is_the_integer_cube_root(self):
        # the exact root by integer arithmetic: the count of cubes n**3 <= T with n >= 1
        T = np.arange(1, 200_001)
        exact = np.searchsorted(np.arange(1, 60) ** 3, T, side="right")
        assert [max_sieve_order(int(t)) for t in T] == exact.tolist()
        for n in range(2, 10_001):
            assert (max_sieve_order(n**3), max_sieve_order(n**3 - 1)) == (n, n - 1)

    def test_fixed_order_passthrough(self):
        w = np.random.default_rng(1).standard_normal((200, 2))
        assert yule_walker(w, 3).order == 3

    def test_fixed_order_above_growth_cap_warns(self):
        w = np.random.default_rng(2).standard_normal((100, 2))
        with pytest.warns(RuntimeWarning, match="growth-rate cap"):
            yule_walker(w, 9)

    def test_selection_consistency_var1(self):
        hits = 0
        for seed in range(200):
            w = simulate_var1(substream(105, seed), 2000, np.array([[0.8, 0.0], [0.3, 0.5]]), k=2)
            hits += yule_walker(w, "aic").order == 1
        assert hits >= 160

    def test_bic_never_larger_than_sample_allows(self):
        w = np.random.default_rng(3).standard_normal((40, 3))
        q = yule_walker(w, "bic").order
        assert 1 <= q <= max_sieve_order(40)

    @pytest.mark.parametrize("T", [40, 150, 1000])
    def test_matches_loop_transcription(self, T):
        for k in (1, 2, 3):
            for seed in range(4):
                w = simulate_var1(substream(106, T, k, seed), T, 0.3 * seed * np.eye(k), k=k)
                for rule in ("aic", "bic", 1, 3):
                    model = yule_walker(w, rule)
                    order, coefs, pool, sigma = loop_yule_walker(w, rule)
                    assert model.order == order
                    assert model.coefs.tobytes() == coefs.tobytes()
                    assert model.resid_pool.tobytes() == pool.tobytes()
                    assert model.sigma.tobytes() == sigma.tobytes()

    def test_numpy_integer_order(self):
        w = np.random.default_rng(4).standard_normal((200, 2))
        assert yule_walker(w, np.int64(3)).order == 3
        config = BootstrapConfig(n_boot=19, alpha=0.05, order_rule=np.int64(3))
        out = bootstrap_test(mild_sample(substream(108, 0)), RestrictionSpec(R=np.eye(2), value=np.ones(2)), config)
        assert out.diagnostics["sieve_order"] == 3

    @pytest.mark.parametrize("rule", [2.0, True, 0, "AIC"])
    def test_bad_rules_rejected_with_one_message(self, rule):
        w = np.random.default_rng(5).standard_normal((200, 2))
        error, message = {
            2.0: (TypeError, "order must be an integer, got 2.0"),
            True: (TypeError, "order must be an integer, got True"),
            0: (ValueError, "order must be at least 1, got 0"),
            "AIC": (ValueError, "order must be 'aic', 'bic' or an integer, got 'AIC'"),
        }[rule]
        with pytest.raises(error, match=f"^{message}$") as by_config:
            BootstrapConfig(order_rule=rule)
        with pytest.raises(error) as by_fit:
            yule_walker(w, rule)
        assert str(by_fit.value) == str(by_config.value)

    def test_one_autocovariance_pass_per_test(self, count_calls):
        sample = mild_sample(substream(107, 0))
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        passes = count_calls(autocovariances)
        bootstrap_test(sample, restriction, BootstrapConfig(n_boot=19, alpha=0.05, seed=1), statistic="sn")
        assert len(passes) == 1


class TestVarSieveModel:
    def test_order_and_sigma_are_derived(self):
        rng = substream(117, 0)
        coefs = 0.2 * rng.standard_normal((2, 3, 3))
        pool = rng.standard_normal((50, 3))
        model = VarSieveModel(coefs=coefs, resid_pool=pool)
        assert model.order == 2
        assert model.sigma.tobytes() == (pool.T @ pool / len(pool)).tobytes()

    @pytest.mark.parametrize("given", ["order", "sigma"])
    def test_derived_values_are_not_arguments(self, given):
        with pytest.raises(TypeError, match=given):
            VarSieveModel(coefs=np.zeros((1, 2, 2)), resid_pool=np.eye(2), **{given: 1})


class TestNullModel:
    @pytest.mark.parametrize("order", [2, "aic"])
    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.TREND])
    def test_fit_matches_hand_derivation(self, det, order):
        from sncoint import FittedSample, levels_residuals, restricted_im_ols

        rng = substream(134, det.n_columns)
        base = mild_sample(rng, T=120)
        sample = CointegrationSample(y=base.y + 0.5 * np.arange(120) * (det is Deterministics.TREND), x=base.x, det=det)
        restriction = RestrictionSpec(R=np.array([[1.0, -1.0]]), value=np.array([0.0]))
        fit = im_ols(sample)
        sieve = yule_walker(np.column_stack([levels_residuals(sample, fit), sample.innovations()]), order)
        beta = restricted_im_ols(fit, restriction)
        for given in (sample, FittedSample(sample)):
            null = NullModel.fit(given, restriction, order)
            assert (null.T, null.det, null.sieve.order) == (120, det, sieve.order)
            np.testing.assert_array_equal(null.sieve.coefs, sieve.coefs)
            np.testing.assert_array_equal(null.sieve.resid_pool, sieve.resid_pool)
            np.testing.assert_array_equal(null.sieve.sigma, sieve.sigma)
            np.testing.assert_array_equal(null.beta, beta)
            np.testing.assert_array_equal(null.delta, fit.delta)

    def test_fit_refuses_a_stack(self):
        from sncoint import FittedSample

        sample = mild_sample(substream(135, 0))
        stack = FittedSample(np.stack([sample.y, sample.y]), np.stack([sample.x, sample.x]))
        with pytest.raises(ValueError, match="NullModel.fit tests one sample"):
            NullModel.fit(stack, RestrictionSpec(R=np.eye(2), value=np.ones(2)), 1)

    def test_models_compare_and_hash_by_identity(self):
        sample = mild_sample(substream(136, 0), T=100)
        w = np.column_stack([sample.y - sample.x.sum(axis=1), sample.innovations()[:, 0]])
        a, b = yule_walker(w, 1), yule_walker(w, 1)
        np.testing.assert_array_equal(a.coefs, b.coefs)
        assert a != b and a == a and len({hash(a), hash(b)}) == 2
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        null = NullModel.fit(sample, restriction, 1)
        shifted = replace(null, beta=null.beta + 1.0)
        assert null != shifted and null == null and len({null, shifted}) == 2
        np.testing.assert_array_equal(shifted.beta, null.beta + 1.0)
        assert shifted.sieve is null.sieve


class TestGenerateBootstrapSample:
    def test_degenerate_model_replays_residual(self):
        r = np.array([[0.5, -0.25, 1.0]])
        model = VarSieveModel(coefs=np.zeros((1, 3, 3)), resid_pool=r)
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=0)
        null = NullModel(model, 20, np.array([1.0, 1.0]), Deterministics.NONE, np.array([]))
        star = generate_bootstrap_sample(null, cfg, 0)
        # every innovation equals the single pooled residual
        np.testing.assert_allclose(np.diff(star.x, axis=0), np.tile(r[0, 1:], (19, 1)))
        u_star = star.y - star.x @ np.array([1.0, 1.0])
        np.testing.assert_allclose(u_star, 0.5)

    def test_deterministic_per_index(self):
        rng = substream(106, 0)
        model = yule_walker(rng.standard_normal((150, 3)), 1)
        null = NullModel(model, 60, np.ones(2), Deterministics.NONE, np.array([]))
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=42)
        a = generate_bootstrap_sample(null, cfg, 7)
        b = generate_bootstrap_sample(null, cfg, 7)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)
        c = generate_bootstrap_sample(null, cfg, 8)
        assert not np.array_equal(a.y, c.y)

    def test_null_holds_in_generated_data(self):
        rng = substream(107, 0)
        sample = mild_sample(rng, T=100)
        restriction = RestrictionSpec(R=np.array([[1.0, 1.0]]), value=np.array([2.0]))
        null = NullModel.fit(sample, restriction, 1)
        assert np.abs(restriction.R @ null.beta - restriction.value).max() < 1e-10
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=3)
        star = generate_bootstrap_sample(null, cfg, 0)
        # the generated outcome is exactly linear in the coefficient vector:
        # regenerating with a shifted vector changes y by x* times the shift,
        # so the star data's true coefficients are null.beta (which satisfies
        # the restriction exactly)
        shift = np.array([0.3, -0.1])
        star2 = generate_bootstrap_sample(replace(null, beta=null.beta + shift), cfg, 0)
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
        null = NullModel(model, T, np.array([1.0]), Deterministics.NONE, np.array([]))
        for i in range(2000):
            star = generate_bootstrap_sample(null, cfg, i)
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


def _per_step_w(model, cfg, indices, n_steps):
    """The VAR recursion one step per Python iteration: draw i's innovations
    from its substream, zero initial values, all n_steps steps."""
    q, k = model.order, model.n_series
    pool = model.resid_pool
    picks = [substream(cfg.seed, int(i), 0).integers(0, pool.shape[0], size=n_steps) for i in indices]
    w = np.zeros((len(indices), q + n_steps, k))
    w[:, q:] = pool[np.stack(picks)]
    lagged = np.vstack([a.T for a in model.coefs[::-1]])
    for t in range(n_steps):
        w[:, q + t] += w[:, t : t + q].reshape(-1, q * k) @ lagged
    return w


def _blocked_w(model, cfg, indices, T):
    """A chunk's simulated series w = [u, v], read back from
    :func:`generate_bootstrap_batch` with a zero coefficient vector."""
    null = NullModel(model, T, np.zeros(model.n_series - 1), Deterministics.NONE, np.array([]))
    y, x = generate_bootstrap_batch(null, cfg, indices)
    return np.concatenate([y[..., None], np.diff(x, axis=1, prepend=0.0)], axis=2)


class TestBlockedRecursion:
    """The blocked recursion against the per-step one it replaces."""

    @pytest.mark.parametrize("q", [1, 3, 10])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("offset", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_matches_per_step_recursion(self, q, k, offset):
        # n_steps = q + T needs T >= 1: shift by whole blocks where offset <= q
        n_steps = offset + _BLOCK * max(0, -(-(q + 1 - offset) // _BLOCK))
        rng = substream(130, q, k, n_steps)
        coefs = rng.standard_normal((q, k, k))
        coefs *= 0.9 / companion_spectral_radius(coefs)
        model = VarSieveModel(coefs=coefs, resid_pool=rng.standard_normal((40, k)))
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=9, burn_in=0)
        T = n_steps - q
        expected = _per_step_w(model, cfg, np.arange(5), n_steps)[:, -T:]
        w = _blocked_w(model, cfg, np.arange(5), T)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_persistent_var1(self):
        # spectral radius 0.98: a rotation scaled so every eigenvalue has modulus 0.98
        rng = substream(131, 0)
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        model = VarSieveModel(coefs=0.98 * rotation[None], resid_pool=rng.standard_normal((60, 3)))
        assert companion_spectral_radius(model.coefs) == pytest.approx(0.98)
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=10, burn_in=100)
        T = 400
        expected = _per_step_w(model, cfg, np.arange(8), 100 + 1 + T)[:, -T:]
        w = _blocked_w(model, cfg, np.arange(8), T)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("T", [100, 1000])
    @pytest.mark.parametrize("rows", [2, 3, 7, 50])
    def test_draw_does_not_depend_on_its_batch_companions(self, T, rows):
        # BLAS may round a row of the VAR product by the batch's row count
        # and the row's place in it, but never by the other rows' values
        rng = substream(133, 0)
        w = rng.standard_normal((300, 3))
        w[1:] += 0.5 * w[:-1]
        model = yule_walker(w, 2)
        args = (NullModel(model, T, np.ones(2), Deterministics.NONE, np.array([])), BootstrapConfig(n_boot=199, seed=5))
        half = rows // 2
        y, x = generate_bootstrap_batch(*args, np.arange(rows))
        y2, x2 = generate_bootstrap_batch(*args, np.r_[np.arange(half), 1000 + np.arange(rows - half)])
        np.testing.assert_array_equal(y2[:half], y[:half])
        np.testing.assert_array_equal(x2[:half], x[:half])
        assert not np.array_equal(y2[half:], y[half:])

    def test_map_built_once_per_sieve_fit(self, count_calls):
        from sncoint.estimators import batch_rows

        T = 600
        sample = mild_sample(substream(132, 0), T=T)
        assert -(-199 // batch_rows(T, 4)) == 4
        builds = count_calls(_block_map)
        bootstrap_test(sample, RestrictionSpec(R=np.eye(2), value=np.ones(2)), BootstrapConfig(n_boot=199, seed=2))
        assert len(builds) == 1


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

        from sncoint.bootstrap import bootstrap_draws

        rng = substream(116, 0)
        sample = mild_sample(rng, T=100)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        null = NullModel.fit(sample, restriction, 1)
        model = null.sieve
        perm = substream(116, 1).permutation(model.resid_pool.shape[0])
        permuted = VarSieveModel(coefs=model.coefs, resid_pool=model.resid_pool[perm])
        cfg = BootstrapConfig(n_boot=299, alpha=0.05, seed=21)
        draws = {}
        for name, mod in (("base", null), ("perm", replace(null, sieve=permuted))):
            draws[name], _ = bootstrap_draws(mod, cfg, restriction, "sn", None, np.arange(cfg.n_boot))
        assert ks_2samp(draws["base"], draws["perm"]).pvalue > 0.01


def _reference_draw(null, cfg, restriction, statistic, kernel, index):
    """Per-sample reference: retry once from the attempt-1 substream, then NaN."""
    for attempt in (0, 1):
        star = generate_bootstrap_sample(null, cfg, index, attempt)
        try:
            return bootstrap_statistic(star, restriction, statistic, kernel), attempt
        except (ValueError, np.linalg.LinAlgError):
            continue
    return np.nan, 1


def _reference_draws(null, cfg, restriction, statistic, kernel):
    pairs = [_reference_draw(null, cfg, restriction, statistic, kernel, i) for i in range(cfg.n_boot)]
    return np.array([d for d, _ in pairs]), sum(a for _, a in pairs)


def _kernel_draws(null, cfg, restriction, statistic, kernel, rows):
    from functools import partial

    from sncoint.bootstrap import bootstrap_draws
    from sncoint.streams import replication_map

    draw = partial(bootstrap_draws, null, cfg, restriction, statistic, kernel)
    chunks = replication_map(draw, cfg.n_boot, rows, 1)
    return np.concatenate([draws for draws, _ in chunks]), sum(retried for _, retried in chunks)


class TestBatchedKernel:
    @pytest.mark.parametrize("statistic", ["sn", "tau1", "wald-lrv"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("det", [Deterministics.NONE, Deterministics.TREND])
    def test_matches_per_sample_reference(self, statistic, m, det):
        from sncoint import BARTLETT, KernelSpec

        rng = substream(117, m, det.n_columns)
        T = 90
        v = rng.standard_normal((T, m))
        x = np.cumsum(v, axis=0)
        y = x @ np.ones(m) + rng.standard_normal(T) + 0.4 * v.sum(axis=1)
        sample = CointegrationSample(y=y, x=x, det=det)
        restriction = RestrictionSpec(R=np.eye(m), value=np.ones(m))
        cfg = BootstrapConfig(n_boot=39, alpha=0.05, seed=8)
        kernel = KernelSpec(BARTLETT, "andrews")
        args = (NullModel.fit(sample, restriction, 2), cfg, restriction, statistic, kernel)
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
        model = VarSieveModel(coefs=np.zeros((1, 3, 3)), resid_pool=r)
        cfg = BootstrapConfig(n_boot=19, alpha=0.05, seed=0)
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        args = (NullModel(model, 20, np.ones(2), Deterministics.NONE, np.array([])), cfg, restriction, "sn", None)
        draws, retried = _kernel_draws(*args, rows=8)
        expected, expected_retried = _reference_draws(*args)
        assert np.isnan(expected).all() and expected_retried == 19
        assert np.isnan(draws).all() and retried == 19

    def test_retry_and_discard_match_reference(self):
        # a pool whose error component is zero three times in four: a draw
        # of all-zero errors is a perfect fit, so some draws are retried
        # and a few of those discarded
        pool = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        model = VarSieveModel(coefs=np.zeros((1, 2, 2)), resid_pool=pool)
        cfg = BootstrapConfig(n_boot=199, alpha=0.05, seed=4, burn_in=0)
        restriction = RestrictionSpec(R=np.eye(1), value=np.ones(1))
        args = (NullModel(model, 5, np.ones(1), Deterministics.NONE, np.array([])), cfg, restriction, "sn", None)
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


def _discarding(monkeypatch, share):
    """Patch the draws so that a ``share`` of them come back NaN (discarded)."""
    from sncoint import bootstrap

    real = bootstrap.bootstrap_draws

    def draws(null, config, restriction, statistic, kernel, indices):
        values, retried = real(null, config, restriction, statistic, kernel, indices)
        values[np.asarray(indices) < share * config.n_boot] = np.nan
        return values, retried

    monkeypatch.setattr(bootstrap, "bootstrap_draws", draws)


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

    def test_discard_note(self, monkeypatch):
        _discarding(monkeypatch, 0.1)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        out = bootstrap_test(mild_sample(substream(119, 0)), restriction, BootstrapConfig(n_boot=39, seed=5))
        assert out.diagnostics["n_discarded"] == 4
        assert out.warnings == ("4 of 39 bootstrap replications discarded",)
        assert out.p_value * 36 == pytest.approx(round(out.p_value * 36), abs=1e-9)

    def test_all_degenerate_raises(self, monkeypatch):
        _discarding(monkeypatch, 1.0)
        restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
        with pytest.raises(RuntimeError, match="all bootstrap replications degenerate"):
            bootstrap_test(mild_sample(substream(119, 0)), restriction, BootstrapConfig(n_boot=39, seed=5))

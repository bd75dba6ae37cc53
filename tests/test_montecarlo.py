import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sncoint import (
    BARTLETT,
    BootstrapConfig,
    CointegrationSample,
    Deterministics,
    DgpConfig,
    FittedSample,
    KernelSpec,
    bootstrap_test,
    default_table,
    generate_dgp,
    self_normalized_test,
    simulate_garch_innovations,
    size_adjusted_power,
    size_experiment,
    standard_battery,
    standard_statistics,
    traditional_wald,
)
from sncoint.estimators import _qr_solve, d_ols, fm_ols, im_ols, im_ols_batch, ols
from sncoint import montecarlo, streams
from sncoint.montecarlo import _dgp_paths, _fitted_samples, _garch, null_restriction
from sncoint.streams import BLAS_PINNED, MEMORY_RETAINED, _cores, replication_map, substream


class TestGarchInnovations:
    def test_degenerate_garch_is_gaussian(self):
        config = DgpConfig(T=100, a1=0.0, b1=0.0, rho3=0.0)
        out = simulate_garch_innovations(config, 50_000, substream(0, 0))
        assert out.shape == (50_000, 3)
        assert np.abs(out.mean(axis=0)).max() < 0.02
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=0.02)
        corr = np.corrcoef(out.T)
        assert np.abs(corr - np.eye(3)).max() < 0.02

    def test_unit_unconditional_variance(self):
        config = DgpConfig(T=100, rho3=0.0)  # garch defaults a1=0.05, b1=0.94
        out = simulate_garch_innovations(config, 100_000, substream(1, 0))
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=0.03)

    def test_cross_correlation_matches_mixing(self):
        config = DgpConfig(T=100)  # rho3 = 0.2
        out = simulate_garch_innovations(config, 100_000, substream(2, 0))
        corr = np.corrcoef(out.T)
        for i in range(3):
            for j in range(i + 1, 3):
                assert corr[i, j] == pytest.approx(0.2, abs=0.02)

    def test_batched_rows_match_single_draws(self):
        config = DgpConfig(T=40, burn_in=30)
        eps = np.stack([substream(3, 1, i).standard_normal((70, 3)) for i in range(5)])
        batch = _garch(config, eps)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], simulate_garch_innovations(config, 70, substream(3, 1, i)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DgpConfig(T=100, a1=0.5, b1=0.5)
        with pytest.raises(ValueError):
            DgpConfig(T=100, rho3=-0.6)
        with pytest.raises(ValueError):
            DgpConfig(T=100, rho1=1.0)

    @pytest.mark.parametrize("field", ["rho1", "rho2", "rho3", "phi", "a1", "b1", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            DgpConfig(T=100, **{field: (1.0, value) if field == "beta" else value})


class TestGenerateDgp:
    def test_collapsed_recursions_give_iid_errors(self):
        config = DgpConfig(T=30_000, a1=0.0, b1=0.0, rho3=0.0)
        sample = generate_dgp(config, substream(3, 0))
        u = sample.y - sample.x @ np.asarray(config.beta)
        assert abs(u.mean()) < 0.02
        assert u.std() == pytest.approx(1.0, abs=0.02)
        assert abs(np.corrcoef(u[1:], u[:-1])[0, 1]) < 0.02

    def test_default_coefficients_are_unit(self):
        assert DgpConfig(T=100).beta == (1.0, 1.0)

    def test_sample_dimensions_and_start(self):
        config = DgpConfig(T=250)
        sample = generate_dgp(config, substream(4, 0))
        assert sample.nobs == 250
        assert sample.n_regressors == 2
        v = sample.innovations()
        np.testing.assert_array_equal(v[0], sample.x[0])

    def test_endogeneity_dial(self):
        base = DgpConfig(T=50_000, rho2=0.0)
        hot = DgpConfig(T=50_000, rho2=0.9)
        u0_sample = generate_dgp(base, substream(5, 0))
        u9_sample = generate_dgp(hot, substream(5, 0))
        u0 = u0_sample.y - u0_sample.x @ np.asarray(base.beta)
        u9 = u9_sample.y - u9_sample.x @ np.asarray(hot.beta)
        v0 = u0_sample.innovations()[:, 0]
        v9 = u9_sample.innovations()[:, 0]
        low = abs(np.corrcoef(u0, v0)[0, 1])
        high = abs(np.corrcoef(u9, v9)[0, 1])
        assert high > low + 0.2

    def test_serial_correlation_dial(self):
        quiet = generate_dgp(DgpConfig(T=30_000, rho1=0.0), substream(6, 0))
        loud = generate_dgp(DgpConfig(T=30_000, rho1=0.9), substream(6, 0))
        u_quiet = quiet.y - quiet.x @ [1.0, 1.0]
        u_loud = loud.y - loud.x @ [1.0, 1.0]
        ac = lambda u: np.corrcoef(u[1:], u[:-1])[0, 1]
        assert ac(u_loud) > 0.8 > ac(u_quiet) + 0.5

    def test_chunk_samples_match_single_draws(self):
        config = DgpConfig(T=40, rho1=0.3, rho2=0.3, phi=0.2)
        betas = [(1.0, 1.0), (1.5, 1.5)]
        stack = _fitted_samples(config, 4, 1, np.arange(3, 6), betas)
        assert stack.sample is None and stack.y.shape == (6, 40)
        for r, i in enumerate(range(3, 6)):
            for g, beta in enumerate(betas):
                single = generate_dgp(replace(config, beta=beta), substream(4, 1, i))
                np.testing.assert_array_equal(stack.y[2 * r + g], single.y)
                np.testing.assert_array_equal(stack.x[2 * r + g], single.x)

    @pytest.mark.parametrize("rho1", [-0.7, 0.0, 0.3, 0.6, 0.95])
    @pytest.mark.parametrize("T", [10, 100, 1000])
    def test_error_recursion_matches_lfilter(self, rho1, T):
        from scipy.signal import lfilter

        config = DgpConfig(T=T, rho1=rho1, rho2=0.4, phi=0.3)
        for lead in ((), (4,), (3, 2)):
            mixed = substream(7, T, len(lead)).standard_normal(lead + (config.burn_in + T, 3))
            e, nu = mixed[..., 0], mixed[..., 1:]
            e_prev = np.concatenate([np.zeros(lead + (1,)), e[..., :-1]], axis=-1)
            forcing = e + config.phi * e_prev + config.rho2 * nu.sum(axis=-1)
            expected = lfilter([1.0], [1.0, -rho1], forcing, axis=-1)[..., config.burn_in :]
            np.testing.assert_array_equal(_dgp_paths(config, mixed)[1], expected)

    def test_import_loads_no_scipy_signal(self):
        # a fresh interpreter, since other test modules import scipy themselves; no scipy module at all
        # loads with the package, and the chi-square forms import theirs on first use
        code = (
            "import sys, sncoint; print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
            "from sncoint.selfnorm import _chi2_critical; print(repr(_chi2_critical(2, 0.05)))"
        )
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "5.991464547107979"]

    def test_burn_in_insensitivity(self):
        battery = standard_battery(["SN-asymptotic"])
        r100 = size_experiment(DgpConfig(T=100, rho1=0.3, rho2=0.3, burn_in=100), battery, reps=400, seed=9)
        r200 = size_experiment(DgpConfig(T=100, rho1=0.3, rho2=0.3, burn_in=200), battery, reps=400, seed=9)
        assert abs(r100.rates["SN-asymptotic"] - r200.rates["SN-asymptotic"]) <= 0.05


def coin_flip_test(fitted, restriction, seeds):
    """Mock: rejects with probability 0.05 regardless of the data."""
    return [substream(s).uniform() < 0.05 for s in seeds]


class TestSizeExperiment:
    def test_mock_rejection_rate(self):
        result = size_experiment(DgpConfig(T=50), {"coin": coin_flip_test}, reps=2000, seed=11)
        assert result.rates["coin"] == pytest.approx(0.05, abs=0.015)

    def test_restriction_is_the_null(self):
        config = DgpConfig(T=100, beta=(1.0, 2.0))
        r = null_restriction(config)
        np.testing.assert_array_equal(r.value, [1.0, 2.0])
        np.testing.assert_array_equal(r.R, np.eye(2))

    def test_deterministic_across_worker_counts(self, chunks_of_8):
        battery = standard_battery(["SN-asymptotic"])
        config = DgpConfig(T=75, rho1=0.3, rho2=0.3)
        runs = [size_experiment(config, battery, reps=60, seed=13, workers=w) for w in (1, 4)]
        assert [r.meta["processes"] for r in runs] == [1, min(4, _cores())]
        assert runs[0].rates == runs[1].rates

    def test_bootstrap_battery_opens_no_pool_inside_a_study(self, monkeypatch):
        # 199 draws at T = 200 are two bootstrap chunks, a pool of two at boot.workers=2
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool opened inside the study")

        config = DgpConfig(T=200, rho1=0.6, rho2=0.6)
        decisions = {}
        for workers in (1, 2):
            test = standard_battery(["SN-bootstrap"], boot=BootstrapConfig(n_boot=199, workers=workers))["SN-bootstrap"]

            def logged(fitted, restriction, seeds, test=test, log=decisions.setdefault(workers, [])):
                log.append(test(fitted, restriction, seeds))
                return log[-1]

            if workers == 2:  # with no pool kept, a pool call must start one
                monkeypatch.setattr(streams, "_pool", None)
                monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
            result = size_experiment(config, {"SN-bootstrap": logged}, reps=6, seed=23)
            assert result.meta["processes"] == 1
        np.testing.assert_array_equal(np.concatenate(decisions[2]), np.concatenate(decisions[1]))

    def test_result_metadata(self):
        result = size_experiment(DgpConfig(T=50), {"coin": coin_flip_test}, reps=50, seed=14)
        assert result.kind == "size"
        assert result.reps == 50
        assert result.seed == 14
        assert "runtime_s" in result.meta
        assert result.meta["chunk_size"] == 25 and result.meta["tasks"] == 2
        assert result.meta["blas_pinned"] is BLAS_PINNED
        assert result.meta["memory_retained"] is MEMORY_RETAINED

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        def no_study(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "replication_map", no_study)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            size_experiment(DgpConfig(T=50), {"coin": coin_flip_test}, reps=10, workers=workers)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            size_adjusted_power(DgpConfig(T=75), standard_statistics(["SN"]), [1.0], reps=10, workers=workers)

    def test_nan_decision_names_the_test(self):
        def nan_at_row_3(fitted, restriction, seeds):
            out = np.zeros(len(seeds))
            out[3] = np.nan
            return out

        tests = {"coin": coin_flip_test, "flaky": nan_at_row_3}
        with pytest.raises(ValueError, match=r"test 'flaky' is NaN .* in the null phase at replication 3$"):
            size_experiment(DgpConfig(T=40), tests, reps=16, seed=2)

    @pytest.mark.parametrize("tag", ["SN-asymptotic", "Wald-FM", "SN-bootstrap"])
    def test_degenerate_sample_names_the_builtin_test(self, monkeypatch, tag):
        paths = montecarlo._dgp_paths

        def flat_second_row(config, mixed):
            x, u = paths(config, mixed)
            x[1] = 0.0  # the second replication of every chunk has no regressor variation
            return x, u

        monkeypatch.setattr(montecarlo, "_dgp_paths", flat_second_row)
        battery = standard_battery([tag], boot=BootstrapConfig(n_boot=19))
        with pytest.raises(ValueError, match=rf"test '{tag}' is NaN .* in the null phase at replication 1$"):
            size_experiment(DgpConfig(T=40), battery, reps=8, seed=2)

    def test_rates_validated(self):
        from sncoint import ExperimentResult

        with pytest.raises(ValueError, match="outside"):
            ExperimentResult(kind="size", rates={"bad": 1.5}, reps=10, seed=0)


class TestSizeAdjustedPower:
    def test_null_point_calibrated_and_monotone(self):
        config = DgpConfig(T=100, rho1=0.3, rho2=0.3)
        stats = standard_statistics(["SN"])
        grid = [1.0, 1.1, 1.2]
        result = size_adjusted_power(config, stats, grid, reps=400, seed=15)
        curve = result.rates["SN"]
        # at the null grid point the adjusted rate sits near the level
        assert curve[0] == pytest.approx(0.05, abs=0.03)
        assert curve[0] < curve[1] < curve[2]

    def test_adjusted_critical_values_recorded(self):
        config = DgpConfig(T=75)
        result = size_adjusted_power(config, standard_statistics(["SN"]), [1.0], reps=200, seed=16)
        assert "SN" in result.meta["adjusted_critical_values"]
        assert result.meta["adjusted_critical_values"]["SN"] > 0
        assert result.kind == "power"
        np.testing.assert_array_equal(result.beta_grid, [1.0])

    def test_no_replications_rejected(self):
        with pytest.raises(ValueError, match="at least one replication"):
            size_adjusted_power(DgpConfig(T=75), standard_statistics(["SN"]), [1.0], reps=0)

    def test_degenerate_row_raises_before_the_quantile(self, monkeypatch):
        paths = montecarlo._dgp_paths

        def flat_second_row(config, mixed):
            x, u = paths(config, mixed)
            x[1] = 0.0  # the second replication of every chunk has no regressor variation
            return x, u

        def no_quantile(*args, **kwargs):
            raise AssertionError("np.quantile reached")

        monkeypatch.setattr(montecarlo, "_dgp_paths", flat_second_row)
        monkeypatch.setattr(montecarlo.np, "quantile", no_quantile)
        stats = standard_statistics(["Wald-IM", "SN"])
        with pytest.raises(ValueError, match=r"statistic 'Wald-IM' is NaN .* in the null phase at replication 1$"):
            size_adjusted_power(DgpConfig(T=40), stats, [1.0, 1.1], reps=8, seed=2)

    def test_statistic_must_return_one_value_per_row(self):
        def scalar(fitted, restriction):
            return 1.0

        with pytest.raises(ValueError, match="one value per row"):
            size_adjusted_power(DgpConfig(T=40), {"scalar": scalar}, [1.0], reps=4, seed=2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05])
    def test_alpha_outside_unit_interval_rejected(self, monkeypatch, alpha):
        def no_study(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_run_chunks", no_study)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            size_adjusted_power(DgpConfig(T=75), standard_statistics(["SN"]), [1.0], reps=10, alpha=alpha)


# Captured from the per-replication drivers that preceded the chunked
# ones; the chunked drivers must reproduce them bit for bit. The Wald-FM
# and Wald-D adjusted values were re-captured, each replication in its own
# one-row stack, when the kernel sums became a sum over lags.
POWER_GOLDEN_RATES = {
    "SN": [0.047619047619047616, 0.2857142857142857, 0.47619047619047616],
    "Wald-IM": [0.047619047619047616, 0.2857142857142857, 0.47619047619047616],
    "Wald-FM": [0.0, 0.14285714285714285, 0.42857142857142855],
    "Wald-D": [0.0, 0.09523809523809523, 0.42857142857142855],
}
POWER_GOLDEN_ADJUSTED = {
    "SN": 100.74848827970241,
    "Wald-IM": 7.041761804170563,
    "Wald-FM": 19.727886361655187,
    "Wald-D": 20.938136491948555,
}
SIZE_GOLDEN_RATES = {
    "SN-asymptotic": 0.13333333333333333,
    "Wald-IM": 0.2,
    "Wald-FM": 0.4,
    "Wald-D": 0.3333333333333333,
    "tau1-bootstrap": 0.16666666666666666,
}


def assert_pool(meta, workers):
    """The study ran several tasks, on as many processes as the host allows."""
    assert meta["tasks"] > 1
    assert meta["processes"] == min(workers, meta["tasks"], _cores())


@pytest.mark.parametrize("workers", [1, 2])
class TestGoldenStudies:
    def test_size_adjusted_power(self, workers, chunks_of_8):
        stats = standard_statistics(["SN", "Wald-IM", "Wald-FM", "Wald-D"])
        config = DgpConfig(T=60, rho1=0.3, rho2=0.3)
        result = size_adjusted_power(config, stats, [1.0, 1.02, 1.05], reps=21, seed=21, workers=workers)
        assert {k: list(v) for k, v in result.rates.items()} == POWER_GOLDEN_RATES
        assert result.meta["adjusted_critical_values"] == POWER_GOLDEN_ADJUSTED
        assert_pool(result.meta, workers)

    def test_size_experiment(self, workers, chunks_of_8):
        battery = standard_battery(
            ["SN-asymptotic", "Wald-IM", "Wald-FM", "Wald-D", "tau1-bootstrap"], boot=BootstrapConfig(n_boot=19)
        )
        result = size_experiment(DgpConfig(T=75, rho1=0.8, rho2=0.8), battery, reps=30, seed=22, workers=workers)
        assert result.rates == SIZE_GOLDEN_RATES
        assert_pool(result.meta, workers)


class TestFitOncePerSample:
    """A study opens one pool and fits each (chunk, phase) stack once, in
    one stacked call per fit, whatever number of statistics or tests read
    it."""

    def test_power_study(self, count_calls):
        config = DgpConfig(T=40)
        map_calls = count_calls(replication_map)
        batch_calls = count_calls(im_ols_batch)
        qr_calls = count_calls(_qr_solve)
        per_sample = [count_calls(fn) for fn in (ols, im_ols, fm_ols, d_ols)]
        stats = standard_statistics(["SN", "Wald-IM", "Wald-FM", "Wald-D"])
        size_adjusted_power(config, stats, [1.0, 1.1], reps=10, seed=3)
        assert len(map_calls) == 1
        # one chunk of 10 replications: a null stack and a stack over the 2 grid points
        assert [args[0].shape[0] for args in batch_calls] == [10, 20]
        static = [args for args in qr_calls if args[1].shape[2] == 2]  # the static design [x]: m = 2, no deterministics
        assert [args[0].shape[0] for args in static] == [10, 20]
        assert all(args[0].shape[2] == 1 + 2 for args in static)  # [y, v] in one QR
        assert per_sample == [[], [], [], []]

    def test_size_study(self, count_calls):
        map_calls = count_calls(replication_map)
        batch_calls = count_calls(im_ols_batch)
        battery = standard_battery(["SN-asymptotic", "Wald-IM", "Wald-FM"])
        size_experiment(DgpConfig(T=40), battery, reps=10, seed=3)
        assert len(map_calls) == 1
        assert [args[0].shape[0] for args in batch_calls] == [10]


def zero_statistic(fitted, restriction):
    """Mock: one value per row, without fitting anything."""
    return np.zeros(len(fitted.y))


class TestChunkRule:
    """reps splits into equal chunks sized from T and the rows one
    replication adds to a chunk's largest stack, at least min(8, reps // 25)
    of them, never from workers."""

    BENCH_GRID = [1.0, 1.01, 1.03]

    def test_bench_design_at_one_and_two_workers(self):
        stats = standard_statistics(["SN"])
        runs = [size_adjusted_power(DgpConfig(T=100), stats, self.BENCH_GRID, reps=100, seed=1, workers=w)
                for w in (1, 2)]  # fmt: skip
        assert [(r.meta["chunk_size"], r.meta["tasks"]) for r in runs] == [(25, 4), (25, 4)]
        assert [r.meta["processes"] for r in runs] == [1, min(2, _cores())]
        assert runs[0].rates["SN"].tolist() == runs[1].rates["SN"].tolist()
        assert runs[0].meta["adjusted_critical_values"] == runs[1].meta["adjusted_critical_values"]

    def test_rule(self):
        assert montecarlo._chunk_size(24, 1_000, 10) == 8  # the floor of 8 replications
        assert montecarlo._chunk_size(1_000, 75, 1) == 100  # 10 chunks of at most 8192 // 75
        assert montecarlo._chunk_size(300, 100, 1) == 38  # at least 8 chunks
        assert montecarlo._chunk_size(7, 10, 1) == 7

    def test_size_study_counts_one_row_per_replication(self):
        result = size_experiment(DgpConfig(T=100), {"coin": coin_flip_test}, reps=300, seed=2)
        assert result.meta["chunk_size"] == 38 and result.meta["tasks"] == 8

    def test_tasks_are_the_chunks_run(self, count_calls):
        chunks = count_calls(montecarlo._power_chunk)
        result = size_adjusted_power(DgpConfig(T=100), {"zero": zero_statistic}, self.BENCH_GRID, reps=100)
        assert len(chunks) == result.meta["tasks"] == 4
        assert [len(args[-1]) for args in chunks] == [25] * 4


class TestStandardBattery:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown test tag"):
            standard_battery(["SN-jackknife"])
        with pytest.raises(ValueError, match="unknown statistic tag"):
            standard_statistics(["SN-jackknife"])

    def test_alpha_checked_before_any_test(self):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 2.0"):
            standard_battery(["Wald-FM"], alpha=2.0)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 0"):
            standard_battery(["SN-bootstrap"], alpha=0)
        with pytest.raises(KeyError, match="no tabulated quantile at probability 0.8"):
            standard_battery(["Wald-FM", "SN-asymptotic"], alpha=0.2)
        assert set(standard_battery(["Wald-FM"], alpha=0.2)) == {"Wald-FM"}

    def test_stacked_decisions_match_the_per_sample_tests(self):
        """Each tag's decisions on a stack equal, row for row, the per-sample
        test on that row's sample, the bootstrap under that row's seed."""
        config = DgpConfig(T=75, rho1=0.8, rho2=0.8)
        fitted = _fitted_samples(config, 17, 0, np.arange(8), [config.beta])
        restriction = null_restriction(config)
        kernel = KernelSpec(BARTLETT, "andrews")
        boot = BootstrapConfig(n_boot=19, alpha=0.05)
        table = default_table(2, 2, Deterministics.NONE)
        boot_statistics = {"SN-bootstrap": "sn", "Wald-IM-bootstrap": "wald-lrv", "tau1-bootstrap": "tau1"}

        def per_sample(name, sample, seed):
            if name == "SN-asymptotic":
                return self_normalized_test(sample, restriction, table)
            if name in boot_statistics:
                return bootstrap_test(sample, restriction, replace(boot, seed=seed), boot_statistics[name], kernel)
            return traditional_wald(name.removeprefix("Wald-"), sample, restriction, kernel)

        battery = standard_battery(["SN-asymptotic", "Wald-IM", "Wald-FM", "Wald-D", *boot_statistics], boot=boot)
        seeds = [1000 + i for i in range(8)]
        decisions = {name: test(fitted, restriction, seeds) for name, test in battery.items()}
        for i, seed in enumerate(seeds):
            sample = CointegrationSample(fitted.y[i], fitted.x[i])
            for name in battery:
                assert decisions[name][i] == float(per_sample(name, sample, seed).reject), (name, i)
        assert 0.0 < np.mean(list(decisions.values())) < 1.0

    def test_bootstrap_rows_read_the_stack_fits(self, monkeypatch):
        """A battery's bootstrap tests fit the stack once: no IM-OLS, static
        OLS or long-run covariance is built again for one of its rows. A
        call is told by its y, since a retry batch of draws can have one row."""
        from sncoint import estimators

        config = DgpConfig(T=75, rho1=0.8, rho2=0.8)
        fitted = _fitted_samples(config, 17, 0, np.arange(8), [config.beta])
        fitted_ys = []
        for name in ("im_ols_batch", "_static_batch", "_lrv_batch"):
            build = getattr(estimators, name)

            def counted(first, *args, build=build, name=name):
                fitted_ys.append((name, first if name == "im_ols_batch" else first.y))
                return build(first, *args)

            monkeypatch.setattr(estimators, name, counted)
        battery = standard_battery(["SN-bootstrap", "Wald-IM-bootstrap"], boot=BootstrapConfig(n_boot=19))
        for test in battery.values():
            test(fitted, null_restriction(config), [1000 + i for i in range(8)])
        builds = {name: 0 for name in ("im_ols_batch", "_static_batch", "_lrv_batch")}
        for name, y in fitted_ys:
            stack_rows = sum(any(np.array_equal(row, own) for own in fitted.y) for row in y)
            assert stack_rows in (0, 8) and (stack_rows == 0 or y.shape[0] == 8), (name, y.shape, stack_rows)
            builds[name] += stack_rows == 8
        assert builds == {"im_ols_batch": 1, "_static_batch": 1, "_lrv_batch": 1}
        assert len(fitted_ys) > 3  # the bootstrap draws were fitted through the same builders

    def test_all_tags_execute(self):
        config = DgpConfig(T=75, rho1=0.3, rho2=0.3)
        sample = generate_dgp(config, substream(17, 0))
        restriction = null_restriction(config)
        battery = standard_battery(
            ["SN-asymptotic", "SN-bootstrap", "Wald-IM", "Wald-FM", "Wald-D", "Wald-IM-bootstrap", "tau1-bootstrap"],
            boot=BootstrapConfig(n_boot=19, alpha=0.05),
        )
        fitted = FittedSample(sample.y[None], sample.x[None])
        for name, test in battery.items():
            (decision,) = test(fitted, restriction, [12345])
            assert decision in (True, False), name

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from sncoint import (
    CriticalValueTable,
    Deterministics,
    default_table,
    load_table,
    local_power,
    save_table,
    simulate_critical_values,
    simulate_limit_statistics,
)
from sncoint.asymptotics import _chunk_size, _components, _walk_chunk, simulate_limit_components
from sncoint.estimators import FittedSample, RestrictionSpec, batch_rows, im_ols_batch
from sncoint.selfnorm import bootstrap_statistic
from sncoint.streams import replication_map, substream


def lattice_fits(m, n_grid, reps, seed):
    """Per draw the coefficients (beta, gamma), sandwich and residuals of
    the Brownian-lattice regression the random-walk route replaced, in
    plain numpy: the lagged W_u on Z_t = [sum_{s<=t-2} W_v,s / n, W_v,t-1],
    W being the normalized partial sums of the route's normals (one
    chunk, so one substream call)."""
    fits = []
    for draw in substream(seed, 0).standard_normal((reps, n_grid, m + 1)):
        W = np.vstack([np.zeros(m + 1), np.cumsum(draw / np.sqrt(n_grid), axis=0)[:-1]])
        Wv = W[:, 1:]
        Z = np.hstack([np.vstack([np.zeros(m), np.cumsum(Wv, axis=0)[:-1]]) / n_grid, Wv])
        theta = np.linalg.lstsq(Z, W[:, 0], rcond=None)[0]
        C = np.cumsum(Z[::-1], axis=0)[::-1]
        A = np.linalg.inv(Z.T @ Z)
        fits.append((theta, A @ C.T @ C @ A, W[:, 0] - Z @ theta))
    return fits


class TestLatticeIdentity:
    # The none panel's walks start one step late; by summation by parts
    # their regression is a linear reparametrization of the lattice's.
    @pytest.mark.parametrize("m, s", [(1, 1), (2, 1), (2, 2)])
    def test_components_match_lattice(self, m, s):
        n = 200
        num, den = simulate_limit_components(m, s, n_grid=n, reps=6, seed=4)
        lattice = lattice_fits(m, n, 6, 4)
        lat_num = [n * th[:s] @ np.linalg.solve(V[:s, :s], th[:s]) for th, V, _ in lattice]
        lat_den = [n * np.sum((r[1:] - r[0]) ** 2) / n**2 for _, _, r in lattice]
        np.testing.assert_allclose(num, lat_num, rtol=1e-9)
        np.testing.assert_allclose(den, lat_den, rtol=1e-9)

    def test_local_power_mapping_matches_lattice(self):
        # local_power tests beta = c / T on the walks, (c / n + beta)^2 / V11;
        # on the lattice that was (c + z1)^2 / v11 with z1 = beta, v11 = V11 / n
        n, c_grid = 200, np.array([0.0, 3.0, 8.0])
        lattice = lattice_fits(1, n, 40, 6)
        lat_trad = np.array([(c_grid + th[0]) ** 2 / (V[0, 0] / n) for th, V, _ in lattice])
        lat_den = np.array([n * np.sum((r[1:] - r[0]) ** 2) / n**2 for _, _, r in lattice])
        ((y, x),) = _walk_chunk(lambda y, x: (y, x), 1, Deterministics.NONE, n, 6, _chunk_size(n, 1), np.arange(40))
        fit = im_ols_batch(y, x, Deterministics.NONE)
        walk_trad = (c_grid / n + fit.params[:, :1]) ** 2 / fit.scaled_cov[:, :1, 0]
        np.testing.assert_allclose(walk_trad, lat_trad, rtol=1e-9)
        curve = local_power(c_grid, reps=40, seed=6, n_grid=n)
        chi2_crit = stats.chi2.ppf(0.95, df=1)
        sn_crit = default_table(1, 1, Deterministics.NONE).critical_value(0.05)
        np.testing.assert_array_equal(curve.power_trad, (lat_trad > chi2_crit).mean(axis=0))
        np.testing.assert_array_equal(curve.power_sn, (lat_trad / lat_den[:, None] > sn_crit).mean(axis=0))


class TestArgumentChecks:
    # one rule for every limit-law entry point: reps >= 1, 1 <= s <= m,
    # and n_grid at least the regression's 2m + p + 3 observations
    @pytest.mark.parametrize(
        "m, s, det, n_grid, reps, message",
        [(1, 2, Deterministics.NONE, 100, 10, "need 1 <= s <= m, got m=1, s=2"),
         (2, 0, Deterministics.NONE, 100, 10, "need 1 <= s <= m, got m=2, s=0"),
         (1, 1, Deterministics.NONE, 100, 0, "reps must be at least 1, got 0"),
         (1, 1, Deterministics.NONE, 4, 10, "need n_grid >= 5 for m=1 and det=none, got 4"),
         (2, 1, Deterministics.TREND, 8, 10, "need n_grid >= 9 for m=2 and det=intercept+trend, got 8")],
        ids=["s-above-m", "s-zero", "no-reps", "short-none", "short-trend"],
    )  # fmt: skip
    def test_simulate_limit_statistics(self, m, s, det, n_grid, reps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_limit_statistics(m, s, det, n_grid=n_grid, reps=reps, seed=0)

    @pytest.mark.parametrize("m, s, n_grid, reps", [(1, 2, 100, 10), (1, 1, 100, 0), (2, 2, 6, 10)])
    def test_simulate_limit_components(self, m, s, n_grid, reps):
        with pytest.raises(ValueError, match="^(need |reps must be at least 1, got 0$)"):
            simulate_limit_components(m, s, n_grid=n_grid, reps=reps, seed=0)

    @pytest.mark.parametrize(
        "n_grid, reps, message",
        [(100, 0, "reps must be at least 1, got 0"), (1, 10, "need n_grid >= 5 for m=1 and det=none, got 1")],
    )
    def test_local_power(self, n_grid, reps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            local_power([0.0], reps=reps, n_grid=n_grid)

    @pytest.mark.parametrize(
        "run",
        [lambda n_grid, reps: simulate_critical_values(1, 1, Deterministics.NONE, n_grid=n_grid, reps=reps),
         lambda n_grid, reps: simulate_limit_statistics(1, 1, Deterministics.NONE, n_grid, reps, seed=0),
         lambda n_grid, reps: simulate_limit_components(1, 1, n_grid, reps, seed=0),
         lambda n_grid, reps: local_power([0.0], reps=reps, n_grid=n_grid)],
        ids=["critical-values", "statistics", "components", "local-power"],
    )  # fmt: skip
    @pytest.mark.parametrize(
        "n_grid, reps, message",
        [(1000.0, 1000, "n_grid must be an integer, got 1000.0"),
         (1000, 1000.5, "reps must be an integer, got 1000.5"),
         (1000, "1000", "reps must be an integer, got '1000'")],
        ids=["float-n-grid", "float-reps", "str-reps"],
    )  # fmt: skip
    def test_integer_sizes(self, run, n_grid, reps, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            run(n_grid, reps)

    @pytest.mark.parametrize(
        "c_grid",
        [[np.nan, 1.0], [np.inf], [0.0, -np.inf], [[0.0, 1.0], [2.0, 3.0]], 3.0],
        ids=["nan", "inf", "minus-inf", "2-d", "scalar"],
    )
    def test_local_power_grid(self, c_grid):
        with pytest.raises(ValueError, match="^c_grid must be a 1-D array of finite values"):
            local_power(c_grid, reps=10, n_grid=100)

    @pytest.mark.parametrize("det", list(Deterministics))
    def test_shortest_grid_is_accepted(self, det):
        m = 2
        draws = simulate_limit_statistics(m, 1, det, n_grid=2 * m + det.n_columns + 3, reps=5, seed=1)
        assert draws.shape == (5,)


class TestLimitComponents:
    def test_numerator_is_chi_square(self):
        # conditional-Gaussian structure: the quadratic form in the limit
        # ratio's numerator follows a chi-square with s degrees of freedom
        for m, s in ((1, 1), (2, 2)):
            num, _ = simulate_limit_components(m, s, n_grid=4000, reps=3000, seed=5)
            assert stats.kstest(num, stats.chi2(df=s).cdf).pvalue > 0.01

    def test_denominator_positive(self):
        _, den = simulate_limit_components(1, 1, n_grid=2000, reps=500, seed=6)
        assert den.min() > 0.0

    def test_invalid_restriction_count(self):
        with pytest.raises(ValueError):
            simulate_limit_components(1, 2, n_grid=2000, reps=500, seed=0)


class TestSimulateCriticalValues:
    def test_direct_and_random_walk_routes_agree(self):
        # the no-deterministics panel, on walks shifted one step, agrees in
        # distribution with the statistic on unshifted random walks; both
        # discretize the same limit
        direct = simulate_limit_statistics(1, 1, Deterministics.NONE, n_grid=3000, reps=4000, seed=7)
        restriction = RestrictionSpec(R=np.eye(1), value=np.zeros(1))
        walk = []
        for index in range(40):
            w = substream(8, index).standard_normal((100, 3000, 2))
            fitted = FittedSample(w[:, :, 0], np.cumsum(w[:, :, 1:], axis=1), Deterministics.NONE)
            walk.append(bootstrap_statistic(fitted, restriction))
        walk = np.concatenate(walk)
        q_direct = np.quantile(direct, [0.5, 0.9, 0.95])
        q_walk = np.quantile(walk, [0.5, 0.9, 0.95])
        np.testing.assert_allclose(q_direct, q_walk, rtol=0.12)

    def test_random_walk_route_golden_values(self):
        # values of the per-chunk normal-equation implementation this route
        # replaced: the table's random-number layout is unchanged
        from sncoint.asymptotics import _random_walk_statistics

        golden = [
            20.894003529425376, 6.913859443083195, 93.73311598525746, 88.38643273311878,
            110.3198373819982, 37.15713962251503, 29.079144447440108, 2.651399815194696,
        ]  # fmt: skip
        walk = _random_walk_statistics(2, 1, Deterministics.INTERCEPT, T=2000, reps=8, seed=3)
        np.testing.assert_allclose(walk, golden, rtol=1e-8)

    def test_lattice_route_golden_values(self):
        # values of the normal-equation implementation this route replaced,
        # which solved the lattice functionals outside the IM-OLS kernel;
        # the two agreed to 4e-12 relative here
        golden = [
            1.1145241353694129, 11.543328824210576, 0.04018716203613951, 94.13883354509832,
            99.9942956707896, 40.689965821973786, 17.79890343608165, 39.613454409433906,
        ]  # fmt: skip
        lattice = simulate_limit_statistics(2, 1, Deterministics.NONE, n_grid=2000, reps=8, seed=3)
        np.testing.assert_allclose(lattice, golden, rtol=1e-8)

    def test_quantiles_monotone_in_restrictions_and_regressors(self):
        q = {}
        for m, s in ((1, 1), (2, 1), (2, 2)):
            table = simulate_critical_values(m, s, Deterministics.NONE, n_grid=1000, reps=1500, seed=9)
            q[(m, s)] = table.quantiles[0.95]
        assert q[(1, 1)] < q[(2, 1)] < q[(2, 2)]

    def test_quantiles_increase_with_deterministics(self):
        base = simulate_critical_values(1, 1, Deterministics.NONE, n_grid=1000, reps=1500, seed=10)
        const = simulate_critical_values(1, 1, Deterministics.INTERCEPT, n_grid=1000, reps=1500, seed=10)
        trend = simulate_critical_values(1, 1, Deterministics.TREND, n_grid=1000, reps=1500, seed=10)
        assert base.quantiles[0.95] < const.quantiles[0.95] < trend.quantiles[0.95]

    def test_precision_improves_with_replications(self):
        # spread of the simulated 95% quantile shrinks like one over the
        # square root of the replication count
        spreads = {}
        for reps in (500, 2000):
            draws = [
                np.quantile(
                    simulate_limit_statistics(1, 1, Deterministics.NONE, n_grid=1000, reps=reps, seed=100 + i),
                    0.95,
                )
                for i in range(12)
            ]
            spreads[reps] = np.std(draws)
        ratio = spreads[500] / spreads[2000]
        assert 1.2 < ratio < 3.5  # theoretical value 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            simulate_critical_values(1, 1, Deterministics.NONE, n_grid=500, reps=2000)
        with pytest.raises(ValueError):
            simulate_critical_values(2, 3, Deterministics.NONE)

    def test_deterministic_for_fixed_seed(self):
        a = simulate_critical_values(1, 1, Deterministics.NONE, n_grid=1000, reps=1000, seed=3)
        b = simulate_critical_values(1, 1, Deterministics.NONE, n_grid=1000, reps=1000, seed=3)
        assert a.quantiles == b.quantiles


class TestTables:
    def test_packaged_values(self):
        table = default_table(1, 1, Deterministics.NONE)
        assert table.critical_value(0.05) == 56.58
        assert table.critical_value(0.10) == 36.63
        table_b = default_table(1, 1, Deterministics.INTERCEPT)
        assert table_b.critical_value(0.10) == 64.13
        table_a22 = default_table(2, 2, Deterministics.NONE)
        assert table_a22.critical_value(0.05) == 167.23

    def test_missing_combination(self):
        with pytest.raises(KeyError):
            default_table(5, 1, Deterministics.NONE)

    def test_missing_alpha(self):
        with pytest.raises(KeyError):
            default_table(1, 1, Deterministics.NONE).critical_value(0.2)

    def test_quantiles_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CriticalValueTable(m=1, s=1, det=Deterministics.NONE, quantiles={0.9: 2.0, 0.95: 1.0})

    def test_round_trip(self, tmp_path):
        table = simulate_critical_values(2, 1, Deterministics.INTERCEPT, n_grid=1000, reps=1000, seed=4)
        path = tmp_path / "table.txt"
        save_table(table, str(path))
        loaded = load_table(str(path))
        assert loaded.m == table.m and loaded.s == table.s and loaded.det == table.det
        assert loaded.quantiles == table.quantiles
        assert loaded.meta["seed"] == 4

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a table\n")
        with pytest.raises(ValueError, match="not a sncoint"):
            load_table(str(path))


class TestLocalPower:
    def test_null_point_and_symmetry(self):
        grid = np.array([-6.0, -3.0, 0.0, 3.0, 6.0])
        curve = local_power(grid, reps=4000, seed=2, n_grid=3000)
        mid = curve.power_sn[2]
        assert mid == pytest.approx(0.05, abs=0.015)
        assert curve.power_trad[2] == pytest.approx(0.05, abs=0.015)
        # distributional symmetry of the shifted coefficient draw
        np.testing.assert_allclose(curve.power_sn[:2], curve.power_sn[:2:-1], atol=0.03)
        np.testing.assert_allclose(curve.power_trad[:2], curve.power_trad[:2:-1], atol=0.03)

    def test_power_increases_away_from_null(self):
        grid = np.array([0.0, 4.0, 8.0])
        curve = local_power(grid, reps=3000, seed=3, n_grid=2000)
        assert curve.power_sn[0] < curve.power_sn[1] < curve.power_sn[2]
        assert curve.power_trad[0] < curve.power_trad[1] < curve.power_trad[2]

    def test_self_normalized_never_clearly_above_traditional(self):
        grid = np.array([4.0, 8.0, 12.0])
        curve = local_power(grid, reps=3000, seed=4, n_grid=2000)
        assert np.all(curve.power_sn <= curve.power_trad + 0.02)

    def test_golden_values(self):
        # rejection counts of the normal-equation implementation this route
        # replaced, on the same draws
        curve = local_power([0.0, 4.0, 8.0], reps=1000, seed=5, n_grid=1000)
        assert curve.power_sn.tolist() == [0.059, 0.413, 0.66]
        assert curve.power_trad.tolist() == [0.042, 0.446, 0.722]

    def test_meta_records_design(self):
        curve = local_power([0.0], reps=1000, seed=5, n_grid=1000)
        assert curve.meta["reps"] == 1000
        assert curve.meta["n_grid"] == 1000
        assert curve.meta["alpha"] == 0.05


class TestOneDriver:
    """Each limit-law routine runs all its chunks, several here, through
    one streams.replication_map call keyed by the (n_grid, m) chunk size."""

    @pytest.mark.parametrize(
        "run, m, n_grid, reps",
        [(lambda: simulate_critical_values(2, 1, Deterministics.INTERCEPT, 1000, 1300, 1), 2, 1000, 1300),
         (lambda: simulate_limit_components(2, 1, 1000, 1300, 1), 2, 1000, 1300),
         (lambda: local_power([0.0, 5.0], reps=3000, seed=1, n_grid=1000), 1, 1000, 3000)],
        ids=["critical-values", "components", "local-power"],
    )  # fmt: skip
    def test_one_map_call(self, count_calls, run, m, n_grid, reps):
        map_calls = count_calls(replication_map)
        run()
        assert [args[1:] for args in map_calls] == [(reps, _chunk_size(n_grid, m))]
        assert reps > _chunk_size(n_grid, m)


@pytest.mark.parametrize("m, s, det", [(1, 1, Deterministics.NONE), (2, 1, Deterministics.INTERCEPT),
                                       (3, 2, Deterministics.TREND)])  # fmt: skip
def test_components_rows_do_not_depend_on_block_mates(m, s, det):
    """Each walk's tau(1) and self-normalizer from the limit-law reducer are
    the same, bit for bit, in blocks of 1, 3 and 5 walks and in a permuted block."""
    w = np.random.default_rng(m).standard_normal((12, 500, m + 1))
    y, x = w[:, :, 0], np.cumsum(w[:, :, 1:], axis=1)
    reduce = partial(_components, RestrictionSpec(R=np.eye(s, m), value=np.zeros(s)), det)
    full = reduce(y, x)
    perm = np.random.default_rng(m).permutation(12)
    blocks = [np.arange(start, min(start + size, 12)) for size in (1, 3, 5) for start in range(0, 12, size)] + [perm]
    for rows in blocks:
        for j, (mine, theirs) in enumerate(zip(reduce(y[rows], x[rows]), full)):
            assert np.array_equal(mine, theirs[rows]), (j, rows)


class TestWalkBlocks:
    """``_walk_chunk`` draws its chunk one ``batch_rows`` block at a time."""

    @pytest.mark.parametrize("m, det", [(1, Deterministics.NONE), (2, Deterministics.INTERCEPT)])
    def test_blocks_are_rows_of_one_chunk_draw(self, m, det):
        # chunk 2 of size 50, short (37 walks), so blocks of 32 or 13 rows end in a short one
        T, seed, size, indices = 2000, 21, 50, np.arange(100, 137)
        w = substream(seed, 2).standard_normal((len(indices), T, m + 1))
        if det is Deterministics.NONE:
            w = np.concatenate([np.zeros_like(w[:, :1]), w[:, :-1]], axis=1)
        rows = batch_rows(T, det.n_columns + 2 * m)
        assert len(indices) % rows
        blocks = _walk_chunk(lambda y, x: (y, x), m, det, T, seed, size, indices)
        assert len(blocks) == -(-len(indices) // rows)
        for k, (y, x) in enumerate(blocks):
            ref = w[k * rows : (k + 1) * rows]
            np.testing.assert_array_equal(y, ref[:, :, 0])
            np.testing.assert_array_equal(x, np.cumsum(ref[:, :, 1:], axis=1))
        # each block is its own array, so a reducer may keep views of it
        assert not any(np.shares_memory(a[0], b[0]) for a, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("m, s, det", [(1, 1, Deterministics.NONE), (2, 1, Deterministics.INTERCEPT)])
    def test_peak_memory_is_a_block_not_a_chunk(self, m, s, det):
        T = 10_000
        size = _chunk_size(T, m)
        reduce = partial(_components, RestrictionSpec(R=np.eye(s, m), value=np.zeros(s)), det)
        tracemalloc.start()
        try:
            _walk_chunk(reduce, m, det, T, 0, size, np.arange(size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * T * (m + 1) * 8 / 4

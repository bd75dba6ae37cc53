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
from sncoint.asymptotics import simulate_limit_components


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
        # the no-deterministics panel can also be produced by the
        # finite-sample route; both discretize the same limit
        from sncoint.asymptotics import _random_walk_statistics

        direct = simulate_limit_statistics(1, 1, Deterministics.NONE, n_grid=3000, reps=4000, seed=7)
        walk = _random_walk_statistics(1, 1, Deterministics.NONE, T=3000, reps=4000, seed=8)
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

    def test_meta_records_design(self):
        curve = local_power([0.0], reps=1000, seed=5, n_grid=1000)
        assert curve.meta["reps"] == 1000
        assert curve.meta["n_grid"] == 1000

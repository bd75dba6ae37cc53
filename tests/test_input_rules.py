"""Each input rule has one definition, which every entry point uses: the
test level, integer settings, the deterministic and kernel names, the
default kernel and the time-matrix coercion. Also the argument checks
that no other test reaches."""

import argparse
import json
import warnings

import numpy as np
import pytest

from sncoint import (
    BARTLETT,
    BootstrapConfig,
    CointegrationSample,
    DgpConfig,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    andrews_bandwidth,
    ar1_persistence,
    bootstrap_statistic,
    build_deterministics,
    conditional_lrv,
    estimate_lrv,
    kernel_weight,
    local_power,
    lrv_matrix,
    one_sided_lrv,
    run_analysis,
    simulate_critical_values,
    simulate_limit_statistics,
    size_adjusted_power,
    size_experiment,
    standard_battery,
    standard_statistics,
    study_from_config,
    traditional_wald,
    yule_walker,
)
from sncoint import asymptotics, battery, cli, montecarlo
from sncoint.asymptotics import simulate_limit_components
from sncoint.cli import main
from sncoint.estimators import _static_batch
from sncoint.kernels import _KINDS
from sncoint.streams import substream, substreams
from sncoint.timeseries import _ALIASES


def make_sample(T=80, seed=3):
    rng = substream(seed, 0)
    x = np.cumsum(rng.standard_normal((T, 1)), axis=0)
    return CointegrationSample(y=0.5 + x[:, 0] + rng.standard_normal(T), x=x, det=Deterministics.INTERCEPT)


SAMPLE = make_sample()
ONE = RestrictionSpec(R=np.eye(1), value=np.ones(1))
DGP = DgpConfig(T=50)
W = substream(5, 0).standard_normal(50)


KIND = "kernel must be one of bartlett, qs, got 'parzen'"


def write_data(tmp_path, T=120):
    rng = substream(0, 0)
    x = np.cumsum(rng.standard_normal(T))
    y = 1.0 + x + rng.standard_normal(T)
    path = tmp_path / "data.csv"
    path.write_text("rate,price\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(y, x)), encoding="utf-8")
    return str(path)


class TestAlpha:
    ENTRY_POINTS = {
        "traditional_wald": lambda alpha: traditional_wald("FM", SAMPLE, ONE, KernelSpec(), alpha),
        "standard_battery": lambda alpha: standard_battery(["SN-asymptotic"], alpha=alpha),
        "size_adjusted_power": lambda alpha: size_adjusted_power(DGP, {}, [1.0], reps=4, alpha=alpha),
        "BootstrapConfig": lambda alpha: BootstrapConfig(alpha=alpha),
        "run_analysis": lambda alpha: run_analysis(SAMPLE, ONE, alpha=alpha),
    }

    @pytest.mark.parametrize("alpha", [0, 1, 1.5])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_has_one_message(self, entry, alpha):
        with pytest.raises(ValueError, match=rf"^alpha must be in \(0, 1\), got {alpha!r}$"):
            self.ENTRY_POINTS[entry](alpha)

    @pytest.mark.parametrize("alpha", [0, 1, 1.5])
    def test_simulate_config(self, tmp_path, capsys, alpha):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"kind": "size", "T": 75, "alpha": alpha}))
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "rates.csv")]) == 1
        assert capsys.readouterr().err == f"error: bad config: alpha must be in (0, 1), got {alpha!r}\n"

    @pytest.mark.parametrize(
        "alpha, error, message",
        [(1.5, ValueError, r"^alpha must be in \(0, 1\), got 1.5$"),
         (0.2, KeyError, "no tabulated quantile at probability 0.8")],
    )  # fmt: skip
    def test_run_analysis_checks_before_fitting(self, count_calls, alpha, error, message):
        fits = count_calls(_static_batch)
        with pytest.raises(error, match=message):
            run_analysis(make_sample(), ONE, alpha=alpha)
        assert fits == []

    def test_run_analysis_checks_the_level_before_simulating_a_table(self, monkeypatch):
        simulated = []
        monkeypatch.setattr(battery, "simulate_critical_values", lambda *args, **kwargs: simulated.append(args))
        rng = substream(3, 1)
        x = np.cumsum(rng.standard_normal((80, 5)), axis=0)
        sample = CointegrationSample(y=x.sum(axis=1) + rng.standard_normal(80), x=x)  # no packaged table for m = 5
        with pytest.raises(KeyError, match="^'no tabulated quantile at probability 0.93'$"):
            run_analysis(sample, RestrictionSpec(R=np.eye(5)[:1], value=np.ones(1)), alpha=0.07)
        assert simulated == []

    def test_run_analysis_checks_the_table_before_fitting(self, count_calls):
        fits = count_calls(_static_batch)
        table = simulate_critical_values(1, 1, Deterministics.NONE, n_grid=1000, reps=1000, seed=1)
        with pytest.raises(KeyError, match="table is for m=1, s=1, det=none; sample needs m=1, s=1, det=intercept"):
            run_analysis(make_sample(), ONE, table=table)
        assert fits == []

    @pytest.mark.parametrize("R", [np.eye(3), np.ones((1, 3))], ids=["eye-3", "ones-1x3"])
    def test_run_analysis_checks_the_restriction_width_first(self, monkeypatch, count_calls, R):
        def no_table(*args, **kwargs):
            raise AssertionError("table simulated")

        monkeypatch.setattr(battery, "simulate_critical_values", no_table)
        fits = count_calls(_static_batch)
        rng = substream(3, 2)
        x = np.cumsum(rng.standard_normal((80, 2)), axis=0)
        sample = CointegrationSample(y=x.sum(axis=1) + rng.standard_normal(80), x=x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "simulating a table" warning either
            with pytest.raises(ValueError, match="^restriction is on 3 coefficients but the model has 2$"):
                run_analysis(sample, RestrictionSpec(R=R, value=np.ones(R.shape[0])))
        assert fits == []


def option(command, flag):
    parser = cli._build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return next(action for action in commands.choices[command]._actions if flag in action.option_strings)


class TestNames:
    @pytest.mark.parametrize("command", ["test", "boottest", "critvals"])
    def test_det_choices_are_the_library_aliases(self, command):
        assert tuple(option(command, "--det").choices) == tuple(_ALIASES)

    @pytest.mark.parametrize("command", ["test", "boottest", "lrv"])
    def test_kernel_choices_and_defaults_are_the_library_ones(self, command):
        assert tuple(option(command, "--kernel").choices) == _KINDS
        assert (option(command, "--kernel").default, option(command, "--bandwidth").default) == \
            (KernelSpec().kind, KernelSpec().bandwidth)  # fmt: skip
        assert KernelSpec() == KernelSpec(BARTLETT, "andrews")

    @pytest.mark.parametrize("command", ["test", "boottest"])
    def test_det_intercept_is_const(self, tmp_path, capsys, command):
        argv = [command, "--data", write_data(tmp_path), "--y", "rate", "--x", "price", "--out", "json"]
        argv += ["--B", "19", "--seed", "4"] if command == "boottest" else []
        outputs = []
        for alias in ("intercept", "const"):
            assert main(argv + ["--det", alias]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0]["provenance"]["det"] == "intercept"

    def test_critvals_det_intercept(self, tmp_path, capsys):
        argv = ["critvals", "--m", "1", "--s", "1", "--n-grid", "1000", "--reps", "1000", "--seed", "1"]
        texts = []
        for alias in ("intercept", "const"):
            assert main(argv + ["--det", alias, "--output", str(tmp_path / alias)]) == 0
            texts.append((tmp_path / alias).read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1] == "m=1 s=1 det=intercept n_grid=1000 reps=1000 seed=1"


def test_yule_walker_coerces_as_the_kernels_do():
    with pytest.raises(ValueError, match="^input must be a vector or a T x k matrix$"):
        yule_walker(np.ones((40, 2, 2)), 1)
    assert yule_walker(W, 1).coefs.shape == (1, 1, 1)
    np.testing.assert_array_equal(yule_walker(W, 1).coefs, yule_walker(W[:, None], 1).coefs)


POWER = standard_statistics(["SN"])
BELOW = ValueError  # an integer below its minimum


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(lambda: BootstrapConfig(n_boot=19.0), TypeError, "n_boot must be an integer, got 19.0",
                  id="boot-n_boot"),
     pytest.param(lambda: BootstrapConfig(seed=1.5), TypeError, "seed must be an integer, got 1.5", id="boot-seed"),
     pytest.param(lambda: BootstrapConfig(seed=True), TypeError, "seed must be an integer, got True",
                  id="boot-seed-bool"),
     pytest.param(lambda: BootstrapConfig(burn_in=10.5), TypeError, "burn_in must be an integer, got 10.5",
                  id="boot-burn_in"),
     pytest.param(lambda: BootstrapConfig(workers=1.0), TypeError, "workers must be an integer, got 1.0",
                  id="boot-workers"),
     pytest.param(lambda: BootstrapConfig(order_rule=2.0), TypeError, "order must be an integer, got 2.0",
                  id="boot-order"),
     pytest.param(lambda: DgpConfig(T=60.0), TypeError, "T must be an integer, got 60.0", id="dgp-T"),
     pytest.param(lambda: DgpConfig(T=True), TypeError, "T must be an integer, got True", id="dgp-T-bool"),
     pytest.param(lambda: DgpConfig(T=60, burn_in=10.5), TypeError, "burn_in must be an integer, got 10.5",
                  id="dgp-burn_in"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8.0), TypeError,
                  "reps must be an integer, got 8.0", id="size-reps"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8, seed=1.5), TypeError,
                  "seed must be an integer, got 1.5", id="size-seed"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8, seed=True), TypeError,
                  "seed must be an integer, got True", id="size-seed-bool"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8, workers=1.0), TypeError,
                  "workers must be an integer, got 1.0", id="size-workers"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=8.0), TypeError,
                  "reps must be an integer, got 8.0", id="power-reps"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=8, seed=1.5), TypeError,
                  "seed must be an integer, got 1.5", id="power-seed"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=8, workers=1.0), TypeError,
                  "workers must be an integer, got 1.0", id="power-workers"),
     pytest.param(lambda: simulate_critical_values(1, 1, Deterministics.NONE, 1000, 1000, seed=1.5), TypeError,
                  "seed must be an integer, got 1.5", id="critical-values-seed"),
     pytest.param(lambda: simulate_limit_statistics(1, 1, Deterministics.NONE, 50, 10, seed=1.5), TypeError,
                  "seed must be an integer, got 1.5", id="limit-statistics-seed"),
     pytest.param(lambda: simulate_limit_components(1, 1, 50, 10, seed=1.5), TypeError,
                  "seed must be an integer, got 1.5", id="limit-components-seed"),
     pytest.param(lambda: simulate_limit_statistics(1.0, 1, Deterministics.NONE, 50, 10, seed=0), TypeError,
                  "m must be an integer, got 1.0", id="limit-statistics-m"),
     pytest.param(lambda: simulate_critical_values(1, True, Deterministics.NONE, 1000, 1000), TypeError,
                  "s must be an integer, got True", id="critical-values-s"),
     pytest.param(lambda: local_power([0.0], reps=10, seed=1.5, n_grid=50), TypeError,
                  "seed must be an integer, got 1.5", id="local-power-seed"),
     pytest.param(lambda: substream(2.0, 0), TypeError, "seed must be an integer, got 2.0", id="substream-seed"),
     pytest.param(lambda: BootstrapConfig(n_boot=0), BELOW, "n_boot must be at least 1, got 0", id="boot-no-draws"),
     pytest.param(lambda: BootstrapConfig(seed=-1), BELOW, "seed must be at least 0, got -1",
                  id="boot-negative-seed"),
     pytest.param(lambda: BootstrapConfig(workers=0), BELOW, "workers must be at least 1, got 0",
                  id="boot-no-workers"),
     pytest.param(lambda: BootstrapConfig(order_rule=np.int64(0)), BELOW, "order must be at least 1, got 0",
                  id="boot-order-0"),
     pytest.param(lambda: yule_walker(W, -2), BELOW, "order must be at least 1, got -2", id="yule-walker-order"),
     pytest.param(lambda: DgpConfig(T=9), BELOW, "T must be at least 10, got 9", id="dgp-short-T"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=0), BELOW,
                  "reps must be at least 1, got 0", id="size-no-reps"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8, seed=-1), BELOW,
                  "seed must be at least 0, got -1", id="size-negative-seed"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=400, seed=-1, workers=2), BELOW,
                  "seed must be at least 0, got -1", id="size-negative-seed-two-workers"),
     pytest.param(lambda: size_experiment(DGP, standard_battery(["Wald-IM"]), reps=8, workers=0), BELOW,
                  "workers must be at least 1, got 0", id="size-no-workers"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=0), BELOW,
                  "reps must be at least 1, got 0", id="power-no-reps"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=8, seed=-3, workers=2), BELOW,
                  "seed must be at least 0, got -3", id="power-negative-seed"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0], reps=8, workers=-1), BELOW,
                  "workers must be at least 1, got -1", id="power-no-workers"),
     pytest.param(lambda: simulate_critical_values(1, 1, Deterministics.NONE, 1000, 1000, seed=-1), BELOW,
                  "seed must be at least 0, got -1", id="critical-values-negative-seed"),
     pytest.param(lambda: simulate_critical_values(1, 1, Deterministics.NONE, 999, 1000), BELOW,
                  "n_grid must be at least 1000, got 999", id="critical-values-short-grid"),
     pytest.param(lambda: simulate_critical_values(1, 1, Deterministics.NONE, 1000, 999), BELOW,
                  "reps must be at least 1000, got 999", id="critical-values-few-reps"),
     pytest.param(lambda: simulate_limit_statistics(1, 1, Deterministics.NONE, 50, 0, seed=0), BELOW,
                  "reps must be at least 1, got 0", id="limit-statistics-no-reps"),
     pytest.param(lambda: simulate_limit_statistics(1, 1, Deterministics.NONE, 50, 10, seed=-1), BELOW,
                  "seed must be at least 0, got -1", id="limit-statistics-negative-seed"),
     pytest.param(lambda: simulate_limit_components(1, 1, 0, 10, seed=0), BELOW,
                  "n_grid must be at least 1, got 0", id="limit-components-no-grid"),
     pytest.param(lambda: simulate_limit_components(1, 1, 50, 10, seed=-1), BELOW,
                  "seed must be at least 0, got -1", id="limit-components-negative-seed"),
     pytest.param(lambda: local_power([0.0], reps=0, n_grid=50), BELOW,
                  "reps must be at least 1, got 0", id="local-power-no-reps"),
     pytest.param(lambda: local_power([0.0], reps=10, seed=-1, n_grid=50), BELOW,
                  "seed must be at least 0, got -1", id="local-power-negative-seed"),
     pytest.param(lambda: substream(-1, 0), BELOW, "seed must be at least 0, got -1", id="substream-negative-seed")],
)  # fmt: skip
def test_integer_settings_name_themselves(monkeypatch, call, error, message):
    def no_work(*args, **kwargs):
        raise AssertionError("replication_map reached")

    # refused before any replication runs or any pool starts
    monkeypatch.setattr(montecarlo, "replication_map", no_work)
    monkeypatch.setattr(asymptotics, "replication_map", no_work)
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_numpy_integers_are_integers():
    config = BootstrapConfig(n_boot=np.int64(19), seed=np.uint32(3), burn_in=np.int32(10), workers=np.int64(1))
    assert config.n_boot == 19 and DgpConfig(T=np.int64(60)).T == 60


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(lambda: RestrictionSpec(R=np.eye(2), value=np.ones(1)), ValueError,
                  "restriction matrix and value dimensions differ", id="restriction-shapes"),
     pytest.param(lambda: RestrictionSpec(R=[[np.nan]], value=[1.0]), ValueError,
                  "restriction holds a non-finite value", id="restriction-nan"),
     pytest.param(lambda: RestrictionSpec(R=np.ones((3, 2)), value=np.ones(3)), ValueError,
                  "more restrictions than coefficients", id="restriction-rows"),
     pytest.param(lambda: KernelSpec("parzen"), ValueError, KIND, id="kernel-kind"),
     pytest.param(lambda: KernelSpec(BARTLETT, "newey-west"), ValueError,
                  "bandwidth must be 'andrews' or a positive number, got 'newey-west'", id="kernel-rule"),
     pytest.param(lambda: KernelSpec(BARTLETT, 0.0), ValueError,
                  "bandwidth must be 'andrews' or a positive number, got 0.0", id="kernel-zero-bandwidth"),
     pytest.param(lambda: KernelSpec(BARTLETT, None), ValueError,
                  "bandwidth must be 'andrews' or a positive number, got None", id="kernel-no-bandwidth"),
     pytest.param(lambda: KernelSpec(BARTLETT, True), ValueError,
                  "bandwidth must be 'andrews' or a positive number, got True", id="kernel-bool-bandwidth"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [1.0, np.nan], reps=8), ValueError,
                  r"beta_grid must be a 1-D array of finite values, got \[1.0, nan\]", id="power-nan-grid"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [[1.0, 1.1]], reps=8), ValueError,
                  r"beta_grid must be a 1-D array of finite values, got \[\[1.0, 1.1\]\]", id="power-2d-grid"),
     pytest.param(lambda: size_adjusted_power(DGP, POWER, [], reps=8), ValueError,
                  "beta_grid must hold at least one value", id="power-empty-grid"),
     pytest.param(lambda: local_power([], reps=10, n_grid=50), ValueError, "c_grid must hold at least one value",
                  id="local-power-empty-grid"),
     pytest.param(lambda: study_from_config({"kind": "size", "T": 50, "rho_1": 0.9}), ValueError,
                  "bad config: a size study has no key 'rho_1'", id="study-unknown-key"),
     pytest.param(lambda: kernel_weight("parzen", 0.5), ValueError, KIND, id="weight-kind"),
     pytest.param(lambda: andrews_bandwidth(np.arange(50.0), "parzen"), ValueError, KIND, id="bandwidth-kind"),
     pytest.param(lambda: andrews_bandwidth(np.arange(3.0), BARTLETT), ValueError,
                  "need at least 4 observations for the plug-in rule", id="bandwidth-short"),
     pytest.param(lambda: andrews_bandwidth(np.column_stack([W, np.zeros(50)]), BARTLETT),
                  ValueError, "a column is degenerate: its lagged values are all zero", id="bandwidth-zero-column"),
     pytest.param(lambda: lrv_matrix(np.column_stack([W, np.zeros(50)]), KernelSpec()), ValueError,
                  "a column is degenerate: its lagged values are all zero", id="lrv-zero-column"),
     pytest.param(lambda: one_sided_lrv(np.column_stack([W, np.zeros(50)]), KernelSpec()), ValueError,
                  "a column is degenerate: its lagged values are all zero", id="one-sided-lrv-zero-column"),
     pytest.param(lambda: estimate_lrv(np.column_stack([W, np.zeros(50)]), KernelSpec()), ValueError,
                  "a column is degenerate: its lagged values are all zero", id="estimate-lrv-zero-column"),
     pytest.param(lambda: lrv_matrix(np.ones((1, 2)), KernelSpec(BARTLETT, 2.0)), ValueError,
                  "need at least 2 observations", id="lrv-one-row"),
     pytest.param(lambda: conditional_lrv(np.ones((2, 3))), ValueError, "omega must be square",
                  id="conditional-not-square"),
     pytest.param(lambda: bootstrap_statistic(SAMPLE, ONE, "wald-lrv"), ValueError,
                  "'wald-lrv' needs a kernel specification", id="wald-lrv-no-kernel"),
     pytest.param(lambda: BootstrapConfig(burn_in=-1), ValueError, "burn_in must be at least 0, got -1",
                  id="boot-negative-burn_in"),
     pytest.param(lambda: yule_walker(np.column_stack([W, np.zeros(50)]), 1),
                  np.linalg.LinAlgError, "moment equations singular: collinear inputs", id="yule-walker-zero-column"),
     pytest.param(lambda: build_deterministics(Deterministics.INTERCEPT, 0), ValueError,
                  "T must be at least 1, got 0", id="deterministics-empty"),
     pytest.param(lambda: CointegrationSample(y=np.ones((20, 2)), x=np.ones((20, 1))), ValueError,
                  "y must be a vector and x a T x m matrix", id="sample-2d-y"),
     pytest.param(lambda: DgpConfig(T=50, burn_in=0), ValueError, "burn_in must be at least 1, got 0",
                  id="dgp-burn_in"),
     pytest.param(lambda: ar1_persistence([1.0, 2.0]), ValueError, "need at least 3 observations",
                  id="ar1-two-values"),
     pytest.param(lambda: substreams(0, [1, 2]), ValueError, r"need keys \(c, n_key\), got shape \(2,\)",
                  id="substreams-1d-keys")],
)  # fmt: skip
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(["boottest", "--y", "rate", "--x", "price", "--order", "x"],
                  "order must be 'aic', 'bic' or an integer, got 'x'", id="order"),
     pytest.param(["test", "--y", "rate", "--x", "price", "--R1", "1"], "--r0 is required when --R1 is given",
                  id="R1-without-r0"),
     pytest.param(["test", "--y", "rate", "--x", "price", "--data", "HEADER_ONLY"], "HEADER_ONLY: no data rows",
                  id="no-rows"),
     pytest.param(["lrv", "--columns", ","], "--columns must name at least one column", id="no-columns")],
)  # fmt: skip
def test_command_line_checks(tmp_path, capsys, argv, message):
    header_only = tmp_path / "header.csv"
    header_only.write_text("rate,price\n", encoding="utf-8")
    argv = [str(header_only) if arg == "HEADER_ONLY" else arg for arg in argv]
    if "--data" not in argv:
        argv += ["--data", write_data(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.replace('HEADER_ONLY', str(header_only))}\n"


def test_simulate_refuses_an_unknown_kind(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"kind": "sizes", "T": 75}))
    assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "rates.csv")]) == 1
    assert capsys.readouterr().err == "error: unknown experiment kind 'sizes'\n"
    assert list(tmp_path.iterdir()) == [config]

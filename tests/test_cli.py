import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sncoint
from sncoint import (
    BARTLETT,
    QUADRATIC_SPECTRAL,
    AnalysisReport,
    BootstrapConfig,
    CointegrationSample,
    CriticalValueTable,
    DgpConfig,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    ar1_persistence,
    generate_dgp,
    ingest_csv,
    run_analysis,
    save_table,
)
from sncoint import cli
from sncoint.cli import UsageError, main, parse_matrix
from sncoint.estimators import _fm_ols_batch, _qr_solve, im_ols_batch
from sncoint.kernels import autocovariances
from sncoint.streams import substream
from sncoint.tables import _PROBS


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def synthetic_csv(tmp_path, T=120, seed=0):
    rng = substream(seed, 0)
    v = rng.standard_normal((T, 1))
    x = np.cumsum(v)
    u = rng.standard_normal(T) + 0.5 * v[:, 0]
    y = 1.0 + x + u
    lines = ["rate,price"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(y, x)]
    return write_csv(tmp_path / "data.csv", "\n".join(lines) + "\n")


class TestIngestCsv:
    def test_three_row_file(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", "y,x\n1,1\n2,2\n3,3\n4,4\n5,5\n6,6\n")
        sample = ingest_csv(path, "y", ["x"])
        assert sample.nobs == 6
        assert sample.n_regressors == 1
        np.testing.assert_array_equal(sample.y, [1, 2, 3, 4, 5, 6])

    def test_too_short_file_reports_requirement(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", "y,x\n1,1\n2,2\n3,3\n")
        with pytest.raises(UsageError, match="observations"):
            ingest_csv(path, "y", ["x"])

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", "y,x\n1,2\n")
        with pytest.raises(UsageError, match="'z' not found"):
            ingest_csv(path, "y", ["z"])

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", "y,x\n1,1\n2,\n3,3\n")
        with pytest.raises(UsageError, match=r"row 3, column 'x'"):
            ingest_csv(path, "y", ["x"])

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "n.csv", "y,x\n1,1\nbad,2\n")
        with pytest.raises(UsageError, match=r"row 3, column 'y'.*'bad'"):
            ingest_csv(path, "y", ["x"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        rows = "".join(f"{t},{t}\n" for t in range(1, 12))
        path = write_csv(tmp_path / "f.csv", f"y,x\n1,1\n2,{cell}\n" + rows)
        with pytest.raises(UsageError, match=rf"row 3, column 'x': non-finite value '{cell}'"):
            ingest_csv(path, "y", ["x"])

    def test_column_order_follows_mapping(self, tmp_path):
        path = write_csv(
            tmp_path / "o.csv", "a,b,c\n1,10,100\n2,20,200\n3,30,300\n4,40,400\n5,50,500\n6,60,600\n7,70,700\n8,80,800\n"
        )
        sample = ingest_csv(path, "c", ["a", "b"])
        np.testing.assert_array_equal(sample.y, np.arange(100.0, 900.0, 100.0))
        np.testing.assert_array_equal(sample.x[:, 1], np.arange(10.0, 90.0, 10.0))


class TestAr1Persistence:
    def test_iid_near_zero(self):
        resid = substream(1, 0).standard_normal(10_000)
        assert abs(ar1_persistence(resid)) < 0.03

    def test_random_walk_near_one(self):
        walk = np.cumsum(substream(2, 0).standard_normal(10_000))
        assert 0.99 < ar1_persistence(walk) < 1.001

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            ar1_persistence(np.full(10, 3.0))


class TestParseMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(parse_matrix("1,0;0,1"), np.eye(2))

    def test_vector(self):
        np.testing.assert_array_equal(parse_matrix("1;1"), [[1.0], [1.0]])

    def test_ragged_rejected(self):
        with pytest.raises(UsageError, match="ragged"):
            parse_matrix("1,0;1")

    def test_garbage_rejected(self):
        with pytest.raises(UsageError, match="could not parse"):
            parse_matrix("1,zwei")


def make_sample(seed=3, T=150):
    rng = substream(seed, 0)
    v = rng.standard_normal((T, 1))
    x = np.cumsum(v, axis=0)
    u = rng.standard_normal(T) + 0.4 * v[:, 0]
    return CointegrationSample(y=0.5 + x[:, 0] + u, x=x, det=Deterministics.INTERCEPT)


class TestRunAnalysis:
    def test_report_contents(self):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        report = run_analysis(sample, restriction, alpha=0.10, seed=5)
        assert set(report.estimates) == {"ols", "im_ols", "fm_ols"}
        methods = [o.method for o in report.outcomes]
        assert methods == ["SN-asymptotic", "Wald-FM"]
        # intercept panel, single regressor, 10% level
        assert report.outcomes[0].critical_value == 64.13
        assert -1.0 < report.rho1 < 1.001
        assert report.provenance["version"]

    def test_bootstrap_outcome_appended(self):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        boot = BootstrapConfig(n_boot=19, alpha=0.10, seed=5)
        report = run_analysis(sample, restriction, alpha=0.10, boot=boot, seed=5)
        assert [o.method for o in report.outcomes] == ["SN-asymptotic", "Wald-FM", "SN-bootstrap"]

    def test_bootstrap_runs_at_the_report_level(self):
        from dataclasses import replace

        from sncoint import bootstrap_test

        sample = generate_dgp(DgpConfig(T=100), substream(4, 0))  # m = 2, no deterministics
        restriction = RestrictionSpec(R=np.eye(2), value=np.ones(2))
        boot = BootstrapConfig(n_boot=19, alpha=0.05, seed=4)
        report = run_analysis(sample, restriction, alpha=0.10, boot=boot)
        at_ten = bootstrap_test(sample, restriction, replace(boot, alpha=0.10))
        assert report.outcomes[-1] == at_ten
        assert at_ten.critical_value < bootstrap_test(sample, restriction, boot).critical_value

    def test_deterministic_reports(self):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        boot = BootstrapConfig(n_boot=19, alpha=0.10, seed=5)
        a = run_analysis(sample, restriction, alpha=0.10, boot=boot, seed=7)
        b = run_analysis(sample, restriction, alpha=0.10, boot=boot, seed=7)
        assert a.to_json() == b.to_json()

    def test_round_trip(self):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        report = run_analysis(sample, restriction, alpha=0.10, seed=5)
        restored = AnalysisReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        # every decision re-derivable from statistic and critical value
        for outcome in restored.outcomes:
            assert outcome.reject == (outcome.statistic > outcome.critical_value)
        bandwidth = report.outcomes[1].diagnostics["bandwidth"]
        assert type(bandwidth) is float and bandwidth > 0
        assert restored.outcomes[1].diagnostics["bandwidth"] == bandwidth
        # the asymptotic test names its table
        assert dict(report.outcomes[0].diagnostics) == {"n_grid": 10_000, "reps": 10_000}
        for key in ("n_grid", "reps"):
            assert type(restored.outcomes[0].diagnostics[key]) is int
            assert restored.outcomes[0].diagnostics[key] == report.outcomes[0].diagnostics[key]

    def test_round_trip_keeps_bootstrap_diagnostics(self):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        boot = BootstrapConfig(n_boot=19, alpha=0.10, seed=5)
        report = run_analysis(sample, restriction, alpha=0.10, boot=boot, seed=5)
        diagnostics = report.outcomes[-1].diagnostics
        assert set(diagnostics) == {"sieve_order", "spectral_radius", "n_retried", "n_discarded"}
        restored = AnalysisReport.from_json(report.to_json())
        assert restored.outcomes == report.outcomes
        for key, value in diagnostics.items():
            assert type(restored.outcomes[-1].diagnostics[key]) is type(value)

    def test_unpackaged_table_simulated_with_warning(self, monkeypatch):
        from sncoint import battery

        calls = []

        def stub(m, s, det, n_grid, reps, seed):
            calls.append((m, s, det, n_grid, reps, seed))
            quantiles = dict(zip(_PROBS, (1.0, 2.0, 3.0, 4.0)))
            return CriticalValueTable(m=m, s=s, det=det, quantiles=quantiles, meta={"n_grid": n_grid, "reps": reps})

        monkeypatch.setattr(battery, "simulate_critical_values", stub)
        rng = substream(4, 0)
        x = np.cumsum(rng.standard_normal((120, 5)), axis=0)
        sample = CointegrationSample(y=x.sum(axis=1) + rng.standard_normal(120), x=x)
        restriction = RestrictionSpec(R=np.eye(5)[:1], value=np.array([1.0]))
        message = r"m=5, s=1, det=none: simulating a table with n_grid=10000, reps=10000"
        with pytest.warns(RuntimeWarning, match=message):
            report = run_analysis(sample, restriction, seed=7)
        assert calls == [(5, 1, Deterministics.NONE, 10_000, 10_000, 7)]
        assert dict(report.outcomes[0].diagnostics) == {"n_grid": 10_000, "reps": 10_000}

    def test_row_of_a_stack_gives_its_sample_report(self):
        from sncoint import FittedSample

        samples = [make_sample(seed, T=120) for seed in (11, 12, 13)]
        y, x = np.stack([s.y for s in samples]), np.stack([s.x for s in samples])
        stack = FittedSample(y, x, Deterministics.INTERCEPT)
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        boot = BootstrapConfig(n_boot=19, alpha=0.10, seed=5)
        for i in range(3):
            report = run_analysis(stack.row(i), restriction, alpha=0.10, boot=boot, seed=5)
            single = run_analysis(CointegrationSample(y[i], x[i], Deterministics.INTERCEPT), restriction,
                                  alpha=0.10, boot=boot, seed=5)  # fmt: skip
            assert report.to_json() == single.to_json()
        assert run_analysis(FittedSample(samples[0]), restriction, seed=5).to_json() == \
            run_analysis(samples[0], restriction, seed=5).to_json()  # fmt: skip
        with pytest.raises(ValueError, match="^run_analysis tests one sample, got a stacked FittedSample of 3 rows$"):
            run_analysis(stack, restriction)


class TestFitOnce:
    """One analysis fits its sample once: the static OLS of y on [d, x],
    the IM-OLS fit and the kernel autocovariance pass over [u, v]."""

    def test_analysis_without_bootstrap(self, count_calls):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        qr_calls = count_calls(_qr_solve)
        im_calls = count_calls(im_ols_batch)
        passes = count_calls(autocovariances)
        fm_calls = count_calls(_fm_ols_batch)
        run_analysis(sample, restriction, alpha=0.10, seed=5)
        static = [args for args in qr_calls if args[1].shape == (1, sample.nobs, 2)]
        assert len(static) == 1 and np.array_equal(static[0][0][0, :, 0], sample.y)
        assert len(im_calls) == 1 and np.array_equal(im_calls[0][0], sample.y[None])
        assert len(passes) == 1
        assert len(fm_calls) == 1

    def test_bootstrap_does_not_refit_observed_sample(self, count_calls):
        sample = make_sample()
        restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
        im_calls = count_calls(im_ols_batch)
        boot = BootstrapConfig(n_boot=19, alpha=0.10, seed=5)
        run_analysis(sample, restriction, alpha=0.10, boot=boot, seed=5)
        observed, draws = im_calls  # the sample, then one chunk of its 19 bootstrap draws
        assert np.array_equal(observed[0], sample.y[None]) and draws[0].shape[0] == 19


def golden_sample(T, det, seed):
    dgp = generate_dgp(DgpConfig(T=T, rho1=0.6, rho2=0.6), np.random.default_rng(seed))
    return CointegrationSample(y=dgp.y, x=dgp.x, det=det)


# The OLS and IM-OLS estimates, rho1 and the SN statistic must match bit
# for bit. The FM-OLS estimate and the Wald-FM numbers come from kernel
# sums, whose last bits depend on their summation order: 1e-12 relative.
GOLDEN = {
    "T250-bartlett": (
        (250, Deterministics.INTERCEPT, 250, BARTLETT),
        {
            "ols": [1.0739207546770373, 1.0306000496686452],
            "im_ols": [0.988663433215713, 0.9971617737706876],
            "fm_ols": [1.0489102330221922, 1.0100028725835013],
            "rho1": 0.5594219574900768,
            "sn": 1.1795308907859121,
            "wald_fm": (2.636980625138815, 0.267538897348279),
        },
    ),
    "T1000-qs": (
        (1000, Deterministics.NONE, 1000, QUADRATIC_SPECTRAL),
        {
            "ols": [1.0117484503975835, 1.0293443459757785],
            "im_ols": [0.9993758781929536, 1.0019485711720224],
            "fm_ols": [1.0020454976758297, 1.0061283170319186],
            "rho1": 0.6215614942380908,
            "sn": 6.795010572759795,
            "wald_fm": (0.6625050813293517, 0.7180238159302885),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_analysis_golden_values(case):
    (T, det, seed, kind), expected = GOLDEN[case]
    restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))
    report = run_analysis(golden_sample(T, det, seed), restriction, kernel=KernelSpec(kind, "andrews"), seed=0)
    assert report.estimates["ols"].tolist() == expected["ols"]
    assert report.estimates["im_ols"].tolist() == expected["im_ols"]
    assert report.rho1 == expected["rho1"]
    sn, wald = report.outcomes
    assert sn.statistic == expected["sn"]
    np.testing.assert_allclose(report.estimates["fm_ols"], expected["fm_ols"], rtol=1e-12, atol=0)
    np.testing.assert_allclose([wald.statistic, wald.p_value], expected["wald_fm"], rtol=1e-12, atol=0)


class TestCommandLine:
    def test_test_command(self, tmp_path, capsys):
        path = synthetic_csv(tmp_path)
        code = main(
            ["test", "--data", path, "--y", "rate", "--x", "price", "--det", "const", "--R1", "1", "--r0", "1", "--alpha", "0.10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SN-asymptotic" in out and "Wald-FM" in out

    def test_test_command_json_output(self, tmp_path):
        path = synthetic_csv(tmp_path)
        out_file = tmp_path / "report.json"
        code = main(
            ["test", "--data", path, "--y", "rate", "--x", "price", "--det", "const",
             "--out", "json", "--output", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["provenance"]["input_sha256"]
        assert payload["outcomes"][0]["method"] == "SN-asymptotic"

    @pytest.mark.parametrize(
        "argv",
        [["test", "--y", "rate", "--x", "price", "--det", "const"],
         ["boottest", "--y", "rate", "--x", "price", "--B", "19"],
         ["lrv", "--columns", "rate,price"]],
        ids=["test", "boottest", "lrv"],
    )  # fmt: skip
    def test_csv_output_is_one_row_per_scalar(self, tmp_path, argv):
        import csv

        path = synthetic_csv(tmp_path)
        for fmt in ("json", "csv"):
            assert main(argv + ["--data", path, "--out", fmt, "--output", str(tmp_path / f"out.{fmt}")]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        with open(tmp_path / "out.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows and all(len(row) == 2 for row in rows)
        leaves = 0
        for key, text in rows:
            value = payload
            for part in key.split("."):
                value = value[int(part)] if isinstance(value, list) else value[part]
            assert not isinstance(value, (dict, list))
            assert (text if isinstance(value, str) else json.loads(text)) == value
            leaves += 1
        assert leaves == sum(1 for _ in cli._scalars(payload))

    @pytest.mark.parametrize(
        "argv",
        [["lrv", "--columns", "rate,price"],
         ["test", "--y", "rate", "--x", "price", "--out", "json"]],
        ids=["lrv", "test"],
    )  # fmt: skip
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--data", synthetic_csv(tmp_path), "--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno")

    @pytest.mark.parametrize(
        "argv",
        [["critvals", "--m", "1", "--s", "1", "--n-grid", "1000", "--reps", "1000"],
         ["simulate", "--config", "CONFIG"],
         ["test", "--y", "rate", "--x", "price", "--out", "json", "--data", "DATA"],
         ["boottest", "--y", "rate", "--x", "price", "--B", "19", "--out", "json", "--data", "DATA"],
         ["lrv", "--columns", "rate,price", "--data", "DATA"]],
        ids=["critvals", "simulate", "test", "boottest", "lrv"],
    )  # fmt: skip
    def test_missing_output_directory_is_refused_first(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("simulate_critical_values", "study_from_config", "run_analysis", "estimate_lrv"):
            monkeypatch.setattr(cli, name, no_work)
        files = {"CONFIG": write_csv(tmp_path / "exp.json", '{"kind": "size", "T": 50}'), "DATA": synthetic_csv(tmp_path)}
        before = sorted(tmp_path.iterdir())
        output = str(tmp_path / "nodir" / "out.txt")
        assert main([files.get(arg, arg) for arg in argv] + ["--output", output]) == 1
        directory = str(tmp_path / "nodir")
        assert capsys.readouterr().err == f"error: --output {output}: directory {directory!r} does not exist\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_data_with_a_byte_order_mark(self, tmp_path, capsys):
        plain = synthetic_csv(tmp_path)
        marked = tmp_path / "marked.csv"
        marked.write_text(Path(plain).read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfrate,")
        reports = []
        for path in (plain, str(marked)):
            assert main(["test", "--data", path, "--y", "rate", "--x", "price", "--out", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["provenance"]["input"], report["provenance"]["input_sha256"]
            reports.append(report)
        assert reports[0] == reports[1]
        printed = []
        for path in (plain, str(marked)):
            assert main(["lrv", "--data", path, "--columns", "rate,price"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_boottest_command(self, tmp_path, capsys):
        path = synthetic_csv(tmp_path)
        code = main(
            ["boottest", "--data", path, "--y", "rate", "--x", "price", "--det", "const",
             "--B", "19", "--alpha", "0.05", "--seed", "4"]
        )
        assert code == 0
        assert "SN-bootstrap" in capsys.readouterr().out

    def test_critvals_command(self, tmp_path, capsys):
        out_file = tmp_path / "table.txt"
        code = main(
            ["critvals", "--m", "1", "--s", "1", "--det", "none",
             "--n-grid", "1000", "--reps", "1000", "--seed", "1", "--output", str(out_file)]
        )
        assert code == 0
        from sncoint import load_table

        table = load_table(str(out_file))
        assert table.m == 1 and table.s == 1

    def test_critvals_command_prints_the_table(self, capsys):
        argv = ["critvals", "--m", "1", "--s", "1", "--n-grid", "1000", "--reps", "1000", "--seed", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m=1 s=1 det=none"
        assert [float(line.split("%")[0]) for line in lines[1:]] == [100 * prob for prob in sorted(_PROBS)]

    def test_simulate_command(self, tmp_path, chunks_of_8):
        config = {
            "kind": "size",
            "T": 75,
            "rho1": 0.3,
            "rho2": 0.3,
            "reps": 30,
            "seed": 2,
            "tests": ["SN-asymptotic"],
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "rates.csv"
        code = main(["simulate", "--config", str(cfg_path), "--output", str(out_path)])
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "test,rejection_rate"
        assert rows[1].startswith("SN-asymptotic,")
        manifest = json.loads((tmp_path / "rates_manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["reps"] == 30
        assert manifest["chunk_size"] == 8 and manifest["tasks"] == 4
        assert manifest["blas_pinned"] is sncoint.streams.BLAS_PINNED
        assert manifest["memory_retained"] is sncoint.streams.MEMORY_RETAINED
        assert list(manifest) == [
            "kind", "config", "seed", "reps", "workers", "runtime_s", "chunk_size", "tasks", "processes",
            "blas_pinned", "memory_retained", "version", "results_csv",
        ]  # fmt: skip
        assert manifest["config"] == config

    def test_simulate_manifest_records_the_pool(self, tmp_path):
        config = {"kind": "size", "T": 100, "reps": 200, "seed": 2, "workers": 2, "tests": ["SN-asymptotic"]}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "rates.csv")]) == 0
        manifest = json.loads((tmp_path / "rates_manifest.json").read_text())
        assert (manifest["chunk_size"], manifest["tasks"]) == (25, 8)
        assert manifest["processes"] == min(2, sncoint.streams._cores())

    def test_simulate_writes_the_manifest_beside_the_output(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"kind": "size", "T": 50, "reps": 8, "tests": ["Wald-IM"]}))
        (tmp_path / "out.d").mkdir()
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "out.d" / "rates")]) == 0
        assert sorted(path.name for path in (tmp_path / "out.d").iterdir()) == ["rates", "rates_manifest.json"]
        assert list((tmp_path / "cwd").iterdir()) == []

    def test_simulate_power_command(self, tmp_path):
        config = {
            "kind": "power",
            "T": 75,
            "rho1": 0.3,
            "rho2": 0.3,
            "reps": 25,
            "seed": 3,
            "statistics": ["SN"],
            "beta_grid": {"start": 1.0, "stop": 1.2, "num": 3},
        }
        cfg_path = tmp_path / "power.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "power.csv"
        code = main(["simulate", "--config", str(cfg_path), "--output", str(out_path)])
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "beta,SN"
        assert len(rows) == 4
        first = rows[1].split(",")
        assert float(first[0]) == 1.0
        assert 0.0 <= float(first[1]) <= 1.0
        manifest = json.loads((tmp_path / "power_manifest.json").read_text())
        assert list(manifest) == [
            "kind", "config", "seed", "reps", "workers", "alpha", "adjusted_critical_values", "runtime_s",
            "chunk_size", "tasks", "processes", "blas_pinned", "memory_retained", "version", "results_csv",
        ]  # fmt: skip
        assert manifest["config"] == config and manifest["alpha"] == 0.05
        assert list(manifest["adjusted_critical_values"]) == ["SN"]

    def test_simulate_power_command_with_a_listed_grid(self, tmp_path):
        config = {"kind": "power", "T": 50, "reps": 10, "seed": 3, "statistics": ["SN"], "beta_grid": [1.0, 1.25]}
        cfg_path = tmp_path / "power.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "power.csv"
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out_path)]) == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "beta,SN"
        assert [float(row.split(",")[0]) for row in rows[1:]] == [1.0, 1.25]

    @pytest.mark.parametrize(
        "setting, message",
        [({"bandwidth": "abc"}, "bandwidth must be 'andrews' or a positive number, got 'abc'"),
         ({"kernel": "parzen"}, "kernel must be one of bartlett, qs, got 'parzen'")],
        ids=["bandwidth", "kernel"],
    )  # fmt: skip
    def test_simulate_rejects_bad_kernel(self, tmp_path, capsys, setting, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"kind": "size", "T": 75, "reps": 30, **setting}))
        code = main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "rates.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rates.csv").exists()

    @pytest.mark.parametrize(
        "config, message",
        [({"kind": "size", "reps": 30}, "config needs 'T'"),
         ({"kind": "size", "T": 75, "tests": ["SN-asymptotc"]}, "bad config: unknown test tag 'SN-asymptotc'"),
         ({"kind": "power", "T": 75, "statistics": ["Wald-XX"]}, "bad config: unknown statistic tag 'Wald-XX'"),
         ({"kind": "size", "T": 75, "workers": 1.5}, "workers must be an integer, got 1.5"),
         ({"kind": "size", "T": 75, "workers": "2"}, "workers must be an integer, got '2'"),
         ({"kind": "size", "T": 75, "workers": 0}, "workers must be at least 1, got 0"),
         ({"kind": "size", "T": 75, "reps": 0}, "reps must be at least 1, got 0"),
         ({"kind": "size", "T": 75, "seed": -1}, "seed must be at least 0, got -1"),
         ({"kind": "size", "T": 75.0}, "bad config: T must be an integer, got 75.0"),
         ({"kind": "size", "T": 5}, "bad config: T must be at least 10, got 5"),
         ({"kind": "size", "T": 75, "order": "AIC"}, "bad config: order must be 'aic', 'bic' or an integer, got 'AIC'"),
         ({"kind": "size", "T": 75, "order": 0}, "bad config: order must be at least 1, got 0"),
         ({"kind": "size", "T": 75, "rho1": float("nan")}, "bad config: rho1 must be finite, got nan"),
         ({"kind": "size", "T": 75, "beta": [1.0]}, "bad config: beta needs one coefficient per regressor (two)"),
         ({"kind": "power", "T": 75, "alpha": 2}, "bad config: alpha must be in (0, 1), got 2"),
         ({"kind": "size", "T": 75, "alpha": 0.2, "tests": ["SN-asymptotic"]},
          "bad config: no tabulated quantile at probability 0.8"),
         ({"kind": "size", "T": 50, "reps": 4, "rho_1": 0.9}, "bad config: a size study has no key 'rho_1'"),
         ({"kind": "size", "T": 75, "statistics": ["SN"]}, "bad config: a size study has no key 'statistics'"),
         ({"kind": "power", "T": 75, "B": 199}, "bad config: a power study has no key 'B'"),
         ({"T": 75, "burn_in": 50}, "bad config: a size study has no key 'burn_in'"),
         ({"kind": "power", "T": 75, "beta_grid": [1.0, float("nan")]},
          "bad config: beta_grid must be a 1-D array of finite values, got [1.0, nan]"),
         ({"kind": "power", "T": 75, "beta_grid": [[1.0, 1.1]]},
          "bad config: beta_grid must be a 1-D array of finite values, got [[1.0, 1.1]]"),
         ({"kind": "power", "T": 75, "beta_grid": {"start": 1, "stop": 2}},
          "bad config: a beta_grid map has the keys 'start', 'stop' and 'num', got ['start', 'stop']"),
         ({"kind": "power", "T": 75, "beta_grid": {"start": 1, "stop": 2, "num": 0}},
          "bad config: beta_grid must hold at least one value"),
         ([1, 2], "bad config: a config is a JSON object, got list"),
         ('{"kind": "size", "T": 50,', "Expecting property name enclosed in double quotes: line 1 column 26 (char 25)")],
        ids=["no-T", "test-name", "statistic-name", "float-workers", "string-workers", "no-workers", "no-reps",
             "negative-seed", "float-T", "short-T", "order-name", "order-0", "nan-rho1", "beta", "alpha",
             "alpha-untabulated", "unknown-key", "power-key-in-size", "size-key-in-power", "burn_in", "nan-grid",
             "2d-grid", "grid-without-num", "empty-grid", "not-an-object",
             "not-json"],
    )  # fmt: skip
    def test_simulate_rejects_bad_config(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        code = main(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "rates.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "argv, message",
        [(["critvals", "--m", "1", "--s", "2"], "need 1 <= s <= m, got m=1, s=2"),
         (["critvals", "--m", "1", "--s", "1", "--n-grid", "500"], "n_grid must be at least 1000, got 500"),
         (["critvals", "--m", "1", "--s", "1", "--reps", "10"], "reps must be at least 1000, got 10"),
         (["critvals", "--m", "1", "--s", "1", "--n-grid", "1000", "--reps", "1000", "--seed", "-1"],
          "seed must be at least 0, got -1"),
         (["boottest", "--B", "0"], "n_boot must be at least 1, got 0"),
         (["boottest", "--B", "100"], "(n_boot + 1) * (1 - alpha) = 95.95 must be an integer; adjust n_boot"),
         (["boottest", "--order", "0"], "order must be at least 1, got 0"),
         (["boottest", "--workers", "0"], "workers must be at least 1, got 0"),
         (["boottest", "--seed", "-1"], "seed must be at least 0, got -1"),
         (["test", "--seed", "-1"], "seed must be at least 0, got -1"),
         (["test", "--alpha", "0.2"], "no tabulated quantile at probability 0.8"),
         (["test", "--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
         (["boottest", "--alpha", "0.2"], "no tabulated quantile at probability 0.8"),
         (["test", "--table", "TABLE"], "table is for m=2, s=1, det=none; sample needs m=1, s=1, det=none"),
         (["boottest", "--table", "TABLE"], "table is for m=2, s=1, det=none; sample needs m=1, s=1, det=none"),
         (["test", "--R1", "1,0", "--r0", "1"], "restriction is on 2 coefficients but the model has 1"),
         (["boottest", "--R1", "1,0", "--r0", "1"], "restriction is on 2 coefficients but the model has 1"),
         (["test", "--table", "TEXT:m=1 s=1\n"], "PATH: not a sncoint critical value file"),
         (["test", "--table", "TEXT:# sncoint critical values v1\nm=1 s=1 det=none n_grid=1000 reps=1000\n0.9 abc\n"],
          "PATH: malformed critical value file: could not convert string to float: 'abc'"),
         (["boottest", "--table", "TEXT:# sncoint critical values v1\ns=1 det=none n_grid=1000 reps=1000\n0.9 1.0\n"],
          "PATH: header has no m= field")],
        ids=["s-above-m", "short-grid", "few-reps", "negative-critvals-seed", "no-draws", "B-misfits-alpha", "order-0",
             "workers-0", "negative-seed", "test-negative-seed", "alpha-untabulated", "alpha-above-one", "boot-alpha-untabulated",
             "table-mismatch", "boot-table-mismatch", "R1-width", "boot-R1-width", "table-header",
             "table-quantile-line", "table-no-m"],
    )  # fmt: skip
    def test_library_checks_are_usage_errors(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "simulate_critical_values", no_work)
        monkeypatch.setattr(cli, "run_analysis", no_work)
        if "TABLE" in argv:
            quantiles = dict(zip(_PROBS, (1.0, 2.0, 3.0, 4.0)))
            save_table(CriticalValueTable(m=2, s=1, det=Deterministics.NONE, quantiles=quantiles), tmp_path / "table.txt")
            argv = [str(tmp_path / "table.txt") if arg == "TABLE" else arg for arg in argv]
        bad = tmp_path / "bad.txt"
        for arg in argv:
            if arg.startswith("TEXT:"):
                bad.write_text(arg[len("TEXT:"):])
        argv = [str(bad) if arg.startswith("TEXT:") else arg for arg in argv]
        message = message.replace("PATH", str(bad))
        if argv[0] in ("test", "boottest"):
            argv = argv + ["--data", synthetic_csv(tmp_path), "--y", "rate", "--x", "price"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv", [["test", "--y", "rate", "--x", "price"], ["lrv", "--columns", "rate,price"]], ids=["test", "lrv"]
    )
    def test_nan_bandwidth_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--data", synthetic_csv(tmp_path), "--bandwidth", "nan"]) == 1
        assert capsys.readouterr().err == "error: bandwidth must be 'andrews' or a positive number, got nan\n"

    @pytest.mark.parametrize(
        "argv", [["test", "--y", "rate", "--x", "price"], ["lrv", "--columns", "rate,price"]], ids=["test", "lrv"]
    )
    def test_infinite_bandwidth_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--data", synthetic_csv(tmp_path), "--bandwidth", "inf"]) == 1
        assert capsys.readouterr().err == "error: bandwidth must be 'andrews' or a positive number, got inf\n"

    @pytest.mark.parametrize("command", ["test", "boottest"])
    def test_output_needs_a_format(self, tmp_path, capsys, command):
        # the data file does not exist: the flags are refused before it is read
        argv = [command, "--data", str(tmp_path / "missing.csv"), "--y", "rate", "--x", "price"]
        assert main(argv + ["--output", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == "error: --output needs --out json or --out csv\n"
        assert list(tmp_path.iterdir()) == []

    def test_option_prefixes_are_not_options(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["critvals", "--m", "1", "--s", "1", "--reps", "1000", "--n-grid", "1000", "--out", "json"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --out json\n"
        assert list(tmp_path.iterdir()) == []

    def test_lrv_command(self, tmp_path, capsys):
        rng = substream(8, 0)
        data = rng.standard_normal((60, 2))
        lines = ["u,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in data]
        path = write_csv(tmp_path / "lrv.csv", "\n".join(lines) + "\n")
        code = main(["lrv", "--data", path, "--columns", "u,v", "--kernel", "bartlett"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        omega = np.asarray(payload["omega"])
        assert omega.shape == (2, 2)
        assert payload["conditional"] > 0

    @pytest.mark.parametrize("cell", ["nan", "inf", ""])
    def test_lrv_command_rejects_bad_cell(self, tmp_path, capsys, cell):
        rows = "".join(f"{t},{-t}\n" for t in range(1, 30))
        path = write_csv(tmp_path / "lrv.csv", f"u,v\n1,1\n2,{cell}\n" + rows)
        assert main(["lrv", "--data", path, "--columns", "u,v"]) == 1
        assert "row 3, column 'v'" in capsys.readouterr().err

    @staticmethod
    def run_module(module, tmp_path):
        data = substream(8, 0).standard_normal((40, 2))
        lines = ["u,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in data]
        path = write_csv(tmp_path / "lrv.csv", "\n".join(lines) + "\n")
        src = str(Path(sncoint.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "lrv", "--data", path, "--columns", "u,v"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["kernel"] == BARTLETT

    def test_module_entry_point(self, tmp_path):
        self.run_module("sncoint", tmp_path)

    def test_cli_module_entry_point(self, tmp_path):
        # The package must not import its command-line module eagerly, or
        # runpy warns that it found sncoint.cli already imported.
        self.run_module("sncoint.cli", tmp_path)

    def test_usage_error_exit_code(self, tmp_path, capsys):
        path = synthetic_csv(tmp_path)
        code = main(["test", "--data", path, "--y", "nope", "--x", "price"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        code = main(["test", "--data", "/does/not/exist.csv", "--y", "y", "--x", "x"])
        assert code == 1

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # collinear regressors: the augmented regression is singular
        rng = substream(9, 0)
        v = rng.standard_normal(40)
        x = np.cumsum(v)
        lines = ["y,x1,x2"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(rng.standard_normal(40), x, x)]
        path = write_csv(tmp_path / "c.csv", "\n".join(lines) + "\n")
        code = main(["test", "--data", path, "--y", "y", "--x", "x1", "--x", "x2"])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_nan_in_data_is_usage_error(self, tmp_path, capsys):
        path = synthetic_csv(tmp_path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[5] = "nan," + lines[5].split(",")[1]
        write_csv(tmp_path / "data.csv", "\n".join(lines) + "\n")
        assert main(["test", "--data", path, "--y", "rate", "--x", "price"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_bad_flag_exit_code(self, capsys):
        assert main(["test", "--nonsense"]) == 1

import json

import numpy as np
import pytest

from sncoint import (
    AnalysisReport,
    BootstrapConfig,
    CointegrationSample,
    Deterministics,
    RestrictionSpec,
    ar1_persistence,
    ingest_csv,
    run_analysis,
)
from sncoint.cli import UsageError, main, parse_matrix
from sncoint.streams import substream


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

    def test_simulate_command(self, tmp_path):
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

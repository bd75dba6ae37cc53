"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest bench/test_bench.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, and that the traced run emits every span the per-layer metrics are
built from. Tiny runs skip the reference check (the references are for
full-size inputs).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path.insert(0, str(BENCH))
from compare import verdict  # noqa: E402

# Spans each workload must emit, and the layers that must show self time.
SPANS = {
    "analysis": {
        "cli.run_analysis", "estimators.ols", "estimators.im_ols", "estimators.fm_ols",
        "kernels.estimate_lrv", "kernels.one_sided_lrv", "selfnorm.self_normalizer",
        "selfnorm.wald_statistic", "selfnorm.traditional_wald", "tables.default_table",
    },
    "bootstrap": {
        "bootstrap.bootstrap_test", "bootstrap.select_order", "bootstrap.yule_walker",
        "bootstrap.replication", "bootstrap.generate_sample", "bootstrap.statistic",
        "timeseries.sample", "estimators.im_ols", "selfnorm.self_normalizer",
        "selfnorm.wald_statistic", "streams.replication_map",
    },
    "critvals": {
        "asymptotics.simulate_critical_values", "asymptotics.limit_components", "asymptotics.random_walk",
    },
    "montecarlo": {
        "montecarlo.size_adjusted_power", "montecarlo.replication", "montecarlo.dgp",
        "timeseries.sample", "estimators.im_ols", "estimators.fm_ols", "estimators.d_ols",
        "kernels.estimate_lrv", "selfnorm.traditional_wald", "streams.replication_map",
    },
}  # fmt: skip
BUSY_LAYERS = {
    "analysis": ("estimators", "kernels", "selfnorm", "tables"),
    "bootstrap": ("timeseries", "estimators", "selfnorm", "bootstrap", "streams"),
    "critvals": ("asymptotics",),
    "montecarlo": ("timeseries", "estimators", "kernels", "selfnorm", "montecarlo", "streams"),
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--tiny", "--results", str(tmp_path / "results.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    metrics = run(workload, 0, tmp_path)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_span(workload, tmp_path):
    metrics = run(workload, 1, tmp_path)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    trace = json.loads((ROOT / ".bench_out" / f"trace_{workload}_seed{SEED}.json").read_text())
    assert trace["missing"] == []
    emitted = {trace["names"][span[0]] for span in trace["spans"]}
    assert SPANS[workload] <= emitted
    for layer in BUSY_LAYERS[workload]:
        assert metrics[f"{layer}.self_ms"]["value"] > 0, layer
    if workload in ("bootstrap", "critvals"):
        assert metrics["kernels.calls"]["value"] == 0
    assert metrics["trace_coverage_frac"]["value"] >= 0.95


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.iterdir():
        if path.is_file():
            (bare / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, list(zip(parent, faster)), lower=True, bound=0.1)[0] == "improved"
    assert verdict(parent, slower, list(zip(parent, slower)), lower=True, bound=0.1)[0] == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), lower=True, bound=0.1)[0] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), lower=True, bound=0.1)[0] == "unresolved"

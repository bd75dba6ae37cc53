"""One benchmark workload process; ``run.py`` launches it with BLAS pinned.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    worker.py --setup NAME [--tiny]      import sncoint, run the warm-up operation, exit
    worker.py --write-reference          run every pooled input once, write reference.json

The last line of standard output is one JSON object for the launcher.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sncoint  # noqa: E402

if not Path(sncoint.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported sncoint from {sncoint.__file__}, not from this checkout's src/")

from probe import PeriodicProbe  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402

# Traced calls: (span name, path from the ``sncoint`` namespace). The span
# name's first part is the layer, the package module that owns the code.
TRACE_TARGETS = (
    ("timeseries.sample", "CointegrationSample.__init__"),
    ("estimators.ols", "ols"),
    ("estimators.im_ols", "im_ols"),
    ("estimators.fm_ols", "fm_ols"),
    ("estimators.d_ols", "d_ols"),
    ("estimators.restricted_im_ols", "restricted_im_ols"),
    ("estimators.levels_residuals", "levels_residuals"),
    ("kernels.estimate_lrv", "estimate_lrv"),
    ("kernels.one_sided_lrv", "one_sided_lrv"),
    ("selfnorm.self_normalizer", "self_normalizer"),
    ("selfnorm.wald_statistic", "wald_statistic"),
    ("selfnorm.traditional_wald", "traditional_wald"),
    ("selfnorm.self_normalized_test", "self_normalized_test"),
    ("selfnorm.conditional_lrv_from_ols", "selfnorm.conditional_lrv_from_ols"),
    ("bootstrap.bootstrap_test", "bootstrap_test"),
    ("bootstrap.select_order", "select_order"),
    ("bootstrap.yule_walker", "yule_walker"),
    ("bootstrap.replication", "bootstrap._one_replication"),
    ("bootstrap.generate_sample", "generate_bootstrap_sample"),
    ("bootstrap.statistic", "bootstrap_statistic"),
    ("asymptotics.simulate_critical_values", "simulate_critical_values"),
    ("asymptotics.limit_statistics", "simulate_limit_statistics"),
    ("asymptotics.limit_components", "asymptotics.simulate_limit_components"),
    ("asymptotics.random_walk", "asymptotics._random_walk_statistics"),
    ("montecarlo.size_adjusted_power", "size_adjusted_power"),
    ("montecarlo.replication", "montecarlo._statistic_rep"),
    ("montecarlo.dgp", "generate_dgp"),
    ("streams.replication_map", "streams.replication_map"),
    ("tables.default_table", "default_table"),
    ("cli.run_analysis", "run_analysis"),
    ("cli.ar1_persistence", "ar1_persistence"),
)
LAYERS = (
    "timeseries", "estimators", "kernels", "selfnorm", "bootstrap",
    "asymptotics", "montecarlo", "streams", "tables", "cli",
)  # fmt: skip

# Per-layer metrics of the traced run. ``_calls`` are per operation, times
# are means per call unless the name says per operation (``self_ms`` of a
# layer, ``streams.map_s``) or per thousand draws.
PER_LAYER = (
    [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [
        ("timeseries.sample_us", "us"),
        ("timeseries.sample_calls", "count"),
        ("estimators.ols_calls", "count"),
        ("estimators.im_ols_ms", "ms"),
        ("estimators.im_ols_calls", "count"),
        ("estimators.fm_ols_ms", "ms"),
        ("estimators.d_ols_ms", "ms"),
        ("kernels.lrv_ms", "ms"),
        ("kernels.lrv_calls", "count"),
        ("selfnorm.self_normalizer_us", "us"),
        ("selfnorm.wald_statistic_us", "us"),
        ("selfnorm.traditional_wald_ms", "ms"),
        ("bootstrap.select_order_ms", "ms"),
        ("bootstrap.yule_walker_ms", "ms"),
        ("bootstrap.generate_sample_ms", "ms"),
        ("bootstrap.statistic_ms", "ms"),
        ("bootstrap.discard_frac", "ratio"),
        ("bootstrap.retry_frac", "ratio"),
        ("asymptotics.limit_components_s_per_1k", "s/1k"),
        ("asymptotics.random_walk_s_per_1k", "s/1k"),
        ("montecarlo.dgp_ms", "ms"),
        ("montecarlo.dgp_calls", "count"),
        ("streams.map_calls", "count"),
        ("streams.map_s", "s"),
        ("tables.default_table_ms", "ms"),
        ("trace_overhead_frac", "ratio"),
        ("trace_coverage_frac", "ratio"),
        ("failed_frac", "ratio"),
    ]
)
END_TO_END = (("p50_ms", "ms"), ("p90_ms", "ms"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
# The per-workload names these generic metrics stand for.
ALIASES = {
    "analysis": {"p50_ms": "analysis_p50_ms", "p90_ms": "analysis_p90_ms", "work_per_s": "analyses_per_s"},
    "bootstrap": {"work_per_s": "boot_reps_per_s"},
    "critvals": {"work_per_s": "limit_draws_per_s"},
    "montecarlo": {"work_per_s": "mc_samples_per_s"},
}
# Layers must account for at least this share of the traced operations' time.
MIN_COVERAGE = 0.95
# With fewer blocks the 90th percentile of a two-class mix would fall
# between the classes.
MIN_BLOCKS = 2


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run_blocks(workload, blocks, inputs, reference, probe, stop_after=None, tracer=None):
    """Run whole blocks of operations, checking each result against the
    reference results within the reference's tolerance (no check if
    ``reference`` is None). Stops at the first block boundary after
    ``stop_after`` seconds and ``MIN_BLOCKS`` blocks, or after the last
    block. Returns the blocks
    run and one record per operation, its latency net of the probes that
    ran inside it."""
    done, ops = [], []
    start = time.perf_counter()
    for block in blocks:
        for cls, index in block:
            if tracer is not None:
                tracer.op = len(ops)
            began, t0, probed = time.monotonic(), time.perf_counter(), probe.spent
            try:
                output = workload.run(cls, index, inputs)
                latency = time.perf_counter() - t0 - (probe.spent - probed)
                result = json.loads(json.dumps(workload.summary(output)))
            except Exception:
                latency, problems = time.perf_counter() - t0 - (probe.spent - probed), [traceback.format_exc()]
            else:
                problems = []
                if reference is not None:
                    problems = mismatches(result, reference["results"][f"{cls}/{index}"], reference["tolerance"])
            for problem in problems[:3]:
                print(f"FAILED {workload.name} {cls}/{index}: {problem}", file=sys.stderr)
            ops.append({"cls": cls, "latency": latency, "began": began, "failed": bool(problems)})
            if not probe.periodic:
                probe.tick()
        done.append(block)
        if stop_after is not None and len(done) >= MIN_BLOCKS and time.perf_counter() - start >= stop_after:
            break
    return done, ops


def scale(ops, probe) -> None:
    """Add each operation's latency at the reference machine speed."""
    for op in ops:
        op["scaled"] = op["latency"] * probe.factor(op["began"], op["began"] + op["latency"])


def mix_seconds(ops, key="scaled") -> float:
    """Time of the run's operation mix with each class's operations timed
    at their median, so that one stalled operation does not count."""
    by_class: dict[str, list[float]] = {}
    for op in ops:
        by_class.setdefault(op["cls"], []).append(op[key])
    return sum(statistics.median(t) * len(t) for t in by_class.values())


def end_to_end(workload, ops, key="scaled") -> dict:
    """End-to-end metrics from the speed-scaled latencies, or from the
    raw ones with ``key="latency"``."""
    latencies = [op[key] for op in ops]
    units = sum(workload.units(op["cls"]) for op in ops)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    # The largest of this process and its children, the pool workers.
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * p90,
        "work_per_s": units / mix_seconds(ops, key),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def resolve(path: str):
    owner = sncoint
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer, names=None) -> list[str]:
    missing = []
    targets = []
    for span, path in TRACE_TARGETS:
        if names is not None and span not in names:
            continue
        try:
            owner, attr = resolve(path)
            owner.__dict__[attr]
        except (AttributeError, KeyError):
            missing.append(span)
            continue
        targets.append((span, owner, attr))
    tracer.install(targets)
    for span in missing:
        print(f"trace: {span} not found; its metrics read 0", file=sys.stderr)
    return missing


def span_stats(tracer) -> dict:
    own = self_times(tracer.spans)
    stats: dict[str, dict] = {
        name: {"calls": 0, "incl_ns": 0, "self_ns": 0, "raised": 0, "raised_in_replication": 0}
        for name in tracer.names
    }
    names = tracer.names
    for i, (nid, parent, _, start, end, raised) in enumerate(tracer.spans):
        s = stats[names[nid]]
        s["calls"] += 1
        s["incl_ns"] += end - start
        s["self_ns"] += own[i]
        s["raised"] += raised
        if raised and parent >= 0 and names[tracer.spans[parent][0]] == "bootstrap.replication":
            s["raised_in_replication"] += 1
    return stats


def layer_metrics(workload, stats, n_ops, traced_s, overhead, map_stats, n_map_ops, failed_frac) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def mean_incl(*names, scale=1e-6):
        calls = sum(get(n, "calls") for n in names)
        return sum(get(n, "incl_ns") for n in names) * scale / calls if calls else 0.0

    def mean_self(name, scale=1e-6):
        calls = get(name, "calls")
        return get(name, "self_ns") * scale / calls if calls else 0.0

    def per_op(*names):
        return sum(get(n, "calls") for n in names) / n_ops

    def per_1k_draws(name):
        draws = getattr(workload, "reps", 0) * get(name, "calls")
        return get(name, "incl_ns") * 1e-9 / (draws / 1000) if draws else 0.0

    metrics = {}
    for layer in LAYERS:
        in_layer = [s for name, s in stats.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.self_ms"] = sum(s["self_ns"] for s in in_layer) * 1e-6 / n_ops
        metrics[f"{layer}.calls"] = sum(s["calls"] for s in in_layer) / n_ops
    replications = get("bootstrap.replication", "calls")
    retries = get("bootstrap.generate_sample", "calls") - replications if replications else 0
    total_self_s = sum(s["self_ns"] for s in stats.values()) * 1e-9
    metrics.update(
        {
            "timeseries.sample_us": mean_incl("timeseries.sample", scale=1e-3),
            "timeseries.sample_calls": per_op("timeseries.sample"),
            "estimators.ols_calls": per_op("estimators.ols"),
            "estimators.im_ols_ms": mean_incl("estimators.im_ols"),
            "estimators.im_ols_calls": per_op("estimators.im_ols"),
            "estimators.fm_ols_ms": mean_incl("estimators.fm_ols"),
            "estimators.d_ols_ms": mean_incl("estimators.d_ols"),
            "kernels.lrv_ms": mean_incl("kernels.estimate_lrv", "kernels.one_sided_lrv"),
            "kernels.lrv_calls": per_op("kernels.estimate_lrv", "kernels.one_sided_lrv"),
            "selfnorm.self_normalizer_us": mean_incl("selfnorm.self_normalizer", scale=1e-3),
            "selfnorm.wald_statistic_us": mean_incl("selfnorm.wald_statistic", scale=1e-3),
            "selfnorm.traditional_wald_ms": mean_self("selfnorm.traditional_wald"),
            "bootstrap.select_order_ms": mean_incl("bootstrap.select_order"),
            "bootstrap.yule_walker_ms": mean_incl("bootstrap.yule_walker"),
            "bootstrap.generate_sample_ms": mean_incl("bootstrap.generate_sample"),
            "bootstrap.statistic_ms": mean_self("bootstrap.statistic"),
            "bootstrap.discard_frac": (
                (get("bootstrap.statistic", "raised_in_replication") - retries) / replications if replications else 0.0
            ),
            "bootstrap.retry_frac": retries / replications if replications else 0.0,
            "asymptotics.limit_components_s_per_1k": per_1k_draws("asymptotics.limit_components"),
            "asymptotics.random_walk_s_per_1k": per_1k_draws("asymptotics.random_walk"),
            "montecarlo.dgp_ms": mean_incl("montecarlo.dgp"),
            "montecarlo.dgp_calls": per_op("montecarlo.dgp"),
            "streams.map_calls": map_stats.get("calls", 0) / n_map_ops,
            "streams.map_s": map_stats.get("incl_ns", 0) * 1e-9 / n_map_ops,
            "tables.default_table_ms": mean_incl("tables.default_table"),
            "trace_overhead_frac": overhead,
            "trace_coverage_frac": total_self_s / traced_s,
            "failed_frac": failed_frac,
        }
    )
    return metrics


def traced_run(workload, seed, seconds, inputs, reference) -> dict:
    """Untraced for half the time, then the same operations traced."""
    parallel = workload.workers
    workload.workers = 1  # keep every span in this process
    with PeriodicProbe() as probe:
        done, untraced = run_blocks(workload, workload.schedule(seed), inputs, reference, probe, seconds / 2)
        tracer = Tracer()
        missing = install(tracer)
        try:
            _, traced = run_blocks(workload, done, inputs, reference, probe, tracer=tracer)
        finally:
            tracer.uninstall()
    scale(untraced + traced, probe)
    stats = span_stats(tracer)

    map_stats, n_map_ops = stats.get("streams.replication_map", {}), len(traced)
    if parallel > 1:
        # Pool start-up and hand-off are only paid with workers > 1: time
        # replication_map alone, in this process, at the workload's setting.
        workload.workers = parallel
        map_tracer = Tracer()
        install(map_tracer, {"streams.replication_map"})
        try:
            with PeriodicProbe(periodic=False) as probe:
                traced += run_blocks(workload, [done[0][:1]], inputs, reference, probe)[1]
        finally:
            map_tracer.uninstall()
        map_stats, n_map_ops = span_stats(map_tracer).get("streams.replication_map", {}), 1

    ops = untraced + traced
    failed_frac = sum(op["failed"] for op in ops) / len(ops)
    overhead = mix_seconds(traced[: len(untraced)]) / mix_seconds(untraced) - 1.0
    traced_s = sum(op["latency"] for op in traced[: len(untraced)])
    metrics = layer_metrics(workload, stats, len(untraced), traced_s, overhead, map_stats, n_map_ops, failed_frac)

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload.name}_seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "span_fields": ["name", "parent", "op", "start_ns", "end_ns", "raised"],
                "names": tracer.names,
                "spans": tracer.spans,
                "missing": missing,
                "counts": stats,
                "metrics": metrics,
            },
            fh,
        )
    print(f"trace written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    coverage_ok = metrics["trace_coverage_frac"] >= MIN_COVERAGE
    if not coverage_ok:
        print(
            f"trace check failed: layer self times cover {metrics['trace_coverage_frac']:.3f} "
            f"of the traced time, below {MIN_COVERAGE}",
            file=sys.stderr,
        )
    return {
        "ops": ops,
        "metrics": metrics,
        "coverage_ok": coverage_ok,
        "units": dict(PER_LAYER),
    }


def measured_run(workload, seed, seconds, inputs, reference) -> dict:
    with PeriodicProbe(periodic=workload.workers == 1) as probe:
        _, ops = run_blocks(workload, workload.schedule(seed), inputs, reference, probe, seconds)
    scale(ops, probe)
    return {
        "ops": ops,
        "metrics": end_to_end(workload, ops),
        "raw_metrics": end_to_end(workload, ops, key="latency"),
        "coverage_ok": True,
        "units": dict(END_TO_END),
    }


def write_reference() -> None:
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs = workload.inputs()
        out[name] = {
            "tolerance": workload.tolerance,
            "results": {
                f"{c.name}/{i}": json.loads(json.dumps(workload.summary(workload.run(c.name, i, inputs))))
                for c in workload.classes
                for i in range(c.pool)
            },
        }
        print(f"reference: {name} done", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "workloads": out}, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; no reference check")
    parser.add_argument("--setup", choices=sorted(WORKLOADS))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if args.write_reference:
        write_reference()
        return 0
    if args.setup:
        WORKLOADS[args.setup](tiny=args.tiny).warmup()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    reference = None
    if not args.tiny:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][workload.name]
    inputs = workload.inputs()
    workload.warmup()
    run = traced_run if args.trace else measured_run
    outcome = run(workload, args.seed, args.seconds, inputs, reference)
    ops = outcome["ops"]
    failed = sum(op["failed"] for op in ops)
    print(
        json.dumps(
            {
                "correct": failed == 0 and outcome["coverage_ok"],
                "attempted": len(ops),
                "failed": failed,
                "metrics": outcome["metrics"],
                "raw_metrics": outcome.get("raw_metrics", {}),
                "units": outcome["units"],
                "aliases": ALIASES[workload.name],
                "unit_of_work": workload.unit,
                "op_counts": {c.name: sum(op["cls"] == c.name for op in ops) for c in workload.classes},
                "environment": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

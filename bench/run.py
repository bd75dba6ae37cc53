"""Benchmark for sncoint: four workloads, end-to-end metrics, a traced run.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload analysis --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one caller, one operation at a time; see
``workloads.py``):

    analysis    run_analysis, 3 x T=250 (Bartlett) : 1 x T=1000 (QS)
    bootstrap   bootstrap_test, SN statistic, B=1499, 3 x T=100 : 1 x T=1000
    critvals    simulate_critical_values, n_grid=10000, 2 x Brownian-lattice
                route : 1 x random-walk route
    montecarlo  size_adjusted_power, GARCH T=100, 4 statistics, 2 workers

With ``--trace 0`` the run prints the end-to-end metrics; every workload
reports all of them, and ``ALIASES`` in ``worker.py`` names what each one
is on each workload:

    setup_s      fresh interpreter through ``import sncoint`` and the
                 workload's warm-up operation; median of five
    p50_ms       median operation latency (analysis_p50_ms on analysis)
    p90_ms       90th-percentile operation latency (analysis_p90_ms)
    work_per_s   units of work per second: analyses, bootstrap
                 replications (boot_reps_per_s), limit-law draws
                 (limit_draws_per_s), or (replication, grid point)
                 evaluations (mc_samples_per_s)
    peak_rss_mb  largest peak resident memory of the workload process
                 and its pool workers

Every time is scaled to a reference machine speed: the operation's time
times a reference probe time over the time of a fixed probe measured
around it (see ``probe.py``; the host drifts in speed by up to 2x).
Raw times are printed beside the scaled ones and recorded in the
results file.

Failed or mismatching operations are the result's ``failed`` count, and
``failed_frac`` is printed with them. With ``--trace 1`` the run times
the same operations untraced and then traced, and prints per-layer
metrics from spans around each ``sncoint`` module's functions; the spans
are written to ``.bench_out/trace_<workload>_seed<n>.json``.

Every workload process and set-up process starts with OpenBLAS, OpenMP
and MKL pinned to one thread. Each run appends a record (metrics,
environment, git SHA) to ``.bench_out/results.jsonl``. Compare two such
files, from a parent commit and a change:

    python3 bench/run.py --compare parent.jsonl change.jsonl

The last line of standard output is the run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("analysis", "bootstrap", "critvals", "montecarlo")
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=pinned_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, None)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str, tiny: bool) -> tuple[float, float]:
    """Median set-up time over fresh processes: speed-scaled and raw."""
    from probe import PeriodicProbe

    runs = []
    with PeriodicProbe() as probe:
        for _ in range(SETUP_REPEATS):
            began, t0 = time.monotonic(), time.perf_counter()
            done = run_child(["--setup", workload] + (["--tiny"] if tiny else []), timeout=60)
            runs.append((began, time.perf_counter() - t0))
            if done.returncode != 0:
                raise RuntimeError(f"set-up run exited with {done.returncode}")
    # The probe runs in this process while the set-up process runs.
    scaled = [raw * probe.factor(began, began + raw) for began, raw in runs]
    return statistics.median(scaled), statistics.median(raw for _, raw in runs)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, record: dict) -> None:
    metrics, units = result["metrics"], result["units"]
    counts = ", ".join(f"{k} {v}" for k, v in result["op_counts"].items())
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"operations {result['attempted']} ({counts})  failed {result['failed']}  failed_frac {fmt(failed_frac)}"
    )
    if record["trace"]:
        print(f"  {'layer':<12} {'self ms/op':>12} {'calls/op':>12}")
        for name in metrics:
            if name.endswith(".self_ms"):
                layer = name[: -len(".self_ms")]
                print(f"  {layer:<12} {fmt(metrics[name]):>12} {fmt(metrics[layer + '.calls']):>12}")
        names = [n for n in metrics if not n.endswith((".self_ms", ".calls"))]
    else:
        names = list(metrics)
    raw = result["raw_metrics"]
    for name in names:
        alias = result["aliases"].get(name)
        label = f"{name} ({alias})" if alias else name
        unscaled = f"   raw {fmt(raw[name])}" if name in raw and raw[name] != metrics[name] else ""
        print(f"  {label:<42} {fmt(metrics[name]):>12} {units[name]:<6}{unscaled}")
    env = result["environment"]
    pins = " ".join(f"{k}={v}" for k, v in env["pinned"].items())
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']}, nproc {env['nproc']}, {pins}, git {record['git_sha']}"
    )


def run(args) -> int:
    if not (ROOT / "src" / "sncoint" / "__init__.py").is_file():
        print(f"no sncoint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    setup = None if args.trace else measure_setup(args.workload, args.tiny)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    worker_args += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    done = run_child(worker_args, timeout=max(30.0, DEADLINE_S - (time.perf_counter() - start)))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"workload process exited with {done.returncode}", file=sys.stderr)
        return done.returncode or 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics = {"setup_s": setup[0], **metrics}
        result["raw_metrics"] = {"setup_s": setup[1], **result["raw_metrics"]}
        result["units"] = {"setup_s": "s", **result["units"]}
        result["metrics"] = metrics
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "raw_metrics": result["raw_metrics"],
        "units": result["units"],
        "aliases": result["aliases"],
        "op_counts": result["op_counts"],
        "environment": result["environment"],
    }
    results = Path(args.results) if args.results else OUT_DIR / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    report(result, record)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def main() -> int:
    os.environ.update(PINNED_ENV)  # before numpy loads here, for the speed probe
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, no reference check")
    parser.add_argument("--results", help="results file to append to (default .bench_out/results.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two results files")
    parser.add_argument("--write-reference", action="store_true", help="regenerate bench/reference.json")
    args = parser.parse_args()
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if args.write_reference:
        return run_child(["--write-reference"], timeout=3600).returncode
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

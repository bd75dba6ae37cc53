"""Record one point of the benchmark trajectory as a ``BENCH_*.json`` file.

For each seed and each of the four workloads it runs, one at a time,

    python3 bench/run.py --workload <w> --seed <s> --seconds 15 --trace 0 --results <tmp>

and writes, per workload and end-to-end metric, the median, the
quartiles and the run count, both scaled to the reference machine speed
(``metrics``) and raw (``raw_metrics``), plus every run's values. The
file also records the git SHA and whether the tree had changes, the
bench worker's environment (Python, numpy, scipy and BLAS versions, the
core count and the ``*_NUM_THREADS`` pins), ``BLAS_PINNED`` and
``MEMORY_RETAINED``, ``wc -l`` of ``src/sncoint/*.py``, the
``tools/fingerprint.py`` digest, and the tier-1 wall time per test file
(summed from ``pytest --junitxml``).

    python3 tools/bench_record.py BENCH_<n>.json

The seeds are fixed (901-905), so every trajectory file can be paired
seed by seed with every other.

Stops with an error if a run is not ``correct``, has failed operations,
or tier-1 has a failure. Five seeds take about 9 minutes on 2 cores,
plus one tier-1 run. ``per_layer`` is null: it needs the traced run
(``--trace 1``), which fails while ``bench/worker.py`` names trace
targets the package no longer has.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analysis", "bootstrap", "critvals", "montecarlo")
SEEDS = (901, 902, 903, 904, 905)
SECONDS = 15
PER_LAYER_REASON = (
    "the traced run (bench/run.py --trace 1) fails: bench/worker.py's TRACE_TARGETS name functions "
    "the package no longer has"
)


def _run(args: list[str], timeout: float) -> str:
    """Standard output of ``args`` run from the root; a non-zero exit raises."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def _summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def bench_runs() -> list[dict]:
    """One bench record per (seed, workload), workloads interleaved within each seed."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results.jsonl"
        for seed in SEEDS:
            for workload in WORKLOADS:
                args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
                _run([sys.executable, "bench/run.py", *args, "--results", str(results)], timeout=300)
                record = json.loads(results.read_text(encoding="utf-8").splitlines()[-1])
                if record["correct"] is not True or record["failed"] != 0:
                    raise RuntimeError(f"{workload} seed {seed}: correct {record['correct']}, failed {record['failed']}")
                print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in record["metrics"].items()),
                      flush=True)  # fmt: skip
                records.append(record)
    return records


def tier1_times() -> dict:
    """Tier-1 wall time: the suite's total and the sum of each test file's test times."""
    with tempfile.TemporaryDirectory() as tmp:
        xml_path = Path(tmp) / "tier1.xml"
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        _run([sys.executable, *args, f"--junitxml={xml_path}"], timeout=1800)
        suite = ET.parse(xml_path).getroot().find("testsuite")
    per_file: dict[str, float] = defaultdict(float)
    for case in suite.iter("testcase"):
        parts = case.get("classname", "").split(".")
        module = next(i for i, part in enumerate(parts) if part.startswith("test_"))
        per_file["/".join(parts[: module + 1]) + ".py"] += float(case.get("time", 0.0))
    counts = {key: int(suite.get(key, 0)) for key in ("tests", "failures", "errors", "skipped")}
    if counts["failures"] or counts["errors"]:
        raise RuntimeError(f"tier-1 failed: {counts}")
    return {"total_s": float(suite.get("time")), **counts, "per_file_s": {k: round(v, 3) for k, v in sorted(per_file.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)

    records = bench_runs()
    workloads = {}
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        workloads[workload] = {
            kind: {name: _summary([r[kind][name] for r in runs]) for name in runs[0][kind]}
            for kind in ("metrics", "raw_metrics")
        } | {"units": runs[0]["units"], "runs": [{"seed": r["seed"], "metrics": r["metrics"]} for r in runs]}
    streams = json.loads(_run([sys.executable, "-c", "import json, sncoint.streams as s; "
                               "print(json.dumps([s.BLAS_PINNED, s.MEMORY_RETAINED]))"], timeout=60))  # fmt: skip
    lines = {path.name: len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src" / "sncoint").glob("*.py"))}
    payload = {
        "git_sha": records[0]["git_sha"],
        "tree_changed": bool(_run(["git", "status", "--porcelain", "--", "src", "bench", "tools"], timeout=60).strip()),
        "command": f"bench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "environment": {**records[0]["environment"], "blas_pinned": streams[0], "memory_retained": streams[1]},
        "src_lines": {"total": sum(lines.values()), **lines},
        "fingerprint": _run([sys.executable, "tools/fingerprint.py"], timeout=600).strip(),
        "tier1": tier1_times(),
        "workloads": workloads,
        "per_layer": None,
        "per_layer_reason": PER_LAYER_REASON,
    }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

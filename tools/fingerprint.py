"""One SHA-256 over fixed-seed outputs of sncoint, to check that a change
leaves every number bit-identical.

Covers the stacked and one-row fits (static OLS, IM-OLS, the long-run
covariance, FM-OLS and D-OLS), every fit and the design of each row view
of a stack, read before the stack's own so that the views fill its memo,
the five statistics on a stack, a size
study with every test tag (the three bootstrap tests included), a
four-statistic size-adjusted power study, ``run_analysis``,
``bootstrap_test`` for each bootstrap statistic,
``simulate_critical_values`` for a panel with and without deterministics,
the generator states of ``substream`` over seeds of one to five 32-bit
words and key paths of length 0 to 3, ``simulate_limit_components`` and
``local_power`` on short walks, a ``simulate_limit_components`` draw of
three chunks, each of several row blocks ending in a short one, and
``im_ols_batch`` on a strided y and an x sliced from a wider array.
Wall time, a study's layout (chunk size, task and process counts),
whether its pool workers pinned BLAS and whether it kept freed memory in
the process are left out, so the digest measures results only.

    PYTHONPATH=src python tools/fingerprint.py [--parts]

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is set, so the
digest does not depend on the core count. ``--parts`` also prints one
digest per part, to locate a difference. Takes a few seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import sncoint as sn  # noqa: E402
from sncoint.asymptotics import simulate_limit_components  # noqa: E402
from sncoint.estimators import im_ols_batch  # noqa: E402
from sncoint.selfnorm import traditional_statistic  # noqa: E402
from sncoint.streams import substream  # noqa: E402

# Wall time, how a study was split into tasks, its BLAS pinning and memory retention: not results.
RUN_LAYOUT = {"runtime_s", "chunk_size", "tasks", "processes", "blas_pinned", "memory_retained"}
DETS = (sn.Deterministics.NONE, sn.Deterministics.INTERCEPT, sn.Deterministics.TREND)
KERNELS = (sn.KernelSpec("bartlett", "andrews"), sn.KernelSpec("qs", "andrews"))


def feed(h, obj) -> None:
    """Hash ``obj``: arrays by dtype, shape and bytes, containers item by item."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            if key not in RUN_LAYOUT:
                h.update(str(key).encode())
                feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    else:
        h.update(repr(obj).encode())


def stack(rng, c: int, T: int, m: int, det) -> tuple[np.ndarray, np.ndarray]:
    """c cointegrated samples with AR(1) errors; row 1 has collinear
    regressors (a zero one when m = 1)."""
    x = np.cumsum(rng.standard_normal((c, T, m)), axis=1)
    if m == 1:
        x[1] = 0.0
    else:
        x[1, :, 1] = 2.0 * x[1, :, 0]
    u = np.empty((c, T))
    u[:, 0] = rng.standard_normal(c)
    for t in range(1, T):
        u[:, t] = 0.5 * u[:, t - 1] + rng.standard_normal(c)
    d = sn.build_deterministics(det, T) @ np.arange(1.0, det.n_columns + 1.0) if det.n_columns else 0.0
    return d + x.sum(axis=2) + u, x


def fits(fitted) -> list:
    return [fitted.static, fitted.im] + [f(k) for k in KERNELS for f in (fitted.lrv, fitted.fm)] + [fitted.dols(2)]


def part_fits() -> list:
    rng = np.random.default_rng(1)
    out = []
    for T in (40, 100, 250):
        for m in (1, 2, 3):
            for det in DETS:
                y, x = stack(rng, 5, T, m, det)
                out.append(fits(sn.FittedSample(y, x, det)))
                out.append(fits(sn.FittedSample(sn.CointegrationSample(y[0], x[0], det))))
                out.append([sn.ols(y[2], x[2]), sn.d_ols(sn.CointegrationSample(y[3], x[3], det), 3)])
    return out


def outcome(read):
    """``read()``, or the type and message of the error it raises."""
    try:
        return read()
    except (ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def part_views() -> list:
    rng = np.random.default_rng(14)
    out = []
    for m, det in ((1, sn.Deterministics.NONE), (2, sn.Deterministics.INTERCEPT), (3, sn.Deterministics.TREND)):
        y, x = stack(rng, 4, 80, m, det)
        fitted = sn.FittedSample(y, x, det)
        for view in map(fitted.row, range(4)):
            reads = [lambda: view.static, lambda: view.im, lambda: view.dols(2), lambda: view.design]
            reads += [lambda f=f, k=k: f(k) for k in KERNELS for f in (view.lrv, view.fm)]
            out.append([outcome(read) for read in reads])
        out.append(fits(fitted) + [fitted.design])
    return out


def part_statistics() -> list:
    rng = np.random.default_rng(2)
    out = []
    for m, det in ((1, sn.Deterministics.NONE), (2, sn.Deterministics.INTERCEPT), (3, sn.Deterministics.TREND)):
        y, x = stack(rng, 6, 120, m, det)
        fitted = sn.FittedSample(y, x, det)
        r = sn.RestrictionSpec(R=np.eye(m)[:1], value=np.ones(1))
        out += [sn.bootstrap_statistic(fitted, r, s, KERNELS[0]) for s in ("sn", "tau1", "wald-lrv")]
        out += [traditional_statistic(e, fitted, r, k) for e in ("FM", "D") for k in KERNELS]
    return out


def part_studies() -> list:
    config = sn.DgpConfig(T=60, rho1=0.5, rho2=0.5)
    battery = sn.standard_battery(["SN-asymptotic", "Wald-IM", "Wald-FM", "Wald-D", "SN-bootstrap", "tau1-bootstrap",
                                   "Wald-IM-bootstrap"], boot=sn.BootstrapConfig(n_boot=19))  # fmt: skip
    stats = sn.standard_statistics(["SN", "Wald-IM", "Wald-FM", "Wald-D"])
    return [
        sn.size_experiment(config, battery, reps=20, seed=4),
        sn.size_adjusted_power(config, stats, [1.0, 1.1, 1.2], reps=40, seed=5),
    ]


def part_analysis() -> list:
    rng = np.random.default_rng(6)
    out = []
    for T, m, det, kernel in ((250, 1, sn.Deterministics.NONE, KERNELS[0]), (400, 2, sn.Deterministics.INTERCEPT, KERNELS[1])):
        y, x = stack(rng, 3, T, m, det)
        sample = sn.CointegrationSample(y[0], x[0], det)
        r = sn.RestrictionSpec(R=np.eye(m)[:1], value=np.ones(1))
        out.append(sn.run_analysis(sample, r, kernel=kernel, boot=sn.BootstrapConfig(n_boot=39, seed=7), seed=8))
        for statistic in ("sn", "tau1", "wald-lrv"):
            config = sn.BootstrapConfig(n_boot=99, seed=9)
            out.append(sn.bootstrap_test(sample, r, config, statistic, kernel))
    return out


def part_critvals() -> list:
    return [sn.simulate_critical_values(m, 1, det, n_grid=1000, reps=1000, seed=10)
            for m, det in ((1, sn.Deterministics.NONE), (2, sn.Deterministics.INTERCEPT))]  # fmt: skip


def part_streams() -> list:
    keys = [()] + [key for i in range(3) for key in ((i,), (i, 0), (i, 1), (0, i), (1, i), (2, i, 7))]
    return [substream(seed, *key).bit_generator.state
            for seed in (0, 5, 2**32 - 1, 2**32 + 5, 2**70 + 12345, 2**130 + 1) for key in keys]  # fmt: skip


def part_limit() -> list:
    return [simulate_limit_components(m, s, n_grid=300, reps=200, seed=11) for m, s in ((1, 1), (3, 2))] + [
        sn.local_power([0.0, 5.0, 10.0], reps=200, seed=12, n_grid=300)
    ]


def part_chunks() -> list:
    # 3 chunks of at most 416 walks at (n_grid, m) = (2000, 3), fitted in blocks of 10 rows
    return [simulate_limit_components(3, 2, n_grid=2000, reps=1000, seed=13)]


def part_layout() -> list:
    rng = np.random.default_rng(13)
    out = []
    for m, det in ((1, sn.Deterministics.NONE), (2, sn.Deterministics.INTERCEPT), (3, sn.Deterministics.TREND)):
        y, x = stack(rng, 5, 90, m, det)
        wide_y, wide_x = np.zeros((5, 180)), np.zeros((5, 90, m + 2))
        wide_y[:, ::2], wide_x[:, :, 1:-1] = y, x
        out.append(im_ols_batch(wide_y[:, ::2], wide_x[:, :, 1:-1], det))
    return out


PARTS = {
    "fits": part_fits,
    "views": part_views,
    "statistics": part_statistics,
    "studies": part_studies,
    "analysis": part_analysis,
    "critvals": part_critvals,
    "streams": part_streams,
    "limit": part_limit,
    "chunks": part_chunks,
    "layout": part_layout,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parts", action="store_true", help="also print one digest per part")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name, part in PARTS.items():
        h = hashlib.sha256()
        feed(h, part())
        total.update(h.digest())
        if args.parts:
            print(f"{name:<12}{h.hexdigest()}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CSV ingestion, the analysis workflow, and the command-line interface.

Subcommands:

* ``test``     -- self-normalized test with asymptotic critical values
* ``boottest`` -- sieve-bootstrap tests (self-normalized and Wald variants)
* ``critvals`` -- simulate and store critical-value tables
* ``simulate`` -- size / size-adjusted-power experiments from a JSON config
* ``lrv``      -- standalone long-run variance estimation

Exit codes: 0 command ran, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotics import simulate_critical_values
from .battery import standard_battery, standard_statistics
from .bootstrap import BootstrapConfig, bootstrap_test
from .estimators import RestrictionSpec, fm_ols, im_ols, ols
from .kernels import BARTLETT, QUADRATIC_SPECTRAL, KernelSpec, estimate_lrv
from .montecarlo import DgpConfig, size_adjusted_power, size_experiment
from .selfnorm import TestOutcome, self_normalized_test, traditional_wald
from .tables import CriticalValueTable, default_table, load_table, save_table
from .timeseries import CointegrationSample, Deterministics

__all__ = ["ingest_csv", "ar1_persistence", "run_analysis", "AnalysisReport", "parse_matrix", "main"]


class UsageError(Exception):
    """Bad flags, bad files, bad inline matrices."""


def ingest_csv(
    path: str,
    y_column: str,
    x_columns: list[str],
    det: Deterministics = Deterministics.NONE,
) -> CointegrationSample:
    """Read a UTF-8, comma-separated file with a header row into a sample.

    Row order is time order. Missing columns, blank cells, non-numeric
    cells and non-finite values ("nan", "inf") raise :class:`UsageError`
    naming the offending row and column.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in [y_column, *x_columns]:
            if name not in header:
                raise UsageError(f"{path}: column {name!r} not found (header: {', '.join(header)})")
        y_vals: list[float] = []
        x_vals: list[list[float]] = []
        for row_number, row in enumerate(reader, start=2):
            record = []
            for name in [y_column, *x_columns]:
                cell = (row.get(name) or "").strip()
                if not cell:
                    raise UsageError(f"{path}: row {row_number}, column {name!r}: empty cell")
                try:
                    value = float(cell)
                except ValueError:
                    raise UsageError(
                        f"{path}: row {row_number}, column {name!r}: could not parse {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise UsageError(f"{path}: row {row_number}, column {name!r}: non-finite value {cell!r}")
                record.append(value)
            y_vals.append(record[0])
            x_vals.append(record[1:])
    if not y_vals:
        raise UsageError(f"{path}: no data rows")
    try:
        return CointegrationSample(y=np.asarray(y_vals), x=np.asarray(x_vals), det=det)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def ar1_persistence(residuals: np.ndarray) -> float:
    """First-order autoregressive coefficient of a residual series.

    The lag regression always includes an intercept; with mean-zero
    residuals it is numerically irrelevant.
    """
    resid = np.asarray(residuals, dtype=float)
    if resid.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    if np.ptp(resid) == 0.0:
        raise ValueError("residuals are constant")
    X = np.column_stack([np.ones(resid.shape[0] - 1), resid[:-1]])
    return float(ols(resid[1:], X).params[1])


@dataclass(frozen=True)
class AnalysisReport:
    """Estimates, test outcomes and provenance for one dataset."""

    estimates: dict
    outcomes: tuple[TestOutcome, ...]
    rho1: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "estimates": {k: list(map(float, v)) for k, v in self.estimates.items()},
            "outcomes": [dataclasses.asdict(o) | {"warnings": list(o.warnings)} for o in self.outcomes],
            "rho1": self.rho1,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        outcomes = tuple(
            TestOutcome(
                statistic=o["statistic"],
                critical_value=o["critical_value"],
                reject=o["reject"],
                method=o["method"],
                p_value=o.get("p_value"),
                warnings=tuple(o.get("warnings", ())),
                diagnostics=dict(o.get("diagnostics", {})),
            )
            for o in data["outcomes"]
        )
        return cls(
            estimates={k: np.asarray(v) for k, v in data["estimates"].items()},
            outcomes=outcomes,
            rho1=data["rho1"],
            provenance=data.get("provenance", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def _resolve_table(
    sample: CointegrationSample,
    restriction: RestrictionSpec,
    table: CriticalValueTable | None,
    seed: int,
) -> CriticalValueTable:
    if table is not None:
        return table
    m, s = sample.n_regressors, restriction.n_restrictions
    try:
        return default_table(m, s, sample.det)
    except KeyError:
        return simulate_critical_values(m, s, sample.det, seed=seed)


def run_analysis(
    sample: CointegrationSample,
    restriction: RestrictionSpec,
    alpha: float = 0.05,
    kernel: KernelSpec | None = None,
    boot: BootstrapConfig | None = None,
    table: CriticalValueTable | None = None,
    seed: int = 0,
    provenance: dict | None = None,
) -> AnalysisReport:
    """Estimate the cointegrating vector three ways and test the restriction.

    Always runs the asymptotic self-normalized test and the traditional
    fully-modified Wald test; adds the bootstrap-assisted self-normalized
    test when a bootstrap configuration is supplied. The critical-value
    table is loaded from the packaged quantiles, or simulated on demand
    for combinations outside them.
    """
    kernel = kernel or KernelSpec(BARTLETT, "andrews")
    d = sample.deterministics()
    X = np.column_stack([d, sample.x]) if d.shape[1] else sample.x
    static = ols(sample.y, X)
    fit = im_ols(sample)
    fm = fm_ols(sample, kernel)

    outcomes = [
        self_normalized_test(sample, restriction, _resolve_table(sample, restriction, table, seed), alpha),
        traditional_wald("FM", sample, restriction, kernel, alpha),
    ]
    if boot is not None:
        outcomes.append(bootstrap_test(sample, restriction, boot, fit=fit))

    return AnalysisReport(
        estimates={
            "ols": static.params[d.shape[1] :],
            "im_ols": fit.beta,
            "fm_ols": fm.beta,
        },
        outcomes=tuple(outcomes),
        rho1=ar1_persistence(static.resid),
        provenance={
            "seed": seed,
            "alpha": alpha,
            "kernel": kernel.kind,
            "bandwidth": kernel.bandwidth if isinstance(kernel.bandwidth, str) else float(kernel.bandwidth),
            "det": sample.det.value,
            "version": __version__,
            **(provenance or {}),
        },
    )


def parse_matrix(text: str) -> np.ndarray:
    """Parse inline matrix syntax: rows split by ';', entries by ','."""
    try:
        rows = [[float(cell) for cell in row.split(",")] for row in text.strip().split(";")]
    except ValueError:
        raise UsageError(f"could not parse matrix {text!r}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError(f"ragged matrix {text!r}")
    return np.asarray(rows)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _kernel_from_args(args) -> KernelSpec:
    kind = {"bartlett": BARTLETT, "qs": QUADRATIC_SPECTRAL}[args.kernel]
    if args.bandwidth == "andrews":
        return KernelSpec(kind, "andrews")
    try:
        return KernelSpec(kind, float(args.bandwidth))
    except ValueError:
        raise UsageError(f"bandwidth must be 'andrews' or a positive number, got {args.bandwidth!r}") from None


def _order_from_args(text: str):
    if text in ("aic", "bic"):
        return text
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"order must be 'aic', 'bic' or an integer, got {text!r}") from None


def _sample_from_args(args) -> CointegrationSample:
    det = Deterministics.from_alias(args.det)
    return ingest_csv(args.data, args.y, args.x, det)


def _restriction_from_args(args, m: int) -> RestrictionSpec:
    if args.R1 is None:
        # Default: all long-run coefficients equal the values in --r0,
        # or all equal one if --r0 also omitted.
        R = np.eye(m)
        value = np.ones(m) if args.r0 is None else parse_matrix(args.r0).ravel()
    else:
        R = parse_matrix(args.R1)
        if args.r0 is None:
            raise UsageError("--r0 is required when --R1 is given")
        value = parse_matrix(args.r0).ravel()
    try:
        return RestrictionSpec(R=R, value=value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(payload: dict, args) -> None:
    if args.out == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = []
        for key, value in payload.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    lines.append(f"{key}.{k2},{v2}")
            elif isinstance(value, list):
                lines.append(f"{key}," + ",".join(str(v) for v in value))
            else:
                lines.append(f"{key},{value}")
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _outcome_payload(outcome: TestOutcome) -> dict:
    data = dataclasses.asdict(outcome)
    data["warnings"] = list(outcome.warnings)
    return data


def _print_report(report: AnalysisReport) -> None:
    print("Estimates of the long-run coefficients")
    for name, coef in report.estimates.items():
        values = " ".join(f"{v:10.2f}" for v in np.atleast_1d(coef))
        print(f"  {name:8s} {values}")
    print(f"Residual AR(1) persistence: {report.rho1:.2f}")
    print("Tests")
    for outcome in report.outcomes:
        decision = "reject" if outcome.reject else "not reject"
        extra = f", p-value {outcome.p_value:.3f}" if outcome.p_value is not None else ""
        print(
            f"  {outcome.method:18s} statistic {outcome.statistic:9.2f} "
            f"critical {outcome.critical_value:9.2f} -> {decision}{extra}"
        )
        for note in outcome.warnings:
            print(f"    note: {note}")


def _cmd_test(args) -> int:
    sample = _sample_from_args(args)
    restriction = _restriction_from_args(args, sample.n_regressors)
    table = load_table(args.table) if args.table else None
    report = run_analysis(
        sample,
        restriction,
        alpha=args.alpha,
        kernel=_kernel_from_args(args),
        table=table,
        seed=args.seed,
        provenance={"input": args.data, "input_sha256": _sha256(args.data)},
    )
    if args.out:
        _emit(report.to_dict(), args)
    else:
        _print_report(report)
    return 0


def _cmd_boottest(args) -> int:
    sample = _sample_from_args(args)
    restriction = _restriction_from_args(args, sample.n_regressors)
    boot = BootstrapConfig(
        n_boot=args.B,
        alpha=args.alpha,
        seed=args.seed,
        order_rule=_order_from_args(args.order),
        workers=args.workers,
    )
    table = load_table(args.table) if args.table else None
    report = run_analysis(
        sample,
        restriction,
        alpha=args.alpha,
        kernel=_kernel_from_args(args),
        boot=boot,
        table=table,
        seed=args.seed,
        provenance={"input": args.data, "input_sha256": _sha256(args.data), "B": args.B},
    )
    if args.out:
        _emit(report.to_dict(), args)
    else:
        _print_report(report)
    return 0


def _cmd_critvals(args) -> int:
    det = Deterministics.from_alias(args.det)
    table = simulate_critical_values(
        args.m, args.s, det, n_grid=args.n_grid, reps=args.reps, seed=args.seed
    )
    if args.output:
        save_table(table, args.output)
        print(f"wrote {args.output}")
    else:
        print(f"m={table.m} s={table.s} det={table.det.value}")
        for prob in sorted(table.quantiles):
            print(f"  {prob * 100:5.1f}%  {table.quantiles[prob]:10.2f}")
    return 0


def _grid_from_config(spec) -> np.ndarray:
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], spec["num"])
    return np.asarray(spec, dtype=float)


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    kind = cfg.get("kind", "size")
    dgp = DgpConfig(
        T=cfg["T"],
        rho1=cfg.get("rho1", 0.0),
        rho2=cfg.get("rho2", 0.0),
        rho3=cfg.get("rho3", 0.2),
        phi=cfg.get("phi", 0.0),
        a1=cfg.get("a1", 0.05),
        b1=cfg.get("b1", 0.94),
        beta=tuple(cfg.get("beta", (1.0, 1.0))),
    )
    reps = cfg.get("reps", 1000)
    seed = cfg.get("seed", args.seed)
    workers = cfg.get("workers", args.workers)
    alpha = cfg.get("alpha", 0.05)
    kernel_kind = {"bartlett": BARTLETT, "qs": QUADRATIC_SPECTRAL}[cfg.get("kernel", "bartlett")]
    bandwidth = cfg.get("bandwidth", "andrews")
    kernel = KernelSpec(kernel_kind, bandwidth if bandwidth == "andrews" else float(bandwidth))

    if kind == "size":
        boot = BootstrapConfig(
            n_boot=cfg.get("B", 199),
            alpha=alpha,
            order_rule=_order_from_args(str(cfg.get("order", "aic"))),
        )
        tests = standard_battery(cfg.get("tests", ["SN-asymptotic"]), alpha=alpha, kernel=kernel, boot=boot)
        result = size_experiment(dgp, tests, reps=reps, seed=seed, workers=workers)
        rows = [("test", "rejection_rate")] + [(name, f"{rate!r}") for name, rate in result.rates.items()]
    elif kind == "power":
        grid = _grid_from_config(cfg.get("beta_grid", {"start": 1.01, "stop": 1.2, "num": 20}))
        stats = standard_statistics(cfg.get("statistics", ["SN"]), kernel=kernel)
        result = size_adjusted_power(dgp, stats, grid, reps=reps, seed=seed, alpha=alpha, workers=workers)
        header = ("beta",) + tuple(result.rates)
        rows = [header]
        for g, b in enumerate(result.beta_grid):
            rows.append((f"{float(b)!r}",) + tuple(f"{float(result.rates[name][g])!r}" for name in result.rates))
    else:
        raise UsageError(f"unknown experiment kind {kind!r}")

    out_path = args.output or f"{kind}_results.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    manifest = {
        "kind": kind,
        "config": cfg,
        "seed": seed,
        "reps": reps,
        "workers": workers,
        "runtime_s": result.meta.get("runtime_s"),
        "version": __version__,
        "results_csv": out_path,
    }
    manifest_path = out_path.rsplit(".", 1)[0] + "_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {out_path} and {manifest_path}")
    return 0


def _cmd_lrv(args) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise UsageError("--columns must name at least one column")
    with open(args.data, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in columns:
            if name not in header:
                raise UsageError(f"{args.data}: column {name!r} not found")
        data = []
        for row_number, row in enumerate(reader, start=2):
            try:
                data.append([float((row.get(c) or "").strip()) for c in columns])
            except ValueError:
                raise UsageError(f"{args.data}: row {row_number}: non-numeric cell") from None
    est = estimate_lrv(np.asarray(data), _kernel_from_args(args))
    payload = {
        "kernel": est.kind,
        "bandwidth": est.bandwidth,
        "omega": [list(map(float, row)) for row in est.omega],
        "conditional": est.conditional,
    }
    _emit(payload, args)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sncoint", description="Self-normalized inference for cointegrating regressions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--y", required=True, help="dependent variable column")
        p.add_argument("--x", action="append", required=True, help="regressor column (repeatable)")
        p.add_argument("--det", default="none", choices=["none", "const", "trend", "quad", "cubic"])
        p.add_argument("--R1", default=None, help="restriction matrix, e.g. '1,0;0,1'")
        p.add_argument("--r0", default=None, help="restriction value, e.g. '1;1'")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--kernel", default="bartlett", choices=["bartlett", "qs"])
        p.add_argument("--bandwidth", default="andrews")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--table", default=None, help="critical value table file")
        p.add_argument("--out", default=None, choices=["csv", "json"])
        p.add_argument("--output", default=None, help="write results to this path")

    p_test = sub.add_parser("test", help="self-normalized test, asymptotic critical values")
    add_data_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_boot = sub.add_parser("boottest", help="sieve-bootstrap self-normalized test")
    add_data_flags(p_boot)
    p_boot.add_argument("--B", type=int, default=1499, help="bootstrap replications")
    p_boot.add_argument("--order", default="aic", help="'aic', 'bic', or a fixed order")
    p_boot.add_argument("--workers", type=int, default=1)
    p_boot.set_defaults(func=_cmd_boottest)

    p_crit = sub.add_parser("critvals", help="simulate critical values")
    p_crit.add_argument("--m", type=int, required=True)
    p_crit.add_argument("--s", type=int, required=True)
    p_crit.add_argument("--det", default="none", choices=["none", "const", "trend", "quad", "cubic"])
    p_crit.add_argument("--n-grid", type=int, default=10_000, dest="n_grid")
    p_crit.add_argument("--reps", type=int, default=10_000)
    p_crit.add_argument("--seed", type=int, default=0)
    p_crit.add_argument("--output", default=None)
    p_crit.set_defaults(func=_cmd_critvals)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_lrv = sub.add_parser("lrv", help="standalone long-run variance estimation")
    p_lrv.add_argument("--data", required=True)
    p_lrv.add_argument("--columns", required=True, help="comma-separated column names")
    p_lrv.add_argument("--kernel", default="bartlett", choices=["bartlett", "qs"])
    p_lrv.add_argument("--bandwidth", default="andrews")
    p_lrv.add_argument("--out", default="json", choices=["csv", "json"])
    p_lrv.add_argument("--output", default=None)
    p_lrv.set_defaults(func=_cmd_lrv)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ValueError, KeyError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

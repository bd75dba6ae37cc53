"""CSV ingestion and the command-line interface.

Subcommands:

* ``test``     -- self-normalized test with asymptotic critical values
* ``boottest`` -- ``test``'s two tests plus the sieve-bootstrap self-normalized test
* ``critvals`` -- simulate and store critical-value tables
* ``simulate`` -- size / size-adjusted-power experiments from a JSON config
* ``lrv``      -- standalone long-run variance estimation

Exit codes: 0 command ran, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import _check_table, simulate_critical_values
from .battery import AnalysisReport, _check_analysis, run_analysis, study_from_config
from .bootstrap import BootstrapConfig
from .estimators import RestrictionSpec
from .kernels import _KINDS, KernelSpec, estimate_lrv
from .tables import load_table, save_table
from .timeseries import _ALIASES, CointegrationSample, Deterministics, _number_from_text

__all__ = ["ingest_csv", "parse_matrix", "main"]

_FORMATS = ("csv", "json")


class UsageError(Exception):
    """Bad flags, bad files, bad inline matrices."""


def _read_columns(path: str, columns: list[str]) -> np.ndarray:
    """The named columns of a UTF-8, comma-separated file with a header row (a leading
    byte-order mark, as Excel's "CSV UTF-8" writes, is skipped), as a (rows, columns) array in row order.

    Missing columns, an empty file, blank cells, non-numeric cells and
    non-finite values ("nan", "inf") raise :class:`UsageError` naming the
    offending row and column.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in columns:
            if name not in header:
                raise UsageError(f"{path}: column {name!r} not found (header: {', '.join(header)})")
        rows: list[list[float]] = []
        for row_number, row in enumerate(reader, start=2):
            record = []
            for name in columns:
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
            rows.append(record)
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return np.asarray(rows)


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
    data = _read_columns(path, [y_column, *x_columns])
    try:
        return CointegrationSample(y=data[:, 0], x=data[:, 1:], det=det)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


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


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its KeyError, TypeError or ValueError a usage
    error: for the library's own argument checks, which run before any work."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:  # str() of a KeyError quotes it
        raise UsageError(exc.args[0]) from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subparsers are built by this class too
        super().__init__(allow_abbrev=False, **kwargs)  # no option prefixes: --out is not --output

    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


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
    return _checked(RestrictionSpec, R=R, value=value)


def _scalars(value, path: str = ""):
    """(path, scalar) of every leaf of a JSON payload: keys and list indices
    joined by dots, e.g. ``outcomes.0.statistic`` or ``omega.0.1``."""
    if not isinstance(value, (dict, list)):
        yield path, value
        return
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _scalars(item, f"{path}.{key}" if path else str(key))


def _emit(payload: dict, args) -> None:
    """``payload`` as indented JSON, or as CSV: one ``path,value`` row per
    scalar, a string as it is and any other value as its JSON text."""
    if args.out == "json":
        text = json.dumps(payload, indent=2)
    else:
        buffer = io.StringIO()
        rows = ((path, v if isinstance(v, str) else json.dumps(v)) for path, v in _scalars(payload))
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        text = buffer.getvalue().rstrip("\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    """``test``, and ``boottest``, which adds the bootstrap test."""
    if args.output and not args.out:
        raise UsageError("--output needs --out json or --out csv")
    sample = _sample_from_args(args)
    restriction = _restriction_from_args(args, sample.n_regressors)
    provenance = {"input": args.data, "input_sha256": _sha256(args.data)}
    boot = None
    if args.command == "boottest":
        boot = _checked(
            BootstrapConfig,
            n_boot=args.B,
            alpha=args.alpha,
            seed=args.seed,
            order_rule=_number_from_text(args.order, int),
            workers=args.workers,
        )
        provenance["B"] = args.B
    table = _checked(load_table, args.table) if args.table else None
    _checked(_check_analysis, sample, restriction, args.alpha, table, args.seed)
    report = run_analysis(
        sample,
        restriction,
        alpha=args.alpha,
        kernel=_checked(KernelSpec, args.kernel, _number_from_text(args.bandwidth)),
        boot=boot,
        table=table,
        seed=args.seed,
        provenance=provenance,
    )
    if args.out:
        _emit(report.to_dict(), args)
    else:
        _print_report(report)
    return 0


def _cmd_critvals(args) -> int:
    det = Deterministics.from_alias(args.det)
    _checked(_check_table, args.m, args.s, det, args.n_grid, args.reps, args.seed)
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


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = _checked(json.load, fh)  # a file that is not JSON is a usage error
    run = {"seed": args.seed, "workers": args.workers} | cfg if isinstance(cfg, dict) else cfg  # the config's keys win
    result = _checked(study_from_config, run)()  # a failure of the run is numeric
    if result.kind == "size":
        rows = [("test", "rejection_rate")] + [(name, f"{rate!r}") for name, rate in result.rates.items()]
    else:
        rows = [("beta",) + tuple(result.rates)]
        for g, b in enumerate(result.beta_grid):
            rows.append((f"{float(b)!r}",) + tuple(f"{float(result.rates[name][g])!r}" for name in result.rates))

    out_path = args.output or f"{result.kind}_results.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    # the study's meta, but the JSON file's config in place of the DgpConfig
    meta = {key: value for key, value in result.meta.items() if key != "config"}
    manifest = {"kind": result.kind, "config": cfg, "seed": result.seed, "reps": result.reps}
    manifest |= {"workers": meta["workers"]} | meta
    manifest |= {"version": __version__, "results_csv": out_path}
    manifest_path = os.path.splitext(out_path)[0] + "_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {out_path} and {manifest_path}")
    return 0


def _cmd_lrv(args) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise UsageError("--columns must name at least one column")
    kernel = _checked(KernelSpec, args.kernel, _number_from_text(args.bandwidth))
    est = estimate_lrv(_read_columns(args.data, columns), kernel)
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
        p.add_argument("--det", default="none", choices=tuple(_ALIASES))
        p.add_argument("--R1", default=None, help="restriction matrix, e.g. '1,0;0,1'")
        p.add_argument("--r0", default=None, help="restriction value, e.g. '1;1'")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--kernel", default=KernelSpec.kind, choices=_KINDS)
        p.add_argument("--bandwidth", default=KernelSpec.bandwidth)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--table", default=None, help="critical value table file")
        p.add_argument("--out", default=None, choices=_FORMATS)
        p.add_argument("--output", default=None, help="write results to this path")

    p_test = sub.add_parser("test", help="self-normalized test, asymptotic critical values")
    add_data_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_boot = sub.add_parser("boottest", help="sieve-bootstrap self-normalized test")
    add_data_flags(p_boot)
    p_boot.add_argument("--B", type=int, default=BootstrapConfig.n_boot, help="bootstrap replications")
    p_boot.add_argument("--order", default=BootstrapConfig.order_rule, help="'aic', 'bic', or a fixed order")
    p_boot.add_argument("--workers", type=int, default=BootstrapConfig.workers)
    p_boot.set_defaults(func=_cmd_test)

    p_crit = sub.add_parser("critvals", help="simulate critical values")
    p_crit.add_argument("--m", type=int, required=True)
    p_crit.add_argument("--s", type=int, required=True)
    p_crit.add_argument("--det", default="none", choices=tuple(_ALIASES))
    p_crit.add_argument(
        "--n-grid", type=int, default=10_000, dest="n_grid",
        help="random-walk length (default 10000); 1000 gives quantiles biased low, by a median of about 5.6%%",
    )  # fmt: skip
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
    p_lrv.add_argument("--kernel", default=KernelSpec.kind, choices=_KINDS)
    p_lrv.add_argument("--bandwidth", default=KernelSpec.bandwidth)
    p_lrv.add_argument("--out", default="json", choices=_FORMATS)
    p_lrv.add_argument("--output", default=None)
    p_lrv.set_defaults(func=_cmd_lrv)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output and not os.path.isdir(directory := os.path.dirname(args.output) or "."):  # before any work
            raise UsageError(f"--output {args.output}: directory {directory!r} does not exist")
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a missing input, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ValueError, KeyError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

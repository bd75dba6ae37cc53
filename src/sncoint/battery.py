"""The analysis workflow for one dataset, ready-made test batteries for
the Monte Carlo drivers, and the study a ``simulate`` config describes.

Battery adapters close over their tuning choices with ``functools.partial``
of module-level functions, so batteries can cross process boundaries
when experiments run on multiple workers.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Mapping

import numpy as np

from . import __version__
from .asymptotics import simulate_critical_values
from .bootstrap import BootstrapConfig, bootstrap_test
from .estimators import FittedSample, RestrictionSpec, ols
from .kernels import KernelSpec
from .montecarlo import DgpConfig, _check_study, size_adjusted_power, size_experiment
from .selfnorm import (
    _METHOD_TAGS,
    TestOutcome,
    _chi2_critical,
    bootstrap_statistic,
    self_normalized_test,
    traditional_statistic,
    traditional_wald,
)
from .tables import _PROBS, CriticalValueTable, _level, default_table
from .timeseries import (CointegrationSample, Deterministics, _check_alpha, _check_grid, _check_integers,
                         _number_from_text)  # fmt: skip

__all__ = ["ar1_persistence", "AnalysisReport", "run_analysis", "standard_battery", "standard_statistics",
           "study_from_config"]  # fmt: skip

_EST_TAGS = {"Wald-IM": "IM", "Wald-FM": "FM", "Wald-D": "D"}
_BOOT_TAGS = {tag: statistic for statistic, tag in _METHOD_TAGS.items()}
_BATTERY_BOOT = BootstrapConfig(n_boot=199)  # a battery's bootstrap tests, at its level, unless given one
_DESIGN_KEYS = ("T", "rho1", "rho2", "rho3", "phi", "a1", "b1", "beta")
_CONFIG_KEYS = {"kind", "reps", "seed", "workers", "alpha", "kernel", "bandwidth", *_DESIGN_KEYS}
_STUDY_KEYS = {"size": _CONFIG_KEYS | {"tests", "B", "order"}, "power": _CONFIG_KEYS | {"statistics", "beta_grid"}}


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
        """The report of :meth:`to_dict`; a stored reject flag that disagrees with its outcome raises ValueError."""
        outcomes = tuple(
            TestOutcome(
                statistic=o["statistic"],
                critical_value=o["critical_value"],
                method=o["method"],
                p_value=o.get("p_value"),
                warnings=tuple(o.get("warnings", ())),
                diagnostics=dict(o.get("diagnostics", {})),
            )
            for o in data["outcomes"]
        )
        if any(outcome.reject != o["reject"] for outcome, o in zip(outcomes, data["outcomes"])):
            raise ValueError("reject flag inconsistent with statistic and critical value")
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


def _resolve_table(m: int, s: int, det: Deterministics, seed: int) -> CriticalValueTable:
    """The packaged (m, s, det) quantiles, else a table simulated from ``seed``, with a warning."""
    try:
        return default_table(m, s, det)
    except KeyError:
        n_grid = reps = 10_000
        warnings.warn(f"no packaged critical values for m={m}, s={s}, det={det.value}: simulating a table "
                      f"with n_grid={n_grid}, reps={reps} in one process", RuntimeWarning, stacklevel=3)  # fmt: skip
        return simulate_critical_values(m, s, det, n_grid=n_grid, reps=reps, seed=seed)


def _check_analysis(sample, restriction: RestrictionSpec, alpha: float, table, seed: int) -> None:
    """The rules :func:`run_analysis` checks before any work: seed, restriction width, table fit and level."""
    _check_integers(0, seed=seed)
    m, det = sample.x.shape[-1], sample.det
    restriction.padded(0, m)  # only its width check: R must have m columns
    if table is not None:
        table.require(m, restriction.n_restrictions, det)
    _level(_PROBS if table is None else table.quantiles, alpha)


def run_analysis(
    sample: CointegrationSample | FittedSample,
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
    test when a bootstrap configuration is supplied, run at ``alpha``
    whatever ``boot.alpha`` says. The critical-value table is loaded from
    the packaged quantiles, or simulated on demand for combinations outside
    them. :func:`_check_analysis` checks the inputs before anything is
    fitted or simulated. Every estimate and test reads one :class:`~sncoint.estimators.FittedSample`
    (``sample``'s, or ``sample`` itself, a row of a stack included), so it is fitted once.
    """
    kernel = kernel or KernelSpec()
    fitted = FittedSample.one(sample, "run_analysis")
    _check_analysis(fitted, restriction, alpha, table, seed)
    m, s, det = fitted.x.shape[2], restriction.n_restrictions, fitted.det
    table = _resolve_table(m, s, det, seed) if table is None else table

    static, fit, fm = fitted.static, fitted.im, fitted.fm(kernel)
    outcomes = [
        self_normalized_test(fitted, restriction, table, alpha),
        traditional_wald("FM", fitted, restriction, kernel, alpha),
    ]
    if boot is not None:
        outcomes.append(bootstrap_test(fitted, restriction, replace(boot, alpha=alpha)))

    return AnalysisReport(
        estimates={
            "ols": static.params[det.n_columns :],
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
            "det": det.value,
            "version": __version__,
            **(provenance or {}),
        },
    )


def _sn_asymptotic_test(alpha, fitted, restriction, seeds) -> np.ndarray:
    table = _resolve_table(fitted.x.shape[2], restriction.n_restrictions, fitted.det, seeds[0])
    statistics = bootstrap_statistic(fitted, restriction, "sn")
    return np.where(np.isnan(statistics), np.nan, statistics > table.critical_value(alpha))


def _wald_test(tag, kernel, alpha, fitted, restriction, seeds) -> np.ndarray:
    statistics = traditional_statistic(tag, fitted, restriction, kernel)
    return np.where(np.isnan(statistics), np.nan, statistics > _chi2_critical(restriction.n_restrictions, alpha))


def _bootstrap_test(statistic, kernel, config, fitted, restriction, seeds) -> np.ndarray:
    """Each row's bootstrap test on its fits in the stack, from its own seed; NaN where the row is degenerate."""
    observed = bootstrap_statistic(fitted, restriction, statistic, kernel)
    return np.array([
        np.nan if np.isnan(obs) else
        bootstrap_test(fitted.row(i), restriction, replace(config, seed=seed, workers=1), statistic, kernel).reject
        for i, (seed, obs) in enumerate(zip(seeds, observed))
    ])  # fmt: skip


def standard_battery(
    names: Iterable[str],
    alpha: float = 0.05,
    kernel: KernelSpec | None = None,
    boot: BootstrapConfig | None = None,
) -> Mapping[str, object]:
    """Build (fitted, restriction, seeds) -> decisions callables by method tag.

    ``fitted`` is a stacked :class:`~sncoint.estimators.FittedSample` whose
    fits the tests share, ``seeds`` one integer per row, and the decisions
    one per row: 1 reject, 0 not, NaN where the sample is degenerate. Only
    the bootstrap tests run per row, each from its row's seed, in the study's
    own processes: ``boot.workers`` does not apply inside a battery.

    Recognized tags: ``SN-asymptotic``, ``SN-bootstrap``, ``Wald-IM``,
    ``Wald-FM``, ``Wald-D``, ``Wald-IM-bootstrap``, ``tau1-bootstrap``.
    ``SN-asymptotic`` reads the packaged quantiles matching the stack
    (simulated from its first seed outside them); ``kernel`` defaults to
    Bartlett with the plug-in bandwidth. ``alpha`` is checked here, before any test runs.
    """
    _check_alpha(alpha)
    kernel = kernel or KernelSpec()
    battery: dict[str, object] = {}
    for name in names:
        if name == "SN-asymptotic":
            _level(_PROBS, alpha)
            battery[name] = partial(_sn_asymptotic_test, alpha)
        elif name in _EST_TAGS:
            battery[name] = partial(_wald_test, _EST_TAGS[name], kernel, alpha)
        elif name in _BOOT_TAGS:
            cfg = replace(boot or _BATTERY_BOOT, alpha=alpha)
            battery[name] = partial(_bootstrap_test, _BOOT_TAGS[name], kernel, cfg)
        else:
            raise ValueError(f"unknown test tag {name!r}")
    return battery


def standard_statistics(names: Iterable[str], kernel: KernelSpec | None = None) -> Mapping[str, object]:
    """Statistic callables (fitted, restriction) -> values for power studies:
    one value per row, NaN where a sample is degenerate, of a stacked
    :class:`~sncoint.estimators.FittedSample`; one value of a sample or its
    one-row ``FittedSample``."""
    kernel = kernel or KernelSpec()
    stats: dict[str, object] = {}
    for name in names:
        if name == "SN":
            stats[name] = partial(bootstrap_statistic, statistic="sn")
        elif name in _EST_TAGS:
            stats[name] = partial(traditional_statistic, _EST_TAGS[name], kernel=kernel)
        else:
            raise ValueError(f"unknown statistic tag {name!r}")
    return stats


def study_from_config(config: Mapping) -> partial:
    """The study a ``simulate`` config describes, :func:`~sncoint.montecarlo.size_experiment`
    (``kind`` "size", the default) or :func:`~sncoint.montecarlo.size_adjusted_power`
    ("power") with the config's settings bound: calling it runs the study.

    Every key is checked here, before any draw; a key the kind does not read is refused,
    and a bandwidth or an order in numeric text is read as a number, as on the command line.
    Defaults: ``reps`` 1,000, the tests ``["SN-asymptotic"]`` or the statistics ``["SN"]``,
    the grid 1.01 to 1.2 in 20 steps, and the library's own for the rest.
    """
    if not isinstance(config, Mapping):
        raise ValueError(f"bad config: a config is a JSON object, got {type(config).__name__}")
    kind = config.get("kind", "size")
    if kind not in ("size", "power"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    for key in config:
        if key not in _STUDY_KEYS[kind]:
            raise ValueError(f"bad config: a {kind} study has no key {key!r}")
    if "T" not in config:
        raise ValueError("config needs 'T'")
    reps, seed, workers = config.get("reps", 1000), config.get("seed", 0), config.get("workers", 1)
    _check_study(reps, seed, workers)
    bandwidth = _number_from_text(config.get("bandwidth", KernelSpec.bandwidth))
    kernel = KernelSpec(config.get("kernel", KernelSpec.kind), bandwidth)
    level = {"alpha": config["alpha"]} if "alpha" in config else {}  # else each callee's default
    run = {"reps": reps, "seed": seed, "workers": workers}
    try:
        if level:
            _check_alpha(level["alpha"])
        dgp = DgpConfig(**{key: config[key] for key in _DESIGN_KEYS if key in config})
        if kind == "size":
            boot = {"n_boot": config["B"]} if "B" in config else {}
            boot |= {"order_rule": _number_from_text(config["order"], int)} if "order" in config else {}
            boot = replace(_BATTERY_BOOT, **boot, **level)
            tests = standard_battery(config.get("tests", ["SN-asymptotic"]), kernel=kernel, boot=boot, **level)
            return partial(size_experiment, dgp, tests, **run)
        grid = config.get("beta_grid", {"start": 1.01, "stop": 1.2, "num": 20})
        if isinstance(grid, dict):
            if set(grid) != {"start", "stop", "num"}:
                raise ValueError(f"a beta_grid map has the keys 'start', 'stop' and 'num', got {list(grid)}")
            grid = np.linspace(grid["start"], grid["stop"], grid["num"])
        stats = standard_statistics(config.get("statistics", ["SN"]), kernel=kernel)
        return partial(size_adjusted_power, dgp, stats, _check_grid("beta_grid", grid), **run, **level)
    except (KeyError, TypeError, ValueError) as exc:  # str() of a KeyError quotes it
        raise ValueError(f"bad config: {exc.args[0]}") from None

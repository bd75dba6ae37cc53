"""The analysis workflow for one dataset, and ready-made test batteries
for the Monte Carlo drivers.

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
from .kernels import BARTLETT, KernelSpec
from .selfnorm import (
    _METHOD_TAGS,
    TestOutcome,
    bootstrap_statistic,
    self_normalized_test,
    traditional_statistic,
    traditional_wald,
)
from .tables import _PROBS, CriticalValueTable, _level, default_table
from .timeseries import CointegrationSample

__all__ = ["ar1_persistence", "AnalysisReport", "run_analysis", "standard_battery", "standard_statistics"]

_EST_TAGS = {"Wald-IM": "IM", "Wald-FM": "FM", "Wald-D": "D"}
_BOOT_TAGS = {tag: statistic for statistic, tag in _METHOD_TAGS.items()}


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
    table: CriticalValueTable | None, sample: CointegrationSample, restriction: RestrictionSpec, seed: int
) -> CriticalValueTable:
    """``table``, else the packaged quantiles, else a table simulated from ``seed``, with a warning."""
    if table is not None:
        return table
    m, s = sample.n_regressors, restriction.n_restrictions
    try:
        return default_table(m, s, sample.det)
    except KeyError:
        n_grid = reps = 10_000
        warnings.warn(f"no packaged critical values for m={m}, s={s}, det={sample.det.value}: simulating a table "
                      f"with n_grid={n_grid}, reps={reps} in one process", RuntimeWarning, stacklevel=3)  # fmt: skip
        return simulate_critical_values(m, s, sample.det, n_grid=n_grid, reps=reps, seed=seed)


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
    test when a bootstrap configuration is supplied, run at ``alpha``
    whatever ``boot.alpha`` says. The critical-value
    table is loaded from the packaged quantiles, or simulated on demand
    for combinations outside them. Every estimate and test reads one
    :class:`~sncoint.estimators.FittedSample`, so the sample is fitted once.
    """
    kernel = kernel or KernelSpec(BARTLETT, "andrews")
    fitted = FittedSample(sample)
    static, fit, fm = fitted.static, fitted.im, fitted.fm(kernel)

    outcomes = [
        self_normalized_test(fitted, restriction, _resolve_table(table, sample, restriction, seed), alpha),
        traditional_wald("FM", fitted, restriction, kernel, alpha),
    ]
    if boot is not None:
        outcomes.append(bootstrap_test(fitted, restriction, _at_level(boot, alpha)))

    return AnalysisReport(
        estimates={
            "ols": static.params[sample.det.n_columns :],
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


def _at_level(config: BootstrapConfig, alpha: float) -> BootstrapConfig:
    """``config`` at the level ``alpha`` of the tests it runs beside."""
    return config if abs(config.alpha - alpha) <= 1e-12 else replace(config, alpha=alpha)


def _run_sn_asymptotic(alpha, fitted, restriction, seed) -> bool:
    fitted = FittedSample.of(fitted)
    table = _resolve_table(None, fitted.sample, restriction, seed)
    return self_normalized_test(fitted, restriction, table, alpha).reject


def _run_traditional(tag, kernel, alpha, fitted, restriction, seed) -> bool:
    return traditional_wald(tag, fitted, restriction, kernel, alpha).reject


def _run_bootstrap(statistic, kernel, config, fitted, restriction, seed) -> bool:
    cfg = replace(config, seed=seed)
    return bootstrap_test(fitted, restriction, cfg, statistic=statistic, kernel=kernel).reject


def standard_battery(
    names: Iterable[str],
    alpha: float = 0.05,
    kernel: KernelSpec | None = None,
    boot: BootstrapConfig | None = None,
) -> Mapping[str, object]:
    """Build (fitted, restriction, seed) -> reject callables by method tag.

    ``fitted`` is a :class:`~sncoint.estimators.FittedSample` (a bare
    sample is wrapped), so the tests of one battery share its fits.

    Recognized tags: ``SN-asymptotic``, ``SN-bootstrap``, ``Wald-IM``,
    ``Wald-FM``, ``Wald-D``, ``Wald-IM-bootstrap``, ``tau1-bootstrap``.
    ``SN-asymptotic`` reads the packaged quantiles matching each sample
    (simulated from the test's seed outside them); ``kernel`` defaults to
    Bartlett with the plug-in bandwidth. ``alpha`` is checked here, before any test runs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    kernel = kernel or KernelSpec(BARTLETT, "andrews")
    battery: dict[str, object] = {}
    for name in names:
        if name == "SN-asymptotic":
            _level(_PROBS, alpha)
            battery[name] = partial(_run_sn_asymptotic, alpha)
        elif name in _EST_TAGS:
            battery[name] = partial(_run_traditional, _EST_TAGS[name], kernel, alpha)
        elif name in _BOOT_TAGS:
            cfg = _at_level(boot or BootstrapConfig(n_boot=199, alpha=alpha), alpha)
            battery[name] = partial(_run_bootstrap, _BOOT_TAGS[name], kernel, cfg)
        else:
            raise ValueError(f"unknown test tag {name!r}")
    return battery


def standard_statistics(
    names: Iterable[str], kernel: KernelSpec | None = None
) -> Mapping[str, object]:
    """Statistic callables (fitted, restriction) -> values for power studies:
    one value per row, NaN where a sample is degenerate, of a stacked
    :class:`~sncoint.estimators.FittedSample`; one value of a sample or its
    one-row ``FittedSample``."""
    kernel = kernel or KernelSpec(BARTLETT, "andrews")
    stats: dict[str, object] = {}
    for name in names:
        if name == "SN":
            stats[name] = partial(bootstrap_statistic, statistic="sn")
        elif name == "Wald-IM":
            stats[name] = partial(bootstrap_statistic, statistic="wald-lrv", kernel=kernel)
        elif name in ("Wald-FM", "Wald-D"):
            stats[name] = partial(traditional_statistic, _EST_TAGS[name], kernel=kernel)
        else:
            raise ValueError(f"unknown statistic tag {name!r}")
    return stats

"""Self-normalized and traditional Wald statistics for linear restrictions.

The Wald family divides the usual quadratic form by a one-dimensional
scale kappa:

    tau(kappa) = (R2 theta - r)' [R2 kappa V R2']^{-1} (R2 theta - r),

with V the sandwich matrix of the partial-sum regression. Plugging in a
kernel estimate of the conditional long-run variance gives the
traditional chi-square test; plugging in the self-normalizer (a scaled
sum of squared partial sums of the differenced residuals) gives the
tuning-parameter-free statistic whose limit law is tabulated in
:mod:`sncoint.tables`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .estimators import ImOlsFit, RestrictionSpec, d_ols, fm_ols, im_ols, im_ols_batch, ols
from .kernels import BARTLETT, KernelSpec, estimate_lrv, lrv_matrix
from .tables import CriticalValueTable
from .timeseries import CointegrationSample, Deterministics, first_difference

__all__ = [
    "TestOutcome",
    "self_normalizer",
    "wald_statistic",
    "WaldBatch",
    "wald_batch",
    "self_normalized_test",
    "traditional_wald",
    "diff_residual_lrv",
    "conditional_lrv_from_ols",
]


@dataclass(frozen=True)
class TestOutcome:
    """Decision record: statistic, critical value, optional p-value.

    ``diagnostics`` holds the tuning choices a test actually used, e.g.
    the bootstrap's sieve order and retried or discarded draws.
    """

    statistic: float
    critical_value: float
    reject: bool
    method: str
    p_value: float | None = None
    warnings: tuple[str, ...] = ()
    diagnostics: Mapping[str, float | int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if math.isnan(self.statistic):
            raise ValueError(f"{self.method}: statistic is NaN")
        if self.reject != (self.statistic > self.critical_value):
            raise ValueError("reject flag inconsistent with statistic and critical value")


def _normalizer(resid: np.ndarray) -> np.ndarray:
    gaps = resid[..., 1:] - resid[..., :1]
    return np.einsum("...t,...t->...", gaps, gaps) / resid.shape[-1] ** 2


def self_normalizer(fit: ImOlsFit) -> float:
    """Scaled sum of squared partial sums of the differenced residuals.

    With residuals S_1..S_T from the partial-sum regression this is
    T^{-2} sum_{t=2}^T (S_t - S_1)^2; it is zero only for a perfect fit.
    """
    if fit.nobs < 3:
        raise ValueError("need at least 3 observations")
    return float(_normalizer(fit.resid))


def _degenerate_fit(fit: ImOlsFit):
    """Perfect fit up to rounding: residuals negligible against the signal
    (per row of a batch)."""
    signal = np.abs(fit.regressors @ fit.params[..., None]).max(axis=(-2, -1))
    return np.abs(fit.resid).max(axis=-1) <= 1e-12 * np.maximum(signal, 1e-300)


def _quadratic_form(gap: np.ndarray, middle: np.ndarray):
    """gap' middle^{-1} gap over leading axes; NaN where ``middle`` is
    exactly singular."""
    try:
        return np.einsum("...s,...s->...", gap, np.linalg.solve(middle, gap[..., None])[..., 0])
    except np.linalg.LinAlgError:
        if gap.ndim == 1:
            return np.nan
        return np.array([_quadratic_form(g, mid) for g, mid in zip(gap, middle)])


def _wald_unit(fit: ImOlsFit, restriction: RestrictionSpec):
    """tau(1) of a fit, or of each row of a batch."""
    R2 = restriction.padded(fit.n_det, fit.n_reg)
    return _quadratic_form(fit.params @ R2.T - restriction.value, R2 @ fit.scaled_cov @ R2.T)


def wald_statistic(fit: ImOlsFit, restriction: RestrictionSpec, kappa: float) -> float:
    """Quadratic form tau(kappa) = tau(1) / kappa for the restriction R beta = value."""
    if kappa <= 0.0:
        raise ValueError("degenerate normalizer: kappa must be positive")
    unit = _wald_unit(fit, restriction)
    if np.isnan(unit):
        raise np.linalg.LinAlgError("restricted variance block singular")
    return float(unit) / kappa


@dataclass(frozen=True)
class WaldBatch:
    """Self-normalizer and Wald form of each row of a batch fit.

    ``wald_unit`` is tau(1), so the statistic at scale kappa is
    ``wald_unit / kappa``. ``degenerate`` marks the rows where
    :func:`im_ols` or :func:`wald_statistic` would raise, or the form is
    not finite; ``wald_unit`` is NaN there. ``perfect_fit`` marks the rows
    the self-normalized statistic rejects besides: kappa not positive, or
    residuals negligible as in :func:`_degenerate_fit`.
    """

    fit: ImOlsFit
    kappa: np.ndarray
    wald_unit: np.ndarray
    degenerate: np.ndarray
    perfect_fit: np.ndarray


def wald_batch(y: np.ndarray, x: np.ndarray, det: Deterministics, restriction: RestrictionSpec) -> WaldBatch:
    """Fit, sandwich, self-normalizer and Wald form for each row of
    ``y`` (c, T) and ``x`` (c, T, m): row i is the per-sample path on
    ``CointegrationSample(y[i], x[i], det)``."""
    fit = im_ols_batch(y, x, det)
    kappa = _normalizer(fit.resid)
    wald_unit = _wald_unit(fit, restriction)
    degenerate = ~np.isfinite(wald_unit)
    wald_unit[degenerate] = np.nan
    perfect_fit = ~(kappa > 0.0) | _degenerate_fit(fit)
    return WaldBatch(fit=fit, kappa=kappa, wald_unit=wald_unit, degenerate=degenerate, perfect_fit=perfect_fit)


def self_normalized_test(
    sample: CointegrationSample,
    restriction: RestrictionSpec,
    table: CriticalValueTable,
    alpha: float = 0.05,
) -> TestOutcome:
    """Self-normalized Wald test against simulated asymptotic quantiles."""
    m = sample.n_regressors
    s = restriction.n_restrictions
    if not table.covers(m, s, sample.det):
        raise KeyError(
            f"table is for m={table.m}, s={table.s}, det={table.det.value}; "
            f"sample needs m={m}, s={s}, det={sample.det.value}"
        )
    fit = im_ols(sample)
    kappa = self_normalizer(fit)
    if kappa <= 0.0 or _degenerate_fit(fit):
        raise ValueError("degenerate normalizer: residuals are negligible")
    statistic = wald_statistic(fit, restriction, kappa)
    critical = table.critical_value(alpha)
    return TestOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=statistic > critical,
        method="SN-asymptotic",
    )


def conditional_lrv_from_ols(sample: CointegrationSample, kernel: KernelSpec) -> float:
    """Conditional long-run variance from static-OLS residuals and v_t."""
    d = sample.deterministics()
    X = np.column_stack([d, sample.x]) if d.shape[1] else sample.x
    resid = ols(sample.y, X).resid
    w = np.column_stack([resid, sample.innovations()])
    est = estimate_lrv(w, kernel)
    return est.conditional


def traditional_wald(
    estimator: str,
    sample: CointegrationSample,
    restriction: RestrictionSpec,
    kernel: KernelSpec,
    alpha: float = 0.05,
    max_leads_lags: int | None = None,
) -> TestOutcome:
    """Kernel-based Wald test against chi-square critical values.

    ``estimator`` selects the point estimate: 'IM' (partial-sum
    regression), 'FM' (fully modified), or 'D' (leads and lags). All
    variants scale by the same conditional long-run variance built from
    the static-OLS residuals.
    """
    estimator = estimator.upper()
    s = restriction.n_restrictions
    omega = conditional_lrv_from_ols(sample, kernel)
    if omega <= 0.0:
        raise ValueError("conditional long-run variance must be positive")

    if estimator == "IM":
        fit = im_ols(sample)
        statistic = wald_statistic(fit, restriction, omega)
    elif estimator in ("FM", "D"):
        if estimator == "FM":
            est = fm_ols(sample, kernel)
        else:
            if max_leads_lags is None:
                max_leads_lags = max(1, int(np.floor(4.0 * (sample.nobs / 100.0) ** 0.25)))
            est = d_ols(sample, max_leads_lags)
        gap = restriction.R @ est.beta - restriction.value
        middle = omega * (restriction.R @ est.moment_inv_beta @ restriction.R.T)
        statistic = float(gap @ np.linalg.solve(middle, gap))
    else:
        raise ValueError(f"unknown estimator tag {estimator!r}")

    critical = float(stats.chi2.ppf(1.0 - alpha, df=s))
    return TestOutcome(
        statistic=statistic,
        critical_value=critical,
        reject=statistic > critical,
        method=f"Wald-{estimator}",
        p_value=float(stats.chi2.sf(statistic, df=s)),
    )


def diff_residual_lrv(fit: ImOlsFit, kernel: KernelSpec | None = None) -> float:
    """Kernel quadratic form in the differenced partial-sum residuals.

    With n = T - 1 differences a_1..a_n this is
    n^{-1} sum_ij K(|i-j|/b) a_i a_j. The default (Bartlett kernel,
    bandwidth n) decomposes exactly into the self-normalizer computed
    with divisor n^2 plus the matching end-anchored complement term,
    which is the convention under which the decomposition is an identity
    rather than an asymptotic statement.
    """
    if fit.nobs < 3:
        raise ValueError("need at least 3 observations")
    diffs = first_difference(fit.resid)
    if kernel is None:
        kernel = KernelSpec(BARTLETT, bandwidth=float(diffs.shape[0]))
    return float(lrv_matrix(diffs[:, None], kernel)[0, 0])

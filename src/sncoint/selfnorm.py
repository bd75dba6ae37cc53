"""Self-normalized and traditional Wald statistics for linear restrictions.

The Wald family divides the usual quadratic form by a one-dimensional
scale kappa:

    tau(kappa) = (R2 theta - r)' [R2 kappa V R2']^{-1} (R2 theta - r),

with V the sandwich matrix of the partial-sum regression. Plugging in a
kernel estimate of the conditional long-run variance gives the
traditional chi-square test; plugging in the self-normalizer (a scaled
sum of squared partial sums of the differenced residuals) gives the
tuning-parameter-free statistic whose limit law is tabulated in
:mod:`sncoint.tables`. :func:`bootstrap_statistic` is the one place that
maps a statistic name to kappa and decides when a sample is degenerate.
It and :func:`traditional_statistic` take one sample, or a stacked
:class:`~sncoint.estimators.FittedSample` whose rows they evaluate at
once.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .estimators import FittedSample, ImOlsFit, RestrictionSpec
from .kernels import KernelSpec, lrv_matrix
from .tables import CriticalValueTable
from .timeseries import CointegrationSample, _check_alpha, first_difference

__all__ = [
    "TestOutcome",
    "self_normalizer",
    "wald_statistic",
    "bootstrap_statistic",
    "self_normalized_test",
    "traditional_statistic",
    "traditional_wald",
    "diff_residual_lrv",
]


@dataclass(frozen=True)
class TestOutcome:
    """Decision record: statistic, critical value, optional p-value.

    ``diagnostics`` holds the tuning choices a test actually used, e.g.
    the sieve order, discarded draws, or the asymptotic table's reps.
    """

    statistic: float
    critical_value: float
    reject: bool = field(init=False)  # derived: statistic > critical_value
    method: str
    p_value: float | None = None
    warnings: tuple[str, ...] = ()
    diagnostics: Mapping[str, float | int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if math.isnan(self.statistic):
            raise ValueError(f"{self.method}: statistic is NaN")
        object.__setattr__(self, "reject", bool(self.statistic > self.critical_value))


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
    except np.linalg.LinAlgError:  # a zero LU pivot, which slogdet reports as sign 0
        with np.errstate(invalid="ignore"):  # a NaN block stays NaN
            regular = np.linalg.slogdet(middle)[0] != 0.0
        middle = np.where(regular[..., None, None], middle, np.eye(middle.shape[-1]))
        return np.where(regular, _quadratic_form(gap, middle), np.nan)


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


_METHOD_TAGS = {"sn": "SN-bootstrap", "tau1": "tau1-bootstrap", "wald-lrv": "Wald-IM-bootstrap"}
_STATISTICS = tuple(_METHOD_TAGS)


def _scale(fit: ImOlsFit, statistic: str, kernel: KernelSpec | None, conditional) -> np.ndarray:
    """kappa of ``statistic`` for a fit, or for each row of a batch; NaN
    where the statistic is degenerate. ``conditional()`` gives the kernel
    conditional long-run variance of the sample, or of each row."""
    if statistic == "sn":
        kappa = _normalizer(fit.resid)
        return np.where(~(kappa > 0.0) | _degenerate_fit(fit), np.nan, kappa)
    if statistic == "tau1":
        return np.ones(fit.resid.shape[:-1])
    if statistic == "wald-lrv":
        if kernel is None:
            raise ValueError("'wald-lrv' needs a kernel specification")
        kappa = conditional()
        return np.where(kappa > 0.0, kappa, np.nan)
    raise ValueError(f"unknown statistic {statistic!r}; expected one of {_STATISTICS}")


def bootstrap_statistic(
    star_sample: CointegrationSample | FittedSample,
    restriction: RestrictionSpec,
    statistic: str = "sn",
    kernel: KernelSpec | None = None,
) -> float | np.ndarray:
    """The Wald-type statistic tau(kappa) on a (bootstrap) sample.

    ``statistic`` picks the scale: 'sn' (self-normalizer), 'tau1'
    (unscaled), or 'wald-lrv' (kernel conditional long-run variance
    estimated on the sample at hand). Raises :class:`ValueError` for a
    degenerate sample: kappa not positive, or for 'sn' residuals
    negligible against the fitted signal.

    On a stacked :class:`~sncoint.estimators.FittedSample` it returns the
    statistic of every row, NaN where a sample would raise or the form is
    not finite.
    """
    fitted = FittedSample.of(star_sample)
    fit = fitted.im
    kappa = _scale(fit, statistic, kernel, lambda: fitted.lrv(kernel).conditional)
    if fitted.sample is None:
        unit = _wald_unit(fit, restriction)
        return np.where(np.isfinite(unit), unit, np.nan) / kappa
    if math.isnan(kappa):
        raise ValueError(f"degenerate normalizer for statistic {statistic!r}")
    return wald_statistic(fit, restriction, float(kappa))


def self_normalized_test(
    sample: CointegrationSample | FittedSample,
    restriction: RestrictionSpec,
    table: CriticalValueTable,
    alpha: float = 0.05,
) -> TestOutcome:
    """Self-normalized Wald test against simulated asymptotic quantiles;
    ``diagnostics`` holds the table's ``n_grid`` and ``reps`` from its meta."""
    fitted = FittedSample.one(sample, "self_normalized_test")
    table.require(fitted.x.shape[2], restriction.n_restrictions, fitted.det)
    statistic = bootstrap_statistic(fitted, restriction, "sn")
    critical = table.critical_value(alpha)
    return TestOutcome(
        statistic=statistic,
        critical_value=critical,
        method="SN-asymptotic",
        diagnostics={key: int(table.meta[key]) for key in ("n_grid", "reps") if key in table.meta},
    )


def traditional_statistic(
    estimator: str,
    sample: CointegrationSample | FittedSample,
    restriction: RestrictionSpec,
    kernel: KernelSpec,
) -> float | np.ndarray:
    """The kernel-based Wald statistic of :func:`traditional_wald`, without
    its chi-square critical value and p-value. On a stacked
    :class:`~sncoint.estimators.FittedSample`, the statistic of every row,
    NaN where a sample would raise."""
    estimator = estimator.upper()
    if estimator not in ("IM", "FM", "D"):
        raise ValueError(f"unknown estimator tag {estimator!r}")
    fitted = FittedSample.of(sample)
    if estimator == "IM":
        return bootstrap_statistic(fitted, restriction, "wald-lrv", kernel)
    omega = np.asarray(fitted.lrv(kernel).conditional)
    if fitted.sample is not None and not omega > 0.0:
        raise ValueError("conditional long-run variance must be positive")
    if estimator == "FM":
        est = fitted.fm(kernel)
    else:
        est = fitted.dols(max(1, int(np.floor(4.0 * (fitted.nobs / 100.0) ** 0.25))))
    R = restriction.R
    form = _quadratic_form(est.beta @ R.T - restriction.value, omega[..., None, None] * (R @ est.moment_inv_beta @ R.T))
    if fitted.sample is None:
        return np.where(omega > 0.0, form, np.nan)
    if np.isnan(form):
        raise np.linalg.LinAlgError("restricted variance block singular")
    return float(form)


def _chi2_critical(s: int, alpha: float) -> float:
    """The 1 - alpha quantile of chi-square(s)."""
    from scipy import special  # on first use, so that importing the package loads no scipy

    return float(2 * special.gammaincinv(s / 2, 1 - alpha))


def traditional_wald(
    estimator: str,
    sample: CointegrationSample | FittedSample,
    restriction: RestrictionSpec,
    kernel: KernelSpec,
    alpha: float = 0.05,
) -> TestOutcome:
    """Kernel-based Wald test against chi-square critical values.

    ``estimator`` selects the point estimate: 'IM' (partial-sum
    regression), 'FM' (fully modified), or 'D' (leads and lags). All
    variants scale by the same conditional long-run variance built from
    the static-OLS residuals; ``diagnostics["bandwidth"]`` records its
    numeric bandwidth.
    """
    _check_alpha(alpha)
    fitted = FittedSample.one(sample, "traditional_wald")
    statistic = traditional_statistic(estimator, fitted, restriction, kernel)
    s = restriction.n_restrictions
    critical = _chi2_critical(s, alpha)
    from scipy import special  # on first use, as in _chi2_critical

    return TestOutcome(
        statistic=statistic,
        critical_value=critical,
        method=f"Wald-{estimator.upper()}",
        p_value=float(special.chdtrc(s, statistic)),
        diagnostics={"bandwidth": fitted.lrv(kernel).bandwidth},
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
        kernel = KernelSpec(bandwidth=float(diffs.shape[0]))
    return float(lrv_matrix(diffs[:, None], kernel)[0, 0])

"""VAR sieve bootstrap critical values for the Wald-type statistics.

The fitted-model residuals of the regression in levels are stacked with
the regressor innovations, approximated by a Yule-Walker VAR(q), and the
centered VAR residuals are resampled with replacement to regenerate
samples that satisfy the null restriction by construction. The observed
statistic is compared against the (B+1)(1-alpha)-th smallest of the B
bootstrap statistics.

Replications run in fixed-size chunks, batch_rows(T, p + 2m) draws each
(about 2^17 elements per (draws, T, .) array), through
:func:`~sncoint.streams.replication_map`. A chunk simulates its VAR with
one loop over time and evaluates every draw at once with the batched
kernel :func:`~sncoint.selfnorm.wald_batch`, which mirrors
:func:`bootstrap_statistic` row by row. A degenerate draw (zero or
non-finite column, rank deficiency, kappa <= 0, perfect fit, singular
restricted block) is regenerated once from its retry substream and
discarded if still degenerate. Every draw keeps its own substream keyed
by (seed, replication index, attempt), and the chunking depends only on
the sample shape, so results do not depend on the number of workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import (
    ImOlsFit,
    RestrictionSpec,
    batch_rows,
    im_ols,
    levels_residuals,
    restricted_im_ols,
)
from .kernels import KernelSpec
from .selfnorm import (
    TestOutcome,
    _degenerate_fit,
    conditional_lrv_from_ols,
    self_normalizer,
    wald_batch,
    wald_statistic,
)
from .streams import replication_map, substream
from .timeseries import CointegrationSample, Deterministics, build_deterministics

__all__ = [
    "VarSieveModel",
    "BootstrapConfig",
    "yule_walker",
    "select_order",
    "max_sieve_order",
    "critical_rank",
    "companion_spectral_radius",
    "generate_bootstrap_batch",
    "generate_bootstrap_sample",
    "bootstrap_statistic",
    "bootstrap_draws",
    "bootstrap_test",
]

_STATISTICS = ("sn", "tau1", "wald-lrv")
_METHOD_TAGS = {"sn": "SN-bootstrap", "tau1": "tau1-bootstrap", "wald-lrv": "Wald-IM-bootstrap"}


@dataclass(frozen=True)
class VarSieveModel:
    """Yule-Walker VAR(q) fit: coefficient stack and centered residual pool."""

    order: int
    coefs: np.ndarray  # (q, k, k)
    resid_pool: np.ndarray  # (n_resid, k), column means zero
    sigma: np.ndarray  # (k, k) residual covariance

    @property
    def n_series(self) -> int:
        return self.coefs.shape[1]


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count, level, seed, and generation parameters.

    ``(n_boot + 1) * (1 - alpha)`` must be an integer so the order
    statistic used as critical value is exact.
    """

    n_boot: int = 1499
    alpha: float = 0.05
    seed: int = 0
    burn_in: int = 100
    order_rule: str | int = "aic"
    q_max: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.n_boot < 1:
            raise ValueError("need at least one bootstrap replication")
        rank = (self.n_boot + 1) * (1.0 - self.alpha)
        if abs(rank - round(rank)) > 1e-9:
            raise ValueError(
                f"(n_boot + 1) * (1 - alpha) = {rank} must be an integer; "
                f"adjust n_boot (e.g. 199, 399, 999, 1499 for alpha = 0.05)"
            )
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if isinstance(self.order_rule, str) and self.order_rule not in ("aic", "bic"):
            raise ValueError("order_rule must be 'aic', 'bic', or a fixed order")
        if isinstance(self.order_rule, int) and self.order_rule < 1:
            raise ValueError("fixed order must be at least 1")


def critical_rank(n: int, alpha: float) -> int:
    """Position (1-based, ascending) of the bootstrap critical value.

    With n draws the critical value is the (n+1)(1-alpha)-th smallest;
    e.g. 1425 of 1499 at the 5% level, or the maximum of 19 draws.
    """
    rank = int(math.floor((n + 1) * (1.0 - alpha) + 1e-9))
    return min(max(rank, 1), n)


def max_sieve_order(T: int) -> int:
    """Largest candidate order, the integer cube root of T (at least 1)."""
    q = int(round(T ** (1.0 / 3.0)))
    while q**3 > T:
        q -= 1
    while (q + 1) ** 3 <= T:
        q += 1
    return max(q, 1)


def companion_spectral_radius(coefs: np.ndarray) -> float:
    """Spectral radius of the companion matrix of a VAR coefficient stack."""
    q, k, _ = coefs.shape
    F = np.zeros((q * k, q * k))
    F[:k] = np.hstack(list(coefs))
    if q > 1:
        F[k:, : (q - 1) * k] = np.eye((q - 1) * k)
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def _autocovariances(w: np.ndarray, max_lag: int) -> list[np.ndarray]:
    """Biased autocovariances of the demeaned series, lags 0..max_lag."""
    T = w.shape[0]
    wd = w - w.mean(axis=0)
    return [wd[h:].T @ wd[: T - h] / T for h in range(max_lag + 1)]


def _solve_yule_walker(gammas: list[np.ndarray], q: int) -> np.ndarray:
    """Coefficient stack solving the block-Toeplitz moment equations."""
    k = gammas[0].shape[0]
    G = np.empty((q * k, q * k))
    for a in range(q):
        for b in range(q):
            block = gammas[b - a] if b >= a else gammas[a - b].T
            G[a * k : (a + 1) * k, b * k : (b + 1) * k] = block
    C = np.hstack(gammas[1 : q + 1])
    try:
        stacked = np.linalg.solve(G, C.T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("moment equations singular: collinear inputs") from exc
    # C-contiguous so the stack computes identically after a pickle
    # round-trip (memory layout selects the BLAS accumulation order).
    return np.ascontiguousarray(stacked.reshape(k, q, k).swapaxes(0, 1))


def _var_residuals(w: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """One-step prediction errors on t = q+1..T."""
    q = coefs.shape[0]
    T = w.shape[0]
    resid = w[q:].copy()
    for j in range(1, q + 1):
        resid -= w[q - j : T - j] @ coefs[j - 1].T
    return resid


def yule_walker(w: np.ndarray, q: int) -> VarSieveModel:
    """Fit a VAR(q) by the sample moment equations.

    The estimate is stable by construction; the companion spectral radius
    is verified after every fit.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    T, k = w.shape
    if q < 1:
        raise ValueError("order must be at least 1")
    if T <= q * k + 1:
        raise ValueError(f"sample of length {T} too short for a VAR({q}) in {k} series")
    coefs = _solve_yule_walker(_autocovariances(w, q), q)
    radius = companion_spectral_radius(coefs)
    if radius >= 1.0:
        raise np.linalg.LinAlgError(f"fitted VAR unstable (spectral radius {radius:.6f})")
    resid = _var_residuals(w, coefs)
    pool = resid - resid.mean(axis=0)
    return VarSieveModel(order=q, coefs=coefs, resid_pool=pool, sigma=pool.T @ pool / pool.shape[0])


def select_order(w: np.ndarray, rule: str | int = "aic", q_max: int | None = None) -> int:
    """Order of the sieve: fixed, or the information-criterion minimizer.

    Candidates q = 1..q_max are scored on the common evaluation window
    t = q_max+1..T with ln det of the residual covariance plus penalty
    2 q k^2 / n (AIC) or ln(n) q k^2 / n (BIC).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    T, k = w.shape
    if isinstance(rule, int):
        cap = int(math.floor((T / math.log(T)) ** (1.0 / 3.0))) + 2
        if rule > cap:
            warnings.warn(
                f"fixed sieve order {rule} exceeds the growth-rate cap {cap} for T={T}",
                RuntimeWarning,
                stacklevel=2,
            )
        return rule
    if q_max is None:
        q_max = max_sieve_order(T)
    q_max = max(1, min(q_max, (T - 2) // k))
    gammas = _autocovariances(w, q_max)
    wd = w - w.mean(axis=0)
    n_eval = T - q_max
    best_q, best_ic = 1, np.inf
    for q in range(1, q_max + 1):
        coefs = _solve_yule_walker(gammas, q)
        resid = _var_residuals(wd[q_max - q :], coefs)  # rows q_max+1..T
        sigma = resid.T @ resid / n_eval
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            continue
        penalty = 2.0 if rule == "aic" else math.log(n_eval)
        ic = logdet + penalty * q * k**2 / n_eval
        if ic < best_ic:
            best_q, best_ic = q, ic
    return best_q


def generate_bootstrap_batch(
    model: VarSieveModel,
    T: int,
    beta_restricted: np.ndarray,
    det: Deterministics,
    delta: np.ndarray,
    config: BootstrapConfig,
    indices: np.ndarray,
    attempt: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate the null-imposed samples ``indices`` from the fitted sieve.

    Draw i takes ``burn_in + order + T`` innovations i.i.d. with
    replacement from the centered residual pool, from its own substream
    (seed, i, attempt). The recursion starts from zeros and runs once over
    time for all draws, with a (draws, order * series) state; the last T
    observations are kept. The regressors are partial sums of the
    simulated innovations and the dependent variable uses the restricted
    coefficient vector, so the null holds exactly. Returns ``y`` (c, T)
    and ``x`` (c, T, m).
    """
    q, k = model.order, model.n_series
    pool = model.resid_pool
    n_steps = config.burn_in + q + T
    picks = [substream(config.seed, int(i), attempt).integers(0, pool.shape[0], size=n_steps) for i in indices]
    # w[:, q + t] holds step t; the q leading zeros are the initial values.
    w = np.zeros((len(picks), q + n_steps, k))
    w[:, q:] = pool[np.stack(picks)]
    # Lag-ordered coefficients [A_q, ..., A_1]', matching the window
    # w[:, t : t + q] = [w_{t-q}, ..., w_{t-1}] flattened.
    lagged = np.ascontiguousarray(np.vstack([a.T for a in model.coefs[::-1]]))
    for t in range(n_steps):
        w[:, q + t] += w[:, t : t + q].reshape(-1, q * k) @ lagged
    w = w[:, -T:]
    x = np.cumsum(w[:, :, 1:], axis=1)
    y = x @ beta_restricted + w[:, :, 0]
    if det.n_columns:
        y += build_deterministics(det, T) @ delta
    return y, x


def generate_bootstrap_sample(
    model: VarSieveModel,
    T: int,
    beta_restricted: np.ndarray,
    det: Deterministics,
    delta: np.ndarray,
    config: BootstrapConfig,
    replication_index: int,
    attempt: int = 0,
) -> CointegrationSample:
    """One regenerated sample: draw ``replication_index`` of
    :func:`generate_bootstrap_batch`."""
    y, x = generate_bootstrap_batch(
        model, T, beta_restricted, det, delta, config, np.array([replication_index]), attempt
    )
    return CointegrationSample(y=y[0], x=x[0], det=det)


def bootstrap_statistic(
    star_sample: CointegrationSample,
    restriction: RestrictionSpec,
    statistic: str = "sn",
    kernel: KernelSpec | None = None,
) -> float:
    """The configured Wald-type statistic on a (bootstrap) sample.

    ``statistic`` picks the scale: 'sn' (self-normalizer), 'tau1'
    (unscaled), or 'wald-lrv' (kernel long-run variance re-estimated on
    the sample at hand). Raises :class:`ValueError` for degenerate
    samples whose normalizer is zero.
    """
    fit = im_ols(star_sample)
    if statistic == "sn":
        kappa = self_normalizer(fit)
        if kappa <= 0.0 or _degenerate_fit(fit):
            raise ValueError("degenerate normalizer")
    elif statistic == "tau1":
        kappa = 1.0
    elif statistic == "wald-lrv":
        if kernel is None:
            raise ValueError("'wald-lrv' needs a kernel specification")
        kappa = conditional_lrv_from_ols(star_sample, kernel)
        if kappa <= 0.0:
            raise ValueError("degenerate long-run variance")
    else:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {_STATISTICS}")
    return wald_statistic(fit, restriction, kappa)


def _batch_statistics(
    y: np.ndarray,
    x: np.ndarray,
    det: Deterministics,
    restriction: RestrictionSpec,
    statistic: str,
    kernel: KernelSpec | None,
) -> np.ndarray:
    """:func:`bootstrap_statistic` of each row; NaN where it raises."""
    batch = wald_batch(y, x, det, restriction)
    if statistic == "sn":
        kappa = np.where(batch.perfect_fit, np.nan, batch.kappa)
    elif statistic == "tau1":
        return batch.wald_unit
    else:
        kappa = np.full(y.shape[0], np.nan)
        for i in np.flatnonzero(~batch.degenerate):
            try:
                kappa[i] = conditional_lrv_from_ols(CointegrationSample(y=y[i], x=x[i], det=det), kernel)
            except (ValueError, np.linalg.LinAlgError):
                continue
        kappa[~(kappa > 0.0)] = np.nan
    return batch.wald_unit / kappa


def bootstrap_draws(
    model: VarSieveModel,
    T: int,
    beta_restricted: np.ndarray,
    det: Deterministics,
    delta: np.ndarray,
    config: BootstrapConfig,
    restriction: RestrictionSpec,
    statistic: str,
    kernel: KernelSpec | None,
    indices: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Bootstrap statistics of the draws ``indices`` and the retry count.

    A degenerate draw (see :class:`~sncoint.selfnorm.WaldBatch`) is
    regenerated once from its attempt-1 substream; one still degenerate
    is NaN, for the caller to count as discarded.
    """
    indices = np.asarray(indices)
    draws = _batch_statistics(
        *generate_bootstrap_batch(model, T, beta_restricted, det, delta, config, indices),
        det, restriction, statistic, kernel,
    )  # fmt: skip
    retry = np.flatnonzero(np.isnan(draws))
    if retry.size:
        draws[retry] = _batch_statistics(
            *generate_bootstrap_batch(model, T, beta_restricted, det, delta, config, indices[retry], 1),
            det, restriction, statistic, kernel,
        )  # fmt: skip
    return draws, retry.size


def _chunk(draw, rows: int, n_boot: int, index: int) -> tuple[np.ndarray, int]:
    return draw(np.arange(index * rows, min(n_boot, (index + 1) * rows)))


def _chunked_draws(draw, n_boot: int, rows: int, workers: int) -> tuple[np.ndarray, int]:
    """Draws 0..n_boot-1 of ``draw`` (a partial of :func:`bootstrap_draws`)
    in chunks of ``rows``, one chunk per :func:`replication_map` task."""
    chunks = replication_map(partial(_chunk, draw, rows, n_boot), -(-n_boot // rows), workers)
    return np.concatenate([draws for draws, _ in chunks]), sum(retried for _, retried in chunks)


def bootstrap_test(
    sample: CointegrationSample,
    restriction: RestrictionSpec,
    config: BootstrapConfig,
    statistic: str = "sn",
    kernel: KernelSpec | None = None,
    fit: ImOlsFit | None = None,
) -> TestOutcome:
    """Full sieve-bootstrap test of R beta = value on ``sample``.

    The sieve is fitted to the unrestricted residuals in levels paired
    with the regressor innovations (restricted residuals would cost power
    under the alternative), while the regenerated samples impose the null
    through the restricted coefficient vector. The outcome also carries
    the bootstrap p-value (1 + #{tau* >= tau}) / (B_eff + 1).
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {_STATISTICS}")
    if fit is None:
        fit = im_ols(sample)
    observed = bootstrap_statistic(sample, restriction, statistic, kernel)

    w_hat = np.column_stack([levels_residuals(sample, fit), sample.innovations()])
    order = select_order(w_hat, config.order_rule, config.q_max)
    model = yule_walker(w_hat, order)
    beta_restricted = restricted_im_ols(fit, restriction)

    draw = partial(
        bootstrap_draws,
        model,
        sample.nobs,
        beta_restricted,
        sample.det,
        fit.delta,
        config,
        restriction,
        statistic,
        kernel,
    )
    rows = batch_rows(sample.nobs, len(fit.params))
    draws, n_retried = _chunked_draws(draw, config.n_boot, rows, config.workers)
    valid = draws[~np.isnan(draws)]
    n_discarded = config.n_boot - valid.shape[0]
    if valid.shape[0] == 0:
        raise RuntimeError("all bootstrap replications degenerate")

    n_eff = valid.shape[0]
    rank = critical_rank(n_eff, config.alpha)
    critical = float(np.sort(valid)[rank - 1])
    p_value = (1.0 + float(np.count_nonzero(valid >= observed))) / (n_eff + 1.0)

    notes: tuple[str, ...] = ()
    if n_discarded > 0.05 * config.n_boot:
        notes = (f"{n_discarded} of {config.n_boot} bootstrap replications discarded",)
    return TestOutcome(
        statistic=observed,
        critical_value=critical,
        reject=observed > critical,
        method=_METHOD_TAGS[statistic],
        p_value=p_value,
        warnings=notes,
        diagnostics={
            "sieve_order": model.order,
            "spectral_radius": companion_spectral_radius(model.coefs),
            "n_retried": n_retried,
            "n_discarded": n_discarded,
        },
    )

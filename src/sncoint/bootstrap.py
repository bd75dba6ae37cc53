"""VAR sieve bootstrap critical values for the Wald-type statistics.

A test fits one :class:`NullModel` (:meth:`NullModel.fit`): a Yule-Walker
VAR(q) of the fitted-model residuals in levels stacked with the regressor
innovations, and the restricted coefficient vector with the deterministic
part. Every draw regenerates a sample from it, resampling the centered VAR
residuals with replacement, so the null restriction holds by construction.
The observed statistic is compared against the (B+1)(1-alpha)-th smallest
of the B bootstrap statistics.

Replications run in fixed-size chunks, batch_rows(T, p + 2m) draws each
(about 2^17 elements per (draws, T, .) array), through the package's one
driver, :func:`~sncoint.streams.replication_map`. A chunk simulates its
VAR in fixed blocks of steps, one matrix product each, and evaluates
every draw at once with :func:`~sncoint.selfnorm.bootstrap_statistic` on
one stacked :class:`~sncoint.estimators.FittedSample`. A degenerate
draw (zero or non-finite column, rank deficiency, kappa <= 0, perfect
fit, singular restricted block) is regenerated once from its retry
substream and discarded if still degenerate. Every draw keeps its own
substream keyed by (seed, replication index, attempt); a chunk's
resample indices are each draw's ``Generator.integers``, bit for bit,
computed from the streams' raw PCG64 words by numpy's own bounded-integer
rule in one :func:`~sncoint.streams.substream_integers` call. The chunking
depends only on the sample shape, so results match at any worker count.
A draw's last bits do depend on the chunk size: the VAR product spans its rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimators import (
    FittedSample,
    RestrictionSpec,
    batch_rows,
    levels_residuals,
    restricted_im_ols,
)
from .kernels import KernelSpec, _as_time_matrix, autocovariances
from .selfnorm import _METHOD_TAGS, TestOutcome, bootstrap_statistic
from .streams import replication_map, substream_integers
from .timeseries import CointegrationSample, Deterministics, _check_alpha, _check_integers, build_deterministics

__all__ = [
    "VarSieveModel",
    "NullModel",
    "BootstrapConfig",
    "yule_walker",
    "max_sieve_order",
    "critical_rank",
    "companion_spectral_radius",
    "generate_bootstrap_batch",
    "generate_bootstrap_sample",
    "bootstrap_statistic",
    "bootstrap_draws",
    "bootstrap_test",
]

# VAR steps per matrix product: a fixed constant, because the product's length
# sets how its sums round, so every draw's bits depend on it.
_BLOCK = 8


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class VarSieveModel:
    """Yule-Walker VAR(q) fit: coefficient stack and centered residual pool; order and sigma follow from them."""

    coefs: np.ndarray  # (q, k, k)
    resid_pool: np.ndarray  # (n_resid, k), column means zero
    block_map: np.ndarray = field(init=False, repr=False, compare=False)  # _block_map(coefs), once per fit
    spectral_radius: float = field(init=False, repr=False, compare=False)  # of the companion matrix, once per fit

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_map", _block_map(self.coefs))
        object.__setattr__(self, "spectral_radius", companion_spectral_radius(self.coefs))

    @property
    def order(self) -> int:
        return self.coefs.shape[0]

    @property
    def sigma(self) -> np.ndarray:  # (k, k) residual covariance of the pool
        return self.resid_pool.T @ self.resid_pool / self.resid_pool.shape[0]

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
    workers: int = 1

    def __post_init__(self) -> None:
        _check_integers(1, n_boot=self.n_boot, workers=self.workers)
        _check_integers(0, seed=self.seed, burn_in=self.burn_in)
        _check_alpha(self.alpha)
        rank = (self.n_boot + 1) * (1.0 - self.alpha)
        if abs(rank - round(rank)) > 1e-9:
            raise ValueError(
                f"(n_boot + 1) * (1 - alpha) = {rank:.6g} must be an integer; "
                f"adjust n_boot (e.g. 199, 399, 999, 1499 for alpha = 0.05)"
            )
        _check_order_rule(self.order_rule)


def critical_rank(n: int, alpha: float) -> int:
    """Position (1-based, ascending) of the bootstrap critical value.

    With n draws the critical value is the (n+1)(1-alpha)-th smallest;
    e.g. 1425 of 1499 at the 5% level, or the maximum of 19 draws.
    """
    rank = int(math.floor((n + 1) * (1.0 - alpha) + 1e-9))
    return min(max(rank, 1), n)


def max_sieve_order(T: int) -> int:
    """Largest candidate order, the integer cube root of T (at least 1)."""
    q = int(round(T ** (1.0 / 3.0)))  # never below the floor: only a step down can be needed
    while q**3 > T:
        q -= 1
    return max(q, 1)


def companion_spectral_radius(coefs: np.ndarray) -> float:
    """Spectral radius of the companion matrix of a VAR coefficient stack."""
    q, k, _ = coefs.shape
    F = np.zeros((q * k, q * k))
    F[:k] = np.hstack(list(coefs))
    if q > 1:
        F[k:, : (q - 1) * k] = np.eye((q - 1) * k)
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def _solve_yule_walker(gammas: np.ndarray, orders) -> list[np.ndarray]:
    """Coefficient stacks solving the moment equations of each order q in
    ``orders``, given :func:`autocovariances` of the demeaned series up to
    the largest. The block-Toeplitz system, block (a, b) Gamma(b - a), is
    assembled once at that order; every lower order's is a leading block."""
    q, k = gammas.shape[0] - 1, gammas.shape[1]
    lead = gammas.transpose(0, 2, 1)  # lead[h] = Gamma(h) = T^{-1} sum_t w_{t+h} w_t'
    blocks = np.concatenate([gammas[q - 1 : 0 : -1], lead[:q]])  # Gamma(1-q), ..., Gamma(q-1)
    G = blocks[np.arange(q) - np.arange(q)[:, None] + q - 1].transpose(0, 2, 1, 3).reshape(q * k, q * k)
    C = np.hstack(lead[1:])
    try:
        stacks = [np.linalg.solve(G[: p * k, : p * k], C[:, : p * k].T).T for p in orders]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("moment equations singular: collinear inputs") from exc
    # C-contiguous so each stack computes identically after a pickle
    # round-trip (memory layout selects the BLAS accumulation order).
    return [np.ascontiguousarray(stacked.reshape(k, -1, k).swapaxes(0, 1)) for stacked in stacks]


def _block_map(coefs: np.ndarray) -> np.ndarray:
    """Companion-form map of L = _BLOCK VAR steps: [w_{t-q}, ..., w_{t-1},
    e_t, ..., e_{t+L-1}] flattened, times the map, is [w_t, ..., w_{t+L-1}].
    It stacks the state's propagation P over the innovations' triangular
    impulse response Psi (n < L steps: the leading (q + n) k rows, n k
    columns), and is the per-step recursion run on (q + L) k unit inputs."""
    q, k, _ = coefs.shape
    n = (q + _BLOCK) * k
    w = np.eye(n).reshape(n, q + _BLOCK, k)
    # Lag-ordered [A_q, ..., A_1]', matching the window w[:, t : t + q] = [w_{t-q}, ..., w_{t-1}].
    lagged = np.vstack([a.T for a in coefs[::-1]])
    for t in range(_BLOCK):
        w[:, q + t] += w[:, t : t + q].reshape(n, q * k) @ lagged
    return np.ascontiguousarray(w[:, q:].reshape(n, _BLOCK * k))


def _var_residuals(w: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """One-step prediction errors on t = q+1..T."""
    q = coefs.shape[0]
    T = w.shape[0]
    resid = w[q:].copy()
    for j in range(1, q + 1):
        resid -= w[q - j : T - j] @ coefs[j - 1].T
    return resid


def _check_order_rule(rule: str | int) -> str | int:
    """The rule 'aic' or 'bic', or a fixed order of at least 1 as a Python int."""
    if isinstance(rule, str):
        if rule not in ("aic", "bic"):
            raise ValueError(f"order must be 'aic', 'bic' or an integer, got {rule!r}")
        return rule
    _check_integers(1, order=rule)
    return int(rule)


def yule_walker(w: np.ndarray, order: str | int) -> VarSieveModel:
    """Fit the VAR sieve by the sample moment equations.

    ``order`` is a fixed order q (an integer of at least 1, NumPy integers
    included, bools not), or the rule 'aic' or 'bic'. A rule scores the
    candidates q = 1..q_max, with q_max = :func:`max_sieve_order` (T), on
    the common evaluation window t = q_max+1..T with ln det of the
    residual covariance plus penalty 2 q k^2 / n (AIC) or ln(n) q k^2 / n
    (BIC), and keeps the minimizer (q = 1 if no candidate has a positive
    determinant). One autocovariance pass and one system at the largest
    order serve every candidate. The estimate is stable by construction;
    the companion spectral radius is verified after every fit.
    """
    rule = _check_order_rule(order)
    w = _as_time_matrix(w)
    T, k = w.shape
    if isinstance(rule, int):
        q_max, orders = rule, [rule]
    else:
        q_max = max(1, min(max_sieve_order(T), (T - 2) // k))
        orders = range(1, q_max + 1)
    if T <= q_max * k + 1:
        raise ValueError(f"sample of length {T} too short for a VAR({q_max}) in {k} series")
    if isinstance(rule, int) and q_max > (cap := int(math.floor((T / math.log(T)) ** (1.0 / 3.0))) + 2):
        warnings.warn(
            f"fixed sieve order {q_max} exceeds the growth-rate cap {cap} for T={T}", RuntimeWarning, stacklevel=2
        )
    wd = w - w.mean(axis=0)
    candidates = _solve_yule_walker(autocovariances(wd, q_max), orders)
    coefs, best_ic, n_eval = candidates[0], np.inf, T - q_max  # a fixed order, or the fallback q = 1
    if isinstance(rule, str):
        penalty = 2.0 if rule == "aic" else math.log(n_eval)
        for q, fit in zip(orders, candidates):
            resid = _var_residuals(wd[q_max - q :], fit)  # rows q_max+1..T
            sign, logdet = np.linalg.slogdet(resid.T @ resid / n_eval)
            ic = logdet + penalty * q * k**2 / n_eval
            if sign > 0 and ic < best_ic:
                coefs, best_ic = fit, ic
    resid = _var_residuals(w, coefs)
    model = VarSieveModel(coefs=coefs, resid_pool=resid - resid.mean(axis=0))
    if model.spectral_radius >= 1.0:
        raise np.linalg.LinAlgError(f"fitted VAR unstable (spectral radius {model.spectral_radius:.6f})")
    return model


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class NullModel:
    """What every bootstrap draw regenerates a sample of length T from."""

    sieve: VarSieveModel  # of w = [u, v]
    T: int
    beta: np.ndarray  # (m,) restricted long-run coefficients
    det: Deterministics
    delta: np.ndarray  # (p,) deterministic coefficients

    @classmethod
    def fit(
        cls, sample: CointegrationSample | FittedSample, restriction: RestrictionSpec, order: str | int
    ) -> NullModel:
        """The null model of one sample, or of its :class:`FittedSample` row.

        The sieve (:func:`yule_walker` of ``order``) is fitted to the
        unrestricted IM-OLS residuals in levels paired with the regressor
        innovations (restricted residuals would cost power under the
        alternative), while ``beta`` is the fit projected onto the null.
        """
        fitted = FittedSample.one(sample, "NullModel.fit")
        sample, fit = fitted.sample, fitted.im
        w_hat = np.column_stack([levels_residuals(sample, fit), sample.innovations()])
        return cls(yule_walker(w_hat, order), sample.nobs, restricted_im_ols(fit, restriction), sample.det, fit.delta)


def generate_bootstrap_batch(
    null: NullModel, config: BootstrapConfig, indices: np.ndarray, attempt: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate the null-imposed samples ``indices`` from the null model.

    Draw i takes ``burn_in + order + T`` innovations i.i.d. with replacement
    from the sieve's centered residual pool, from its own substream (seed,
    i, attempt): its ``integers(0, len(pool), n_steps)``, which one
    :func:`~sncoint.streams.substream_integers` call gives for the whole
    batch from the streams' raw PCG64 words, bit for bit. The
    recursion starts from zeros and advances all draws L =
    _BLOCK steps per product with the sieve's ``block_map``. BLAS can round
    a row of that product differently by the batch's row count and the
    row's place in it, so a draw's last bits depend on how the draws are
    split into batches, never on the other draws in its batch. The last T
    steps are kept: the regressors are partial sums of the simulated
    innovations and y uses the restricted coefficient vector, so the null
    holds exactly. Returns ``y`` (c, T) and ``x`` (c, T, m).
    """
    sieve, T = null.sieve, null.T
    q, k = sieve.order, sieve.n_series
    pool = sieve.resid_pool
    n_steps = config.burn_in + q + T
    keys = np.column_stack([indices, np.full_like(indices, attempt)])
    picks = substream_integers(config.seed, keys, pool.shape[0], n_steps)
    # w[:, q + t] holds step t; the q leading zeros are the initial values.
    w = np.zeros((c := len(picks), q + n_steps, k))
    w[:, q:] = pool[picks]
    for t in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - t)
        block = w[:, t : t + q + n].reshape(c, -1) @ sieve.block_map[: (q + n) * k, : n * k]
        w[:, q + t : q + t + n] = block.reshape(c, n, k)
    w = w[:, -T:]
    x = np.cumsum(w[:, :, 1:], axis=1)
    y = x @ null.beta + w[:, :, 0]
    if null.det.n_columns:
        y += build_deterministics(null.det, T) @ null.delta
    return y, x


def generate_bootstrap_sample(
    null: NullModel, config: BootstrapConfig, replication_index: int, attempt: int = 0
) -> CointegrationSample:
    """One regenerated sample: :func:`generate_bootstrap_batch` of the one
    draw ``replication_index``, which can differ in the last bits from that
    draw in a larger batch."""
    y, x = generate_bootstrap_batch(null, config, np.array([replication_index]), attempt)
    return CointegrationSample(y=y[0], x=x[0], det=null.det)


def bootstrap_draws(
    null: NullModel,
    config: BootstrapConfig,
    restriction: RestrictionSpec,
    statistic: str,
    kernel: KernelSpec | None,
    indices: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Bootstrap statistics of the draws ``indices`` and the retry count.

    A degenerate draw (NaN in :func:`~sncoint.selfnorm.bootstrap_statistic`) is
    regenerated once from its attempt-1 substream; one still degenerate
    is NaN, for the caller to count as discarded.
    """
    indices = np.asarray(indices)
    y, x = generate_bootstrap_batch(null, config, indices)
    draws = bootstrap_statistic(FittedSample(y, x, null.det), restriction, statistic, kernel)
    retry = np.flatnonzero(np.isnan(draws))
    if retry.size:
        y, x = generate_bootstrap_batch(null, config, indices[retry], 1)
        draws[retry] = bootstrap_statistic(FittedSample(y, x, null.det), restriction, statistic, kernel)
    return draws, retry.size


def bootstrap_test(
    sample: CointegrationSample | FittedSample,
    restriction: RestrictionSpec,
    config: BootstrapConfig,
    statistic: str = "sn",
    kernel: KernelSpec | None = None,
) -> TestOutcome:
    """Full sieve-bootstrap test of R beta = value on ``sample``: the
    observed statistic against draws from :meth:`NullModel.fit` of the
    sample. The outcome also carries the bootstrap p-value
    (1 + #{tau* >= tau}) / (B_eff + 1).
    """
    fitted = FittedSample.one(sample, "bootstrap_test")
    observed = bootstrap_statistic(fitted, restriction, statistic, kernel)
    null = NullModel.fit(fitted, restriction, config.order_rule)

    draw = partial(bootstrap_draws, null, config, restriction, statistic, kernel)
    rows = batch_rows(null.T, len(fitted.im.params))
    chunks = replication_map(draw, config.n_boot, rows, config.workers)
    draws = np.concatenate([draws for draws, _ in chunks])
    n_retried = sum(retried for _, retried in chunks)
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
        method=_METHOD_TAGS[statistic],
        p_value=p_value,
        warnings=notes,
        diagnostics={
            "sieve_order": null.sieve.order,
            "spectral_radius": null.sieve.spectral_radius,
            "n_retried": n_retried,
            "n_discarded": n_discarded,
        },
    )

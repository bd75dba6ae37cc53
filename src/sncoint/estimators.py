"""OLS, the partial-sum (IM-OLS) estimator, its restricted version, and the
fully modified / dynamic OLS benchmarks.

The augmented partial-sum regression stacks, for a sample with p
deterministic columns and m integrated regressors,

    cumsum(y)_t  on  Z_t = [cumsum(d)_t', cumsum(x)_t', x_t']',

so the coefficient vector has length p + 2m and is ordered
(deterministic block, beta, gamma). All linear solves rank-check at
1e-10 relative to the leading singular value after column equilibration;
the partial-sum columns are otherwise badly scaled for large T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, estimate_lrv, one_sided_lrv
from .timeseries import CointegrationSample, Deterministics, build_deterministics

__all__ = [
    "OlsFit",
    "ImOlsFit",
    "RestrictionSpec",
    "FmOlsFit",
    "DOlsFit",
    "ols",
    "im_ols",
    "im_ols_batch",
    "batch_rows",
    "scaled_variance",
    "restricted_im_ols",
    "levels_residuals",
    "fm_ols",
    "d_ols",
]

_RANK_RCOND = 1e-10
# Larger batches raise peak memory faster than they cut time per draw.
_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class OlsFit:
    """Least-squares coefficients and residuals."""

    params: np.ndarray
    resid: np.ndarray


def _scaled_lstsq(y: np.ndarray, X: np.ndarray, label: str) -> np.ndarray:
    """Solve min ||y - Xb|| with column equilibration and a rank check."""
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise np.linalg.LinAlgError(label)
    coef, _, rank, _ = np.linalg.lstsq(X / norms, y, rcond=_RANK_RCOND)
    if rank < X.shape[1]:
        raise np.linalg.LinAlgError(label)
    return coef / norms


def ols(y: np.ndarray, X: np.ndarray) -> OlsFit:
    """Ordinary least squares of ``y`` on the columns of ``X``.

    Raises :class:`numpy.linalg.LinAlgError` when ``X`` is rank deficient.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    params = _scaled_lstsq(y, X, "regressor matrix is rank deficient")
    return OlsFit(params=params, resid=y - X @ params)


@dataclass(frozen=True)
class ImOlsFit:
    """Fit of the augmented partial-sum regression.

    Attributes
    ----------
    params : ndarray, shape (p + 2m,)
        Coefficients ordered (deterministic block, beta, gamma).
    regressors : ndarray, shape (T, p + 2m)
        The augmented regressor matrix Z.
    resid : ndarray, shape (T,)
        Partial-sum residuals cumsum(y)_t - Z_t' params.
    scaled_cov : ndarray
        Sandwich matrix (Z'Z)^{-1} (sum_t c_t c_t') (Z'Z)^{-1} built from
        the reversed partial sums of Z; see :func:`scaled_variance`.
    n_det, n_reg : int
        Number of deterministic columns p and integrated regressors m.

    A fit from :func:`im_ols_batch` carries a leading axis of length c on
    every array.
    """

    params: np.ndarray
    regressors: np.ndarray
    resid: np.ndarray
    scaled_cov: np.ndarray
    n_det: int
    n_reg: int

    @property
    def nobs(self) -> int:
        return self.regressors.shape[-2]

    @property
    def delta(self) -> np.ndarray:
        """Deterministic coefficients."""
        return self.params[..., : self.n_det]

    @property
    def beta(self) -> np.ndarray:
        """Long-run coefficients on the integrated regressors."""
        return self.params[..., self.n_det : self.n_det + self.n_reg]

    @property
    def gamma(self) -> np.ndarray:
        """Coefficients on the regressor levels (endogeneity correction)."""
        return self.params[..., self.n_det + self.n_reg :]

    def beta_slice(self) -> slice:
        return slice(self.n_det, self.n_det + self.n_reg)


def _augmented(x: np.ndarray, det: Deterministics) -> np.ndarray:
    """Z = [cumsum(d), cumsum(x), x] for levels ``x`` of shape (..., T, m)."""
    Sd = np.cumsum(build_deterministics(det, x.shape[-2]), axis=0)
    Sd = np.broadcast_to(Sd, x.shape[:-1] + Sd.shape[-1:])
    return np.concatenate([Sd, np.cumsum(x, axis=-2), x], axis=-1)


def augmented_regressors(sample: CointegrationSample) -> np.ndarray:
    """Build Z = [cumsum(d), cumsum(x), x] for the partial-sum regression."""
    return _augmented(sample.x, sample.det)


def batch_rows(T: int, width: int) -> int:
    """Rows per batch so that one (rows, T, width) array holds about 2^17
    elements (1 MiB); depends on the shape only, never on workers."""
    return max(1, _BATCH_ELEMENTS // (T * width))


def _fit_batch(Z: np.ndarray, Sy: np.ndarray, n_det: int, n_reg: int) -> ImOlsFit:
    # One stacked Householder QR of the equilibrated [Z, Sy] yields R and
    # Q'Sy. The sandwich (Z'Z)^{-1} (C'C) (Z'Z)^{-1}, with C the reversed
    # partial sums of Z, is evaluated as R^{-1} (Y'Y) R^{-T}, Y = C R^{-1}:
    # the error then scales with the condition number of R rather than of
    # the Gram matrix, which raw partial-sum columns push beyond float64
    # for long samples. The rank check uses the singular values of R,
    # which are those of the equilibrated Z. Rows that fail it, or have a
    # zero or non-finite column, get NaN coefficients and sandwich.
    c, _, k = Z.shape
    norms = np.sqrt(np.einsum("ctj,ctj->cj", Z, Z))
    degenerate = ~(np.isfinite(norms).all(axis=1) & (norms > 0.0).all(axis=1) & np.isfinite(Sy[:, -1]))
    norms[degenerate] = 1.0
    Zs = Z / norms[:, None, :]
    Zs[degenerate] = 0.0
    Raug = np.linalg.qr(np.concatenate([Zs, Sy[:, :, None]], axis=2), mode="r")
    R = Raug[:, :k, :k]
    sv = np.linalg.svd(R, compute_uv=False)
    degenerate |= ~(sv[:, -1] > _RANK_RCOND * sv[:, 0])
    R[degenerate] = np.eye(k)
    Rinv = np.linalg.inv(R)
    theta = (Rinv @ Raug[:, :k, k:])[:, :, 0]

    SZ = np.cumsum(Zs, axis=1)
    C = SZ[:, -1:] - np.concatenate([np.zeros((c, 1, k)), SZ[:, :-1]], axis=1)
    Y = C @ Rinv
    V = Rinv @ (Y.transpose(0, 2, 1) @ Y) @ Rinv.transpose(0, 2, 1)
    V = 0.5 * (V + V.transpose(0, 2, 1)) / (norms[:, :, None] * norms[:, None, :])
    theta[degenerate] = np.nan
    V[degenerate] = np.nan
    resid = Sy - (Zs @ theta[:, :, None])[:, :, 0]
    return ImOlsFit(params=theta / norms, regressors=Z, resid=resid, scaled_cov=V, n_det=n_det, n_reg=n_reg)


def im_ols_batch(y: np.ndarray, x: np.ndarray, det: Deterministics) -> ImOlsFit:
    """IM-OLS of each row of ``y`` (c, T) on the levels ``x`` (c, T, m).

    Rows :func:`im_ols` would reject as collinear have NaN ``params``,
    ``resid`` and ``scaled_cov``.
    """
    return _fit_batch(_augmented(x, det), np.cumsum(y, axis=1), det.n_columns, x.shape[2])


def scaled_variance(fit: ImOlsFit) -> np.ndarray:
    """Recompute the sandwich matrix of ``fit`` from its regressors (the
    dependent column passed along does not enter it)."""
    return _fit_batch(fit.regressors[None], fit.resid[None], fit.n_det, fit.n_reg).scaled_cov[0]


def im_ols(sample: CointegrationSample) -> ImOlsFit:
    """Estimate the augmented partial-sum regression by OLS: the one-row
    case of :func:`im_ols_batch`.

    Raises :class:`numpy.linalg.LinAlgError` when the augmented regressor
    matrix is numerically collinear.
    """
    fit = im_ols_batch(sample.y[None], sample.x[None], sample.det)
    if np.isnan(fit.params).any():
        raise np.linalg.LinAlgError("augmented regression singular")
    return ImOlsFit(fit.params[0], fit.regressors[0], fit.resid[0], fit.scaled_cov[0], fit.n_det, fit.n_reg)


@dataclass(frozen=True)
class RestrictionSpec:
    """Linear restriction R beta = value with R of full row rank s <= m."""

    R: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        value = np.atleast_1d(np.asarray(self.value, dtype=float))
        if R.shape[0] != value.shape[0]:
            raise ValueError("restriction matrix and value dimensions differ")
        if not (np.isfinite(R).all() and np.isfinite(value).all()):
            raise ValueError("restriction holds a non-finite value")
        if R.shape[0] > R.shape[1]:
            raise ValueError("more restrictions than coefficients")
        if np.linalg.matrix_rank(R, tol=_RANK_RCOND * max(1.0, float(np.abs(R).max()))) < R.shape[0]:
            raise ValueError("restriction matrix does not have full row rank")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "value", value)

    @property
    def n_restrictions(self) -> int:
        return self.R.shape[0]

    def padded(self, n_det: int, n_reg: int) -> np.ndarray:
        """Embed R into the (p + 2m)-dimensional coefficient space.

        Zero blocks cover the deterministic coefficients and the level
        coefficients, which are unrestricted under the null.
        """
        if self.R.shape[1] != n_reg:
            raise ValueError(
                f"restriction is on {self.R.shape[1]} coefficients but the model has {n_reg}"
            )
        s = self.n_restrictions
        return np.hstack([np.zeros((s, n_det)), self.R, np.zeros((s, n_reg))])


def restricted_im_ols(fit: ImOlsFit, restriction: RestrictionSpec) -> np.ndarray:
    """Project the fitted coefficients onto the null set R beta = value.

    Returns the restricted long-run coefficient vector; it satisfies the
    restriction to machine precision.
    """
    Z = fit.regressors
    R2 = restriction.padded(fit.n_det, fit.n_reg)
    norms = np.linalg.norm(Z, axis=0)
    A = (Z / norms).T @ (Z / norms)
    # G = (Z'Z)^{-1} R2' computed through the equilibrated system.
    G = np.linalg.solve(A, (R2 / norms).T) / norms[:, None]
    middle = R2 @ G
    params = fit.params
    # Projection is idempotent; a second pass refines the constraint
    # residual down to machine precision at the solution's scale.
    for _ in range(2):
        gap = R2 @ params - restriction.value
        try:
            params = params - G @ np.linalg.solve(middle, gap)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("restricted projection singular") from exc
    return params[fit.beta_slice()]


def levels_residuals(sample: CointegrationSample, fit: ImOlsFit) -> np.ndarray:
    """Residuals y_t - d_t' delta - x_t' beta implied by a partial-sum fit."""
    resid = sample.y - sample.x @ fit.beta
    if fit.n_det:
        resid = resid - sample.deterministics() @ fit.delta
    return resid


def _beta_block_inverse(Z: np.ndarray, n_det: int) -> np.ndarray:
    """The integrated-regressor block of (Z'Z)^{-1}, via equilibration."""
    norms = np.linalg.norm(Z, axis=0)
    A = (Z / norms).T @ (Z / norms)
    inv = np.linalg.inv(A) / np.outer(norms, norms)
    return inv[n_det:, n_det:]


@dataclass(frozen=True)
class FmOlsFit:
    """Fully modified estimate with its long-run variance ingredients."""

    params: np.ndarray
    resid: np.ndarray
    n_det: int
    conditional_lrv: float
    moment_inv_beta: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        return self.params[self.n_det :]

    @property
    def delta(self) -> np.ndarray:
        return self.params[: self.n_det]


def fm_ols(sample: CointegrationSample, kernel: KernelSpec) -> FmOlsFit:
    """Fully modified least squares for the cointegrating vector.

    The dependent variable is purged of its long-run conditional mean
    given the regressor innovations, and the one-sided bias term is
    subtracted from the cross moment. Long-run quantities come from the
    static OLS residual paired with v_t = x_t - x_{t-1}.
    """
    d = sample.deterministics()
    Z = np.column_stack([d, sample.x]) if d.shape[1] else sample.x
    first = ols(sample.y, Z)
    v = sample.innovations()
    w = np.column_stack([first.resid, v])
    est = estimate_lrv(w, kernel)
    fixed = KernelSpec(kernel.kind, est.bandwidth)
    delta_one = one_sided_lrv(w, fixed)

    vv_inv_vu = np.linalg.solve(est.vv, est.uv)
    y_plus = sample.y - v @ vv_inv_vu
    # One-sided bias of the corrected error: delta_one[a, b] accumulates
    # cov(w_{t,a}, w_{t+h,b}) over h >= 0, so the v-to-future-u block is
    # delta_one[1:, 0].
    lam_plus = delta_one[1:, 0] - delta_one[1:, 1:] @ vv_inv_vu
    bias = np.zeros(Z.shape[1])
    bias[d.shape[1] :] = lam_plus

    T = sample.nobs
    norms = np.linalg.norm(Z, axis=0)
    A = (Z / norms).T @ (Z / norms)
    rhs = (Z.T @ y_plus - T * bias) / norms
    params = np.linalg.solve(A, rhs) / norms
    return FmOlsFit(
        params=params,
        resid=sample.y - Z @ params,
        n_det=d.shape[1],
        conditional_lrv=est.conditional,
        moment_inv_beta=_beta_block_inverse(Z, d.shape[1]),
    )


@dataclass(frozen=True)
class DOlsFit:
    """Leads-and-lags augmented estimate of the cointegrating vector."""

    params: np.ndarray
    resid: np.ndarray
    n_det: int
    n_reg: int
    leads_lags: int
    moment_inv_beta: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        return self.params[self.n_det : self.n_det + self.n_reg]


def _dols_design(sample: CointegrationSample, K: int, lo: int, hi: int):
    """Regressor matrix [d, x, v_{t-K}..v_{t+K}] over 1-based rows lo..hi."""
    d = sample.deterministics()
    v = sample.innovations()
    rows = slice(lo - 1, hi)
    blocks = [d[rows], sample.x[rows]]
    for j in range(-K, K + 1):
        blocks.append(v[lo - 1 + j : hi + j])
    return sample.y[rows], np.column_stack(blocks)


def d_ols(sample: CointegrationSample, max_leads_lags: int) -> DOlsFit:
    """Dynamic OLS with a BIC-selected symmetric number of leads and lags.

    Candidates K = 0..max_leads_lags are scored on the common sample
    t = max_leads_lags+1 .. T-max_leads_lags with
    BIC = ln(SSR/n) + k ln(n)/n; the winner is refit on its own maximal
    sample.
    """
    T, m, p = sample.nobs, sample.n_regressors, sample.det.n_columns
    kmax = int(max_leads_lags)
    n_common = T - 2 * kmax
    widest = p + m + m * (2 * kmax + 1)
    if kmax < 0 or n_common <= widest:
        raise ValueError("leads/lags range infeasible for this sample size")

    best = (np.inf, 0)
    for K in range(kmax + 1):
        y_c, X_c = _dols_design(sample, K, kmax + 1, T - kmax)
        fit = ols(y_c, X_c)
        n = y_c.shape[0]
        sigma2 = float(fit.resid @ fit.resid) / n
        bic = np.log(sigma2) + X_c.shape[1] * np.log(n) / n
        if bic < best[0]:
            best = (bic, K)

    K = best[1]
    y_f, X_f = _dols_design(sample, K, K + 1, T - K)
    fit = ols(y_f, X_f)
    return DOlsFit(
        params=fit.params,
        resid=fit.resid,
        n_det=p,
        n_reg=m,
        leads_lags=K,
        moment_inv_beta=_beta_block_inverse(X_f, p)[:m, :m],
    )

"""OLS, the partial-sum (IM-OLS) estimator, its restricted version, and the
fully modified / dynamic OLS benchmarks.

The augmented partial-sum regression stacks, for a sample with p
deterministic columns and m integrated regressors,

    cumsum(y)_t  on  Z_t = [cumsum(d)_t', cumsum(x)_t', x_t']',

so the coefficient vector has length p + 2m and is ordered
(deterministic block, beta, gamma).

Every least-squares fit goes through one kernel, :func:`_qr_solve`: it
equilibrates the columns (partial sums and trends are otherwise badly
scaled for large T), runs one Householder QR of [X, y], and applies one
rank rule, :func:`_full_rank`. A fit keeps ``root`` = D^{-1} R^{-1}, D the
column norms, so (X'X)^{-1} = root root'. FM-OLS, D-OLS and the
restricted projection read their inverse moments from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import KernelSpec, LrvEstimate, estimate_lrv
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
    "restricted_im_ols",
    "levels_residuals",
    "fm_ols",
    "d_ols",
    "FittedSample",
]

_RANK_RCOND = 1e-10
_DEFICIENT = "regressor matrix is rank deficient"
# Larger batches raise peak memory faster than they cut time per draw.
_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class OlsFit:
    """Least-squares coefficients, residuals and ``root``, with (X'X)^{-1} = root root'."""

    params: np.ndarray
    resid: np.ndarray
    root: np.ndarray


def _full_rank(sv: np.ndarray, k: int) -> np.ndarray:
    """The rank rule of every solve here, on the singular values of k equilibrated columns
    (of one design or each of a stack): k of them, the least above _RANK_RCOND times the largest."""
    return (sv.shape[-1] == k) & (sv[..., -1] > _RANK_RCOND * sv[..., 0])


def _unit_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` with its columns scaled to unit norm (a zero column stays zero), and the norms."""
    norms = np.linalg.norm(X, axis=0)
    return X / np.where(norms > 0.0, norms, 1.0), norms


def _qr_solve(y: np.ndarray, X: np.ndarray):
    """Least squares of each row of ``y`` (c, T) on ``X`` (c, T, k) by one stacked
    QR of the equilibrated [X, y]. Returns the equilibrated columns Xs, their norms,
    R^{-1}, the coefficients theta on Xs (X's are theta / norms) and the mask of
    degenerate rows: a zero or non-finite column, a non-finite y, or an R (whose
    singular values are those of Xs) that fails :func:`_full_rank`. Such rows get
    R = I and NaN theta."""
    k = X.shape[2]
    norms = np.sqrt(np.einsum("ctj,ctj->cj", X, X))
    degenerate = ~(((norms > 0.0) & (norms < np.inf)).all(axis=1) & np.isfinite(y).all(axis=1))
    if degenerate.any():  # masking costs more than the QR of one short row, so only when needed
        norms[degenerate] = 1.0
        X = np.where(degenerate[:, None, None], 0.0, X)
    Xs = X / norms[:, None, :]
    Raug = np.linalg.qr(np.concatenate([Xs, y[:, :, None]], axis=2), mode="r")
    R = Raug[:, :k, :k]
    degenerate |= ~_full_rank(np.linalg.svd(R, compute_uv=False), k)
    if masked := degenerate.any():
        R[degenerate] = np.eye(k)
    Rinv = np.linalg.inv(R)
    theta = (Rinv @ Raug[:, :k, k:])[:, :, 0]
    if masked:
        theta[degenerate] = np.nan
    return Xs, norms, Rinv, theta, degenerate


def ols(y: np.ndarray, X: np.ndarray) -> OlsFit:
    """Ordinary least squares of ``y`` on the columns of ``X``: the kernel's one-row case.

    Raises :class:`numpy.linalg.LinAlgError` when ``X`` is rank deficient or the data are not finite.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    _, norms, Rinv, theta, degenerate = _qr_solve(y[None], X[None])
    if degenerate[0]:
        raise np.linalg.LinAlgError(_DEFICIENT)
    params = theta[0] / norms[0]
    return OlsFit(params=params, resid=y - X @ params, root=Rinv[0] / norms[0][:, None])


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
        Sandwich matrix (Z'Z)^{-1} (sum_t c_t c_t') (Z'Z)^{-1}, with c_t
        the reversed partial sums sum_{s>=t} Z_s.
    root : ndarray, shape (p + 2m, p + 2m)
        Factor of the inverse moments: (Z'Z)^{-1} = root root'.
    n_det, n_reg : int
        Number of deterministic columns p and integrated regressors m.

    A fit from :func:`im_ols_batch` carries a leading axis of length c on
    every array.
    """

    params: np.ndarray
    regressors: np.ndarray
    resid: np.ndarray
    scaled_cov: np.ndarray
    root: np.ndarray
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


def batch_rows(T: int, width: int) -> int:
    """Rows per batch so that one (rows, T, width) array holds about 2^17
    elements (1 MiB); depends on the shape only, never on workers."""
    return max(1, _BATCH_ELEMENTS // (T * width))


def im_ols_batch(y: np.ndarray, x: np.ndarray, det: Deterministics) -> ImOlsFit:
    """IM-OLS of each row of ``y`` (c, T) on the levels ``x`` (c, T, m).

    Rows :func:`im_ols` would reject as collinear have NaN ``params``,
    ``resid``, ``scaled_cov`` and ``root``.
    """
    # The kernel's stacked QR of the equilibrated [Z, Sy] yields R^{-1}.
    # The sandwich (Z'Z)^{-1} (C'C) (Z'Z)^{-1}, with C the reversed partial
    # sums of Z, is evaluated as R^{-1} (Y'Y) R^{-T}, Y = C R^{-1}: the
    # error then scales with the condition number of R rather than of the
    # Gram matrix, which raw partial-sum columns push beyond float64 for
    # long samples. Degenerate rows get a NaN sandwich.
    Z = _augmented(x, det)
    Sy = np.cumsum(y, axis=1)
    Zs, norms, Rinv, theta, degenerate = _qr_solve(Sy, Z)
    c, _, k = Z.shape
    SZ = np.cumsum(Zs, axis=1)
    C = SZ[:, -1:] - np.concatenate([np.zeros((c, 1, k)), SZ[:, :-1]], axis=1)
    Y = C @ Rinv
    V = Rinv @ (Y.transpose(0, 2, 1) @ Y) @ Rinv.transpose(0, 2, 1)
    V = 0.5 * (V + V.transpose(0, 2, 1)) / (norms[:, :, None] * norms[:, None, :])
    root = Rinv / norms[:, :, None]
    V[degenerate] = np.nan
    root[degenerate] = np.nan
    resid = Sy - (Zs @ theta[:, :, None])[:, :, 0]
    return ImOlsFit(theta / norms, Z, resid, V, root, n_det=det.n_columns, n_reg=x.shape[2])


def im_ols(sample: CointegrationSample) -> ImOlsFit:
    """Estimate the augmented partial-sum regression by OLS: the one-row
    case of :func:`im_ols_batch`.

    Raises :class:`numpy.linalg.LinAlgError` when the augmented regressor
    matrix is numerically collinear.
    """
    fit = im_ols_batch(sample.y[None], sample.x[None], sample.det)
    if np.isnan(fit.params).any():
        raise np.linalg.LinAlgError("augmented regression singular")
    row = (fit.params[0], fit.regressors[0], fit.resid[0], fit.scaled_cov[0], fit.root[0])
    return ImOlsFit(*row, fit.n_det, fit.n_reg)


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
    R2 = restriction.padded(fit.n_det, fit.n_reg)
    G = fit.root @ (R2 @ fit.root).T  # (Z'Z)^{-1} R2'
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
    return sample.y - sample.x @ fit.beta - sample.deterministics() @ fit.delta


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


def fm_ols(sample: CointegrationSample | FittedSample, kernel: KernelSpec) -> FmOlsFit:
    """Fully modified least squares for the cointegrating vector.

    The dependent variable is purged of its long-run conditional mean
    given the regressor innovations, and the one-sided bias term is
    subtracted from the cross moment. Long-run quantities come from the
    static OLS residual paired with v_t = x_t - x_{t-1}.
    """
    fitted = FittedSample.of(sample)
    sample, Z, root = fitted.sample, fitted.design, fitted.static.root
    est = fitted.lrv(kernel)
    v = sample.innovations()

    vv_inv_vu = np.linalg.solve(est.vv, est.uv)
    y_plus = sample.y - v @ vv_inv_vu
    # One-sided bias of the corrected error: one_sided[a, b] accumulates
    # cov(w_{t,a}, w_{t+h,b}) over h >= 0, so the v-to-future-u block is
    # one_sided[1:, 0].
    lam_plus = est.one_sided[1:, 0] - est.one_sided[1:, 1:] @ vv_inv_vu
    n_det = sample.det.n_columns
    bias = np.zeros(Z.shape[1])
    bias[n_det:] = lam_plus

    params = root @ (root.T @ (Z.T @ y_plus - sample.nobs * bias))
    return FmOlsFit(
        params=params,
        resid=sample.y - Z @ params,
        n_det=n_det,
        conditional_lrv=est.conditional,
        moment_inv_beta=(root @ root.T)[n_det:, n_det:],
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
    rows = slice(lo - 1, hi)
    windows = np.lib.stride_tricks.sliding_window_view(sample.innovations(), 2 * K + 1, axis=0)
    leads_lags = windows[lo - 1 - K : hi - K].transpose(0, 2, 1).reshape(hi - lo + 1, -1)  # j-major
    return sample.y[rows], np.column_stack([sample.deterministics()[rows], sample.x[rows], leads_lags])


def d_ols(sample: CointegrationSample, max_leads_lags: int) -> DOlsFit:
    """Dynamic OLS with a BIC-selected symmetric number of leads and lags.

    Candidates K = 0..max_leads_lags are scored on the common sample
    t = max_leads_lags+1 .. T-max_leads_lags with
    BIC = ln(SSR/n) + k ln(n)/n; the winner is refit on its own maximal
    sample.
    """
    T, m, p = sample.nobs, sample.n_regressors, sample.det.n_columns
    kmax = int(max_leads_lags)
    n = T - 2 * kmax
    widths = p + m + m * (2 * np.arange(kmax + 1) + 1)  # regressors of each K
    if kmax < 0 or n <= widths[-1]:
        raise ValueError("leads/lags range infeasible for this sample size")

    # Ordered v_t, v_{t-1}, v_{t+1}, ..., each K's regressors are a prefix of the
    # widest design: one QR of [X, y], X equilibrated, gives every SSR as a tail sum of
    # squares of R's last column; column subsets interlace, so one rank check covers all.
    y_c, X_c = _dols_design(sample, kmax, kmax + 1, T - kmax)
    blocks = np.argsort(np.abs(np.arange(-kmax, kmax + 1)), kind="stable")
    X_c = np.column_stack([X_c[:, : p + m], X_c[:, p + m :].reshape(n, -1, m)[:, blocks].reshape(n, -1)])
    R = np.linalg.qr(np.column_stack([_unit_columns(X_c)[0], y_c]), mode="r")
    if not _full_rank(np.linalg.svd(R[:-1, :-1], compute_uv=False), widths[-1]):
        raise np.linalg.LinAlgError(_DEFICIENT)
    ssr = np.cumsum(R[::-1, -1] ** 2)[::-1][widths]
    K = int(np.argmin(np.log(ssr / n) + widths * np.log(n) / n))

    y_f, X_f = _dols_design(sample, K, K + 1, T - K)
    fit = ols(y_f, X_f)
    return DOlsFit(
        params=fit.params,
        resid=fit.resid,
        n_det=p,
        n_reg=m,
        leads_lags=K,
        moment_inv_beta=(fit.root @ fit.root.T)[p : p + m, p : p + m],
    )


class FittedSample:
    """A sample with the fits that estimators and tests share, each
    computed once, on first use.

    ``design`` is the static regressor matrix [d, x], ``static`` the OLS
    of y on it, ``im`` the IM-OLS fit, ``lrv(kernel)`` the long-run
    covariance of w = [static residual, v] and ``fm(kernel)`` the FM-OLS
    fit, one per kernel specification. :func:`fm_ols` and the tests in
    :mod:`sncoint.selfnorm` and :mod:`sncoint.bootstrap` take one in place
    of a sample and read its fits instead of refitting.
    """

    def __init__(self, sample: CointegrationSample) -> None:
        self.sample = sample
        self._lrv: dict[KernelSpec, LrvEstimate] = {}
        self._fm: dict[KernelSpec, FmOlsFit] = {}

    @classmethod
    def of(cls, sample: CointegrationSample | FittedSample) -> FittedSample:
        """``sample`` itself if already fitted, else a new wrapper."""
        return sample if isinstance(sample, FittedSample) else cls(sample)

    @cached_property
    def design(self) -> np.ndarray:
        return np.column_stack([self.sample.deterministics(), self.sample.x])

    @cached_property
    def static(self) -> OlsFit:
        return ols(self.sample.y, self.design)

    @cached_property
    def im(self) -> ImOlsFit:
        return im_ols(self.sample)

    def lrv(self, kernel: KernelSpec) -> LrvEstimate:
        """Long-run covariance of [static residual, v] under ``kernel``."""
        if kernel not in self._lrv:
            w = np.column_stack([self.static.resid, self.sample.innovations()])
            self._lrv[kernel] = estimate_lrv(w, kernel)
        return self._lrv[kernel]

    def fm(self, kernel: KernelSpec) -> FmOlsFit:
        """:func:`fm_ols` of the sample under ``kernel``."""
        if kernel not in self._fm:
            self._fm[kernel] = fm_ols(self, kernel)
        return self._fm[kernel]

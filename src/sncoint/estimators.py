"""OLS, the partial-sum (IM-OLS) estimator, its restricted version, and the
fully modified / dynamic OLS benchmarks.

The augmented partial-sum regression stacks, for a sample with p
deterministic columns and m integrated regressors,

    cumsum(y)_t  on  Z_t = [cumsum(d)_t', cumsum(x)_t', x_t']',

so the coefficient vector has length p + 2m and is ordered
(deterministic block, beta, gamma).

Every least-squares fit goes through one kernel, :func:`_qr_solve`: it
equilibrates the columns (partial sums and trends are otherwise badly
scaled for large T), runs one Householder QR of [X, y], applies one rank
rule and masks degenerate rows. It returns ``root`` = D^{-1} R^{-1}, D the
column norms, so (X'X)^{-1} = root root'; FM-OLS, D-OLS and the restricted
projection read their inverse moments from it. D-OLS reads the SSRs of its
lead/lag candidates from the y column of the kernel's triangular factor.

:class:`FittedSample` fits a stack of samples that share T, m and the
deterministics, every fit in one stacked call, built once and kept in one
memo under its key. One sample is a row of a stack: its fits are that row
of the stacked ones, built once. :func:`im_ols`, :func:`fm_ols` and
:func:`d_ols` read their fits from it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelSpec, LrvEstimate, _series, estimate_lrv
from .timeseries import CointegrationSample, Deterministics, _check_nobs, _increments, build_deterministics

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


def _qr_solve(y: np.ndarray, X: np.ndarray):
    """Least squares of each row of ``y`` (c, T), or of each of its r columns
    (c, T, r), on ``X`` (c, T, k) by one stacked QR of the equilibrated [X, y].

    Returns theta, the coefficients on the equilibrated columns Xs ((c, k) or
    (c, k, r); X's are theta / norms), the column norms, root = R^{-1} / norms
    with (X'X)^{-1} = root root', the mask of degenerate rows, the y columns of
    the triangular factor of [Xs, y] (their tail sums of squares from row j are
    the SSRs on X's first j columns), Xs and R^{-1}. A row is degenerate where a
    column of X is zero or not finite, y is not finite, or the rank rule fails:
    the least of R's k singular values (those of Xs) is not above _RANK_RCOND
    times the largest. It is solved as zeros with R = I and gets NaN theta and root.

    [Xs, y] is written time-contiguous, into one (c, k + r, T) buffer, so the
    equilibrating divide runs along time rather than over rows of k; the QR
    reads its (c, T, k + r) transposed view, which LAPACK receives as the same
    Fortran matrix, and Xs is returned as that view. The norms are summed over
    X as the callers build it, row-major (c, T, k): there einsum adds in time
    order (k > 1) or takes its contiguous path (k = 1), and summed over the
    time-contiguous buffer they would round differently."""
    c, T, k = X.shape
    if T < k:
        raise np.linalg.LinAlgError(_DEFICIENT)
    Y = y if y.ndim == 3 else y[:, :, None]
    norms = np.sqrt(np.einsum("ctj,ctj->cj", X, X))
    degenerate = ~(((norms > 0.0) & (norms < np.inf)).all(axis=1) & np.isfinite(Y).all(axis=(1, 2)))
    if masked := degenerate.any():  # masking costs more than the QR of one short row, so only when needed
        norms[degenerate] = 1.0
    aug = np.empty((c, k + Y.shape[2], T))
    np.divide(X.transpose(0, 2, 1), norms[:, :, None], out=aug[:, :k])
    aug[:, k:] = Y.transpose(0, 2, 1)
    if masked:
        aug[degenerate] = 0.0
    Raug = np.linalg.qr(aug.transpose(0, 2, 1), mode="r")
    R = Raug[:, :k, :k]
    sv = np.linalg.svd(R, compute_uv=False)
    degenerate |= ~((sv.shape[1] == k) & (sv[:, -1] > _RANK_RCOND * sv[:, 0]))
    if masked := degenerate.any():
        R[degenerate] = np.eye(k)
    Rinv = np.linalg.inv(R)
    theta = Rinv @ Raug[:, :k, k:]
    root = Rinv / norms[:, :, None]
    if masked:
        theta[degenerate] = root[degenerate] = np.nan
    Xs = aug[:, :k].transpose(0, 2, 1)
    return theta if y.ndim == 3 else theta[:, :, 0], norms, root, degenerate, Raug[:, :, k:], Xs, Rinv


def ols(y: np.ndarray, X: np.ndarray) -> OlsFit:
    """Ordinary least squares of ``y`` on the columns of ``X``: the kernel's one-row case.

    Raises :class:`numpy.linalg.LinAlgError` when ``X`` is rank deficient or the data are not finite.
    """
    y = np.asarray(y, dtype=float)
    X = np.ascontiguousarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    theta, norms, root, degenerate, *_ = _qr_solve(y[None], X[None])
    if degenerate[0]:
        raise np.linalg.LinAlgError(_DEFICIENT)
    params = theta[0] / norms[0]
    return OlsFit(params=params, resid=y - X @ params, root=root[0])


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


def batch_rows(T: int, width: int) -> int:
    """Rows per batch so that one (rows, T, width) array holds about 2^17
    elements (1 MiB); depends on the shape only, never on workers. Bootstrap
    draws depend on it: their VAR product spans a batch's rows."""
    return max(1, _BATCH_ELEMENTS // (T * width))


def _set_columns(out: np.ndarray, a: np.ndarray) -> None:
    """``out[..., j] = a[..., j]`` for each column j of a row-major (..., T, k)
    ``out``, one copy per column: a single copy would loop innermost over the
    k columns, several times slower than over time."""
    for j in range(out.shape[-1]):
        out[..., j] = a[..., j]


def im_ols_batch(y: np.ndarray, x: np.ndarray, det: Deterministics) -> ImOlsFit:
    """IM-OLS of each row of ``y`` (c, T) on the levels ``x`` (c, T, m).

    Rows :func:`im_ols` would reject as collinear have NaN ``params``,
    ``resid``, ``scaled_cov`` and ``root``.

    Z is built row-major, (c, T, k) C-contiguous, and returned as
    ``regressors``; the kernel sums its column norms over it. The equilibrated
    Zs is the kernel's time-contiguous view, and the reversed partial sums C
    and Y = C R^{-1} are built time-contiguous too, as (c, k, T), so each pass
    over them runs along time. The fitted values Zs theta are taken from a
    row-major copy of Zs: BLAS sums a row's k products in another order when
    the matrix is time-contiguous.
    """
    # The kernel's stacked QR of the equilibrated [Z, Sy] yields R^{-1}.
    # The sandwich (Z'Z)^{-1} (C'C) (Z'Z)^{-1}, with C the reversed partial
    # sums of Z, is evaluated as R^{-1} (Y'Y) R^{-T}, Y = C R^{-1}: the
    # error then scales with the condition number of R rather than of the
    # Gram matrix, which raw partial-sum columns push beyond float64 for
    # long samples. Degenerate rows get a NaN sandwich.
    c, T, m = x.shape
    p = det.n_columns
    k = p + 2 * m
    Z = np.empty((c, T, k))
    _set_columns(Z[:, :, :p], np.cumsum(build_deterministics(det, T), axis=0))
    np.cumsum(x, axis=1, out=Z[:, :, p : p + m])
    _set_columns(Z[:, :, p + m :], x)
    Sy = np.cumsum(y, axis=1)
    theta, norms, root, degenerate, _, Zs, Rinv = _qr_solve(Sy, Z)
    # A fresh array this large is paged in anew on every call, at about the cost
    # of a pass over it, so buffers are reused once read: the residuals go into
    # Sy, C into the row-major copy of Zs, and Y into Zs.
    Zr = np.empty((c, T, k))
    _set_columns(Zr, Zs)
    resid = np.subtract(Sy, (Zr @ theta[:, :, None])[:, :, 0], out=Sy)
    # C_t = SZ_T - SZ_{t-1}, SZ the partial sums of Zs and SZ_0 = 0, in one buffer:
    # SZ_1..SZ_{T-1} go to columns 1..T-1, SZ_T = SZ_{T-1} + Zs_T (cumsum's own
    # last step) to column 0, and columns 1..T-1 are then subtracted from it in place.
    Zt = Zs.transpose(0, 2, 1)
    C = Zr.reshape(c, k, T)
    np.cumsum(Zt[:, :, :-1], axis=2, out=C[:, :, 1:])
    np.add(C[:, :, -1], Zt[:, :, -1], out=C[:, :, 0])
    np.subtract(C[:, :, :1], C[:, :, 1:], out=C[:, :, 1:])
    Y = np.matmul(Rinv.transpose(0, 2, 1), C, out=Zt)
    V = Rinv @ (Y @ Y.transpose(0, 2, 1)) @ Rinv.transpose(0, 2, 1)
    V = 0.5 * (V + V.transpose(0, 2, 1)) / (norms[:, :, None] * norms[:, None, :])
    V[degenerate] = np.nan
    return ImOlsFit(theta / norms, Z, resid, V, root, n_det=p, n_reg=m)


def im_ols(sample: CointegrationSample | FittedSample) -> ImOlsFit:
    """Estimate the augmented partial-sum regression by OLS: the one-row
    case of :func:`im_ols_batch`.

    Raises :class:`numpy.linalg.LinAlgError` when the augmented regressor matrix
    is numerically collinear. A stacked :class:`FittedSample` gives every row's fit.
    """
    return FittedSample.of(sample).im


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
    """Fully modified estimate with its long-run variance ingredients; a fit
    of a stack carries a leading axis of length c on every array."""

    params: np.ndarray
    resid: np.ndarray
    n_det: int
    conditional_lrv: float | np.ndarray
    moment_inv_beta: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        return self.params[..., self.n_det :]

    @property
    def delta(self) -> np.ndarray:
        return self.params[..., : self.n_det]


def fm_ols(sample: CointegrationSample | FittedSample, kernel: KernelSpec) -> FmOlsFit:
    """Fully modified least squares for the cointegrating vector.

    The dependent variable is purged of its long-run conditional mean
    given the regressor innovations, and the one-sided bias term is
    subtracted from the cross moment. Long-run quantities come from the
    static OLS residual paired with v_t = x_t - x_{t-1}. A stacked
    :class:`FittedSample` gives the fit of every row.
    """
    return FittedSample.of(sample).fm(kernel)


@dataclass(frozen=True)
class DOlsFit:
    """Leads-and-lags augmented estimate of the cointegrating vector.

    A fit of a stack carries a leading axis of length c. Its rows select
    their own K, so row i holds its p + m(2 K_i + 2) coefficients and its
    residuals at t = K_i + 1..T - K_i, padded with NaN to the widest.
    """

    params: np.ndarray
    resid: np.ndarray
    n_det: int
    n_reg: int
    leads_lags: int | np.ndarray
    moment_inv_beta: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        return self.params[..., self.n_det : self.n_det + self.n_reg]


def _dols_design(fitted: FittedSample, K: int, lo: int, hi: int):
    """y and the regressor matrix [d, x, v_{t-K}..v_{t+K}] over 1-based rows
    lo..hi, of each row of ``fitted``."""
    rows = slice(lo - 1, hi)
    y = fitted.y[:, rows]
    windows = np.lib.stride_tricks.sliding_window_view(fitted._stacked("innovations"), 2 * K + 1, axis=1)
    leads_lags = windows[:, lo - 1 - K : hi - K].swapaxes(-1, -2).reshape(y.shape + (-1,))  # j-major
    return y, np.concatenate([fitted._stacked("design")[:, rows], leads_lags], axis=-1)


def d_ols(sample: CointegrationSample | FittedSample, max_leads_lags: int) -> DOlsFit:
    """Dynamic OLS with a BIC-selected symmetric number of leads and lags.

    Candidates K = 0..max_leads_lags are scored on the common sample
    t = max_leads_lags+1 .. T-max_leads_lags with
    BIC = ln(SSR/n) + k ln(n)/n; the winner is refit on its own maximal
    sample. A stacked :class:`FittedSample` gives the fit of every row.
    """
    return FittedSample.of(sample).dols(max_leads_lags)


class FittedSample:
    """Samples with the fits that estimators and tests share, each computed
    once, on first use, for every row at once.

    ``FittedSample(y, x, det)`` holds the rows of ``y`` (c, T) and ``x``
    (c, T, m); row i is the sample ``CointegrationSample(y[i], x[i], det)``,
    and T must be as long as that sample needs. Each fit comes from one
    stacked call and carries a leading axis of length c, NaN on a row where
    the per-sample fit would raise:

    * ``design``, the static regressors [d, x], and ``static``, the OLS of
      y on them;
    * ``im``, the IM-OLS fit;
    * ``lrv(kernel)``, the long-run covariance of w = [static residual, v];
    * ``fm(kernel)``, the FM-OLS fit;
    * ``dols(max_leads_lags)``, the D-OLS fit.

    One memo, the only cache, keeps every stacked entry under its key,
    ``design``, ``innovations`` (v), ``static``, ``im``, ``lrv(kernel)``,
    ``fm(kernel)`` or ``dols(K)``, and the rows read from it.

    One sample is a row of a stack: ``row(i)`` is a view of row i that shares
    the stack's memo, with the row's sample kept as ``sample`` (None for a
    stack), and ``FittedSample(sample)`` is row 0 of a one-row stack. Its fits
    are row i of the stacked ones, without the leading axis, each built once
    under a key that carries i; a row raises its fit's error where its
    parameters are NaN. :func:`im_ols`, :func:`fm_ols`, :func:`d_ols` and the
    statistics and tests take either in place of a sample and read its fits.
    """

    def __init__(
        self,
        y: np.ndarray | CointegrationSample,
        x: np.ndarray | None = None,
        det: Deterministics = Deterministics.NONE,
    ) -> None:
        self.sample = y if isinstance(y, CointegrationSample) else None
        if self.sample is None:
            self.y, self.x, self.det = np.asarray(y, dtype=float), np.asarray(x, dtype=float), det
            if self.y.ndim != 2 or self.x.ndim != 3 or self.x.shape[:2] != self.y.shape:
                raise ValueError(f"need y (c, T) and x (c, T, m), got {self.y.shape} and {self.x.shape}")
            _check_nobs(*self.x.shape[1:], det)
        else:
            self.y, self.x, self.det = self.sample.y[None], self.sample.x[None], self.sample.det
        self._index = None if self.sample is None else 0
        self._memo: dict = {}

    def row(self, i: int) -> FittedSample:
        """Row ``i`` of the stack as one sample, reading its fits from the stack's."""
        view = copy.copy(self)  # shares y, x and the memo
        view.sample, view._index = CointegrationSample(self.y[i], self.x[i], self.det), range(len(self.y))[i]
        return view

    @classmethod
    def of(cls, sample: CointegrationSample | FittedSample) -> FittedSample:
        """``sample`` itself if already fitted, else a new wrapper."""
        return sample if isinstance(sample, FittedSample) else cls(sample)

    @classmethod
    def one(cls, sample: CointegrationSample | FittedSample, caller: str) -> FittedSample:
        """:meth:`of` ``sample``, refusing a stack: ``caller`` tests one sample."""
        if (fitted := cls.of(sample)).sample is None:
            raise ValueError(f"{caller} tests one sample, got a stacked FittedSample of {fitted.y.shape[0]} rows")
        return fitted

    @property
    def nobs(self) -> int:
        return self.y.shape[1]

    def _stacked(self, name: str, *args):
        """The stacked entry ``name`` under ``args``, built on first use; the
        static entry pairs the fit with the coefficients of v on [d, x]."""
        key = (name, *args)
        if key not in self._memo:  # builders are looked up per call, so a patched module function is used
            build = {"design": _design_batch, "innovations": lambda f: _increments(f.x), "static": _static_batch,
                     "im": lambda f: im_ols_batch(f.y, f.x, f.det), "lrv": _lrv_batch, "fm": _fm_ols_batch,
                     "dols": _d_ols_batch}[name]  # fmt: skip
            self._memo[key] = build(self, *args)
        return self._memo[key]

    def _fit(self, name: str, *args):
        """The stacked fit ``name``; of one sample, its row, built once."""
        fit = self._stacked(name, *args)
        if name == "static":
            fit = fit[0]
        if self._index is None:
            return fit
        key = (name, *args, "row", self._index)
        if key not in self._memo:
            self._memo[key] = self._row(name, fit, *args)
        return self._memo[key]

    def _row(self, name: str, fit, *args):
        """This sample's row of the stacked ``fit``, raising its fit's error where
        the parameters are NaN. An array's row is its index. The LRV row raises
        the static error first, then :func:`~sncoint.kernels._series`'s; the FM
        row raises the LRV row's first; the D-OLS row is trimmed to its own K."""
        if isinstance(fit, np.ndarray):
            return fit[self._index]
        if name == "lrv":
            self.static  # raises where the static fit does
            return _series(fit, self._index)
        if name == "fm":
            self.lrv(*args)  # raises where the long-run covariance does
        row = type(fit)(**{k: v[self._index] if isinstance(v, np.ndarray) else v for k, v in vars(fit).items()})
        if name == "dols":
            K = int(row.leads_lags)
            width = row.n_det + row.n_reg * (2 * K + 2)
            row = replace(row, params=row.params[:width], resid=row.resid[K : self.nobs - K], leads_lags=K)
        if np.isnan(row.params).any():
            raise np.linalg.LinAlgError("augmented regression singular" if name == "im" else _DEFICIENT)
        return row

    @property
    def design(self) -> np.ndarray:
        return self._fit("design")

    @property
    def static(self) -> OlsFit:
        return self._fit("static")

    @property
    def im(self) -> ImOlsFit:
        return self._fit("im")

    def lrv(self, kernel: KernelSpec) -> LrvEstimate:
        """Long-run covariance of [static residual, v] under ``kernel``."""
        return self._fit("lrv", kernel)

    def fm(self, kernel: KernelSpec) -> FmOlsFit:
        """FM-OLS under ``kernel`` (see :func:`_fm_ols_batch`)."""
        return self._fit("fm", kernel)

    def dols(self, max_leads_lags: int) -> DOlsFit:
        """D-OLS with at most ``max_leads_lags`` leads and lags (see :func:`d_ols`)."""
        return self._fit("dols", int(max_leads_lags))


def _design_batch(fitted: FittedSample) -> np.ndarray:
    """The static regressors [d, x] of every row (c, T, p + m)."""
    d = build_deterministics(fitted.det, fitted.nobs)
    return np.concatenate([np.broadcast_to(d, fitted.x.shape[:2] + d.shape[1:]), fitted.x], axis=2)


def _static_batch(fitted: FittedSample) -> tuple[OlsFit, np.ndarray]:
    """The static OLS of y on [d, x] of every row, and the coefficients of v
    on [d, x] (c, p + m, m) from the same QR."""
    X = fitted._stacked("design")
    theta, norms, root, *_ = _qr_solve(np.concatenate([fitted.y[:, :, None], fitted._stacked("innovations")], axis=2), X)
    coefs = theta / norms[:, :, None]
    resid = fitted.y - (X @ coefs[:, :, :1])[:, :, 0]
    return OlsFit(coefs[:, :, 0], resid, root), coefs[:, :, 1:]


def _lrv_batch(fitted: FittedSample, kernel: KernelSpec) -> LrvEstimate:
    """Long-run covariance of [static residual, v] of every row."""
    w = np.concatenate([fitted._stacked("static")[0].resid[:, :, None], fitted._stacked("innovations")], axis=2)
    return estimate_lrv(w, kernel)


def _fm_ols_batch(fitted: FittedSample, kernel: KernelSpec) -> FmOlsFit:
    """FM-OLS of every row of ``fitted`` from its static QR: y+ = y - v a, with
    a = Omega_vv^{-1} Omega_vu, has coefficients theta(y) - theta(v) a, and the
    bias term T (X'X)^{-1} [0, lambda+] is applied through ``root``. NaN on a
    row whose static fit or conditional long-run variance is NaN."""
    static, v_coefs = fitted._stacked("static")
    est, p = fitted._stacked("lrv", kernel), fitted.det.n_columns
    ok = ~np.isnan(est.conditional)
    vv = est.vv if ok.all() else np.where(ok[:, None, None], est.vv, np.eye(fitted.x.shape[2]))
    a = np.linalg.solve(vv, est.uv[:, :, None])
    # One-sided bias of the corrected error: one_sided[a, b] accumulates
    # cov(w_{t,a}, w_{t+h,b}) over h >= 0, so the v-to-future-u block is
    # one_sided[1:, 0].
    lam = est.one_sided[:, 1:, :1] - est.one_sided[:, 1:, 1:] @ a
    root = static.root
    bias = root @ (root[:, p:].transpose(0, 2, 1) @ lam)
    params = (static.params[:, :, None] - v_coefs @ a - fitted.nobs * bias)[:, :, 0]
    params[~ok] = np.nan
    return FmOlsFit(
        params=params,
        resid=fitted.y - (fitted._stacked("design") @ params[:, :, None])[:, :, 0],
        n_det=p,
        conditional_lrv=est.conditional,
        moment_inv_beta=(root @ root.transpose(0, 2, 1))[:, p:, p:],
    )


def _d_ols_batch(fitted: FittedSample, kmax: int) -> DOlsFit:
    """D-OLS of every row of ``fitted`` (see :func:`d_ols`); NaN on a row whose
    widest design or own-K refit is degenerate in the kernel's sense."""
    c, T, m = fitted.x.shape
    p = fitted.det.n_columns
    n = T - 2 * kmax
    widths = p + m + m * (2 * np.arange(kmax + 1) + 1)  # regressors of each K
    if kmax < 0 or n <= widths[-1]:
        raise ValueError("leads/lags range infeasible for this sample size")

    # Ordered v_t, v_{t-1}, v_{t+1}, ..., each K's regressors are a prefix of the
    # widest design: one kernel call gives every SSR as a tail sum of squares of the y
    # column of its triangular factor; column subsets interlace, so its rank rule covers all.
    y_c, X_c = _dols_design(fitted, kmax, kmax + 1, T - kmax)
    blocks = np.argsort(np.abs(np.arange(-kmax, kmax + 1)), kind="stable")
    X_c = np.concatenate([X_c[:, :, : p + m], X_c[:, :, p + m :].reshape(c, n, -1, m)[:, :, blocks].reshape(c, n, -1)], axis=2)
    _, _, _, degenerate, Ry, *_ = _qr_solve(y_c, X_c)
    ok = ~degenerate
    ssr = np.cumsum(Ry[:, ::-1, 0] ** 2, axis=1)[:, ::-1][:, widths]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.argmin(np.log(ssr / n) + widths * np.log(n) / n, axis=1)

    # The winners are refit on their own maximal samples, one solve per distinct K.
    params, resid, moment = np.full((c, widths[-1]), np.nan), np.full((c, T), np.nan), np.full((c, m, m), np.nan)
    for k in np.unique(K[ok]):
        rows = np.flatnonzero(ok & (K == k))
        y_f, X_f = (a[rows] for a in _dols_design(fitted, k, k + 1, T - k))
        theta, norms, root, *_ = _qr_solve(y_f, X_f)
        params[rows, : widths[k]] = theta / norms
        moment[rows] = (root @ root.transpose(0, 2, 1))[:, p : p + m, p : p + m]
        resid[rows, k : T - k] = y_f - (X_f @ params[rows, : widths[k], None])[:, :, 0]
    return DOlsFit(params=params, resid=resid, n_det=p, n_reg=m, leads_lags=K, moment_inv_beta=moment)

"""Kernel-based long-run (co)variance estimation.

Implements the Bartlett and Quadratic Spectral kernels, the Andrews AR(1)
plug-in bandwidth, the symmetric long-run covariance

    Omega_hat = T^{-1} sum_i sum_j K(|i-j| / b) w_i w_j',

its one-sided counterpart needed by the fully modified estimator, and the
conditional scalar Omega_uu - Omega_uv Omega_vv^{-1} Omega_vu.

Rows of ``w`` enter as provided; no demeaning happens here. Callers are
responsible for constructing the residual matrix (typically the static-OLS
residual in the first column and the regressor innovations next to it).

:func:`estimate_lrv` also takes a stack of series (c, T, k): the plug-in
bandwidth, the autocovariances and the Schur complement are then formed
for all rows at once, each row with its own kernel weights, and a row the
one-series estimate would reject is NaN.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BARTLETT",
    "QUADRATIC_SPECTRAL",
    "KernelSpec",
    "LrvEstimate",
    "kernel_weight",
    "andrews_bandwidth",
    "autocovariances",
    "lrv_matrix",
    "one_sided_lrv",
    "conditional_lrv",
    "estimate_lrv",
]

BARTLETT = "bartlett"
QUADRATIC_SPECTRAL = "qs"

_KINDS = (BARTLETT, QUADRATIC_SPECTRAL)

# Kernel constants of the Andrews AR(1) plug-in rule.
_ANDREWS_CONST = {BARTLETT: 1.1447, QUADRATIC_SPECTRAL: 1.3221}
_ANDREWS_POWER = {BARTLETT: 1.0 / 3.0, QUADRATIC_SPECTRAL: 1.0 / 5.0}

_RHO_CLAMP = 1.0 - 1e-6
_MIN_BANDWIDTH = 1e-6


def _as_time_matrix(w: np.ndarray) -> np.ndarray:
    """Coerce to a T x k float matrix, treating a 1-d input as one column."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("input must be a vector or a T x k matrix")
    return arr


def _check_kind(kind: str) -> None:
    """Raise ValueError unless ``kind`` names one of the kernels."""
    if kind not in _KINDS:
        raise ValueError(f"kernel must be one of {', '.join(_KINDS)}, got {kind!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus bandwidth: a fixed positive number or 'andrews'."""

    kind: str = BARTLETT
    bandwidth: float | str = "andrews"

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        bw = self.bandwidth
        if bw != "andrews" and (isinstance(bw, bool) or not (isinstance(bw, numbers.Real) and 0 < bw < math.inf)):
            raise ValueError(f"bandwidth must be 'andrews' or a positive number, got {bw!r}")


@dataclass(frozen=True)
class LrvEstimate:
    """Partitioned long-run covariance of [u_t, v_t']'.

    ``omega`` is the full (m+1) x (m+1) matrix; ``conditional`` is the
    Schur complement of the regressor block; ``bandwidth`` is the numeric
    bandwidth used; ``one_sided`` is the one-sided sum of
    :func:`one_sided_lrv` at that bandwidth. The estimate of a stack of
    series carries a leading axis of length c on every field but ``kind``.
    """

    omega: np.ndarray
    conditional: float
    bandwidth: float
    kind: str
    one_sided: np.ndarray

    @property
    def uu(self) -> float | np.ndarray:
        return self.omega[..., 0, 0][()]  # a scalar for one series

    @property
    def uv(self) -> np.ndarray:
        return self.omega[..., 0, 1:]

    @property
    def vv(self) -> np.ndarray:
        return self.omega[..., 1:, 1:]


def kernel_weight(kind: str, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the kernel at nonnegative lag ratio ``x``.

    Bartlett: 1 - x on [0, 1], zero beyond. Quadratic Spectral:
    25 / (12 pi^2 x^2) * (sin(6 pi x / 5) / (6 pi x / 5) - cos(6 pi x / 5)),
    with value 1 at x = 0.
    """
    arr = np.asarray(x, dtype=float)
    _check_kind(kind)
    if np.any(arr < 0):
        raise ValueError("kernel argument must be nonnegative")
    if kind == BARTLETT:
        out = np.clip(1.0 - arr, 0.0, 1.0)
    else:
        z = 6.0 * np.pi * arr / 5.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                arr == 0.0,
                1.0,
                25.0 / (12.0 * np.pi**2 * arr**2) * (np.sin(z) / np.where(z == 0, 1.0, z) - np.cos(z)),
            )
    return out if isinstance(x, np.ndarray) else float(out)


def _plug_in(w: np.ndarray, kind: str) -> np.ndarray:
    """The Andrews AR(1) plug-in bandwidth of each series of a stack ``w``
    (c, T, k), all rows and columns at once; NaN for a row with a column
    whose lagged values are all zero. Warns once if any slope is clamped."""
    T = w.shape[1]
    if T < 4:
        raise ValueError("need at least 4 observations for the plug-in rule")
    _check_kind(kind)
    lag, cur = w[:, :-1], w[:, 1:]
    denom = np.einsum("ctk,ctk->ck", lag, lag)
    rho = np.einsum("ctk,ctk->ck", cur, lag) / np.where(denom > 0.0, denom, np.nan)
    clamped = np.abs(rho) >= _RHO_CLAMP
    if clamped.any():
        row, col = np.argwhere(clamped)[0]
        warnings.warn(
            f"AR(1) coefficient {rho[row, col]:.6f} in column {col} clamped to +/-{_RHO_CLAMP}"
            + (f" (row {row}; {clamped.sum()} slopes clamped)" if w.shape[0] > 1 else ""),
            RuntimeWarning,
            stacklevel=3,
        )
        rho = np.where(clamped, np.sign(rho) * _RHO_CLAMP, rho)
    resid = cur - rho[:, None, :] * lag
    s2 = np.einsum("ctk,ctk->ck", resid, resid) / (T - 1)
    s4, q = s2 * s2, (1.0 - rho) ** 4
    num = 4.0 * rho * rho * s4 / (q * ((1.0 - rho) * (1.0 + rho)) ** 2 if kind == BARTLETT else q * q)
    alpha = num.sum(axis=1) / (s4 / q).sum(axis=1)
    return np.maximum(_ANDREWS_CONST[kind] * (alpha * T) ** _ANDREWS_POWER[kind], _MIN_BANDWIDTH)


_DEGENERATE = "a column is degenerate: its lagged values are all zero"


def andrews_bandwidth(w: np.ndarray, kind: str) -> float:
    """Andrews AR(1) plug-in bandwidth with equal component weights.

    Each column gets a univariate AR(1) fit (slope rho_i, innovation
    variance s2_i); the smoothness coefficients are aggregated as

        a(1) = sum 4 rho^2 s2^2 / ((1-rho)^6 (1+rho)^2) / sum s2^2 / (1-rho)^4
        a(2) = sum 4 rho^2 s2^2 / (1-rho)^8            / sum s2^2 / (1-rho)^4

    and the bandwidth is 1.1447 (a(1) T)^{1/3} for the Bartlett kernel or
    1.3221 (a(2) T)^{1/5} for the Quadratic Spectral kernel. Slopes with
    |rho| >= 1 - 1e-6 are clamped (with a warning) to keep the plug-in
    formula finite.
    """
    bw = _plug_in(_as_time_matrix(w)[None], kind)[0]
    if np.isnan(bw):
        raise ValueError(_DEGENERATE)
    return float(bw)


def autocovariances(w: np.ndarray, max_lag: int) -> np.ndarray:
    """Gamma_hat(h) = T^{-1} sum_t w_t w_{t+h}' for h = 0..max_lag of ``w``
    (T, k), or of each series of a stack (c, T, k), stacked along the axis
    before the matrix axes; no demeaning."""
    T = w.shape[-2]
    return np.stack([w[..., : T - h, :].swapaxes(-1, -2) @ w[..., h:, :] / T for h in range(max_lag + 1)], axis=-3)


@lru_cache
def _fast_length(n: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c at least ``n``: a length
    numpy's real FFT factors into its fast radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())  # p35 times the least power of 2 reaching n
            p35 *= 3
        p5 *= 5
    return best


def _all_autocovariances(w: np.ndarray) -> np.ndarray:
    """:func:`autocovariances` of each series of a stack ``w`` (c, T, k) at
    every lag 0..T-1, from one pass of numpy's real FFT, zero-padded to the
    5-smooth length :func:`_fast_length` of 2T - 1: O(T log T), not O(T^2)."""
    T = w.shape[1]
    n = _fast_length(2 * T - 1)
    F = np.fft.rfft(w, n=n, axis=1)
    return np.fft.irfft(F.conj()[:, :, :, None] * F[:, :, None, :], n=n, axis=1)[:, :T] / T


def _kernel_sums(w: np.ndarray, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric and one-sided kernel sums and the numeric bandwidth of
    each series of a stack ``w`` (c, T, k), from one pass over the
    autocovariances up to the longest lag any row's weights reach (every
    lag, by FFT, for the QS kernel). Each row's sums equal its sums alone.
    Rows whose bandwidth cannot be formed are NaN."""
    c, T = w.shape[:2]
    if T < 2:
        raise ValueError("need at least 2 observations")
    if isinstance(kernel.bandwidth, str):
        bandwidth = _plug_in(w, kernel.kind)
    else:
        bandwidth = np.full(c, float(kernel.bandwidth))
    bad = np.isnan(bandwidth)
    weights = kernel_weight(kernel.kind, np.arange(T) / np.where(bad, 1.0, bandwidth)[:, None])
    if masked := bad.any():
        weights[bad] = 0.0
    # Bartlett weights vanish from lag ceil(b) on; QS weights never do.
    if kernel.kind == QUADRATIC_SPECTRAL:
        n_lags, gammas = T, _all_autocovariances(w)
    else:
        reached = np.flatnonzero(weights.any(axis=0))
        n_lags = int(reached[-1]) + 1 if reached.size else 1
        gammas = autocovariances(w, n_lags - 1)
    # Lag by lag, not one matmul: lags past a row's own bandwidth add exact zeros.
    one_sided = (weights[:, :n_lags, None, None] * gammas).sum(axis=1)
    omega = one_sided + one_sided.swapaxes(1, 2) - gammas[:, 0]
    omega = 0.5 * (omega + omega.swapaxes(1, 2))
    if masked:
        omega[bad] = one_sided[bad] = np.nan
    return omega, one_sided, bandwidth


def _one_series(w: np.ndarray, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_kernel_sums` of one series ``w`` (T, k), raising where the bandwidth cannot be formed."""
    omega, one_sided, bandwidth = _kernel_sums(_as_time_matrix(w)[None], kernel)
    if np.isnan(bandwidth[0]):
        raise ValueError(_DEGENERATE)
    return omega[0], one_sided[0], float(bandwidth[0])


def lrv_matrix(w: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Symmetric kernel long-run covariance T^{-1} sum_ij K(|i-j|/b) w_i w_j'."""
    return _one_series(w, kernel)[0]


def one_sided_lrv(w: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """One-sided kernel sum sum_{h>=0} K(h/b) Gamma_hat(h).

    Gamma_hat(h) = T^{-1} sum_t w_t w_{t+h}', so entry (a, b) accumulates
    the covariances between component a now and component b at later lags.
    Satisfies one_sided + one_sided' - Gamma_hat(0) = lrv_matrix, which is
    how :func:`lrv_matrix` is computed.
    """
    return _one_series(w, kernel)[1]


def _conditional(omega: np.ndarray) -> np.ndarray:
    """The Schur complement of each matrix of a stack ``omega`` (c, k, k);
    NaN where the regressor block is not finite or its condition number
    exceeds 1e12."""
    if omega.shape[-1] == 1:
        return omega[:, 0, 0].copy()
    vv, uv = omega[:, 1:, 1:], omega[:, 0, 1:]
    eye = np.eye(vv.shape[-1])
    ok = np.isfinite(vv).all(axis=(1, 2))
    sv = np.linalg.svd(vv if ok.all() else np.where(ok[:, None, None], vv, eye), compute_uv=False)
    ok &= (sv[:, -1] > 0.0) & (sv[:, 0] <= 1e12 * sv[:, -1])  # condition number at most 1e12
    if not ok.all():  # a rejected block is solved as I; masking only when needed
        vv = np.where(ok[:, None, None], vv, eye)
    value = omega[:, 0, 0] - np.einsum("cj,cj->c", uv, np.linalg.solve(vv, uv[:, :, None])[:, :, 0])
    return np.where(ok, value, np.nan)


def conditional_lrv(omega: np.ndarray) -> float:
    """Schur complement Omega_uu - Omega_uv Omega_vv^{-1} Omega_vu.

    The u-block is the leading 1 x 1 entry. Raises if the regressor block
    is numerically singular.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError("omega must be square")
    value = _conditional(omega[None])[0]
    if np.isnan(value):
        raise np.linalg.LinAlgError("regressor long-run variance singular")
    return float(value)


def _series(est: LrvEstimate, i: int) -> LrvEstimate:
    """The estimate of series ``i`` of a stacked estimate, raising where a
    single-series estimate would."""
    if np.isnan(est.bandwidth[i]):
        raise ValueError(_DEGENERATE)
    if np.isnan(est.conditional[i]):
        raise np.linalg.LinAlgError("regressor long-run variance singular")
    return LrvEstimate(est.omega[i], float(est.conditional[i]), float(est.bandwidth[i]), est.kind, est.one_sided[i])


def estimate_lrv(w: np.ndarray, kernel: KernelSpec) -> LrvEstimate:
    """Symmetric and one-sided long-run covariances of [u, v']' rows, the
    conditional scalar and the bandwidth, from one autocovariance pass.

    ``w`` is one series (T, k), or a stack (c, T, k) whose estimate carries
    the leading axis on every field, NaN for a row where the one-series
    estimate raises.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 3:
        return _series(estimate_lrv(_as_time_matrix(w)[None], kernel), 0)
    omega, one_sided, bandwidth = _kernel_sums(w, kernel)
    return LrvEstimate(omega, _conditional(omega), bandwidth, kernel.kind, one_sided)

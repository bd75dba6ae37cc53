"""Kernel-based long-run (co)variance estimation.

Implements the Bartlett and Quadratic Spectral kernels, the Andrews AR(1)
plug-in bandwidth, the symmetric long-run covariance

    Omega_hat = T^{-1} sum_i sum_j K(|i-j| / b) w_i w_j',

its one-sided counterpart needed by the fully modified estimator, and the
conditional scalar Omega_uu - Omega_uv Omega_vv^{-1} Omega_vu.

Rows of ``w`` enter as provided; no demeaning happens here. Callers are
responsible for constructing the residual matrix (typically the static-OLS
residual in the first column and the regressor innovations next to it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BARTLETT",
    "QUADRATIC_SPECTRAL",
    "KernelSpec",
    "LrvEstimate",
    "kernel_weight",
    "andrews_bandwidth",
    "resolve_bandwidth",
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


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus bandwidth: a fixed positive number or 'andrews'."""

    kind: str = BARTLETT
    bandwidth: float | str = "andrews"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "andrews":
                raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif self.bandwidth <= 0:
            raise ValueError("fixed bandwidth must be positive")


@dataclass(frozen=True)
class LrvEstimate:
    """Partitioned long-run covariance of [u_t, v_t']'.

    ``omega`` is the full (m+1) x (m+1) matrix; ``conditional`` is the
    Schur complement of the regressor block; ``bandwidth`` is the numeric
    bandwidth used; ``one_sided`` is the one-sided sum of
    :func:`one_sided_lrv` at that bandwidth.
    """

    omega: np.ndarray
    conditional: float
    bandwidth: float
    kind: str
    one_sided: np.ndarray

    @property
    def uu(self) -> float:
        return float(self.omega[0, 0])

    @property
    def uv(self) -> np.ndarray:
        return self.omega[0, 1:]

    @property
    def vv(self) -> np.ndarray:
        return self.omega[1:, 1:]


def kernel_weight(kind: str, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the kernel at nonnegative lag ratio ``x``.

    Bartlett: 1 - x on [0, 1], zero beyond. Quadratic Spectral:
    25 / (12 pi^2 x^2) * (sin(6 pi x / 5) / (6 pi x / 5) - cos(6 pi x / 5)),
    with value 1 at x = 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("kernel argument must be nonnegative")
    if kind == BARTLETT:
        out = np.clip(1.0 - arr, 0.0, 1.0)
    elif kind == QUADRATIC_SPECTRAL:
        z = 6.0 * np.pi * arr / 5.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                arr == 0.0,
                1.0,
                25.0 / (12.0 * np.pi**2 * arr**2) * (np.sin(z) / np.where(z == 0, 1.0, z) - np.cos(z)),
            )
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return out if isinstance(x, np.ndarray) else float(out)


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
    w = _as_time_matrix(w)
    if w.shape[0] < 4:
        raise ValueError("need at least 4 observations for the plug-in rule")
    if kind not in _KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    T = w.shape[0]
    num1 = num2 = den = 0.0
    for i in range(w.shape[1]):
        col = w[:, i]
        lag, cur = col[:-1], col[1:]
        denom = float(lag @ lag)
        if denom <= 0.0:
            raise ValueError(f"column {i} is degenerate")
        rho = float(cur @ lag) / denom
        if abs(rho) >= _RHO_CLAMP:
            warnings.warn(
                f"AR(1) coefficient {rho:.6f} in column {i} clamped to +/-{_RHO_CLAMP}",
                RuntimeWarning,
                stacklevel=2,
            )
            rho = np.sign(rho) * _RHO_CLAMP
        resid = cur - rho * lag
        s2 = float(resid @ resid) / resid.shape[0]
        num1 += 4.0 * rho**2 * s2**2 / ((1.0 - rho) ** 6 * (1.0 + rho) ** 2)
        num2 += 4.0 * rho**2 * s2**2 / (1.0 - rho) ** 8
        den += s2**2 / (1.0 - rho) ** 4
    alpha = (num1 if kind == BARTLETT else num2) / den
    bw = _ANDREWS_CONST[kind] * (alpha * T) ** _ANDREWS_POWER[kind]
    return max(bw, _MIN_BANDWIDTH)


def resolve_bandwidth(w: np.ndarray, kernel: KernelSpec) -> float:
    """Return the numeric bandwidth implied by ``kernel`` for data ``w``."""
    if isinstance(kernel.bandwidth, str):
        return andrews_bandwidth(w, kernel.kind)
    return float(kernel.bandwidth)


def autocovariances(w: np.ndarray, max_lag: int) -> np.ndarray:
    """Gamma_hat(h) = T^{-1} sum_t w_t w_{t+h}' for h = 0..max_lag, stacked
    along the first axis; no demeaning."""
    T = w.shape[0]
    return np.stack([w[: T - h].T @ w[h:] / T for h in range(max_lag + 1)])


def _kernel_sums(w: np.ndarray, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """The symmetric and one-sided kernel sums and the numeric bandwidth,
    from one pass over the autocovariances."""
    w = _as_time_matrix(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    bandwidth = resolve_bandwidth(w, kernel)
    weights = kernel_weight(kernel.kind, np.arange(w.shape[0]) / bandwidth)
    # Bartlett weights vanish from lag ceil(b) on; QS weights never do.
    n_lags = int(np.flatnonzero(weights)[-1]) + 1
    gammas = autocovariances(w, n_lags - 1)
    one_sided = np.tensordot(weights[:n_lags], gammas, axes=1)
    omega = one_sided + one_sided.T - gammas[0]
    return 0.5 * (omega + omega.T), one_sided, bandwidth


def lrv_matrix(w: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Symmetric kernel long-run covariance T^{-1} sum_ij K(|i-j|/b) w_i w_j'."""
    return _kernel_sums(w, kernel)[0]


def one_sided_lrv(w: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """One-sided kernel sum sum_{h>=0} K(h/b) Gamma_hat(h).

    Gamma_hat(h) = T^{-1} sum_t w_t w_{t+h}', so entry (a, b) accumulates
    the covariances between component a now and component b at later lags.
    Satisfies one_sided + one_sided' - Gamma_hat(0) = lrv_matrix, which is
    how :func:`lrv_matrix` is computed.
    """
    return _kernel_sums(w, kernel)[1]


def conditional_lrv(omega: np.ndarray) -> float:
    """Schur complement Omega_uu - Omega_uv Omega_vv^{-1} Omega_vu.

    The u-block is the leading 1 x 1 entry. Raises if the regressor block
    is numerically singular.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[0] != omega.shape[1]:
        raise ValueError("omega must be square")
    if omega.shape[0] == 1:
        return float(omega[0, 0])
    vv = omega[1:, 1:]
    if np.linalg.cond(vv) > 1e12:
        raise np.linalg.LinAlgError("regressor long-run variance singular")
    uv = omega[0, 1:]
    return float(omega[0, 0] - uv @ np.linalg.solve(vv, uv))


def estimate_lrv(w: np.ndarray, kernel: KernelSpec) -> LrvEstimate:
    """Symmetric and one-sided long-run covariances of [u, v']' rows, the
    conditional scalar and the bandwidth, from one autocovariance pass."""
    omega, one_sided, bandwidth = _kernel_sums(w, kernel)
    return LrvEstimate(
        omega=omega,
        conditional=conditional_lrv(omega),
        bandwidth=bandwidth,
        kind=kernel.kind,
        one_sided=one_sided,
    )

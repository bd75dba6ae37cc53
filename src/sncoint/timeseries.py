"""Time-series primitives and the sample container shared by all estimators.

Conventions used throughout the package:

* Time indices in formulas are 1-based (t = 1..T); storage is 0-based.
* The integrated regressors start from x_0 = 0, so their innovations are
  v_t = x_t - x_{t-1} with v_1 = x_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Deterministics",
    "CointegrationSample",
    "partial_sum",
    "first_difference",
    "build_deterministics",
]


class Deterministics(Enum):
    """Deterministic regressor specification d_t = [1, t, ..., t^p]'."""

    NONE = "none"
    INTERCEPT = "intercept"
    TREND = "intercept+trend"
    QUADRATIC = "intercept+trend+square"
    CUBIC = "intercept+trend+square+cubic"

    @property
    def n_columns(self) -> int:
        """Number of deterministic columns p."""
        return _N_COLUMNS[self]

    @classmethod
    def from_alias(cls, name: str) -> "Deterministics":
        """Resolve a CLI-style alias such as 'const' or 'trend'."""
        key = name.strip().lower()
        if key in _ALIASES:
            return _ALIASES[key]
        raise ValueError(f"unknown deterministic specification {name!r}")


_N_COLUMNS = {
    Deterministics.NONE: 0,
    Deterministics.INTERCEPT: 1,
    Deterministics.TREND: 2,
    Deterministics.QUADRATIC: 3,
    Deterministics.CUBIC: 4,
}

_ALIASES = {
    "none": Deterministics.NONE,
    "const": Deterministics.INTERCEPT,
    "intercept": Deterministics.INTERCEPT,
    "trend": Deterministics.TREND,
    "quad": Deterministics.QUADRATIC,
    "cubic": Deterministics.CUBIC,
}


def partial_sum(series: np.ndarray) -> np.ndarray:
    """Cumulative sum along time: output[t] = sum of input[1..t].

    Accepts a length-T vector or a T x k matrix (time along axis 0).
    """
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] == 0:
        raise ValueError("empty series")
    return np.cumsum(arr, axis=0)


def first_difference(series: np.ndarray) -> np.ndarray:
    """First differences along time, dropping the initial observation."""
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] < 2:
        raise ValueError("series too short")
    return np.diff(arr, axis=0)


def _increments(x: np.ndarray) -> np.ndarray:
    """x_t - x_{t-1} along the time axis of levels ``x`` (..., T, m), with x_0 = 0."""
    return np.diff(x, axis=-2, prepend=np.zeros_like(x[..., :1, :]))


_TOO_SHORT = "need at least {need} observations for m={m} regressors and {p} deterministic columns, got {T}"


def _check_nobs(T: int, m: int, det: Deterministics, message: str = _TOO_SHORT) -> None:
    """Raise ValueError(``message``) unless T reaches the 2m + p + 3 observations
    that a regression on m integrated regressors and ``det`` needs."""
    if T < (need := 2 * m + det.n_columns + 3):
        raise ValueError(message.format(need=need, m=m, p=det.n_columns, det=det.value, T=T))


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the test level ``alpha`` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")


def _check_integers(minimum: int, **settings) -> None:
    """Raise TypeError naming the first setting that is not a Python or
    numpy integer (a bool is not one), and ValueError naming the first below
    ``minimum``: the one rule for every count and seed."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _number_from_text(value, number=float):
    """``value``, numeric text (``"4"``) read as a ``number``: the one text rule of a setting
    given on the command line or in a config (a bandwidth, a sieve order)."""
    try:
        return number(value) if isinstance(value, str) else value
    except ValueError:
        return value  # a name ('andrews', 'aic'), or text the setting's own check refuses


def _check_grid(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` unless it is 1-D, finite and not empty."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or not np.isfinite(grid).all():
        raise ValueError(f"{name} must be a 1-D array of finite values, got {grid.tolist()}")
    if not grid.size:
        raise ValueError(f"{name} must hold at least one value")
    return grid


def build_deterministics(det: Deterministics, T: int) -> np.ndarray:
    """Return the T x p matrix with column j holding t^j for t = 1..T.

    ``Deterministics.NONE`` yields a T x 0 matrix.
    """
    _check_integers(1, T=T)
    p = det.n_columns
    t = np.arange(1, T + 1, dtype=float)
    return np.column_stack([t**j for j in range(p)]) if p else np.empty((T, 0))


@dataclass(frozen=True)
class CointegrationSample:
    """Observed (y_t, x_t) plus a deterministic specification.

    Parameters
    ----------
    y : ndarray, shape (T,)
        Dependent variable. ``y`` and ``x`` must be finite; NaN or inf
        raises :class:`ValueError` naming the column and time index.
    x : ndarray, shape (T, m)
        Integrated regressors, with the x_0 = 0 convention.
    det : Deterministics
        Deterministic regressors included in the regression.
    """

    y: np.ndarray
    x: np.ndarray
    det: Deterministics = Deterministics.NONE

    def __post_init__(self) -> None:
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim != 1 or x.ndim != 2:
            raise ValueError("y must be a vector and x a T x m matrix")
        if y.shape[0] != x.shape[0]:
            raise ValueError("y and x must have the same number of observations")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            for name, column in [("y", y)] + [(f"x column {j}", x[:, j]) for j in range(x.shape[1])]:
                bad = np.flatnonzero(~np.isfinite(column))
                if bad.size:
                    raise ValueError(f"{name} holds a non-finite value ({column[bad[0]]}) at t = {bad[0] + 1}")
        _check_nobs(*x.shape, self.det)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def nobs(self) -> int:
        return self.y.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[1]

    def innovations(self) -> np.ndarray:
        """Regressor innovations v_t = x_t - x_{t-1} with v_1 = x_1."""
        return _increments(self.x)

    def deterministics(self) -> np.ndarray:
        """The T x p deterministic regressor matrix for this sample."""
        return build_deterministics(self.det, self.nobs)

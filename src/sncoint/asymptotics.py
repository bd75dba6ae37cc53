"""Simulation of the self-normalized statistic's limit law.

One draw loop, :func:`_normal_blocks`, draws the standard normals of
every route, one ``substream(seed, index)`` call per ``_chunk_size``
chunk, so a given (seed, n_grid, reps) triple always yields the same
table. One fit kernel, ``estimators._fit_batch``, fits each row block,
and :mod:`sncoint.selfnorm` turns the fit into the statistic. The
routes differ only in the design they fit:

* Without deterministic regressors the limit functionals are discretized
  on an ``n_grid`` lattice: Brownian motions are normalized sums of the
  normals, integrals left-endpoint Riemann sums with step 1/n. By
  summation by parts these are exactly a partial-sum regression
  (:func:`_lattice_fits`) of the lagged W_u on
  Z_t = [sum_{s<=t-2} W_v,s / n, W_v,t-1], whose sandwich is n times the
  limit covariance and whose self-normalizer is 1/n times the limit
  denominator.

* With deterministic regressors the finite-sample statistic is computed
  on pure random walks of length ``n_grid`` with standard normal
  innovations (:func:`_random_walk_statistics`); it converges to the
  limit, and this route avoids deriving projected-process formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scipy_stats

from .estimators import RestrictionSpec, _fit_batch, batch_rows
from .selfnorm import _normalizer, _wald_unit, wald_batch
from .streams import substream
from .tables import _PROBS, CriticalValueTable, default_table
from .timeseries import Deterministics

__all__ = [
    "LocalPowerCurve",
    "simulate_critical_values",
    "simulate_limit_statistics",
    "simulate_limit_components",
    "local_power",
]


def _chunk_size(n_grid: int, m: int) -> int:
    # Keep the largest intermediate array around ~5e6 elements.
    return max(4, int(5e6 / (n_grid * max(1, 2 * m))))


def _normal_blocks(m: int, T: int, width: int, reps: int, seed: int):
    """Yield the (rows, T, m + 1) standard normals of ``reps`` draws.

    Each ``_chunk_size`` chunk is one ``substream(seed, index)`` call,
    which fixes the draws; it is yielded in ``batch_rows(T, width)`` row
    blocks, ``width`` being the regressor count of the fit that follows.
    """
    chunk = _chunk_size(T, m)
    rows = batch_rows(T, width)
    done = 0
    index = 0
    while done < reps:
        c = min(chunk, reps - done)
        w = substream(seed, index).standard_normal((c, T, m + 1))
        for start in range(0, c, rows):
            yield w[start : start + rows]
        done += c
        index += 1


def _lag(a: np.ndarray) -> np.ndarray:
    """``a`` shifted one step along axis 1, with a zero first row."""
    return np.concatenate([np.zeros_like(a[:, :1]), a[:, :-1]], axis=1)


def _lattice_fits(m: int, n_grid: int, reps: int, seed: int):
    """Yield the lattice regression's fit of each row block of draws.

    Per draw the coefficients, ordered (beta, gamma), are the discretized
    (int g g')^{-1} int (G(1) - G) dW_u with g = [int W_v, W_v] and G its
    integral; ``scaled_cov`` is n times their conditional covariance.
    """
    n = n_grid
    for block in _normal_blocks(m, n, 2 * m, reps, seed):
        W = _lag(np.cumsum(block / np.sqrt(n), axis=1))
        Wv = W[:, :, 1:]
        Z = np.concatenate([_lag(np.cumsum(Wv, axis=1)) / n, Wv], axis=2)
        yield _fit_batch(Z, W[:, :, 0], 0, m)


def simulate_limit_components(
    m: int, s: int, n_grid: int, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draws of (numerator, denominator) of the limit ratio, no deterministics.

    The numerator is distributed chi-square with s degrees of freedom; the
    ratio numerator/denominator is the limit of the self-normalized
    statistic.
    """
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    restriction = RestrictionSpec(R=np.eye(s, m), value=np.zeros(s))
    nums: list[np.ndarray] = []
    dens: list[np.ndarray] = []
    for fit in _lattice_fits(m, n_grid, reps, seed):
        nums.append(n_grid * _wald_unit(fit, restriction))
        dens.append(n_grid * _normalizer(fit.resid))
    return np.concatenate(nums), np.concatenate(dens)


def _random_walk_statistics(
    m: int, s: int, det: Deterministics, T: int, reps: int, seed: int
) -> np.ndarray:
    """Self-normalized statistic on pure random walks, vectorized over reps.

    Innovations are i.i.d. standard normal, the true long-run coefficients
    are zero, and the restriction fixes the first s of them at zero.
    """
    restriction = RestrictionSpec(R=np.eye(s, m), value=np.zeros(s))
    blocks = _normal_blocks(m, T, det.n_columns + 2 * m, reps, seed)
    return np.concatenate([wald_batch(w[:, :, 0], np.cumsum(w[:, :, 1:], axis=1), det, restriction) for w in blocks])


def simulate_limit_statistics(
    m: int, s: int, det: Deterministics, n_grid: int, reps: int, seed: int
) -> np.ndarray:
    """Draws from the limiting null distribution for (m, s, det)."""
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    if det is Deterministics.NONE:
        num, den = simulate_limit_components(m, s, n_grid, reps, seed)
        return num / den
    return _random_walk_statistics(m, s, det, n_grid, reps, seed)


def simulate_critical_values(
    m: int,
    s: int,
    det: Deterministics,
    n_grid: int = 10_000,
    reps: int = 10_000,
    seed: int = 0,
) -> CriticalValueTable:
    """Simulate upper quantiles of the limit law for (m, s, det).

    ``n_grid`` is both the Brownian-motion lattice size and, for
    deterministic panels, the length of the random-walk samples.
    """
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    if n_grid < 1_000 or reps < 1_000:
        raise ValueError("need n_grid >= 1000 and reps >= 1000")
    draws = simulate_limit_statistics(m, s, det, n_grid, reps, seed)
    quantiles = {float(p): float(q) for p, q in zip(_PROBS, np.quantile(draws, _PROBS))}
    return CriticalValueTable(
        m=m,
        s=s,
        det=det,
        quantiles=quantiles,
        meta={"n_grid": n_grid, "reps": reps, "seed": seed},
    )


@dataclass(frozen=True)
class LocalPowerCurve:
    """Rejection probabilities against alternatives drifting at rate 1/T."""

    c_grid: np.ndarray
    power_sn: np.ndarray
    power_trad: np.ndarray
    meta: dict = field(default_factory=dict)


def local_power(
    c_grid,
    reps: int = 20_000,
    seed: int = 0,
    n_grid: int = 10_000,
    alpha: float = 0.05,
    table: CriticalValueTable | None = None,
) -> LocalPowerCurve:
    """Local asymptotic power of the traditional and self-normalized tests.

    Single-regressor, single-restriction case with the ratio of the
    regressor-innovation to conditional error long-run scales set to one.
    All grid points share the same draws, so the curves are smooth in c.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if table is None:
        table = default_table(1, 1, Deterministics.NONE)
    sn_crit = table.critical_value(alpha)
    chi2_crit = float(_scipy_stats.chi2.ppf(1.0 - alpha, df=1))

    hits_sn = np.zeros(c_grid.shape[0])
    hits_trad = np.zeros(c_grid.shape[0])
    total = 0
    for fit in _lattice_fits(1, n_grid, reps, seed):
        z1 = fit.params[:, 0]
        v11 = fit.scaled_cov[:, 0, 0] / n_grid
        denominator = n_grid * _normalizer(fit.resid)
        total += z1.shape[0]
        for i, c in enumerate(c_grid):
            shifted = (c + z1) ** 2
            hits_trad[i] += np.count_nonzero(shifted / v11 > chi2_crit)
            hits_sn[i] += np.count_nonzero(shifted / (denominator * v11) > sn_crit)
    return LocalPowerCurve(
        c_grid=c_grid,
        power_sn=hits_sn / total,
        power_trad=hits_trad / total,
        meta={"reps": total, "seed": seed, "n_grid": n_grid, "alpha": alpha},
    )

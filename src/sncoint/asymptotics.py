"""Simulation of the self-normalized statistic's limit law.

The limit law is free of nuisance parameters, so it is simulated as the
finite-sample statistic on pure random walks of length ``n_grid``: i.i.d.
standard normal innovations, zero long-run coefficients, and the null
that fixes the first s of them at zero. One chunk task, :func:`_walk_chunk`,
run by :func:`~sncoint.streams.replication_map`, draws the walks of every
consumer from one ``substream(seed, chunk)`` per ``_chunk_size`` chunk,
so a (seed, n_grid, reps) triple always yields the same table. It draws
and fits the chunk one ``batch_rows`` block at a time, so one block of
walks, not the chunk, is held in memory. ``estimators.im_ols_batch`` fits
each block, and one reducer, :func:`_components`, turns the fit into the
statistic's numerator tau(1) and its self-normalizer.

Without deterministic terms the walks start one step late (a zero first
innovation, the last draw dropped), which reproduces the Brownian-lattice
discretization exactly. With W_t = sum_{s<=t} draw_s / sqrt(n), the
lattice functionals are, by summation by parts, the regression of
W_u,t-1 on Z_t = [sum_{s<=t-2} W_v,s / n, W_v,t-1]. The shifted walks
regress sqrt(n) W_u,t-1 on sqrt(n) [sum_{s<=t-1} W_v,s, W_v,t-1], a
nonsingular linear map of Z, which leaves the residuals and tau(1) as
they are. The factor sqrt(n) on the regressand scales tau(1) and the
self-normalizer by n, the factor the lattice's functionals carried, so
numerator, denominator and ratio all equal the lattice's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimators import RestrictionSpec, batch_rows, im_ols_batch
from .selfnorm import _chi2_critical, _normalizer, _wald_unit
from .streams import replication_map, substream
from .tables import _PROBS, CriticalValueTable, default_table
from .timeseries import Deterministics, _check_grid, _check_integers, _check_nobs

__all__ = [
    "LocalPowerCurve",
    "simulate_critical_values",
    "simulate_limit_statistics",
    "simulate_limit_components",
    "local_power",
]


def _limit_restriction(m: int, s: int, det: Deterministics, n_grid: int, reps: int, seed: int) -> RestrictionSpec:
    """The null beta_1 = ... = beta_s = 0 of an (m, s, det) simulation.

    Raises TypeError unless m, s, n_grid, reps and seed are integers, and
    ValueError unless reps >= 1, seed >= 0, 1 <= s <= m, and n_grid is at
    least the 2m + p + 3 observations the regression needs.
    """
    _check_integers(1, n_grid=n_grid, reps=reps)
    _check_integers(0, seed=seed, m=m, s=s)  # m and s: the type here, the range next
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got m={m}, s={s}")
    _check_nobs(n_grid, m, det, "need n_grid >= {need} for m={m} and det={det}, got {T}")
    return RestrictionSpec(R=np.eye(s, m), value=np.zeros(s))


def _check_table(m: int, s: int, det: Deterministics, n_grid: int, reps: int, seed: int) -> None:
    """Raise ValueError unless the arguments make a critical-value table."""
    _limit_restriction(m, s, det, n_grid, reps, seed)
    _check_integers(1_000, n_grid=n_grid, reps=reps)


def _chunk_size(n_grid: int, m: int) -> int:
    # The size keys the walks' stream, so changing it changes every draw, and it sets the
    # pool's task size; it no longer bounds memory, which holds one block at a time.
    return max(4, int(5e6 / (n_grid * max(1, 2 * m))))


def _lag(a: np.ndarray) -> np.ndarray:
    """``a`` shifted one step along axis 1, with a zero first row."""
    return np.concatenate([np.zeros_like(a[:, :1]), a[:, :-1]], axis=1)


def _walk_chunk(fn, m: int, det: Deterministics, T: int, seed: int, size: int, indices: np.ndarray) -> list:
    """``fn(y, x)`` on each ``batch_rows(T, p + 2m)`` block of the walks
    ``indices``, one ``size`` chunk: y (rows, T) the innovations, x (rows,
    T, m) the random-walk regressors. Each block is drawn from the chunk's
    substream just before it is fitted, in block order, so only one block
    is held at a time; numpy fills a draw in C order, so the blocks are
    the rows of one (len(indices), T, m + 1) draw, bit for bit. Without
    deterministic terms the draws start one step late (module docstring).
    """
    rng = substream(seed, indices[0] // size)
    rows = batch_rows(T, det.n_columns + 2 * m)
    counts = (len(indices[start : start + rows]) for start in range(0, len(indices), rows))
    blocks = (rng.standard_normal((count, T, m + 1)) for count in counts)
    if det is Deterministics.NONE:
        blocks = map(_lag, blocks)
    return [fn(block[:, :, 0], np.cumsum(block[:, :, 1:], axis=1)) for block in blocks]


def _on_walks(fn, m: int, det: Deterministics, T: int, reps: int, seed: int) -> list:
    """``fn(y, x)`` of every row block of ``reps`` walks, in draw order,
    through one :func:`~sncoint.streams.replication_map` call."""
    size = _chunk_size(T, m)
    chunks = replication_map(partial(_walk_chunk, fn, m, det, T, seed, size), reps, size)
    return [out for chunk in chunks for out in chunk]


def _components(restriction: RestrictionSpec, det: Deterministics, y: np.ndarray, x: np.ndarray) -> tuple:
    """tau(1) and the self-normalizer of each walk (y, x). Gaussian walks have a
    full-rank design with probability one, so no degeneracy check runs."""
    fit = im_ols_batch(y, x, det)
    return _wald_unit(fit, restriction), _normalizer(fit.resid)


def simulate_limit_components(m: int, s: int, n_grid: int, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draws of (numerator, denominator) of the limit ratio, no deterministics.

    The numerator is distributed chi-square with s degrees of freedom; the
    ratio numerator/denominator is the limit of the self-normalized
    statistic.
    """
    det = Deterministics.NONE
    restriction = _limit_restriction(m, s, det, n_grid, reps, seed)
    nums, dens = zip(*_on_walks(partial(_components, restriction, det), m, det, n_grid, reps, seed))
    return np.concatenate(nums), np.concatenate(dens)


def _random_walk_statistics(m: int, s: int, det: Deterministics, T: int, reps: int, seed: int) -> np.ndarray:
    """Self-normalized statistic on the walks of :func:`_walk_chunk`,
    batched over reps, with the restriction fixing the first s coefficients."""
    restriction = _limit_restriction(m, s, det, T, reps, seed)
    pairs = _on_walks(partial(_components, restriction, det), m, det, T, reps, seed)
    return np.concatenate([unit / kappa for unit, kappa in pairs])


def simulate_limit_statistics(m: int, s: int, det: Deterministics, n_grid: int, reps: int, seed: int) -> np.ndarray:
    """Draws from the limiting null distribution for (m, s, det)."""
    return _random_walk_statistics(m, s, det, n_grid, reps, seed)


def simulate_critical_values(
    m: int, s: int, det: Deterministics, n_grid: int = 10_000, reps: int = 10_000, seed: int = 0
) -> CriticalValueTable:
    """Simulate upper quantiles of the limit law for (m, s, det).

    ``n_grid`` is the length of the random-walk samples; for the panel
    without deterministic terms it is also the size of the Brownian
    lattice whose functionals those walks reproduce exactly.
    """
    _check_table(m, s, det, n_grid, reps, seed)
    draws = simulate_limit_statistics(m, s, det, n_grid, reps, seed)
    quantiles = {float(p): float(q) for p, q in zip(_PROBS, np.quantile(draws, _PROBS))}
    meta = {"n_grid": n_grid, "reps": reps, "seed": seed}
    return CriticalValueTable(m=m, s=s, det=det, quantiles=quantiles, meta=meta)


@dataclass(frozen=True)
class LocalPowerCurve:
    """Rejection probabilities against alternatives drifting at rate 1/T."""

    c_grid: np.ndarray
    power_sn: np.ndarray
    power_trad: np.ndarray
    meta: dict = field(default_factory=dict)


def _local_hits(c_grid: np.ndarray, n_grid: int, sn_crit: float, chi2_crit: float, y: np.ndarray, x: np.ndarray):
    """Rejection counts (2, G) of the traditional and self-normalized
    tests of beta = 0 on the walks (y, x), true coefficient c / n_grid."""
    fit = im_ols_batch(y, x, Deterministics.NONE)
    v11 = fit.scaled_cov[:, 0, 0]
    shifted = (c_grid[:, None] / n_grid + fit.params[:, 0]) ** 2
    return np.stack(
        [np.count_nonzero(shifted / v11 > chi2_crit, axis=1),
         np.count_nonzero(shifted / (_normalizer(fit.resid) * v11) > sn_crit, axis=1)]
    )  # fmt: skip


def local_power(c_grid, reps: int = 20_000, seed: int = 0, n_grid: int = 10_000) -> LocalPowerCurve:
    """Local asymptotic power of the traditional and self-normalized tests
    at the 5% level, the self-normalized one with the packaged table.

    Single-regressor, single-restriction case with the ratio of the
    regressor-innovation to conditional error long-run scales set to one:
    the null beta = 0 is tested on walks of length T = n_grid whose true
    coefficient is c / T. All grid points share the same draws, so the
    curves are smooth in c.
    """
    _limit_restriction(1, 1, Deterministics.NONE, n_grid, reps, seed)
    c_grid = _check_grid("c_grid", c_grid)
    sn_crit = default_table(1, 1, Deterministics.NONE).critical_value(0.05)
    hit = partial(_local_hits, c_grid, n_grid, sn_crit, _chi2_critical(1, 0.05))
    hits_trad, hits_sn = np.sum(_on_walks(hit, 1, Deterministics.NONE, n_grid, reps, seed), axis=0)
    return LocalPowerCurve(
        c_grid=c_grid,
        power_sn=hits_sn / reps,
        power_trad=hits_trad / reps,
        meta={"reps": reps, "seed": seed, "n_grid": n_grid, "alpha": 0.05},
    )

"""Simulation of the self-normalized statistic's limit law.

Two routes produce draws from the limiting null distribution:

* Without deterministic regressors the limit functionals are discretized
  directly: standard Brownian motions are approximated by normalized sums
  of i.i.d. normals on an ``n_grid`` lattice, ordinary integrals by
  left-endpoint Riemann sums with step 1/n, and the stochastic integral
  by the sum of increments weighted with the (smooth) integrand.

* With deterministic regressors the full finite-sample statistic is
  computed on pure-random-walk data of length ``n_grid`` with standard
  normal innovations; the statistic converges to the corresponding limit
  and this route avoids deriving projected-process formulas. It shares
  the batched fit, sandwich and self-normalizer of the bootstrap
  (:func:`~sncoint.selfnorm.wald_batch`), evaluated in sub-chunks of each
  chunk's draws.

Both routes are vectorized across replications in fixed-size chunks, so a
given (seed, n_grid, reps) triple always yields the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _scipy_stats

from .estimators import RestrictionSpec, batch_rows
from .selfnorm import wald_batch
from .streams import substream
from .tables import CriticalValueTable, default_table
from .timeseries import Deterministics

__all__ = [
    "LocalPowerCurve",
    "simulate_critical_values",
    "simulate_limit_statistics",
    "simulate_limit_components",
    "local_power",
]

_PROBS = (0.90, 0.95, 0.975, 0.99)


def _chunk_size(n_grid: int, m: int) -> int:
    # Keep the largest intermediate array around ~5e6 elements.
    return max(4, int(5e6 / (n_grid * max(1, 2 * m))))


def _limit_draw_chunks(m: int, n_grid: int, reps: int, seed: int):
    """Yield (coeffs, sandwich, denominator) limit draws in chunks.

    Per draw: ``coeffs`` is the 2m-vector solving the projected first-order
    conditions, ``sandwich`` its conditional covariance, ``denominator``
    the integrated squared residual process that the self-normalizer
    converges to (up to scale).
    """
    n = n_grid
    chunk = _chunk_size(n, m)
    done = 0
    index = 0
    while done < reps:
        c = min(chunk, reps - done)
        rng = substream(seed, index)
        dW = rng.standard_normal((c, n, m + 1)) / np.sqrt(n)
        W = np.cumsum(dW, axis=1)
        Wu = W[:, :, 0]
        Wv = W[:, :, 1:]

        zeros_v = np.zeros((c, 1, m))
        Wv_left = np.concatenate([zeros_v, Wv[:, :-1]], axis=1)
        int_Wv = np.cumsum(Wv_left, axis=1) / n

        g = np.concatenate([int_Wv, Wv], axis=2)
        zeros_g = np.zeros((c, 1, 2 * m))
        g_left = np.concatenate([zeros_g, g[:, :-1]], axis=1)

        A = np.einsum("ctj,ctk->cjk", g_left, g_left) / n
        G = np.cumsum(g_left, axis=1) / n
        G1 = G[:, -1:, :]
        H = G1 - G
        S = np.einsum("ctj,ct->cj", H, dW[:, :, 0])
        H_left = G1 - np.concatenate([zeros_g, G[:, :-1]], axis=1)
        M = np.einsum("ctj,ctk->cjk", H_left, H_left) / n

        coeffs = np.linalg.solve(A, S[:, :, None])[:, :, 0]
        X = np.linalg.solve(A, M)
        sandwich = np.linalg.solve(A, X.transpose(0, 2, 1)).transpose(0, 2, 1)
        sandwich = 0.5 * (sandwich + sandwich.transpose(0, 2, 1))

        Wu_left = np.concatenate([np.zeros((c, 1)), Wu[:, :-1]], axis=1)
        resid = Wu_left - np.einsum("ctj,cj->ct", g_left, coeffs)
        denominator = np.einsum("ct,ct->c", resid, resid) / n

        yield coeffs, sandwich, denominator
        done += c
        index += 1


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
    nums: list[np.ndarray] = []
    dens: list[np.ndarray] = []
    for coeffs, sandwich, denominator in _limit_draw_chunks(m, n_grid, reps, seed):
        top = coeffs[:, :s]
        Q = sandwich[:, :s, :s]
        sol = np.linalg.solve(Q, top[:, :, None])[:, :, 0]
        nums.append(np.einsum("cj,cj->c", top, sol))
        dens.append(denominator)
    return np.concatenate(nums), np.concatenate(dens)


def _random_walk_statistics(
    m: int, s: int, det: Deterministics, T: int, reps: int, seed: int
) -> np.ndarray:
    """Self-normalized statistic on pure random walks, vectorized over reps.

    Innovations are i.i.d. standard normal, the true long-run coefficients
    are zero, and the restriction fixes the first s of them at zero. Each
    ``_chunk_size`` chunk draws its innovations in one call, which fixes
    the table; :func:`~sncoint.selfnorm.wald_batch` then evaluates it in
    :func:`~sncoint.estimators.batch_rows` sub-chunks.
    """
    restriction = RestrictionSpec(R=np.eye(s, m), value=np.zeros(s))
    chunk = _chunk_size(T, m)
    rows = batch_rows(T, det.n_columns + 2 * m)
    out: list[np.ndarray] = []
    done = 0
    index = 0
    while done < reps:
        c = min(chunk, reps - done)
        w = substream(seed, index).standard_normal((c, T, m + 1))
        for start in range(0, c, rows):
            sub = w[start : start + rows]
            batch = wald_batch(sub[:, :, 0], np.cumsum(sub[:, :, 1:], axis=1), det, restriction)
            out.append(batch.wald_unit / batch.kappa)
        done += c
        index += 1
    return np.concatenate(out)


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
    probs: tuple[float, ...] = _PROBS,
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
    quantiles = {float(p): float(q) for p, q in zip(probs, np.quantile(draws, probs))}
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
    for coeffs, sandwich, denominator in _limit_draw_chunks(1, n_grid, reps, seed):
        z1 = coeffs[:, 0]
        v11 = sandwich[:, 0, 0]
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

"""Monte Carlo generation and size / size-adjusted-power experiments.

The data-generating process has two integrated regressors whose
innovations carry an MA(1) component, regression errors with ARMA(1,1)
dynamics plus an endogeneity channel, and innovations built from three
correlated GARCH(1,1) processes:

    u_t    = rho1 u_{t-1} + e_t + phi e_{t-1} + rho2 (nu_{1t} + nu_{2t})
    v_{it} = nu_{it} + 0.5 nu_{i,t-1}
    [e, nu_1, nu_2]' = L [xi_1, xi_2, xi_3]',  L L' = P(rho3)

with each xi a unit-variance GARCH(1,1). The first ``burn_in`` periods
are discarded. Setting a1 = b1 = rho3 = 0 collapses the innovations to
i.i.d. standard normals, which is the same code path.

The drivers split the replications into equal chunks sized from the study's
shape (:func:`_chunk_size`), each a task of one
:func:`~sncoint.streams.replication_map` call, so all its phases run on
the one process pool the process keeps (later studies reuse its warm
workers), and it uses at most as many processes as it has chunks. A
chunk runs the GARCH recursion once over time for all its replications,
each drawn from its own ``substream(seed, phase, i)``, all from one
``substreams`` call (:func:`generate_dgp` is the one-row case).
Both studies stack a phase's samples in one
:class:`~sncoint.estimators.FittedSample`, so each test or
statistic fits and evaluates the whole chunk in one call, and one check
refuses a missing or NaN value. No row's fits depend on the rows stacked
with it, so the chunk size sets the speed, never the results. ``ExperimentResult.meta``
records the chunk size, task count, processes, BLAS pinning and memory
retention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .estimators import FittedSample, RestrictionSpec
from .streams import BLAS_PINNED, MEMORY_RETAINED, _seed_words, pool_layout, replication_map, substreams
from .timeseries import CointegrationSample, Deterministics, _check_alpha, _check_integers

__all__ = [
    "DgpConfig",
    "ExperimentResult",
    "simulate_garch_innovations",
    "generate_dgp",
    "null_restriction",
    "size_experiment",
    "size_adjusted_power",
]

TestFn = Callable[[FittedSample, RestrictionSpec, Sequence[int]], np.ndarray]
StatisticFn = Callable[[FittedSample, RestrictionSpec], np.ndarray]

# Elements (T x rows) a chunk's largest stack grows to: each chunk pays a GARCH loop over burn_in + T
# steps, ~50 numpy calls per phase and a pool round trip, but at T = 1,000 and 10 grid points chunks of
# 24 in place of 8 took 15-25% longer on twice the memory. Speed only: no row depends on its stack mates.
_CHUNK_ELEMENTS = 1 << 13
# Chunks a study keeps while each holds 25 replications or more, so costly ones (bootstrap) fill cores.
_MIN_TASKS = 8


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the two-regressor Monte Carlo design."""

    T: int
    rho1: float = 0.0
    rho2: float = 0.0
    rho3: float = 0.2
    phi: float = 0.0
    a1: float = 0.05
    b1: float = 0.94
    beta: tuple[float, float] = (1.0, 1.0)
    burn_in: int = 100

    def __post_init__(self) -> None:
        _check_integers(T=self.T, burn_in=self.burn_in)
        object.__setattr__(self, "beta", tuple(self.beta))
        if self.T < 10:
            raise ValueError("sample size too small")
        if len(self.beta) != 2:
            raise ValueError("beta needs one coefficient per regressor (two)")
        if abs(self.rho1) >= 1.0:
            raise ValueError("|rho1| must be below one")
        if self.a1 < 0 or self.b1 < 0 or self.a1 + self.b1 >= 1.0:
            raise ValueError("need a1, b1 >= 0 and a1 + b1 < 1")
        if not -0.5 < self.rho3 < 1.0:
            raise ValueError("rho3 must lie in (-0.5, 1) for a positive definite mix")
        if self.burn_in < 1:
            raise ValueError("burn_in must be positive")
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")

    def mixing_matrix(self) -> np.ndarray:
        """Cholesky factor of the equicorrelation matrix with off-diagonal rho3."""
        P = np.full((3, 3), self.rho3)
        np.fill_diagonal(P, 1.0)
        return np.linalg.cholesky(P)


def _garch(config: DgpConfig, eps: np.ndarray) -> np.ndarray:
    """Mixed GARCH innovations from standard normals ``eps`` (..., length, 3),
    one recursion over time for every leading index at once."""
    a0 = 1.0 - config.a1 - config.b1
    xi = np.empty_like(eps)
    sigma2 = np.ones(eps.shape[:-2] + (3,))
    xi_prev_sq = np.ones(eps.shape[:-2] + (3,))
    for t in range(eps.shape[-2]):
        sigma2 = a0 + config.a1 * xi_prev_sq + config.b1 * sigma2
        xi[..., t, :] = np.sqrt(sigma2) * eps[..., t, :]
        xi_prev_sq = xi[..., t, :] ** 2
    return xi @ config.mixing_matrix().T


def simulate_garch_innovations(config: DgpConfig, length: int, rng: np.random.Generator) -> np.ndarray:
    """Three correlated unit-variance GARCH(1,1) series, shape (length, 3).

    Each underlying series follows sigma2_t = a0 + a1 xi_{t-1}^2 +
    b1 sigma2_{t-1} with a0 = 1 - a1 - b1 and initial squared value and
    variance both one, so the unconditional variance is one. The three
    series are mixed by the Cholesky factor of the equicorrelation
    matrix at every date.
    """
    return _garch(config, rng.standard_normal((length, 3)))


def _dgp_paths(config: DgpConfig, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regressor levels x (..., T, 2) and errors u (..., T) from mixed
    innovations (..., burn_in + T, 3).

    Pre-sample values of the error recursions are zero; the regressors
    restart from zero after the burn-in is dropped.
    """
    e = mixed[..., 0]
    nu = mixed[..., 1:]
    e_prev = np.concatenate([np.zeros(e.shape[:-1] + (1,)), e[..., :-1]], axis=-1)
    nu_prev = np.concatenate([np.zeros(nu.shape[:-2] + (1, 2)), nu[..., :-1, :]], axis=-2)

    forcing = e + config.phi * e_prev + config.rho2 * nu.sum(axis=-1)
    # u_t = f_t + rho1 u_{t-1}, u_0 = f_0: the operations of scipy.signal.lfilter's direct form, so its bits
    u = np.moveaxis(forcing, -1, 0).copy()
    for t in range(1, u.shape[0]):
        u[t] += config.rho1 * u[t - 1]
    u = np.moveaxis(u, 0, -1)
    v = nu + 0.5 * nu_prev
    return np.cumsum(v[..., config.burn_in :, :], axis=-2), u[..., config.burn_in :]


def generate_dgp(config: DgpConfig, rng: np.random.Generator) -> CointegrationSample:
    """Draw one sample of length T from the Monte Carlo design."""
    x, u = _dgp_paths(config, simulate_garch_innovations(config, config.burn_in + config.T, rng))
    return CointegrationSample(y=x @ np.asarray(config.beta, dtype=float) + u, x=x, det=Deterministics.NONE)


def null_restriction(config: DgpConfig) -> RestrictionSpec:
    """The joint restriction pinning both long-run coefficients."""
    return RestrictionSpec(R=np.eye(2), value=np.asarray(config.beta))


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection rates (size) or rate curves over a coefficient grid (power)."""

    kind: str
    rates: dict
    reps: int
    seed: int
    beta_grid: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.rates.items():
            arr = np.atleast_1d(np.asarray(value, dtype=float))
            if np.any((arr < 0) | (arr > 1)):
                raise ValueError(f"rates for {name!r} outside [0, 1]")


def _test_seeds(seed: int, phase: int, indices: np.ndarray, n_tests: int) -> list[list[int]]:
    """Test j's seeds on the replications ``indices``, list j: for each i, state word 0
    of the ``SeedSequence`` with entropy ``seed`` and ``spawn_key=(phase, i, j)``,
    from one hash for the chunk."""
    keys = np.stack(np.broadcast_arrays(phase, indices[:, None], np.arange(n_tests)), axis=-1)
    return _seed_words(seed, keys.reshape(-1, 3), 1).reshape(len(indices), n_tests).T.tolist()


def _fitted_samples(config: DgpConfig, seed: int, phase: int, indices: np.ndarray, betas) -> FittedSample:
    """One stacked :class:`FittedSample` of the replications ``indices``
    crossed with the coefficient pairs ``betas``: row r * len(betas) + g is
    replication ``indices[r]`` with ``betas[g]``. One GARCH recursion runs
    for all the replications, each from its own ``substream(seed, phase, i)``
    (one ``substreams`` call), so every row equals :func:`generate_dgp` on
    that stream with the matching ``beta``; (x, u) are drawn once and
    y = x beta + u per coefficient pair.
    """
    n = config.burn_in + config.T
    keys = np.column_stack([np.full_like(indices, phase), indices])
    eps = np.stack([rng.standard_normal((n, 3)) for rng in substreams(seed, keys)])
    x, u = _dgp_paths(config, _garch(config, eps))
    y = np.stack([x @ np.asarray(beta, dtype=float) + u for beta in betas], axis=1)
    return FittedSample(y.reshape(-1, config.T), np.repeat(x, len(betas), axis=0), Deterministics.NONE)


def _checked(kind: str, named: list, values: list, phase: str, indices, per_rep: int = 1) -> np.ndarray:
    """``values`` of the callables ``named`` as (rows, K), ``per_rep`` rows per replication in ``indices``;
    a missing value raises :class:`ValueError`, and so does a NaN, naming the callable, phase and replication."""
    rows = len(indices) * per_rep
    values = np.column_stack([np.asarray(v, dtype=float) for v in values])
    if values.shape != (rows, len(named)):
        raise ValueError(f"a {kind} must return one value per row of its FittedSample ({rows} rows)")
    if np.isnan(values).any():
        row, j = np.argwhere(np.isnan(values))[0]
        raise ValueError(f"{kind} {named[j][0]!r} is NaN (degenerate sample) in the {phase} phase "
                         f"at replication {indices[row // per_rep]}")  # fmt: skip
    return values


def _size_chunk(config: DgpConfig, tests: list, restriction: RestrictionSpec, seed: int, indices: np.ndarray):
    """Decisions (rows, K) of each named test j on the replications ``indices``,
    from one call on the chunk's stacked fits with the seeds ``_test_seeds(seed, 0, indices, K)[j]``."""
    fitted = _fitted_samples(config, seed, 0, indices, [config.beta])
    seeds = _test_seeds(seed, 0, indices, len(tests))
    decisions = [fn(fitted, restriction, test_seeds) for (_, fn), test_seeds in zip(tests, seeds)]
    return _checked("test", tests, decisions, "null", indices)


def _chunk_size(reps: int, T: int, rows: int) -> int:
    """Replications per chunk: ``reps`` in as few equal chunks as a cap of max(8, _CHUNK_ELEMENTS // (T * rows))
    allows, ``rows`` per replication in the largest stack, but min(_MIN_TASKS, reps // 25) or more; never workers."""
    cap = max(8, _CHUNK_ELEMENTS // (T * rows))
    return -(-reps // max(-(-reps // cap), min(_MIN_TASKS, reps // 25)))


def _run_chunks(task, reps: int, workers: int, T: int, rows: int) -> tuple[np.ndarray, dict]:
    """``task`` over the replications in chunks of :func:`_chunk_size`, one
    ``replication_map`` call for the study; the stacked results and the run's metadata."""
    if reps < 1:
        raise ValueError("need at least one replication")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    size = _chunk_size(reps, T, rows)
    tasks, processes = pool_layout(reps, size, workers)
    out = np.concatenate(replication_map(task, reps, size, workers))
    return out, {
        "runtime_s": time.perf_counter() - start,
        "workers": workers,
        "chunk_size": size,
        "tasks": tasks,
        "processes": processes,
        "blas_pinned": BLAS_PINNED,
        "memory_retained": MEMORY_RETAINED,
    }


def size_experiment(
    config: DgpConfig,
    tests: Mapping[str, TestFn],
    reps: int,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Null rejection frequency of each test over ``reps`` samples.

    Each test is a callable (fitted, restriction, seeds) -> decisions, with
    ``fitted`` a stacked :class:`~sncoint.estimators.FittedSample` of c
    samples, shared by all tests, ``seeds`` a seed per row, and the array
    its c decisions, 1 to reject, 0 not; a NaN raises :class:`ValueError`
    naming the test and the replication. The restriction fixes the
    coefficients at their true values, so rates estimate empirical size.
    """
    _check_integers(reps=reps, seed=seed, workers=workers)
    restriction = null_restriction(config)
    task = partial(_size_chunk, config, list(tests.items()), restriction, seed)
    outcomes, meta = _run_chunks(task, reps, workers, config.T, 1)
    return ExperimentResult(
        kind="size",
        rates={name: float(outcomes[:, j].mean()) for j, name in enumerate(tests)},
        reps=reps,
        seed=seed,
        meta={"config": config} | meta,
    )


def _power_chunk(config: DgpConfig, stats: list, restriction: RestrictionSpec, beta_grid, seed: int, indices):
    """Statistics (rows, 1 + G, K) on the replications ``indices``: the
    null draw, then each grid point. Each named statistic in ``stats`` is
    called once per phase, on the phase's stacked fits; a NaN value raises
    :class:`ValueError`, so no quantile or rate ever sees one."""
    phases = (("null", [config.beta]), ("alternative", [(b, b) for b in beta_grid]))
    out = []
    for phase, (name, betas) in enumerate(phases):
        fitted = _fitted_samples(config, seed, phase, indices, betas)
        values = _checked("statistic", stats, [fn(fitted, restriction) for _, fn in stats], name, indices, len(betas))
        out.append(values.reshape(len(indices), len(betas), len(stats)))
    return np.concatenate(out, axis=1)


def size_adjusted_power(
    config: DgpConfig,
    statistics: Mapping[str, StatisticFn],
    beta_grid,
    reps: int,
    seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
) -> ExperimentResult:
    """Power at empirically calibrated critical values.

    Phase one simulates under the null (the coefficients in ``config``)
    and records each statistic's empirical 1 - alpha quantile; phase two
    evaluates rejection rates over ``beta_grid`` (both coefficients set
    to the grid value) against those adjusted critical values. Grid
    points share innovation draws, so curves are smooth in the
    coefficient. Each statistic is a callable (fitted, restriction) ->
    array, with ``fitted`` a stacked
    :class:`~sncoint.estimators.FittedSample` of c samples, shared by all
    statistics, and the array their c values. A NaN value raises
    :class:`ValueError` naming the statistic, the phase and the
    replication. Both phases of a replication run in the same task, so the
    study makes one ``replication_map`` call.
    """
    _check_integers(reps=reps, seed=seed, workers=workers)
    _check_alpha(alpha)
    beta_grid = np.asarray(beta_grid, dtype=float)
    restriction = null_restriction(config)
    task = partial(_power_chunk, config, list(statistics.items()), restriction, beta_grid, seed)
    draws, meta = _run_chunks(task, reps, workers, config.T, max(1, len(beta_grid)))
    adjusted = {name: float(np.quantile(draws[:, 0, j], 1.0 - alpha)) for j, name in enumerate(statistics)}
    return ExperimentResult(
        kind="power",
        rates={name: (draws[:, 1:, j] > adjusted[name]).mean(axis=0) for j, name in enumerate(statistics)},
        reps=reps,
        seed=seed,
        beta_grid=beta_grid,
        meta={"config": config, "alpha": alpha, "adjusted_critical_values": adjusted} | meta,
    )

"""The four benchmark workloads.

Each workload has a fixed pool of inputs per operation class, made once
from a fixed seed outside the timed region, and a schedule that the run
seed draws from that pool. The schedule is a sequence of blocks; every
block holds the workload's class mix in full (for example three T = 250
analyses and one T = 1000 analysis), so every run measures the same mix
whatever its seed or length. Runs stop only at block boundaries, after
at least two blocks. Mixes are uneven so that the median and the 90th
percentile each fall inside one class instead of on the boundary
between two.

Calls go through the public ``sncoint`` namespace at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import sncoint

# Inputs are drawn from this seed; ``--seed`` only picks and orders them.
INPUT_SEED = 2204_01373
RESTRICTION_VALUE = (1.0, 1.0)


def _dgp_sample(T: int, cls: int, index: int, rho: float):
    config = sncoint.DgpConfig(T=T, rho1=rho, rho2=rho)
    return sncoint.generate_dgp(config, np.random.default_rng([INPUT_SEED, cls, index]))


@dataclass(frozen=True)
class OpClass:
    """One kind of operation: its pool size, how many run per block, and
    how many units of work (analyses, replications, draws) one performs."""

    name: str
    pool: int
    per_block: int
    units: int


@dataclass
class Workload:
    name: str
    classes: tuple[OpClass, ...]
    unit: str
    # Reference tolerances by result field: (relative, absolute).
    tolerance: dict = field(default_factory=dict)
    tiny: bool = False
    workers = 1  # processes an operation keeps busy

    def schedule(self, seed: int):
        """Endless sequence of blocks of (class, pool index) operations."""
        rng = np.random.default_rng(seed)
        queues = {c.name: [] for c in self.classes}
        while True:
            block = []
            for c in self.classes:
                for _ in range(c.per_block):
                    if not queues[c.name]:
                        queues[c.name] = list(rng.permutation(c.pool))
                    block.append((c.name, int(queues[c.name].pop())))
            yield [block[i] for i in rng.permutation(len(block))]

    def inputs(self) -> dict:
        return {}

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, cls: str, index: int, inputs: dict):
        """The timed operation: one call into sncoint."""
        raise NotImplementedError

    def summary(self, output) -> dict:
        """The checked fields of an operation's output, as JSON types."""
        raise NotImplementedError

    def units(self, cls: str) -> int:
        return next(c.units for c in self.classes if c.name == cls)


def _outcome(o) -> dict:
    return {
        "method": o.method,
        "statistic": o.statistic,
        "critical_value": o.critical_value,
        "p_value": o.p_value,
        "reject": o.reject,
    }


class Analysis(Workload):
    """``run_analysis`` (asymptotic SN test, FM-Wald test, three
    estimators, no bootstrap) with m = 2 and the joint restriction
    beta = (1, 1). Three in four datasets are T = 250 with the Bartlett
    kernel, one in four T = 1000 with the quadratic-spectral kernel
    (O(T^2) long-run variance); both use the Andrews bandwidth."""

    def __init__(self, tiny=False):
        super().__init__(
            "analysis",
            (OpClass("T250", 24, 3, 1), OpClass("T1000", 8, 1, 1)),
            unit="analyses",
            tolerance={"default": (1e-7, 1e-12)},
            tiny=tiny,
        )
        self.sizes = {"T250": 60 if tiny else 250, "T1000": 120 if tiny else 1000}
        self.kernels = {
            "T250": sncoint.KernelSpec(sncoint.BARTLETT, "andrews"),
            "T1000": sncoint.KernelSpec(sncoint.QUADRATIC_SPECTRAL, "andrews"),
        }
        self.restriction = sncoint.RestrictionSpec(R=np.eye(2), value=np.asarray(RESTRICTION_VALUE))

    def inputs(self):
        return {
            (c.name, i): _dgp_sample(self.sizes[c.name], k, i, 0.6)
            for k, c in enumerate(self.classes)
            for i in range(c.pool)
        }

    def warmup(self):
        self.run("T250", 0, {("T250", 0): _dgp_sample(self.sizes["T250"], 0, 0, 0.6)})

    def run(self, cls, index, inputs):
        return sncoint.run_analysis(inputs[cls, index], self.restriction, kernel=self.kernels[cls], seed=0)

    def summary(self, report):
        return {
            "outcomes": [_outcome(o) for o in report.outcomes],
            "estimates": {k: [float(v) for v in est] for k, est in report.estimates.items()},
            "rho1": report.rho1,
        }


class Bootstrap(Workload):
    """``bootstrap_test`` with the SN statistic, B = 1499, AIC sieve
    order and one worker, on DGP samples with rho1 = rho2 = 0.6: three
    per block at T = 100 (time in the per-step VAR simulation loop) and
    one at T = 1000 (time in the per-draw IM-OLS QR sandwich). The pool
    varies the bootstrap seed, not the sample: the sieve order the sample
    selects sets the cost of every draw, and a run holds only a few tests."""

    def __init__(self, tiny=False):
        self.n_boot = 19 if tiny else 1499
        super().__init__(
            "bootstrap",
            (OpClass("T100", 4, 3, self.n_boot), OpClass("T1000", 4, 1, self.n_boot)),
            unit="replications",
            # The p-value may move by one rank if a draw ties the observed
            # statistic after a change in rounding.
            tolerance={"default": (1e-7, 1e-12), "p_value": (0.0, 1.0 / (self.n_boot + 1) + 1e-12)},
            tiny=tiny,
        )
        self.sizes = {"T100": 60 if tiny else 100, "T1000": 120 if tiny else 1000}
        self.restriction = sncoint.RestrictionSpec(R=np.eye(2), value=np.asarray(RESTRICTION_VALUE))
        self.configs = [self._config(self.n_boot, seed) for seed in range(4)]

    def _config(self, n_boot, seed):
        return sncoint.BootstrapConfig(n_boot=n_boot, alpha=0.05, seed=seed, order_rule="aic", workers=1)

    def inputs(self):
        samples = {c.name: _dgp_sample(self.sizes[c.name], 10 + k, 0, 0.6) for k, c in enumerate(self.classes)}
        return {(c.name, i): samples[c.name] for c in self.classes for i in range(c.pool)}

    def warmup(self):
        sample = _dgp_sample(self.sizes["T100"], 10, 1, 0.6)
        sncoint.bootstrap_test(sample, self.restriction, self._config(19 if self.tiny else 199, 0), statistic="sn")

    def run(self, cls, index, inputs):
        return sncoint.bootstrap_test(inputs[cls, index], self.restriction, self.configs[index], statistic="sn")

    def summary(self, outcome):
        return _outcome(outcome)


class CriticalValues(Workload):
    """``simulate_critical_values`` with n_grid = 10 000 and 1000 draws at
    (m, s, det) = (1, 1, none), which takes the Brownian-lattice route,
    twice per block, and (2, 1, intercept), which takes the random-walk
    route, once. The only
    workload that reaches ``asymptotics``; its chunks are large
    memory-bound arrays."""

    cells = {
        "brownian": (1, 1, sncoint.Deterministics.NONE),
        "random_walk": (2, 1, sncoint.Deterministics.INTERCEPT),
    }

    def __init__(self, tiny=False):
        self.n_grid = 1000 if tiny else 10_000
        self.reps = 1000
        super().__init__(
            "critvals",
            (OpClass("brownian", 4, 2, self.reps), OpClass("random_walk", 4, 1, self.reps)),
            unit="draws",
            tolerance={"default": (1e-7, 1e-12)},
            tiny=tiny,
        )

    def _simulate(self, cls, n_grid, seed):
        m, s, det = self.cells[cls]
        return sncoint.simulate_critical_values(m, s, det, n_grid=n_grid, reps=self.reps, seed=seed)

    def warmup(self):
        self._simulate("brownian", 1000, 0)

    def run(self, cls, index, inputs):
        return self._simulate(cls, self.n_grid, index)

    def summary(self, table):
        return {"quantiles": {f"{p:g}": q for p, q in sorted(table.quantiles.items())}}


class MonteCarlo(Workload):
    """``size_adjusted_power`` for SN, Wald-IM, Wald-FM and Wald-D
    (Bartlett kernel, Andrews bandwidth) under the GARCH design at
    T = 100, over a three-point beta grid, on two worker processes. One
    unit of work is one (replication, grid point) evaluation of the whole
    statistic set, the null phase counting as a grid point."""

    statistics = ("SN", "Wald-IM", "Wald-FM", "Wald-D")
    beta_grid = (1.0, 1.01, 1.03)
    workers = 2

    def __init__(self, tiny=False):
        self.reps = 8 if tiny else 100
        self.T = 60 if tiny else 100
        self.kernel = sncoint.KernelSpec(sncoint.BARTLETT, "andrews")
        self.config = sncoint.DgpConfig(T=self.T, beta=RESTRICTION_VALUE)
        super().__init__(
            "montecarlo",
            (OpClass("garch", 4, 1, self.reps * (1 + len(self.beta_grid))),),
            unit="evaluations",
            # A rate may move by one replication if a statistic lands on
            # the adjusted critical value after a change in rounding.
            tolerance={"default": (1e-7, 1e-12), "rates": (0.0, 1.0 / self.reps + 1e-12)},
            tiny=tiny,
        )

    def _study(self, reps, grid, seed):
        # Built per call: the traced run wraps the adapters it closes over.
        stats = sncoint.standard_statistics(self.statistics, self.kernel)
        return sncoint.size_adjusted_power(self.config, stats, grid, reps=reps, seed=seed, workers=self.workers)

    def warmup(self):
        self._study(4, self.beta_grid[:1], 0)

    def run(self, cls, index, inputs):
        return self._study(self.reps, self.beta_grid, INPUT_SEED + index)

    def summary(self, result):
        return {
            "rates": {k: [float(v) for v in result.rates[k]] for k in self.statistics},
            "adjusted": {k: result.meta["adjusted_critical_values"][k] for k in self.statistics},
        }


WORKLOADS = {"analysis": Analysis, "bootstrap": Bootstrap, "critvals": CriticalValues, "montecarlo": MonteCarlo}


def mismatches(result, reference, tolerance, path="") -> list[str]:
    """Fields of ``result`` that differ from ``reference`` beyond tolerance."""
    if isinstance(reference, dict):
        if not isinstance(result, dict) or result.keys() != reference.keys():
            return [f"{path}: keys differ"]
        return [m for k in reference for m in mismatches(result[k], reference[k], tolerance, f"{path}/{k}")]
    if isinstance(reference, list):
        if not isinstance(result, list) or len(result) != len(reference):
            return [f"{path}: length differs"]
        return [m for i, r in enumerate(reference) for m in mismatches(result[i], r, tolerance, f"{path}[{i}]")]
    if isinstance(reference, float) and isinstance(result, float) and not isinstance(result, bool):
        fields = [p for p in path.replace("[", "/").split("/") if p in tolerance]
        rel, abs_ = tolerance[fields[-1]] if fields else tolerance["default"]
        if math.isclose(result, reference, rel_tol=rel, abs_tol=abs_):
            return []
        return [f"{path}: {result!r} != {reference!r}"]
    return [] if result == reference else [f"{path}: {result!r} != {reference!r}"]

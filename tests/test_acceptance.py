"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Quantitative gates use fixed seeds; tolerances cover Monte Carlo error at
the stated replication counts. Total runtime is a few minutes on two
cores.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.signal import lfilter

from sncoint import (
    BootstrapConfig,
    CointegrationSample,
    DgpConfig,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    bootstrap_test,
    diff_residual_lrv,
    im_ols,
    kernel_weight,
    local_power,
    lrv_matrix,
    one_sided_lrv,
    restricted_im_ols,
    self_normalizer,
    simulate_critical_values,
    size_experiment,
    standard_battery,
    wald_statistic,
    yule_walker,
)
from sncoint.bootstrap import companion_spectral_radius
from sncoint.streams import _cores, substream

WORKERS = min(8, _cores())


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_fit(rng, T=None, m=None):
    T = T or int(rng.integers(20, 60))
    m = m or int(rng.integers(1, 3))
    v = rng.standard_normal((T, m))
    x = np.cumsum(v, axis=0)
    u = rng.standard_normal(T) + 0.3 * v.sum(axis=1)
    sample = CointegrationSample(y=x @ np.ones(m) + u, x=x)
    return sample, im_ols(sample)


def test_criterion_01_critical_value_reproduction():
    cases = [
        (1, 1, Deterministics.NONE, {0.90: 36.63, 0.95: 56.58}),
        (2, 2, Deterministics.NONE, {0.95: 167.23}),
        (1, 1, Deterministics.INTERCEPT, {0.90: 64.13}),
    ]
    details = []
    ok = True
    for m, s, det, targets in cases:
        table = simulate_critical_values(m, s, det, n_grid=10_000, reps=10_000, seed=0)
        for prob, target in targets.items():
            got = table.quantiles[prob]
            rel = abs(got - target) / target
            ok &= rel <= 0.03
            details.append(f"(m={m},s={s},{det.value}) {prob:.0%}: {got:.2f} vs {target} ({rel:.1%})")
    _report("criterion 1 critical-value reproduction", ok, "; ".join(details))


def test_criterion_02_differenced_residual_decomposition():
    rng = substream(2002, 0)
    worst = 0.0
    for _ in range(500):
        T = int(rng.integers(3, 201))

        class Stub:
            resid = rng.standard_normal(T)
            nobs = T

        diffs = np.diff(Stub.resid)
        n = diffs.shape[0]
        partial = np.cumsum(diffs)
        lhs = diff_residual_lrv(Stub())
        rhs = (float(partial @ partial) + float((partial - partial[-1]) @ (partial - partial[-1]))) / n**2
        scale = max(abs(rhs), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    # two-term case, symbolically: (a1^2 + a2^2 + a1 a2) / 2
    a1, a2 = 1.3, -0.4

    class Two:
        resid = np.array([0.0, a1, a1 + a2])
        nobs = 3

    symbolic = (a1**2 + a2**2 + a1 * a2) / 2.0
    exact_two = abs(diff_residual_lrv(Two()) - symbolic) <= 1e-12 * symbolic
    _report(
        "criterion 2 differenced-residual decomposition",
        worst <= 1e-10 and exact_two,
        f"max relative gap {worst:.2e} over 500 draws; 2-term case exact: {exact_two}",
    )


def test_criterion_03_kappa_factoring():
    rng = substream(2003, 0)
    worst = 0.0
    for _ in range(200):
        _, fit = _random_fit(rng)
        m = fit.n_reg
        restriction = RestrictionSpec(R=np.eye(m), value=rng.standard_normal(m))
        base = wald_statistic(fit, restriction, 1.0)
        for kappa in (0.1, 1.0, 7.3):
            rel = abs(wald_statistic(fit, restriction, kappa) * kappa - base) / abs(base)
            worst = max(worst, rel)
    _report("criterion 3 scalar-kappa factoring", worst <= 1e-12, f"max relative deviation {worst:.2e}")


def test_criterion_04_restriction_exactness():
    rng = substream(2004, 0)
    worst = 0.0
    for _ in range(500):
        _, fit = _random_fit(rng)
        m = fit.n_reg
        s = int(rng.integers(1, m + 1))
        restriction = RestrictionSpec(R=rng.standard_normal((s, m)), value=rng.standard_normal(s))
        beta_r = restricted_im_ols(fit, restriction)
        worst = max(worst, float(np.abs(restriction.R @ beta_r - restriction.value).max()))
    _report("criterion 4 restriction exactness", worst <= 1e-10, f"max constraint violation {worst:.2e}")


def test_criterion_05_empirical_size_asymptotic():
    battery = standard_battery(["SN-asymptotic"])
    easy = size_experiment(DgpConfig(T=500), battery, reps=1000, seed=42, workers=WORKERS)
    hard = size_experiment(DgpConfig(T=75, rho1=0.9, rho2=0.9), battery, reps=1000, seed=42, workers=WORKERS)
    r_easy = easy.rates["SN-asymptotic"]
    r_hard = hard.rates["SN-asymptotic"]
    ok = abs(r_easy - 0.04) <= 0.02 and abs(r_hard - 0.36) <= 0.05
    _report(
        "criterion 5 empirical size, asymptotic test",
        ok,
        f"T=500 low dependence: {r_easy:.3f} (0.04 +/- 0.02); T=75 strong dependence: {r_hard:.3f} (0.36 +/- 0.05)",
    )


def test_criterion_06_empirical_size_bootstrap():
    boot = BootstrapConfig(n_boot=399, alpha=0.05)
    battery = standard_battery(["SN-bootstrap"], boot=boot)
    result = size_experiment(
        DgpConfig(T=100, rho1=0.6, rho2=0.6), battery, reps=300, seed=5, workers=WORKERS
    )
    rate = result.rates["SN-bootstrap"]
    _report(
        "criterion 6 empirical size, bootstrap test",
        abs(rate - 0.07) <= 0.04,
        f"T=100, B=399, 300 reps: {rate:.3f} (0.07 +/- 0.04)",
    )


def test_criterion_07_bootstrap_law_consistency():
    # single-regressor null data with mild dependence
    rng = substream(123, 0)
    n = 1100
    eps = rng.standard_normal((n, 2))
    forcing = eps[:, 0] + 0.3 * np.concatenate([[0.0], eps[:-1, 1]])
    u = lfilter([1.0], [1.0, -0.3], forcing)
    nu = eps[:, 1]
    v = nu + 0.5 * np.concatenate([[0.0], nu[:-1]])
    u, v = u[100:], v[100:]
    x = np.cumsum(v)
    sample = CointegrationSample(y=x + u, x=x[:, None])
    restriction = RestrictionSpec(R=np.eye(1), value=np.array([1.0]))
    out = bootstrap_test(sample, restriction, BootstrapConfig(n_boot=1499, alpha=0.05, seed=9, workers=WORKERS))
    rel = abs(out.critical_value - 56.58) / 56.58
    _report(
        "criterion 7 bootstrap-law consistency",
        rel <= 0.15,
        f"bootstrap 95th percentile {out.critical_value:.2f} vs 56.58 ({rel:.1%})",
    )


def test_criterion_08_local_power():
    grid = np.array([0.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.6, 11.0, 12.0, 13.0])
    curve = local_power(grid, reps=20_000, seed=0, n_grid=10_000)
    gap = curve.power_trad - curve.power_sn
    peak = float(gap.max())
    peak_at = float(grid[int(gap.argmax())])
    ok = (
        abs(curve.power_sn[0] - 0.05) <= 0.01
        and abs(curve.power_trad[0] - 0.05) <= 0.01
        and abs(peak - 0.06) <= 0.02
        and 8.0 <= peak_at <= 13.0
    )
    _report(
        "criterion 8 local power",
        ok,
        f"power at zero: sn {curve.power_sn[0]:.3f}, trad {curve.power_trad[0]:.3f}; "
        f"max gap {peak:.3f} at c={peak_at}",
    )


def _exact_sandwich(Z: np.ndarray) -> np.ndarray:
    """Literal transcription of the sandwich formula in 50-digit arithmetic."""
    mp.mp.dps = 50
    T, k = Z.shape
    Zm = [[mp.mpf(float(Z[t, j])) for j in range(k)] for t in range(T)]
    running = [mp.mpf(0)] * k
    rows = []
    for t in range(T):
        running = [running[j] + Zm[t][j] for j in range(k)]
        rows.append(list(running))
    total = rows[-1]
    A = mp.matrix(k, k)
    B = mp.matrix(k, k)
    for t in range(T):
        prev = rows[t - 1] if t > 0 else [mp.mpf(0)] * k
        c = [total[j] - prev[j] for j in range(k)]
        for a in range(k):
            for b in range(k):
                A[a, b] += Zm[t][a] * Zm[t][b]
                B[a, b] += c[a] * c[b]
    Ai = A**-1
    V = Ai * B * Ai
    return np.array([[float(V[a, b]) for b in range(k)] for a in range(k)])


def test_criterion_09_brute_force_oracles():
    rng = substream(2009, 0)
    worst = {"lrv": 0.0, "one_sided": 0.0, "normalizer": 0.0, "sandwich": 0.0}
    for i in range(100):
        T = int(rng.integers(8, 31))
        k = int(rng.integers(1, 3))
        w = rng.standard_normal((T, k))
        bw = float(rng.uniform(1.5, T))
        kind = "bartlett" if rng.uniform() < 0.5 else "qs"
        spec = KernelSpec(kind, bw)

        full = np.zeros((k, k))
        for a in range(T):
            for b in range(T):
                full += kernel_weight(kind, abs(a - b) / bw) * np.outer(w[a], w[b])
        full /= T
        got = lrv_matrix(w, spec)
        worst["lrv"] = max(worst["lrv"], np.abs(got - full).max() / max(np.abs(full).max(), 1e-12))

        half = np.zeros((k, k))
        for h in range(T):
            weight = kernel_weight(kind, h / bw)
            for t in range(T - h):
                half += weight * np.outer(w[t], w[t + h]) / T
        got = one_sided_lrv(w, spec)
        worst["one_sided"] = max(worst["one_sided"], np.abs(got - half).max() / max(np.abs(half).max(), 1e-12))

        _, fit = _random_fit(rng, T=int(rng.integers(15, 31)), m=1)
        resid = fit.resid
        total = 0.0
        for t in range(1, resid.shape[0]):
            inner = 0.0
            for s in range(1, t + 1):
                inner += resid[s] - resid[s - 1]
            total += inner**2
        naive_eta = total / resid.shape[0] ** 2
        worst["normalizer"] = max(
            worst["normalizer"], abs(self_normalizer(fit) - naive_eta) / max(naive_eta, 1e-12)
        )

        if i < 25:  # exact-arithmetic transcriptions are slow
            exact = _exact_sandwich(fit.regressors)
            worst["sandwich"] = max(
                worst["sandwich"], np.abs(fit.scaled_cov - exact).max() / np.abs(exact).max()
            )
    ok = all(v <= 1e-12 for v in worst.values())
    _report(
        "criterion 9 brute-force oracle equivalence",
        ok,
        "; ".join(f"{name} {value:.2e}" for name, value in worst.items()),
    )


def test_criterion_10_yule_walker_stability():
    worst = 0.0
    for i in range(1000):
        rng = substream(2010, i)
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, 5))
        T = int(rng.integers(60, 200))
        if i % 2 == 0:
            w = rng.standard_normal((T, k))
        else:
            # near-unit-root components
            eps = rng.standard_normal((T + 100, k))
            w = np.empty((T + 100, k))
            w[0] = eps[0]
            for t in range(1, T + 100):
                w[t] = 0.95 * w[t - 1] + eps[t]
            w = w[-T:]
        model = yule_walker(w, q)
        worst = max(worst, companion_spectral_radius(model.coefs))
    _report("criterion 10 moment-equation stability", worst < 1.0, f"largest spectral radius {worst:.6f}")


def test_criterion_11_determinism_across_workers(chunks_of_8):
    config = DgpConfig(T=75, rho1=0.3, rho2=0.3)
    sample_rng = substream(77, 0)
    from sncoint import generate_dgp

    sample = generate_dgp(config, sample_rng)
    restriction = RestrictionSpec(R=np.eye(2), value=np.array([1.0, 1.0]))

    boot_outcomes = []
    for workers in (1, 4, 8):
        cfg = BootstrapConfig(n_boot=79, alpha=0.05, seed=3, workers=workers)
        out = bootstrap_test(sample, restriction, cfg)
        boot_outcomes.append((out.statistic, out.critical_value, out.p_value, out.reject))

    battery = standard_battery(
        ["SN-asymptotic", "SN-bootstrap"], boot=BootstrapConfig(n_boot=19, alpha=0.05)
    )
    size_runs = [size_experiment(config, battery, reps=24, seed=7, workers=w) for w in (1, 4, 8)]
    size_rates = [run.rates for run in size_runs]
    # chunks of 8 make the 24 replications 3 tasks, so workers 4 and 8 run them on a pool
    processes = [run.meta["processes"] for run in size_runs]
    assert processes == [1] + [min(3, _cores())] * 2, processes

    boot_ok = boot_outcomes[0] == boot_outcomes[1] == boot_outcomes[2]
    size_ok = size_rates[0] == size_rates[1] == size_rates[2]
    _report(
        "criterion 11 determinism across worker counts",
        boot_ok and size_ok,
        f"bootstrap outcomes identical: {boot_ok}; experiment rates identical: {size_ok}",
    )

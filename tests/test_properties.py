"""Property tests: invariances of the self-normalized statistic (and of
the kernel Wald statistics under a change of deterministic basis), the
exactness of the restricted projection and the range of bootstrap
p-values.

Samples come from a seeded cointegrated DGP (AR(1) errors, endogenous
regressors); hypothesis draws the seed, the shape and the transformation.
Tolerances are relative. Each invariance held to 5e-12 or better over 300
seeded cases with T < 200; the bound 1e-9 leaves a wide margin for
rounding. The restricted projection met its restriction to 1.5e-16 of
the rounding scale |R| |beta| + |value| over 300 seeded cases; its bound
is 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncoint import (
    BARTLETT,
    BootstrapConfig,
    CointegrationSample,
    Deterministics,
    KernelSpec,
    RestrictionSpec,
    bootstrap_statistic,
    bootstrap_test,
    build_deterministics,
    im_ols,
    restricted_im_ols,
)
from sncoint import estimators, timeseries
from sncoint.estimators import FittedSample
from sncoint.selfnorm import traditional_statistic
from sncoint.streams import substream

REL = 1e-9


@st.composite
def cases(draw, T_range=(40, 150)):
    """(sample, restriction, rng) with m regressors and s <= m restrictions,
    all drawn from one seed."""
    seed = draw(st.integers(0, 2**16))
    T = draw(st.integers(*T_range))
    m = draw(st.integers(1, 3))
    s = draw(st.integers(1, m))
    det = draw(st.sampled_from(list(Deterministics)))
    rng = substream(seed, 0)
    v = rng.standard_normal((T, m))
    x = np.cumsum(v, axis=0)
    e = rng.standard_normal(T)
    u = np.empty(T)
    u[0] = e[0]
    for t in range(1, T):
        u[t] = 0.5 * u[t - 1] + e[t]
    sample = CointegrationSample(y=x @ np.ones(m) + u + 0.5 * v.sum(axis=1), x=x, det=det)
    restriction = RestrictionSpec(R=rng.standard_normal((s, m)), value=rng.standard_normal(s))
    return sample, restriction, rng


@settings(max_examples=40)
@given(cases(), st.floats(1e-3, 1e3))
def test_sn_invariant_to_rescaling_y_and_value(case, c):
    sample, restriction, _ = case
    scaled = CointegrationSample(y=c * sample.y, x=sample.x, det=sample.det)
    restriction_c = RestrictionSpec(R=restriction.R, value=c * restriction.value)
    expected = bootstrap_statistic(sample, restriction, "sn")
    assert bootstrap_statistic(scaled, restriction_c, "sn") == pytest.approx(expected, rel=REL)


@settings(max_examples=40)
@given(cases(), st.randoms(use_true_random=False))
def test_sn_invariant_to_permuting_regressors(case, random):
    sample, restriction, _ = case
    perm = list(range(sample.n_regressors))
    random.shuffle(perm)
    permuted = CointegrationSample(y=sample.y, x=sample.x[:, perm], det=sample.det)
    restriction_p = RestrictionSpec(R=restriction.R[:, perm], value=restriction.value)
    expected = bootstrap_statistic(sample, restriction, "sn")
    assert bootstrap_statistic(permuted, restriction_p, "sn") == pytest.approx(expected, rel=REL)


@settings(max_examples=40)
@given(cases())
def test_sn_invariant_to_spanned_polynomial_trend(case):
    # A polynomial in t / T with coefficients of order 10, so that it is
    # of the size of y. In raw powers of t the same check loses digits in
    # proportion to the polynomial's size (2.6e-7 relative for a cubic
    # with coefficients of order 10 at T < 200), through rounding alone.
    sample, restriction, rng = case
    p = sample.det.n_columns
    coefs = rng.uniform(-10.0, 10.0, p) / float(sample.nobs) ** np.arange(p)
    shifted = CointegrationSample(
        y=sample.y + build_deterministics(sample.det, sample.nobs) @ coefs, x=sample.x, det=sample.det
    )
    expected = bootstrap_statistic(sample, restriction, "sn")
    assert bootstrap_statistic(shifted, restriction, "sn") == pytest.approx(expected, rel=REL)


def every_statistic(sample, restriction):
    """SN, tau(1) and the Wald statistics on IM-OLS, FM-OLS and D-OLS."""
    fitted, kernel = FittedSample(sample), KernelSpec(BARTLETT, "andrews")
    return [
        bootstrap_statistic(fitted, restriction, "sn"),
        bootstrap_statistic(fitted, restriction, "tau1"),
        bootstrap_statistic(fitted, restriction, "wald-lrv", kernel),
        traditional_statistic("FM", fitted, restriction, kernel),
        traditional_statistic("D", fitted, restriction, kernel),
    ]


@settings(max_examples=40)
@given(cases(T_range=(40, 400)))
def test_statistics_invariant_to_reparametrized_deterministics(case):
    # d_t' A for an upper-triangular A spans the same deterministic space,
    # so every estimate of beta and every statistic stays as it is.
    sample, restriction, rng = case
    p = sample.det.n_columns
    A = np.triu(rng.uniform(-1.0, 1.0, (p, p)), 1) + np.diag(rng.uniform(0.5, 2.0, p))
    expected, original = every_statistic(sample, restriction), sample.deterministics()
    with pytest.MonkeyPatch.context() as mp:
        for module in (timeseries, estimators):
            mp.setattr(module, "build_deterministics", lambda det, T: build_deterministics(det, T) @ A)
        reparametrized = CointegrationSample(y=sample.y, x=sample.x, det=sample.det)
        assert not p or not np.array_equal(reparametrized.deterministics(), original)
        assert every_statistic(reparametrized, restriction) == pytest.approx(expected, rel=REL)


@settings(max_examples=40)
@given(cases())
def test_restricted_projection_satisfies_restriction(case):
    sample, restriction, _ = case
    beta = restricted_im_ols(im_ols(sample), restriction)
    R, value = restriction.R, restriction.value
    scale = np.abs(R) @ np.abs(beta) + np.abs(value)
    assert np.all(np.abs(R @ beta - value) <= 1e-12 * scale)


@settings(max_examples=15)
@given(cases(T_range=(40, 80)), st.sampled_from(["sn", "tau1", "wald-lrv"]), st.integers(0, 2**16))
def test_bootstrap_p_value_in_unit_interval(case, statistic, seed):
    sample, restriction, _ = case
    config = BootstrapConfig(n_boot=19, alpha=0.05, seed=seed)
    outcome = bootstrap_test(sample, restriction, config, statistic, KernelSpec(BARTLETT, "andrews"))
    assert 0.0 < outcome.p_value <= 1.0

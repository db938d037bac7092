"""The histogram consumers against per-row references, and their memory bound."""

import math
import tracemalloc

import numpy as np
import pytest

from citefit.comparison import INDISTINGUISHABLE, VUONG_THRESHOLD_05, vuong_test
from citefit.dataset import CountDataset, truncate
from citefit.fitting import (
    fit_hooked, fit_lognormal, fit_power_law, ks_distance, neg_log_likelihood,
)
from citefit.kernels import DiscreteDistribution, HookedPowerLawParams, PowerLawParams


@pytest.fixture(scope="module")
def shuffled():
    """Shuffled draws with many duplicates, as a dataset and as its rows."""
    rng = np.random.default_rng(77)
    rows = DiscreteDistribution(HookedPowerLawParams(2.6, 6.0), 1).sample(6000, 31)
    rows = rng.permutation(rows)
    return CountDataset(rows), rows


def per_row_nll(dist, rows):
    return float(-np.sum(dist.log_pmf(rows)))


def per_row_ks(dist, rows):
    ordered = np.sort(rows)
    distinct = np.unique(ordered)
    ecdf = np.searchsorted(ordered, distinct, side="right") / len(rows)
    return float(np.abs(ecdf - (1.0 - dist.ccdf(distinct + 1))).max())


def per_row_vuong(fit_a, fit_b, rows, k_a, k_b):
    pointwise = fit_a.dist.log_pmf(rows) - fit_b.dist.log_pmf(rows)
    n = len(rows)
    correction = 0.5 * (k_a - k_b) * math.log(n)
    return (pointwise.sum() - correction) / (math.sqrt(n) * np.std(pointwise, ddof=1))


@pytest.mark.parametrize("x_min", [1, 3, 12])
def test_nll_and_ks_match_per_row(shuffled, x_min):
    ds, rows = shuffled
    view = truncate(ds, x_min)
    tail = rows[rows >= x_min]
    for params in (PowerLawParams(2.1), HookedPowerLawParams(2.7, 5.5)):
        dist = DiscreteDistribution(params, x_min)
        nll = neg_log_likelihood(params, view)
        assert nll == pytest.approx(per_row_nll(dist, tail), rel=1e-12)
        assert ks_distance(dist, view) == pytest.approx(per_row_ks(dist, tail), rel=1e-12)


@pytest.mark.parametrize("x_min", [1, 4])
def test_vuong_matches_per_row(shuffled, x_min):
    ds, rows = shuffled
    view = truncate(ds, x_min)
    tail = rows[rows >= x_min]
    fits = {"pl": (fit_power_law(view), 1), "ln": (fit_lognormal(view), 2),
            "hooked": (fit_hooked(view), 2)}
    for first, second in (("pl", "ln"), ("ln", "hooked"), ("pl", "hooked")):
        (fit_a, k_a), (fit_b, k_b) = fits[first], fits[second]
        outcome = vuong_test(fit_a, fit_b, view)
        z = per_row_vuong(fit_a, fit_b, tail, k_a, k_b)
        assert outcome.statistic == pytest.approx(z, rel=1e-9)
        reference_better = (
            INDISTINGUISHABLE if abs(z) < VUONG_THRESHOLD_05 else ("first" if z > 0 else "second")
        )
        assert outcome.better == reference_better


def test_vuong_identical_fits_degenerate(shuffled):
    view = truncate(shuffled[0], 1)
    fit = fit_power_law(view)
    outcome = vuong_test(fit, fit, view)
    assert outcome.degenerate and outcome.statistic == 0.0


@pytest.mark.parametrize("x_min", [1, 2, 7, 40])
def test_retained_keeps_multiset_and_order(shuffled, x_min):
    ds, rows = shuffled
    view = truncate(ds, x_min)
    # the view holds the retained multiset; file order is not kept
    expected = np.sort(rows[rows >= x_min])
    assert np.array_equal(np.repeat(view.values, view.multiplicities), expected)
    assert view.n_tail == len(expected)
    assert view.values.tolist() == sorted(set(expected.tolist()))


def test_truncation_and_nll_in_bounded_memory():
    rng = np.random.default_rng(5)
    ds = CountDataset(np.ceil(rng.lognormal(2.2, 1.0, 1_000_000)).astype(np.int64))
    tracemalloc.start()
    try:
        views = [truncate(ds, x_min) for x_min in (1, 2, 5, 20, 100)]
        nll = neg_log_likelihood(PowerLawParams(2.0), views[2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(nll)
    assert views[0].n_tail == 1_000_000
    assert peak < 1_000_000

import numpy as np
import pytest
from scipy.stats import spearmanr

from citefit.dataset import CountDataset, truncate
from citefit.errors import DegenerateDataError, ScanError, UsageError
from citefit.fitting import (
    HOOKED_GRAD_TOL,
    fit_hooked,
    fit_lognormal,
    fit_power_law,
    ks_distance,
    neg_log_likelihood,
    scan_x_min,
)
from citefit.kernels import (
    ALPHA_MAX,
    ALPHA_MIN,
    B_MAX,
    B_MIN,
    NORMALIZATION_TERMS,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
)
from citefit.simulation import ll_contour

from conftest import sample_view


def central_diff_gradient(build_params, theta, x_min, view, rel=1e-5):
    grad = []
    for i in range(len(theta)):
        h = rel * max(1.0, abs(theta[i]))
        up, down = list(theta), list(theta)
        up[i] += h
        down[i] -= h
        grad.append(
            (
                neg_log_likelihood(build_params(up), x_min, view)
                - neg_log_likelihood(build_params(down), x_min, view)
            )
            / (2 * h)
        )
    return np.asarray(grad)


def projected_hooked_gradient(params, view):
    """Norm of the projected analytic gradient of the hooked objective.

    Written out from the window sums: d/d alpha is
    ``sum log(B + v) - n E_p[log(B + x)]`` and d/dB is
    ``alpha (sum 1/(B + v) - n E_p[1/(B + x)])``.
    """
    alpha, b = params.alpha, params.B
    data = np.asarray(view.retained, dtype=float)
    window = np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float)
    weights = (b + window) ** -alpha
    p = weights / weights.sum()
    n = len(data)
    grad = np.array([
        np.log(b + data).sum() - n * (p @ np.log(b + window)),
        alpha * ((1.0 / (b + data)).sum() - n * (p @ (1.0 / (b + window)))),
    ])
    theta = np.array([alpha, b])
    stepped = np.clip(theta - grad, [ALPHA_MIN, B_MIN], [ALPHA_MAX, B_MAX])
    return float(np.linalg.norm(theta - stepped))


class TestNegLogLikelihood:
    def test_single_point_power_law(self):
        view = truncate(CountDataset((1,)), 1)
        value = neg_log_likelihood(PowerLawParams(2.0), 1, view)
        assert value == pytest.approx(0.4977, abs=2e-3)

    def test_hooked_b0_matches_power_law(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=5)
        a = neg_log_likelihood(PowerLawParams(2.5), 1, view)
        b = neg_log_likelihood(HookedPowerLawParams(2.5, 0.0), 1, view)
        assert abs(a - b) < 1e-10

    def test_rejects_data_below_x_min(self):
        view = truncate(CountDataset((1, 5, 9)), 1)
        with pytest.raises(UsageError):
            neg_log_likelihood(PowerLawParams(2.0), 3, view)


class TestFitPowerLaw:
    def test_recovers_alpha_within_replicate_interval(self):
        # the interval oracle: 5th-95th quantiles of fits over fresh replicates
        fits = [
            fit_power_law(sample_view(PowerLawParams(2.5), 4000, seed=s)).params.alpha
            for s in range(30)
        ]
        lo, hi = np.percentile(fits, [5, 95])
        probe = fit_power_law(sample_view(PowerLawParams(2.5), 4000, seed=777))
        assert probe.converged
        assert lo <= probe.params.alpha <= hi
        # order-of-magnitude cross-check on the interval itself
        assert 0.01 < hi - lo < 0.5

    def test_determinism(self):
        view = sample_view(PowerLawParams(3.0), 500, seed=8)
        a, b = fit_power_law(view), fit_power_law(view)
        assert a.params == b.params
        assert a.neg_log_likelihood == b.neg_log_likelihood

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law(truncate(CountDataset((4, 4, 4, 4)), 1))
        with pytest.raises(DegenerateDataError):
            fit_power_law(truncate(CountDataset((7,)), 1))

    def test_local_optimality(self):
        view = sample_view(PowerLawParams(2.2), 1000, seed=3)
        fit = fit_power_law(view)
        for delta in (-0.1, -0.01, 0.01, 0.1):
            nearby = PowerLawParams(fit.params.alpha + delta)
            assert fit.neg_log_likelihood <= neg_log_likelihood(nearby, 1, view)


class TestFitLognormal:
    def test_recovers_parameters_within_replicate_interval(self):
        fits = [
            fit_lognormal(sample_view(DiscreteLognormalParams(2.0, 1.0), 4000, seed=s))
            for s in range(30)
        ]
        mus = [f.params.mu for f in fits]
        sigmas = [f.params.sigma for f in fits]
        probe = fit_lognormal(sample_view(DiscreteLognormalParams(2.0, 1.0), 4000, seed=555))
        assert probe.converged
        assert np.percentile(mus, 5) <= probe.params.mu <= np.percentile(mus, 95)
        assert np.percentile(sigmas, 5) <= probe.params.sigma <= np.percentile(sigmas, 95)

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_beats_generating_parameters(self, seed):
        truth = DiscreteLognormalParams(2.0, 1.0)
        view = sample_view(truth, 1000, seed=seed)
        fit = fit_lognormal(view)
        assert fit.neg_log_likelihood <= neg_log_likelihood(truth, 1, view) + 1e-6

    def test_gradient_small_at_optimum(self):
        view = sample_view(DiscreteLognormalParams(2.3, 1.2), 1000, seed=41)
        fit = fit_lognormal(view)
        grad = central_diff_gradient(
            lambda t: DiscreteLognormalParams(*t),
            (fit.params.mu, fit.params.sigma),
            1,
            view,
        )
        assert np.linalg.norm(grad) < 1e-4 * max(1.0, abs(fit.neg_log_likelihood))

    def test_reported_value_matches_recomputation(self):
        view = sample_view(DiscreteLognormalParams(1.5, 0.8), 500, seed=6)
        fit = fit_lognormal(view)
        assert fit.neg_log_likelihood == pytest.approx(
            neg_log_likelihood(fit.params, 1, view), abs=1e-8
        )

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal(truncate(CountDataset((5, 5, 5, 5, 5)), 1))
        with pytest.raises(DegenerateDataError):
            fit_lognormal(truncate(CountDataset((1, 2)), 1))


class TestFitHooked:
    def test_far_from_truth_is_fine_if_likelihood_better(self):
        # small samples may be best explained far up the alpha/B ridge
        truth = HookedPowerLawParams(3.0, 2.0)
        view = sample_view(truth, 500, seed=12)
        fit = fit_hooked(view)
        assert fit.neg_log_likelihood <= neg_log_likelihood(truth, 1, view) + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_nesting_inequality(self, seed):
        generators = [
            PowerLawParams(2.0),
            HookedPowerLawParams(3.0, 10.0),
            DiscreteLognormalParams(2.0, 1.0),
        ]
        view = sample_view(generators[seed % 3], 1000, seed=seed)
        pl = fit_power_law(view)
        hooked = fit_hooked(view)
        assert hooked.neg_log_likelihood <= pl.neg_log_likelihood + 1e-6

    def test_descent_beats_every_start(self):
        # a grid over the ridge region, the points (1.5 | 3, 0.5 | 20) included
        view = sample_view(HookedPowerLawParams(2.5, 5.0), 800, seed=21)
        fit = fit_hooked(view)
        grid = ll_contour(view, "hooked", np.linspace(1.5, 3.5, 9), np.linspace(0.5, 20.0, 14))
        assert np.all(fit.neg_log_likelihood <= np.asarray(grid.cells) + 1e-9)

    def test_gradient_small_at_optimum(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 1000, seed=33)
        fit = fit_hooked(view)
        grad = central_diff_gradient(
            lambda t: HookedPowerLawParams(*t),
            (fit.params.alpha, fit.params.B),
            1,
            view,
        )
        assert np.linalg.norm(grad) < 1e-4 * max(1.0, abs(fit.neg_log_likelihood))

    def test_reported_value_matches_recomputation(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=2)
        fit = fit_hooked(view)
        assert fit.neg_log_likelihood == pytest.approx(
            neg_log_likelihood(fit.params, 1, view), abs=1e-8
        )

    def test_converged_implies_exit_tolerance(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=50)
        hooked = fit_hooked(view)
        assert hooked.converged and hooked.gradient_norm_at_exit < 1e-6
        lognormal = fit_lognormal(view)
        assert lognormal.converged and lognormal.gradient_norm_at_exit < 1e-7

    @pytest.mark.parametrize("seed", (0, 33, 50))
    def test_converged_checked_against_exact_gradient(self, seed):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed)
        fit = fit_hooked(view)
        exact = projected_hooked_gradient(fit.params, view)
        assert abs(fit.gradient_norm_at_exit - exact) < 1e-9
        assert exact < HOOKED_GRAD_TOL

    def test_large_sample_converges(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 200_000, seed=4)
        fit = fit_hooked(view)
        assert fit.converged
        assert projected_hooked_gradient(fit.params, view) < HOOKED_GRAD_TOL

    def test_compensation_ridge_rank_correlation(self):
        # fitted alpha and B move together across replicates
        pairs = []
        for seed in range(30):
            view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=100 + seed)
            fit = fit_hooked(view)
            pairs.append((fit.params.alpha, fit.params.B))
        rho = spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic
        assert rho > 0.8

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_hooked(truncate(CountDataset((3, 3, 3, 3)), 1))


class TestScanXmin:
    def test_singleton_range(self):
        view_data = sample_view(PowerLawParams(2.5), 300, seed=9).base
        result = scan_x_min(view_data, "pl", [3])
        assert result.best_x_min == 3
        assert len(result.per_xmin) == 1

    def test_pure_power_law_prefers_no_truncation(self):
        hits = 0
        for seed in range(15):
            data = sample_view(PowerLawParams(2.5), 1000, seed=400 + seed).base
            result = scan_x_min(data, "pl", range(1, 7))
            hits += result.best_x_min == 1
        assert hits > 15 / 2

    def test_spliced_mixture_finds_the_splice(self):
        hits = 0
        for seed in range(10):
            data = spliced_dataset(2000, splice=50, seed=seed)
            result = scan_x_min(data, "pl", range(1, 101))
            hits += 30 <= result.best_x_min <= 80
        assert hits > 10 / 2

    def test_scan_error_when_all_tails_too_small(self):
        data = CountDataset((1, 1, 2, 3))
        with pytest.raises(ScanError):
            scan_x_min(data, "pl", [2, 3])

    def test_best_entry_minimizes_score(self):
        data = sample_view(HookedPowerLawParams(3.0, 5.0), 500, seed=77).base
        result = scan_x_min(data, "pl", range(1, 6))
        best = result.best
        assert best.selection_score == min(e.selection_score for e in result.per_xmin)

    def test_ks_distance_at_largest_int64_count(self):
        # the ccdf is constant past the window, so the count's size beyond it cannot matter
        dist = DiscreteDistribution(HookedPowerLawParams(2.5, 3.0), 2)
        rest = (2, 2, 3, 5, 8, 40)
        huge = truncate(CountDataset(rest + (2**63 - 1,)), 2)
        edge = truncate(CountDataset(rest + (2 + NORMALIZATION_TERMS,)), 2)
        assert ks_distance(dist, huge) == ks_distance(dist, edge)

    def test_ks_distance_zero_for_perfect_cdf_match(self):
        # empirical CDF exactly on the model CDF has distance ~0 at those points
        dist = DiscreteDistribution(PowerLawParams(2.0), 1)
        view = sample_view(PowerLawParams(2.0), 4000, seed=1)
        d = ks_distance(dist, view)
        assert 0 <= d < 0.05


def spliced_dataset(n, splice, seed):
    """Lognormal body below the splice point, power-law tail above it."""
    rng = np.random.default_rng(seed)
    n_tail = int(0.3 * n)
    body_gen = DiscreteDistribution(DiscreteLognormalParams(2.0, 1.0), 1)
    tail_gen = DiscreteDistribution(PowerLawParams(2.5), splice)
    body = []
    batch = 0
    while len(body) < n - n_tail:
        draws = body_gen.sample(n, seed=int(rng.integers(2**63)))
        body.extend(int(v) for v in draws if v < splice)
        batch += 1
        assert batch < 50
    body = body[: n - n_tail]
    tail = [int(v) for v in tail_gen.sample(n_tail, seed=int(rng.integers(2**63)))]
    return CountDataset(tuple(body + tail))

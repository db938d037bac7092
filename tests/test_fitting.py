import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import spearmanr

from citefit.dataset import CountDataset, truncate
from citefit.errors import DegenerateDataError, ScanError, UsageError
from citefit.fitting import (
    HOOKED_GRAD_TOL,
    _lognormal_point,
    _LognormalStats,
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
    MU_MAX,
    MU_MIN,
    NORMALIZATION_TERMS,
    SIGMA_MAX,
    SIGMA_MIN,
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


def reference_fit(view, kind):
    """Test-side MLE: scipy's L-BFGS-B on the window NLL, from the moments of ln x.

    Returns the parameters, their bounds and the NLL. The NLL and its
    gradient are written out here from the window sums, independently of
    citefit's solvers.
    """
    counts = view.multiplicities.astype(float)
    n = counts.sum()
    log_values = np.log(view.values.astype(float))
    log_window = np.log(np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float))
    mean = counts @ log_values / n
    if kind == "pl":
        bounds = [(ALPHA_MIN + 1e-9, ALPHA_MAX)]
        start = [1.0 + 1.0 / (mean - log_window[0])]

        def nll(theta):
            logw = -theta[0] * log_window
            p = np.exp(logw - logsumexp(logw))
            return (theta[0] * (counts @ log_values) + n * logsumexp(logw),
                    np.array([counts @ log_values - n * (p @ log_window)]))
    else:
        bounds = [(MU_MIN, MU_MAX), (SIGMA_MIN, SIGMA_MAX)]
        start = [mean, np.sqrt(counts @ (log_values - mean) ** 2 / n)]

        def nll(theta):
            mu, sigma = theta
            zw, zv = (log_window - mu) / sigma, (log_values - mu) / sigma
            logw = -log_window - np.log(sigma) - 0.5 * np.log(2 * np.pi) - 0.5 * zw * zw
            logv = -log_values - np.log(sigma) - 0.5 * np.log(2 * np.pi) - 0.5 * zv * zv
            p = np.exp(logw - logsumexp(logw))
            grad = np.array([n * (p @ zw) - counts @ zv,
                             n * (p @ (zw * zw - 1)) - counts @ (zv * zv - 1)]) / sigma
            return n * logsumexp(logw) - counts @ logv, grad

    res = minimize(nll, np.clip(start, *zip(*bounds)), jac=True, method="L-BFGS-B",
                   bounds=bounds, options={"maxiter": 10_000, "ftol": 0.0, "gtol": 1e-10})
    return res.x, bounds, float(res.fun)


class TestSolverPins:
    """Fits whose optimum lies on the box, checked against ``reference_fit``."""

    @staticmethod
    def check_against_reference(fit, view, kind, pinned):
        theta = [getattr(fit.params, f) for f in (("alpha",) if kind == "pl" else ("mu", "sigma"))]
        ref, bounds, ref_nll = reference_fit(view, kind)
        for i, (value, ref_value, (lo, hi)) in enumerate(zip(theta, ref, bounds)):
            at_bound = {b for b in (lo, hi) if value == b}
            ref_at_bound = {b for b in (lo, hi) if abs(ref_value - b) <= 1e-6 * max(1.0, abs(b))}
            assert at_bound == ref_at_bound == pinned[i]
        assert ref_nll >= fit.neg_log_likelihood - 1e-9 * abs(fit.neg_log_likelihood)

    def test_lognormal_pinned_at_mu_min(self):
        view = sample_view(PowerLawParams(1.5), 3000, seed=0)
        fit = fit_lognormal(view)
        assert fit.converged
        self.check_against_reference(fit, view, "ln", [{MU_MIN}, set()])

    def test_lognormal_pinned_at_sigma_max(self):
        view = sample_view(PowerLawParams(1.2), 3000, seed=0)
        fit = fit_lognormal(view)
        assert fit.converged
        self.check_against_reference(fit, view, "ln", [set(), {SIGMA_MAX}])

    def test_lognormal_pinned_at_vertex(self):
        # log-mean just below the vertex model's, log-spread far above it: at
        # (mu, sigma) = (-1000, 50) the gradient points out through both bounds
        view = truncate(CountDataset([1] * 4032 + [10_000] * 968), 1)
        fit = fit_lognormal(view)
        assert fit.converged
        self.check_against_reference(fit, view, "ln", [{MU_MIN}, {SIGMA_MAX}])

    def test_lognormal_pinned_where_the_window_collapses(self):
        # counts at exp(20), far past the window: the likelihood grows without
        # bound as sigma -> 0 at mu = 20, and on the way the window's weights
        # collapse onto its last integer, where the Hessian vanishes
        view = truncate(CountDataset([485_165_195] * 10 + [1, 2]), 1)
        fit = fit_lognormal(view)
        assert fit.converged
        self.check_against_reference(fit, view, "ln", [{MU_MAX}, {SIGMA_MIN}])

    def test_power_law_pinned_at_alpha_min(self):
        view = truncate(CountDataset(np.arange(1, NORMALIZATION_TERMS + 1)), 1)
        fit = fit_power_law(view)
        assert not fit.converged
        self.check_against_reference(fit, view, "pl", [{ALPHA_MIN + 1e-9}])

    def test_power_law_pinned_at_alpha_max(self):
        view = truncate(CountDataset([1000] * 99 + [1001]), 1000)
        fit = fit_power_law(view)
        assert not fit.converged
        self.check_against_reference(fit, view, "pl", [{ALPHA_MAX}])


class TestLognormalNewton:
    @pytest.mark.parametrize("mu, sigma", [(2.0, 1.0), (-1000.0, 50.0), (20.0, 1e-3)])
    def test_eta_derivatives_vs_central_differences(self, mu, sigma):
        """The lognormal solver's gradient and Hessian in the natural parameters.

        ``theta`` are the natural parameters of ``T = (u, u**2)``, ``u = ln x - mu``:
        the weight is ``exp(theta . T) / x`` and ``(mu, sigma)`` is
        ``theta = (0, -1/(2 sigma**2))``. The gradient is checked against
        central differences of the NLL written out here, the Hessian against
        central differences of the solver's gradient at nearby points, each
        centred at its own ``mu'`` and moved to ``u`` by
        ``(g0, g1) -> (g0, g1 + 2 (mu' - mu) g0)``.
        """
        view = truncate(CountDataset([1, 7, 10_000]), 1)
        stats = _LognormalStats(view)
        log_window, log_values = np.log(stats.window), np.log(stats.values)
        point = _lognormal_point(stats, log_window, log_values, mu, sigma)
        uw, uv = log_window - mu, log_values - mu

        def objective(theta):
            return (3 * logsumexp(theta[0] * uw + theta[1] * uw**2 - log_window)
                    - np.sum(theta[0] * uv + theta[1] * uv**2 - log_values))

        def gradient(theta):
            var = -0.5 / theta[1]
            moved = mu + theta[0] * var
            g = _lognormal_point(stats, log_window, log_values, moved, np.sqrt(var)).grad
            return np.array([g[0], g[1] + 2 * (moved - mu) * g[0]])

        theta = np.array([0.0, -0.5 / sigma**2])
        h = 1e-4 * np.array([1.0 / sigma, 0.5 / sigma**2])
        e = np.eye(2) * h
        eps = np.finfo(float).eps
        rounding = 100 * eps * max(abs(objective(theta + s * e[i]))
                                   for i in range(2) for s in (-1, 1))
        numeric = [(objective(theta + e[i]) - objective(theta - e[i])) / (2 * h[i])
                   for i in range(2)]
        assert np.allclose(point.grad, numeric, rtol=1e-7, atol=rounding / h.min())
        hessian = np.column_stack([(gradient(theta + e[j]) - gradient(theta - e[j])) / (2 * h[j])
                                   for j in range(2)])
        h00, h01, h11 = point.hessian
        grad_rounding = 100 * eps * 3 * max(np.abs(uw).max(), np.abs(uv).max()) ** 2 / h
        assert np.allclose([[h00, h01], [h01, h11]], hessian, rtol=1e-6, atol=grad_rounding.min())


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

    def test_narrow_sample_reaches_its_entropy(self):
        # ln x has almost no spread, so a start at its standard deviation would
        # put the window's whole mass on x = 1; the infimum of any model's NLL
        # is the sample's entropy, approached as sigma -> 0
        counts = np.array([10_000, 1])
        view = truncate(CountDataset([1] * 10_000 + [2]), 1)
        entropy = -float(counts @ np.log(counts / counts.sum()))
        fit = fit_lognormal(view)
        assert fit.converged
        assert entropy - 1e-9 <= fit.neg_log_likelihood <= entropy + 1e-9

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

    @pytest.mark.parametrize("x_min, rest", [(2, (2, 2, 3, 5, 8, 40)),
                                             (2**63 - 2, (2**63 - 2,) * 5)],
                             ids=["2", "2**63-2"])
    def test_ks_distance_at_largest_int64_count(self, x_min, rest):
        dist = DiscreteDistribution(HookedPowerLawParams(2.5, 3.0), x_min)
        huge = truncate(CountDataset(rest + (2**63 - 1,)), x_min)
        # the model CDF at v sums the pmf from x_min to v, or over the whole
        # window past its end; at the second x_min the window runs past int64
        ecdf = np.cumsum(huge.multiplicities) / huge.n_tail
        model = [float(dist.pmf(x_min + np.arange(min(v - x_min + 1, NORMALIZATION_TERMS))).sum())
                 for v in huge.values.tolist()]
        assert ks_distance(dist, huge) == pytest.approx(float(np.abs(ecdf - model).max()),
                                                        rel=1e-12, abs=0)
        if x_min + NORMALIZATION_TERMS < 2**63:
            # the CDF is constant past the window, so the count's size beyond it cannot matter
            edge = truncate(CountDataset(rest + (x_min + NORMALIZATION_TERMS,)), x_min)
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

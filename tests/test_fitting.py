import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import spearmanr

import tracemalloc

from citefit import fitting
from citefit.dataset import CountDataset, truncate
from citefit.errors import DegenerateDataError, ScanError
from citefit.fitting import (
    HOOKED_GRAD_TOL,
    LOGNORMAL_GRAD_TOL,
    LOGNORMAL_MAX_ITER,
    MIN_SCAN_TAIL,
    _ROOT_MAX_ITER,
    _ROOT_RTOL,
    _ROOT_XTOL,
    _GRID_B,
    _GRID_VIEWS,
    _alpha_at,
    _alpha_roots,
    _lognormal_point,
    _newton_roots,
    _offset,
    _offset_derivatives,
    _profile_grids,
    fit_hooked,
    fit_many,
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
    LognormalWindowSums,
    PowerLawParams,
    PowerLawWindowSums,
    normalization_window,
)
from citefit.simulation import ll_contour

from conftest import sample_view


def central_diff_gradient(build_params, theta, view, rel=1e-5):
    grad = []
    for i in range(len(theta)):
        h = rel * max(1.0, abs(theta[i]))
        up, down = list(theta), list(theta)
        up[i] += h
        down[i] -= h
        grad.append(
            (
                neg_log_likelihood(build_params(up), view)
                - neg_log_likelihood(build_params(down), view)
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
    values, counts = view.values.astype(float), view.multiplicities
    window = np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float)
    weights = (b + window) ** -alpha
    p = weights / weights.sum()
    n = view.n_tail
    grad = np.array([
        counts @ np.log(b + values) - n * (p @ np.log(b + window)),
        alpha * (counts @ (1.0 / (b + values)) - n * (p @ (1.0 / (b + window)))),
    ])
    theta = np.array([alpha, b])
    stepped = np.clip(theta - grad, [ALPHA_MIN, B_MIN], [ALPHA_MAX, B_MAX])
    return float(np.linalg.norm(theta - stepped))


class TestNegLogLikelihood:
    def test_single_point_power_law(self):
        view = truncate(CountDataset((1,)), 1)
        value = neg_log_likelihood(PowerLawParams(2.0), view)
        assert value == pytest.approx(0.4977, abs=2e-3)

    def test_hooked_b0_matches_power_law(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=5)
        a = neg_log_likelihood(PowerLawParams(2.5), view)
        b = neg_log_likelihood(HookedPowerLawParams(2.5, 0.0), view)
        assert abs(a - b) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(hooked=st.booleans(), alpha=st.floats(ALPHA_MIN, ALPHA_MAX, exclude_min=True),
           b=st.floats(B_MIN, B_MAX), x_min=st.integers(1, 2**62),
           steps=st.lists(st.integers(0, 3 * NORMALIZATION_TERMS), max_size=6))
    # at x_min = 1 and B near -1 the window's first weight is nearly all of it, and
    # np.log and math.log round log(B + 1) apart: the pmf there came out above one
    @example(hooked=True, alpha=16.257644506114882, b=-0.9981054119270519, x_min=1, steps=[])
    def test_power_law_families_never_negative(self, hooked, alpha, b, x_min, steps):
        # a pmf is at most one, so no NLL is negative; counts run past the window
        params = HookedPowerLawParams(alpha, b) if hooked else PowerLawParams(alpha)
        view = truncate(CountDataset([x_min] + [x_min + k for k in steps]), x_min)
        assert neg_log_likelihood(params, view) >= 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "past the window, log_pmf is the kernel over the window's normalizer, so the "
        "lognormal likelihood is unbounded there (ROADMAP item 2)"))
    def test_lognormal_never_negative_past_the_window(self):
        view = truncate(CountDataset([485_165_195] * 10 + [1, 2]), 1)
        assert neg_log_likelihood(DiscreteLognormalParams(20.0, 1e-6), view) >= 0.0


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
            assert fit.neg_log_likelihood <= neg_log_likelihood(nearby, view)

    @pytest.mark.parametrize("x_min", [1, 3])
    def test_takes_no_offset_derivative(self, monkeypatch, x_min):
        # one window-sum call per score evaluation, plus the returned
        # distribution's normaliser: nothing in B
        view = truncate(sample_view(PowerLawParams(2.5), 500, seed=6).base, x_min)
        calls = []
        window_sums = PowerLawWindowSums.__call__

        def counted(sums, alpha):
            calls.append(alpha)
            return window_sums(sums, alpha)

        monkeypatch.setattr(PowerLawWindowSums, "__call__", counted)
        fit = fit_power_law(view)
        assert len(calls) == fit.iterations + 1


class TestNewtonRoots:
    """The one Newton driver: a batch of roots is each root searched alone."""

    @pytest.mark.parametrize("bracketed", [False, True])
    def test_each_entry_as_alone(self, bracketed):
        roots = [(lambda x: (math.exp(x) - 5.0, math.exp(x)), -3.0),  # start below the box
                 (lambda x: (x**3 - 30.0, 3.0 * x * x), 19.0),
                 (lambda x: (x - 7.25, 1.0), 2.0)]
        if not bracketed:
            roots += [(lambda x: (x + 5.0, 1.0), 10.0),  # positive throughout: pinned at lo
                      (lambda x: (x - 100.0, 1.0), 3.0),  # negative throughout: pinned at hi
                      (lambda x: (-1.0, 1e10), 5.0)]  # steps of 1e-10: runs out of evaluations
        functions, starts = zip(*roots)
        rounds = []

        def evaluate(active, x):
            rounds.append(list(active))
            return [functions[i](xi) for i, xi in zip(active, x)]

        together = _newton_roots(evaluate, list(starts), 1.0, 20.0, bracketed)
        for fn, start, got in zip(functions, starts, together):
            alone = _newton_roots(lambda active, x: [fn(x[0])], [start], 1.0, 20.0, bracketed)
            assert got == alone[0]
        assert together[0][0] == pytest.approx(math.log(5.0), rel=1e-15)
        assert together[1][0] == pytest.approx(30.0 ** (1 / 3), rel=1e-15)
        assert together[2][0] == 7.25
        # one evaluation a round, of the entries still searching, each for as many
        # rounds as its own count
        assert rounds[0] == list(range(len(roots)))
        assert all(later == [i for i in earlier if i in later]
                   for earlier, later in zip(rounds, rounds[1:]))
        assert [sum(i in r for r in rounds) for i in range(len(roots))] == [c for *_, c in together]
        if not bracketed:
            assert [(x, c) for x, _, c in together[3:5]] == [(1.0, 2), (20.0, 2)]
            assert together[5][2] == _ROOT_MAX_ITER and 5.0 < together[5][0] < 5.0 + 1e-7

    def test_a_bisected_step_below_the_tolerance_ends_the_search(self):
        # a value that jumps from -1 to 1 at 7 with slope 1: every Newton step has
        # length 1 and leaves the bracket, so the search bisects until a halving
        # is below the tolerance, never at a zero value nor at an end
        (x, (value, _), count), = _newton_roots(
            lambda active, x: [(-1.0 if xi < 7.0 else 1.0, 1.0) for xi in x], [6.5], 1.0, 20.0)
        assert value == -1.0 and count < _ROOT_MAX_ITER
        assert 7.0 - 2 * (_ROOT_XTOL + _ROOT_RTOL * 7.0) < x < 7.0


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
        sums = LognormalWindowSums(1)
        log_window, log_values = np.log(normalization_window(1)), np.log(view.values)
        point = _lognormal_point(view, sums, log_values, mu, sigma)
        uw, uv = log_window - mu, log_values - mu

        def objective(theta):
            return (3 * logsumexp(theta[0] * uw + theta[1] * uw**2 - log_window)
                    - np.sum(theta[0] * uv + theta[1] * uv**2 - log_values))

        def gradient(theta):
            var = -0.5 / theta[1]
            moved = mu + theta[0] * var
            g = _lognormal_point(view, sums, log_values, moved, np.sqrt(var)).grad
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
        assert fit.neg_log_likelihood <= neg_log_likelihood(truth, view) + 1e-6

    def test_gradient_small_at_optimum(self):
        view = sample_view(DiscreteLognormalParams(2.3, 1.2), 1000, seed=41)
        fit = fit_lognormal(view)
        grad = central_diff_gradient(
            lambda t: DiscreteLognormalParams(*t),
            (fit.params.mu, fit.params.sigma),
            view,
        )
        assert np.linalg.norm(grad) < 1e-4 * max(1.0, abs(fit.neg_log_likelihood))

    def test_reported_value_matches_recomputation(self):
        view = sample_view(DiscreteLognormalParams(1.5, 0.8), 500, seed=6)
        fit = fit_lognormal(view)
        assert fit.neg_log_likelihood == pytest.approx(
            neg_log_likelihood(fit.params, view), abs=1e-8
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

    def test_a_stalled_line_search_ends_the_fit(self):
        # counts spread over 40 integers above 10**12: ln x barely moves, so near
        # the optimum no halving of the step passes the line search
        counts = 10**12 + np.random.default_rng(0).integers(1, 41, 300)
        view = truncate(CountDataset(counts), 10**12)
        source, first = inspect.getsourcelines(fitting.fit_lognormal)
        stall = first + next(k for k, text in enumerate(source) if "no acceptable step" in text)
        reached = []

        def trace(frame, event, arg):
            if frame.f_code is not fitting.fit_lognormal.__code__:
                return None

            def lines(frame, event, arg):
                reached.append(event == "line" and frame.f_lineno == stall)
                return lines
            return lines

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            fit = fit_lognormal(view)
        finally:
            sys.settrace(previous)
        assert any(reached)
        assert fit.iterations <= LOGNORMAL_MAX_ITER
        assert math.isfinite(fit.neg_log_likelihood)
        assert fit.converged == (fit.gradient_norm_at_exit < LOGNORMAL_GRAD_TOL)

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
        assert fit.neg_log_likelihood <= neg_log_likelihood(truth, view) + 1e-6

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
            view,
        )
        assert np.linalg.norm(grad) < 1e-4 * max(1.0, abs(fit.neg_log_likelihood))

    def test_reported_value_matches_recomputation(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=2)
        fit = fit_hooked(view)
        assert fit.neg_log_likelihood == pytest.approx(
            neg_log_likelihood(fit.params, view), abs=1e-8
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

    @pytest.mark.parametrize("seed", range(5))
    def test_slope_root_takes_few_profile_points(self, seed):
        # the 40-point grid, then Newton on the slope; near the root the slope
        # scatters at its rounding level, where the root phase must stop
        # rather than bisect down to the step tolerance
        view = sample_view(HookedPowerLawParams(6.0, 10.0), 2000, seed)
        assert fit_hooked(view).iterations <= 40 + 6

    @pytest.mark.parametrize("alpha, b, seed", [(3.0, 10.0, 0), (6.0, 10.0, 1), (2.0, 0.0, 2)])
    def test_offset_derivatives_only_where_the_slope_is_read(self, monkeypatch, alpha, b, seed):
        # the best grid point, the neighbour its slope points to and each
        # root-phase point; none of the other grid points
        view = sample_view(HookedPowerLawParams(alpha, b), 500, seed)
        calls, built, reading = [], [], []
        window_call = PowerLawWindowSums.__call__

        def counted(data, point):
            reading.append([])  # the alphas of the window-sum calls this point makes
            calls.append((point, reading[-1]))
            try:
                return _offset_derivatives(data, point)
            finally:
                reading.pop()

        def window_sums(offset):
            built.append(offset)
            return PowerLawWindowSums(offset)

        def counted_call(sums, a):
            if reading:
                reading[-1].append(a)
            return window_call(sums, a)

        monkeypatch.setattr(fitting, "_offset_derivatives", counted)
        monkeypatch.setattr(fitting, "PowerLawWindowSums", window_sums)
        monkeypatch.setattr(PowerLawWindowSums, "__call__", counted_call)
        fit = fit_hooked(view)
        root_phase = fit.iterations - 40
        assert root_phase >= 1
        assert 1 <= len(calls) <= 2 + root_phase
        # the window sums: one array for the grid, and one offset per point whose
        # slope is read; a root-phase point's derivatives reuse the sums its
        # alpha was solved with, and its S_0, S_1 and S_2 from the last score
        # evaluation, at its own alpha, so they evaluate only alpha + 1 and alpha + 2
        floats = [offset for offset in built if not isinstance(offset, np.ndarray)]
        for point, alphas in calls[-root_phase:]:
            assert floats.count(point.b + view.x_min) == 1
            assert alphas == [point.alpha + 1.0, point.alpha + 2.0]
        for point, alphas in calls[:-root_phase]:
            assert alphas == [point.alpha, point.alpha + 1.0, point.alpha + 2.0]
        assert len(floats) == len(calls)
        assert len(built) - len(floats) == 1

    def test_global_basin_on_a_two_regime_mixture(self):
        # hooked(3, 0) under hooked(9, 3000): the profile over t = log(B + 1)
        # has local minima near t = 0.38 and t = 6.13, and a slope-root search
        # from t = 0 alone stops at the first, 161 nats worse, still reporting
        # converged; the fixed profile grid finds the second
        head = DiscreteDistribution(HookedPowerLawParams(3.0, 0.0)).sample(300, [0, 1])
        tail = DiscreteDistribution(HookedPowerLawParams(9.0, 3000.0)).sample(1700, [0, 2])
        view = truncate(CountDataset(np.concatenate([head, tail])), 1)
        fit = fit_hooked(view)
        assert fit.converged
        assert np.log1p(fit.params.B) > 5.0
        points = []
        for t in np.linspace(np.log1p(B_MIN), np.log1p(B_MAX), 400):
            points.append(_alpha_at(view, _offset(t), points[-1].alpha if points else None))
        profile_min = min(p.neg_log_likelihood for p in points)
        assert fit.neg_log_likelihood <= profile_min * (1.0 + 1e-9)

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


def batch_views():
    """Views for a batch: hooked samples at x_min 1 and 3, with degenerate ones among them."""
    views = []
    for k, (params, n) in enumerate([(HookedPowerLawParams(3.0, 10.0), 500),
                                     (HookedPowerLawParams(6.0, 10.0), 2000),
                                     (HookedPowerLawParams(2.0, 0.0), 300),
                                     (HookedPowerLawParams(10.0, 0.0), 25),
                                     (HookedPowerLawParams(2.5, 100.0), 4000)]):
        view = sample_view(params, n, seed=40 + k)
        views.append(view)
        if view.base.values[-1] >= 3:
            views.append(truncate(view.base, 3))
    views.insert(3, truncate(CountDataset((4, 4, 4, 9)), 5))  # one point: degenerate
    views.insert(7, truncate(CountDataset((1, 2, 3, 3, 3)), 3))  # constant: degenerate
    return views


def fit_fields(fit):
    return (fit.params, fit.neg_log_likelihood, fit.n_tail, fit.x_min, fit.converged,
            fit.iterations, fit.gradient_norm_at_exit)


class TestFitMany:
    def test_each_fit_equals_the_fit_alone(self):
        # the batch solves its views' profile grids together, in one array
        # pass; each result is the same bit for bit as the view's own fit
        views = batch_views()
        fits = fit_many(views, "hooked")
        assert len(fits) == len(views)
        degenerate = 0
        for view, fit in zip(views, fits):
            try:
                alone = fit_hooked(view)
            except DegenerateDataError:
                assert fit is None
                degenerate += 1
                continue
            assert fit_fields(fit) == fit_fields(alone)
        assert degenerate >= 3
        assert any(v.x_min == 3 for v, f in zip(views, fits) if f is not None)

    def test_a_batch_of_degenerate_views_only(self):
        views = [truncate(CountDataset((4, 4, 4, 9)), 5), truncate(CountDataset((5, 5, 5)), 1)]
        assert fit_many(iter(views), "hooked") == [None, None]

    @pytest.mark.parametrize("kind", ["pl", "ln"])
    def test_other_kinds_fit_view_by_view(self, kind):
        views = batch_views()[:4]
        fits = fit_many(views, kind)
        for view, fit in zip(views, fits):
            try:
                alone = fitting.fit_kind(view, kind)
            except DegenerateDataError:
                assert fit is None
                continue
            assert fit_fields(fit) == fit_fields(alone)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_alpha_evaluate_is_pure(self, draw):
        # any subset of the entries, in any order (all of them in order, as
        # _newton_roots passes them), after any other evaluation, gives each
        # entry's floats of the full batch bit for bit, and changes no argument
        rng = np.random.default_rng(11)
        size = 12
        offsets = rng.uniform(1e-3, 1e4, size)
        n = rng.integers(3, 5000, size).astype(float)
        data = n * (np.log(offsets) + rng.uniform(0.05, 3.0, size))
        alpha = rng.uniform(ALPHA_MIN + 1e-9, ALPHA_MAX, size).tolist()
        sums = PowerLawWindowSums(offsets)
        arguments = [getattr(sums, name) for name in PowerLawWindowSums.__slots__
                     if name != "_xp"] + [n, data]
        kept = [array.copy() for array in arguments]
        full = list(_alpha_roots(sums, n, data, tuple(range(size)), tuple(alpha)))
        entries = st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
        before, active = draw.draw(entries), draw.draw(entries)
        if len(active) == size:
            active.sort()
        list(_alpha_roots(sums, n, data, tuple(before), tuple(alpha[i] + 1.0 for i in before)))
        got = list(_alpha_roots(sums, n, data, tuple(active), tuple(alpha[i] for i in active)))
        assert got == [full[i] for i in active]
        for array, copy in zip(arguments, kept):
            assert np.array_equal(array, copy)
        assert list(_alpha_roots(sums, n, data, tuple(range(size)), tuple(alpha))) == full

    def test_grid_matches_the_float_profile(self):
        # the scalar solve at each grid offset, cold from the continuous MLE, is
        # the reference: the array pass agrees to 1e-12 in the negative log-likelihood
        views = [v for v in batch_views() if v.n_tail > 3 and len(v.values) > 1]
        for view, grid in zip(views, _profile_grids(views)):
            for b, nll, alpha, pinned in zip(_GRID_B.tolist(), grid.neg_log_likelihood,
                                            grid.alpha, grid.pinned):
                point = _alpha_at(view, b)
                assert nll == pytest.approx(point.neg_log_likelihood, rel=1e-12, abs=0)
                assert alpha == pytest.approx(point.alpha, rel=1e-9, abs=1e-9)
                assert pinned == point.pinned

    def test_grid_takes_no_float_evaluation(self, monkeypatch):
        # every round of the grid's alpha solve is one array pass, also for the
        # entries past four score evaluations, as grid points near B = -0.7 at
        # x_min = 1 are
        views = [v for v in batch_views() if v.n_tail > 3 and len(v.values) > 1]
        calls = []
        window_sums = PowerLawWindowSums.__call__

        def counted(sums, alpha):
            calls.append(alpha)
            return window_sums(sums, alpha)

        monkeypatch.setattr(PowerLawWindowSums, "__call__", counted)
        grids = _profile_grids(views)
        assert max(int(grid.iterations.max()) for grid in grids) > 4
        assert calls and all(isinstance(alpha, np.ndarray) for alpha in calls)

    def test_memory_does_not_grow_with_the_views(self):
        # the views are taken a pass of _GRID_VIEWS at a time, so four passes peak
        # no higher than one, plus the results kept: a FitResult each, and slack
        def small_views(count):
            for k in range(count):
                yield truncate(CountDataset((1, 1, 2, 3, 3, 5, 8, 13, 21 + k, 400)), 1)

        def peak(count):
            fit_many(small_views(1), "hooked")  # warm-up
            tracemalloc.start()
            try:
                fits = fit_many(small_views(count), "hooked")
                return tracemalloc.get_traced_memory()[1], len(fits)
            finally:
                tracemalloc.stop()

        one, _ = peak(_GRID_VIEWS)
        four, fitted = peak(4 * _GRID_VIEWS)
        assert fitted == 4 * _GRID_VIEWS
        kept = 3 * _GRID_VIEWS * 2_000  # bytes held by each further FitResult, at most
        assert four <= one + kept + 64_000


@pytest.mark.parametrize("kind", ["pl", "ln", "hooked"])
def test_one_tail_check_for_every_family(kind):
    # too few points, or one distinct value, is degenerate for each family alike:
    # fit_kind names the family, and fit_many gives None without a fit
    family, fewest = fitting.MIN_TAIL[kind]
    short = truncate(CountDataset(range(1, fewest)), 1)
    constant = truncate(CountDataset([4] * fewest), 1)
    assert (short.n_tail, len(constant.values)) == (fewest - 1, 1)
    for view in (short, constant):
        with pytest.raises(DegenerateDataError, match=f"^{family} fit "):
            fitting.fit_kind(view, kind)
        assert fit_many([view], kind) == [None]
    smallest = truncate(CountDataset(range(1, fewest + 1)), 1)
    [fit] = fit_many([smallest], kind)
    assert fit_fields(fit) == fit_fields(fitting.fit_kind(smallest, kind))


@pytest.fixture(scope="module")
def profile_view():
    return sample_view(HookedPowerLawParams(3.0, 10.0), 2000, seed=5)


def offset_derivatives_at(view, t):
    return _offset_derivatives(view, _alpha_at(view, _offset(t)))


class TestProfileSlope:
    """The envelope theorem: the slope, from the partial d/dB alone, is the profile's d/dt."""

    @pytest.mark.parametrize("t", [0.5, 1.5, 2.4, 4.0, 8.0, -5.0])
    def test_matches_central_differences_of_the_profile(self, profile_view, t):
        view, h = profile_view, 1e-4
        point = _alpha_at(view, _offset(t))
        assert point.pinned or t != -5.0
        central = (_alpha_at(view, _offset(t + h)).neg_log_likelihood
                   - _alpha_at(view, _offset(t - h)).neg_log_likelihood) / (2 * h)
        assert _offset_derivatives(view, point).slope == pytest.approx(central, rel=1e-6)


class TestProfileCurvature:
    """The profile's exact second derivative in t = log(B + 1), which the hooked root phase steps on."""

    @pytest.mark.parametrize("t", [0.5, 1.5, 2.4, 4.0, 8.0])
    def test_matches_central_differences_of_the_slope(self, profile_view, t):
        view, h = profile_view, 1e-5
        central = (offset_derivatives_at(view, t + h).slope
                   - offset_derivatives_at(view, t - h).slope) / (2 * h)
        assert offset_derivatives_at(view, t).curvature == pytest.approx(central, rel=1e-6)

    def test_pinned_alpha_leaves_the_offset_curvature_alone(self, profile_view):
        # alpha pinned at its lower bound: the curvature is (B + 1)**2 f_BB + (B + 1) f_B,
        # here summed over the explicit window
        view = profile_view
        point = _alpha_at(view, _offset(-5.0))
        assert point.pinned and point.alpha == pytest.approx(ALPHA_MIN)
        alpha, b, n, counts = point.alpha, point.b, view.n_tail, view.multiplicities
        window = np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float)
        log_w = -alpha * np.log(b + window)
        p = np.exp(log_w - log_w.max())
        p /= p.sum()
        inv, data_inv = 1.0 / (b + window), 1.0 / (b + view.values)
        f_b = alpha * (counts @ data_inv - n * (p @ inv))
        f_bb = (-alpha * (counts @ data_inv**2) + n * alpha * (p @ inv**2)
                + n * alpha**2 * (p @ inv**2 - (p @ inv) ** 2))
        curvature = _offset_derivatives(view, point).curvature
        assert curvature == pytest.approx((b + 1) ** 2 * f_bb + (b + 1) * f_b, rel=1e-9)


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

    @pytest.mark.parametrize("kind", ["pl", "ln", "hooked"])
    def test_each_entry_equals_its_fit_alone(self, kind):
        # the candidates that survive are fitted together by fit_many; the others
        # are an empty tail, a tail below MIN_SCAN_TAIL and a degenerate tail
        sample = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=12).base
        raw = np.repeat(sample.values, sample.multiplicities)
        top = int(sample.values[-1])
        assert truncate(sample, top).n_tail < MIN_SCAN_TAIL
        cases = [(sample, [1, 2, 5, top, top + 1], [1, 2, 5]),
                 (CountDataset(np.concatenate([raw, [10**7] * 12])),
                  [1, 3, 10**7, 10**7 + 1], [1, 3])]
        for data, candidates, survivors in cases:
            result = scan_x_min(data, kind, candidates)
            assert [entry.x_min for entry in result.per_xmin] == survivors
            for entry in result.per_xmin:
                view = truncate(data, entry.x_min)
                alone = fitting.fit_kind(view, kind)
                assert fit_fields(entry.fit) == fit_fields(alone)
                assert entry.selection_score == ks_distance(alone.dist, view)
        with pytest.raises(DegenerateDataError):
            fitting.fit_kind(truncate(cases[1][0], 10**7), kind)

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import pearsonr

from citefit.dataset import CountDataset, truncate
from citefit.errors import OutOfModelError, ParameterError, UsageError
from citefit.fitting import fit_many, neg_log_likelihood
from citefit.kernels import (
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
)
from citefit import simulation
from citefit.simulation import (
    EXCLUSION_FLAG_FRACTION,
    AttachmentParams,
    attachment_count_pmf,
    attachment_to_hooked,
    ci_width_study,
    hooked_to_attachment,
    ll_contour,
    lognormal_ci_study,
    replicate_seed,
    ridge_demo,
    slope_tolerance_threshold,
)

from conftest import sample_view


def expected_grids(generators, replicates, seed, kind, targets):
    """A study's exclusions, flags and widths, recomputed from scratch.

    ``generators[i][j]`` is cell (i, j)'s ``(params, n)``. Its replicates are
    drawn with the study's seeds and fitted at the generator's x_min by
    ``fit_many``; the converged fits are kept, and a target's width is
    ``np.percentile`` 5-95 of the kept values when there are two of them.
    """
    shape = (len(generators), len(generators[0]))
    exclusions = np.zeros(shape, dtype=int)
    widths = np.full((len(targets), *shape), np.nan)
    for i, j in np.ndindex(shape):
        params, n = generators[i][j]
        gen = DiscreteDistribution(params)
        views = [truncate(CountDataset(gen.sample(n, replicate_seed(seed, i, j, r))), gen.x_min)
                 for r in range(replicates)]
        kept = [fit.params for fit in fit_many(views, kind) if fit is not None and fit.converged]
        exclusions[i, j] = replicates - len(kept)
        for width, name in zip(widths, targets):
            if len(kept) >= 2:
                lo, hi = np.percentile([getattr(p, name) for p in kept], [5.0, 95.0])
                width[i, j] = hi - lo
    flagged = (exclusions > EXCLUSION_FLAG_FRACTION * replicates) | (replicates - exclusions < 2)
    return exclusions, flagged, widths


def assert_grid_is(grid, exclusions, flagged, width):
    assert np.array_equal(grid.exclusions, exclusions)
    assert np.array_equal(grid.flagged, flagged)
    assert np.array_equal(grid.widths, width, equal_nan=True)


class TestAttachmentMapping:
    def test_forward_examples(self):
        h = attachment_to_hooked(AttachmentParams(beta=0.5, m=1))
        assert (h.alpha, h.B) == (3.0, 2.0)
        h = attachment_to_hooked(AttachmentParams(beta=0.25, m=3))
        assert (h.alpha, h.B) == (5.0, 18.0)

    def test_inverse_examples(self):
        p = hooked_to_attachment(HookedPowerLawParams(3.0, 2.0))
        assert (p.beta, p.m) == (0.5, 1.0)
        p = hooked_to_attachment(HookedPowerLawParams(5.0, 18.0))
        assert (p.beta, p.m) == (0.25, 3.0)

    def test_alpha_two_is_out_of_model(self):
        with pytest.raises(OutOfModelError):
            hooked_to_attachment(HookedPowerLawParams(2.0, 5.0))

    def test_negative_b_is_out_of_model(self):
        with pytest.raises(OutOfModelError):
            hooked_to_attachment(HookedPowerLawParams(3.0, -0.5))

    def test_beta_domain(self):
        with pytest.raises(ParameterError):
            AttachmentParams(beta=1.0, m=1)
        with pytest.raises(ParameterError):
            AttachmentParams(beta=0.0, m=1)

    @given(
        beta=st.floats(0.05, 0.95),
        m=st.floats(0.01, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, beta, m):
        start = AttachmentParams(beta=beta, m=m)
        back = hooked_to_attachment(attachment_to_hooked(start))
        assert back.beta == pytest.approx(beta, abs=1e-12)
        assert back.m == pytest.approx(m, abs=1e-12, rel=1e-12)

    def test_count_pmf_proportional_to_hooked_weight(self):
        for beta, m in [(0.5, 1.0), (0.3, 2.0), (0.7, 4.0)]:
            p = AttachmentParams(beta=beta, m=m)
            h = attachment_to_hooked(p)
            k = np.arange(0, 101, dtype=float)
            ratio = attachment_count_pmf(p, k) / (h.B + k) ** (-h.alpha)
            assert np.all(np.abs(ratio / ratio[0] - 1.0) < 1e-9)


class TestSlopeThreshold:
    def test_worked_example_exact(self):
        assert slope_tolerance_threshold(0.1, 55.0) == 495.0

    def test_half_tolerance_returns_b(self):
        for b in (0.0, 1.0, 10.0, 123.4):
            assert slope_tolerance_threshold(0.5, b) == pytest.approx(b, rel=1e-15)

    def test_derivative_oracle_at_90(self):
        # the log-log slope of the hooked curve at x is -alpha * x/(B+x)
        x = slope_tolerance_threshold(0.1, 10.0)
        assert x == pytest.approx(90.0, rel=1e-15)
        assert x / (10.0 + x) == pytest.approx(0.9, abs=1e-12)

    @given(
        T=st.floats(0.01, 0.99),
        B=st.floats(0.0, 1e4, allow_subnormal=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_derivative_identity(self, T, B):
        x = slope_tolerance_threshold(T, B)
        slope_fraction = x / (B + x) if (B + x) > 0 else 1.0 - T
        assert slope_fraction == pytest.approx(1.0 - T, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            slope_tolerance_threshold(0.0, 5.0)
        with pytest.raises(ParameterError):
            slope_tolerance_threshold(1.0, 5.0)
        with pytest.raises(ParameterError):
            slope_tolerance_threshold(0.1, -1.0)


class TestCiWidthStudy:
    def test_power_law_study_shapes_and_monotonicity(self):
        grid = ci_width_study("pl", [2.0, 6.0], [500, 2000], replicates=40, seed=10)
        assert grid.target_parameter == "alpha"
        w = np.asarray(grid.widths)
        assert w.shape == (2, 2)
        assert np.all(w > 0)
        # more data -> tighter; larger alpha -> looser
        assert w[0, 1] < w[0, 0]
        assert w[1, 1] < w[1, 0]
        assert w[1, 0] > w[0, 0]

    def test_bitwise_reproducibility(self):
        a = ci_width_study("pl", [2.5], [400], replicates=20, seed=3)
        b = ci_width_study("pl", [2.5], [400], replicates=20, seed=3)
        assert a == b

    def test_hooked_smoke(self):
        grid = ci_width_study("hooked", [3.0], [300], replicates=5, seed=4, B=10.0)
        assert grid.widths[0][0] > 0
        assert grid.exclusions[0][0] <= 1

    def test_exclusions_flagged(self):
        # alpha=10 power-law samples at tiny n are usually constant -> excluded
        grid = ci_width_study("pl", [10.0], [25], replicates=10, seed=5)
        assert grid.exclusions[0][0] > 1
        assert grid.flagged[0][0]

    def test_exclusions_and_widths_follow_the_kept_fits(self):
        # alpha = 10 at n = 2 is nearly always one value (degenerate); alpha = 1.05
        # pins fits at the box edge (non-convergent) and keeps a few
        alphas, sizes = [10.0, 1.05], [2, 25]
        grid = ci_width_study("pl", alphas, sizes, replicates=8, seed=7)
        exclusions, flagged, widths = expected_grids(
            [[(PowerLawParams(a), n) for n in sizes] for a in alphas], 8, 7, "pl", ["alpha"])
        assert exclusions.max() == 8 and 0 < exclusions.min() < 7
        assert np.isnan(widths).any() and np.isfinite(widths).any()
        assert_grid_is(grid, exclusions, flagged, widths[0])

    def test_rejects_bad_arguments(self):
        with pytest.raises(UsageError):
            ci_width_study("pl", [2.0], [100], replicates=1, seed=0)
        with pytest.raises(UsageError):
            ci_width_study("ln", [2.0], [100], replicates=5, seed=0)

    @pytest.mark.parametrize("n_grid", [[100, 50.5], [2000, 0], [-3], [float("nan")]])
    def test_sample_sizes_checked_before_any_cell_runs(self, monkeypatch, n_grid):
        def no_fits(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(simulation, "fit_many", no_fits)
        bad = n_grid[-1]
        with pytest.raises(UsageError, match=f"got {bad:g}"):
            ci_width_study("hooked", [3.0], n_grid, replicates=100, seed=0)

    def test_serialization_rows(self):
        grid = ci_width_study("pl", [2.5], [300], replicates=10, seed=6)
        rows = grid.to_rows()
        assert rows[0]["target"] == "alpha"
        assert rows[0]["alpha"] == 2.5
        assert rows[0]["n"] == 300
        assert grid.to_json_dict()["replicates"] == 10


class TestInterquantileWidth:
    @given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        lo, hi = np.percentile(np.asarray(values, dtype=float), [5.0, 95.0])
        assert simulation._interquantile_width(values) == float(hi - lo)

    def test_equals_numpy_percentile_with_ties_and_scales(self):
        rng = np.random.default_rng(11)
        for n in range(2, 120):
            for scale in (1e-6, 1.0, 1e8):
                values = np.round(rng.standard_normal(n), 1) * scale
                lo, hi = np.percentile(values, [5.0, 95.0])
                assert simulation._interquantile_width(values.tolist()) == float(hi - lo)


class TestLognormalCiStudy:
    @pytest.mark.parametrize("n", [0, -5, 2.5])
    def test_sample_size_checked(self, n):
        with pytest.raises(UsageError, match=f"got {n:g}"):
            lognormal_ci_study([1.0], [1.0], n, replicates=2, seed=0)

    def test_returns_two_grids_sharing_exclusions(self):
        mu_grid, sigma_grid = lognormal_ci_study(
            [1.5, 2.5], [0.7, 1.2], n=300, replicates=15, seed=7
        )
        assert mu_grid.target_parameter == "mu"
        assert sigma_grid.target_parameter == "sigma"
        assert mu_grid.exclusions == sigma_grid.exclusions
        assert np.all(np.asarray(mu_grid.widths) > 0)

    def test_exclusions_and_widths_follow_the_kept_fits(self):
        # three draws from a narrow lognormal are one value (degenerate); from a
        # wide one they are kept
        mus, sigmas = [0.0], [0.01, 2.0]
        grids = lognormal_ci_study(mus, sigmas, n=3, replicates=6, seed=2)
        exclusions, flagged, widths = expected_grids(
            [[(DiscreteLognormalParams(m, s), 3) for s in sigmas] for m in mus], 6, 2, "ln",
            ["mu", "sigma"])
        assert exclusions.tolist() == [[6, 0]] and flagged.tolist() == [[True, False]]
        for grid, width in zip(grids, widths):
            assert_grid_is(grid, exclusions, flagged, width)

    def test_reproducible(self):
        a = lognormal_ci_study([2.0], [1.0], n=200, replicates=10, seed=8)
        b = lognormal_ci_study([2.0], [1.0], n=200, replicates=10, seed=8)
        assert a == b


class TestLlContour:
    def test_single_cell_equals_neg_log_likelihood(self):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 300, seed=20)
        grid = ll_contour(view, "ln", [2.0], [1.0])
        direct = neg_log_likelihood(DiscreteLognormalParams(2.0, 1.0), view)
        assert grid.cells[0][0] == pytest.approx(direct, abs=1e-9)

    def test_lognormal_focal_point(self):
        view = sample_view(DiscreteLognormalParams(2.3, 1.2), 500, seed=21)
        mu_axis = [round(1.8 + 0.1 * i, 10) for i in range(11)]
        sigma_axis = [round(0.9 + 0.05 * j, 10) for j in range(13)]
        grid = ll_contour(view, "ln", mu_axis, sigma_axis)
        mu_hat, sigma_hat, _ = grid.minimum()
        assert abs(mu_hat - 2.3) <= 0.2 + 1e-9
        assert abs(sigma_hat - 1.2) <= 0.1 + 1e-9

    def test_hooked_ridge_band_has_positive_slope(self):
        view = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=22)
        alpha_axis = [2.0 + 0.25 * i for i in range(17)]
        b_axis = [0.5 + 2.5 * j for j in range(25)]
        grid = ll_contour(view, "hooked", alpha_axis, b_axis)
        cells = np.asarray(grid.cells)
        near = np.argwhere(cells <= np.nanmin(cells) + 2.0)
        assert len(near) >= 3  # the valley is a band, not a point
        alphas = [alpha_axis[i] for i, _ in near]
        bs = [b_axis[j] for _, j in near]
        assert pearsonr(alphas, bs).statistic > 0.5

    def test_invalid_cells_flagged_not_raised(self):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 200, seed=23)
        grid = ll_contour(view, "ln", [2.0], [-0.5, 1.0])
        assert grid.invalid_cells == 1
        assert math.isnan(grid.cells[0][0])
        assert math.isfinite(grid.cells[0][1])

    def test_axis_validation(self):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 200, seed=24)
        with pytest.raises(UsageError):
            ll_contour(view, "ln", [2.0, 1.0], [1.0])

    def test_order_invariance(self):
        from citefit.dataset import CountDataset, truncate

        view = sample_view(HookedPowerLawParams(3.0, 5.0), 300, seed=25)
        shuffled = np.repeat(view.values, view.multiplicities)
        np.random.default_rng(2).shuffle(shuffled)
        view2 = truncate(CountDataset(shuffled), 1)
        g1 = ll_contour(view, "hooked", [2.5, 3.0], [5.0, 10.0])
        g2 = ll_contour(view2, "hooked", [2.5, 3.0], [5.0, 10.0])
        assert g1.cells == g2.cells


class TestRidgeDemo:
    def test_fit_beats_truth(self):
        report = ridge_demo(3.0, 10.0, n=500, seed=1)
        assert report.neg_ll_fitted <= report.neg_ll_true + 1e-6

    def test_hybrid_usually_worse_than_truth(self):
        # The per-replicate rate is about 0.78 (criterion 7 derives it), so
        # >= 4/5 is a smoke check that holds for about 70% of seed sets.
        worse = 0
        for seed in range(5):
            report = ridge_demo(3.0, 10.0, n=500, seed=seed)
            worse += report.neg_ll_hybrid > report.neg_ll_true
        assert worse >= 4

    def test_deterministic(self):
        a = ridge_demo(3.0, 2.0, n=500, seed=9)
        b = ridge_demo(3.0, 2.0, n=500, seed=9)
        assert a == b

    def test_minimum_sample_size(self):
        with pytest.raises(UsageError):
            ridge_demo(3.0, 10.0, n=50, seed=0)

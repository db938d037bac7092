import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from citefit.dataset import CountDataset, truncate
from citefit.errors import NonNormalizableError, ParameterError, SupportError
from citefit.fitting import fit_hooked, fit_power_law, ks_distance
from citefit.kernels import (
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    NORMALIZATION_TERMS,
    PowerLawParams,
    PowerLawWindowSums,
    normalization_constant,
    normalization_constants,
    unnormalized_weight,
)

PI2_6 = math.pi**2 / 6

# Independent quadrature oracle, computed up front with scipy.integrate.quad:
#   integral over [0.5, inf) of the lognormal(mu=2, sigma=0.5) density.
LOGNORMAL_2_05_QUAD = 0.9999999640374257


def settings_grid():
    return [
        PowerLawParams(2.0),
        PowerLawParams(2.5),
        PowerLawParams(6.0),
        HookedPowerLawParams(2.0, 10.0),
        HookedPowerLawParams(3.0, 2.0),
        HookedPowerLawParams(3.9, 42.7),
        DiscreteLognormalParams(2.0, 0.5),
        DiscreteLognormalParams(2.3, 1.2),
        DiscreteLognormalParams(0.0, 1.0),
    ]


class TestUnnormalizedWeight:
    def test_power_law(self):
        assert unnormalized_weight(PowerLawParams(2.0), 2) == pytest.approx(0.25)

    def test_hooked_nests_power_law(self):
        w = unnormalized_weight(HookedPowerLawParams(2.0, 0.0), 3)
        assert w == pytest.approx(1 / 9)
        assert w == unnormalized_weight(PowerLawParams(2.0), 3)
        window = np.arange(4, 4 + NORMALIZATION_TERMS, dtype=float)
        for alpha in (1.01, 2.0, 3.7, 20.0):
            pl = PowerLawParams(alpha).log_weight(window)
            hooked = HookedPowerLawParams(alpha, 0.0).log_weight(window)
            assert np.array_equal(pl, hooked)

    def test_lognormal_at_one(self):
        w = unnormalized_weight(DiscreteLognormalParams(0.0, 1.0), 1)
        assert w == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(NonNormalizableError):
            PowerLawParams(1.0)
        with pytest.raises(NonNormalizableError):
            HookedPowerLawParams(0.5, 3.0)
        with pytest.raises(ParameterError):
            HookedPowerLawParams(2.0, -1.0)
        with pytest.raises(ParameterError):
            DiscreteLognormalParams(0.0, 0.0)
        with pytest.raises(SupportError):
            unnormalized_weight(PowerLawParams(2.0), 0)


def fsum_window_sums(alpha, offset):
    """``S_k``, the sum of ``w_j l_j**k`` over the window, term by term with ``math.fsum``."""
    ell = [math.log1p(j / offset) for j in range(NORMALIZATION_TERMS)]
    w = [math.exp(-alpha * x) for x in ell]
    return (math.fsum(w), math.fsum(a * x for a, x in zip(w, ell)),
            math.fsum(a * x * x for a, x in zip(w, ell)))


class TestPowerLawWindowSums:
    ALPHAS = (1 + 1e-9, 1.01, 1.5, 2.0, 3.0, 8.0, 20.0)

    @pytest.mark.parametrize("x_min", [1, 5, 100, 5000])
    @pytest.mark.parametrize("B", [-0.999, 0.0, 10.0, 1e3, 1e6])
    def test_against_the_explicit_window(self, B, x_min):
        sums = PowerLawWindowSums(B + x_min)
        for alpha in self.ALPHAS:
            s0, s1, s2 = sums(alpha)
            r0, r1, r2 = fsum_window_sums(alpha, B + x_min)
            assert s0 == pytest.approx(r0, rel=1e-13, abs=0)
            assert s1 == pytest.approx(r1, rel=1e-12, abs=0)
            assert s2 == pytest.approx(r2, rel=1e-12, abs=0)
            # alpha + 1 gives E_p[1 / (B + x)], the d/dB term of the hooked fit
            assert sums(alpha + 1)[0] == pytest.approx(fsum_window_sums(alpha + 1, B + x_min)[0],
                                                       rel=1e-12, abs=0)
            norm = math.fsum((B + x_min + j) ** -alpha for j in range(NORMALIZATION_TERMS))
            dist = DiscreteDistribution(HookedPowerLawParams(alpha, B), x_min)
            assert dist.norm_const == pytest.approx(norm, rel=1e-13, abs=0)

    def test_score_mean_as_alpha_tends_to_one_at_the_largest_offset(self):
        # the naive tail integral y**(1 - alpha) / (1 - alpha) loses this mean at 5e-4
        for x_min in (1, 5, 100, 5000):
            s0, s1, _ = PowerLawWindowSums(1e6 + x_min)(1 + 1e-9)
            r0, r1, _ = fsum_window_sums(1 + 1e-9, 1e6 + x_min)
            assert s1 / s0 == pytest.approx(r1 / r0, rel=1e-12, abs=0)

    def test_finite_without_warnings_at_huge_x_min(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for B in (-0.999, 0.0, 1e6):
                sums = PowerLawWindowSums(B + 2**62)
                for alpha in self.ALPHAS + (21.0,):
                    assert all(math.isfinite(s) and s >= 0 for s in sums(alpha))
                assert math.isfinite(HookedPowerLawParams(20.0, B).log_normalizer(2**62))

    def test_no_window_pass_for_the_power_laws(self):
        # a window of floats takes 80 kB; the closed form and its fitters need none
        view = truncate(CountDataset((7, 7, 8, 9, 12, 15, 30, 31, 90, 400)), 7)
        tracemalloc.start()
        try:
            for params in (PowerLawParams(2.5), HookedPowerLawParams(3.0, 10.0)):
                DiscreteDistribution(params, 7)
            fit_power_law(view)
            fit_hooked(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * NORMALIZATION_TERMS // 2


class TestNormalization:
    def test_zeta_identity(self):
        assert normalization_constant(PowerLawParams(2.0), 1) == pytest.approx(
            PI2_6, abs=1e-3
        )

    def test_hooked_b0_equals_power_law(self):
        pl = normalization_constants(PowerLawParams(2.0), 1)
        hk = normalization_constants(HookedPowerLawParams(2.0, 0.0), 1)
        assert hk == pl

    def test_lognormal_matches_quadrature_oracle(self):
        bare = normalization_constants(DiscreteLognormalParams(2.0, 0.5), 1).bare
        assert bare == pytest.approx(LOGNORMAL_2_05_QUAD, abs=1e-3)

    def test_bare_vs_corrected(self):
        nc = normalization_constants(PowerLawParams(2.0), 1)
        assert nc.tail_corrected > nc.bare
        assert nc.tail_corrected == pytest.approx(PI2_6, abs=1e-6)
        light = normalization_constants(PowerLawParams(3.0), 1)
        assert light.tail_corrected == light.bare

    def test_positive_and_finite(self):
        for params in settings_grid():
            nc = normalization_constants(params, 1)
            assert 0 < nc.bare < math.inf
            assert 0 < nc.tail_corrected < math.inf


class TestPmf:
    def test_power_law_pmf_value(self):
        dist = DiscreteDistribution(PowerLawParams(2.0), 1)
        assert dist.pmf(1) == pytest.approx(6 / math.pi**2, abs=1e-3)

    @pytest.mark.parametrize("params", settings_grid(), ids=str)
    def test_window_sum_is_one(self, params):
        dist = DiscreteDistribution(params, 1)
        xs = np.arange(1, 1 + NORMALIZATION_TERMS)
        total = float(dist.pmf(xs).sum())
        assert 1 - 1e-3 <= total <= 1 + 1e-6
        # tight bound whenever the tail is light
        is_lognormal = isinstance(params, DiscreteLognormalParams)
        if (is_lognormal and params.sigma <= 2) or (not is_lognormal and params.alpha >= 2):
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_window_sum_heavy_tail_settings(self):
        # slow-decay settings still normalize within the loose tolerance
        for params in [PowerLawParams(1.9), DiscreteLognormalParams(0.0, 2.5)]:
            dist = DiscreteDistribution(params, 1)
            xs = np.arange(1, 1 + NORMALIZATION_TERMS)
            total = float(dist.pmf(xs).sum())
            assert 1 - 1e-3 <= total <= 1 + 1e-6

    @pytest.mark.parametrize("params", settings_grid(), ids=str)
    def test_log_pmf_matches_log_of_pmf(self, params):
        dist = DiscreteDistribution(params, 1)
        xs = np.arange(1, 200)
        p = dist.pmf(xs)
        keep = p > 1e-300
        assert np.allclose(dist.log_pmf(xs)[keep], np.log(p[keep]), atol=1e-10)

    def test_support_error(self):
        dist = DiscreteDistribution(PowerLawParams(2.0), 5)
        with pytest.raises(SupportError):
            dist.pmf(4)
        with pytest.raises(SupportError):
            dist.log_pmf(1)

    @given(alpha=st.floats(1.1, 19.9), x=st.integers(1, 5000))
    @settings(max_examples=40, deadline=None)
    def test_nesting_property(self, alpha, x):
        pl = DiscreteDistribution(PowerLawParams(alpha), 1)
        hk = DiscreteDistribution(HookedPowerLawParams(alpha, 0.0), 1)
        assert hk.pmf(x) == pytest.approx(pl.pmf(x), rel=1e-12)

    def test_monotone_tail_power_laws(self):
        xs = np.arange(1, 500)
        for params in [PowerLawParams(2.5), HookedPowerLawParams(3.0, 10.0)]:
            p = DiscreteDistribution(params, 1).pmf(xs)
            assert np.all(np.diff(p) < 0)

    def test_lognormal_unimodal(self):
        p = DiscreteDistribution(DiscreteLognormalParams(2.0, 0.5), 1).pmf(
            np.arange(1, 500)
        )
        mode = int(np.argmax(p))
        assert np.all(np.diff(p[mode:]) < 0)
        if mode > 0:
            assert np.all(np.diff(p[: mode + 1]) > 0)


class TestCcdf:
    @pytest.mark.parametrize("params", settings_grid(), ids=str)
    def test_starts_at_one(self, params):
        for x_min in (1, 5):
            dist = DiscreteDistribution(params, x_min)
            assert dist.ccdf(x_min) == 1.0

    def test_power_law_value(self):
        dist = DiscreteDistribution(PowerLawParams(2.0), 1)
        assert dist.ccdf(2) == pytest.approx(1 - 6 / math.pi**2, abs=1e-3)

    @pytest.mark.parametrize("params", settings_grid(), ids=str)
    def test_strictly_decreasing(self, params):
        dist = DiscreteDistribution(params, 1)
        vals = dist.ccdf(np.arange(1, 102))
        assert np.all(np.diff(vals) < 0)

    def test_consistent_with_pmf(self):
        dist = DiscreteDistribution(HookedPowerLawParams(3.0, 5.0), 2)
        xs = np.arange(2, 50)
        assert np.allclose(dist.ccdf(xs) - dist.ccdf(xs + 1), dist.pmf(xs), atol=1e-12)

    def test_far_beyond_window_in_bounded_memory(self):
        # the pmf sums to one over the window, so the ccdf beyond it needs no table
        dist = DiscreteDistribution(PowerLawParams(1.5), 3)
        far = dist.x_min + 10**7
        view = truncate(CountDataset((3, 4, 4, 9, far)), 3)
        tracemalloc.start()
        try:
            tail = dist.ccdf(far)
            distance = ks_distance(dist, view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert tail == dist.ccdf(dist.x_min + NORMALIZATION_TERMS)
        assert 0.0 <= distance <= 1.0


class TestSampler:
    def test_determinism(self):
        dist = DiscreteDistribution(HookedPowerLawParams(3.0, 2.0), 1)
        a = dist.sample(5, seed=99)
        b = dist.sample(5, seed=99)
        assert np.array_equal(a, b)
        assert np.all(a >= 1)

    def test_respects_x_min(self):
        dist = DiscreteDistribution(PowerLawParams(2.5), 7)
        assert dist.sample(500, seed=1).min() >= 7

    def chi_square_stat(self, dist, sample, top=20):
        n = len(sample)
        observed = np.array(
            [np.sum(sample == k) for k in range(dist.x_min, dist.x_min + top)]
            + [np.sum(sample >= dist.x_min + top)]
        )
        probs = dist.pmf(np.arange(dist.x_min, dist.x_min + top))
        expected = np.append(n * probs, n * dist.ccdf(dist.x_min + top))
        assert expected.min() > 1  # bins chosen to keep expectations sane
        return float(((observed - expected) ** 2 / expected).sum()), len(observed) - 1

    @pytest.mark.parametrize(
        "params",
        [PowerLawParams(3.0), HookedPowerLawParams(3.0, 10.0), DiscreteLognormalParams(2.0, 0.5)],
        ids=["pl", "hooked", "lognormal"],
    )
    def test_chi_square_goodness_of_fit(self, params):
        dist = DiscreteDistribution(params, 1)
        sample = dist.sample(100_000, seed=1234)
        stat, dof = self.chi_square_stat(dist, sample)
        assert stat < chi2.ppf(0.999, dof)

    def test_lognormal_moment_oracle(self):
        # analytic mean/variance from the 10,000-term sum
        dist = DiscreteDistribution(DiscreteLognormalParams(2.0, 0.5), 1)
        xs = np.arange(1, 1 + NORMALIZATION_TERMS)
        p = dist.pmf(xs)
        mean = float((xs * p).sum())
        var = float(((xs - mean) ** 2 * p).sum())
        sample = dist.sample(100_000, seed=77)
        se = math.sqrt(var / len(sample))
        assert abs(sample.mean() - mean) < 3 * se

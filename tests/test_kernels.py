import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from citefit.dataset import CountDataset, truncate
from citefit.errors import NonNormalizableError, ParameterError, SupportError
from citefit.fitting import fit_hooked, fit_lognormal, fit_power_law, ks_distance
from citefit.kernels import (
    _GUIDE_BUCKETS,
    _SAMPLE_BLOCK,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    LognormalWindowSums,
    NORMALIZATION_TERMS,
    PowerLawParams,
    PowerLawWindowSums,
    normalization_constant,
    normalization_constants,
    normalization_window,
    unnormalized_weight,
)

from conftest import sample_view

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

    OFFSETS = [B + x_min for B in (-0.999, 0.0, 10.0, 1e3, 1e6)
               for x_min in (1, 5, 100, 5000, 2**62)]

    def test_array_against_the_explicit_window(self):
        # every (offset, alpha) pair of the cases above as entries of one array
        offsets, alphas = (np.array(v) for v in zip(*[
            (y0, alpha) for y0 in self.OFFSETS if y0 < 2**62 for alpha in self.ALPHAS]))
        got = np.array(PowerLawWindowSums(offsets)(alphas))
        for k, (y0, alpha) in enumerate(zip(offsets.tolist(), alphas.tolist())):
            s0, s1, s2 = got[:, k]
            r0, r1, r2 = fsum_window_sums(alpha, y0)
            assert s0 == pytest.approx(r0, rel=1e-13, abs=0)
            assert s1 == pytest.approx(r1, rel=1e-12, abs=0)
            assert s2 == pytest.approx(r2, rel=1e-12, abs=0)

    def test_array_finite_without_warnings_at_huge_x_min(self):
        offsets = np.array([B + 2**62 for B in (-0.999, 0.0, 1e6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = PowerLawWindowSums(offsets)
            for alpha in self.ALPHAS + (21.0,):
                got = np.array(sums(np.full(len(offsets), alpha)))
                assert np.all(np.isfinite(got)) and np.all(got >= 0)

    def test_array_entries_agree_with_floats_and_not_with_each_other(self):
        # the float form is the reference; an entry's sums do not depend on the
        # other entries of its array, so they are the same alone, bit for bit
        offsets = np.array(self.OFFSETS)
        rng = np.random.default_rng(7)
        alphas = rng.uniform(1.0 + 1e-9, 21.0, len(offsets))
        sums = PowerLawWindowSums(offsets)
        together = np.array(sums(alphas))
        assert np.array_equal(np.array(sums(alphas)), together)  # a call changes no state
        for k, (y0, alpha) in enumerate(zip(offsets.tolist(), alphas.tolist())):
            alone = np.array(PowerLawWindowSums(offsets[k:k + 1])(alphas[k:k + 1]))[:, 0]
            assert np.array_equal(alone, together[:, k])
            assert alone == pytest.approx(PowerLawWindowSums(y0)(alpha), rel=1e-14, abs=0)
        taken = PowerLawWindowSums(offsets).take(np.arange(0, len(offsets), 3))
        assert np.array_equal(np.array(taken(alphas[::3])), together[:, ::3])

    def test_no_window_pass_for_the_power_laws(self):
        # a window of floats takes 80 kB; the closed form and its fitters need none
        view = truncate(CountDataset((7, 7, 8, 9, 12, 15, 30, 31, 90, 400)), 7)

        def construct_and_fit():
            for params in (PowerLawParams(2.5), HookedPowerLawParams(3.0, 10.0)):
                DiscreteDistribution(params, 7)
            fit_power_law(view)
            fit_hooked(view)

        construct_and_fit()  # warm-up: one-time allocations fall outside the traced span
        tracemalloc.start()
        try:
            construct_and_fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * NORMALIZATION_TERMS // 2


EPS = sys.float_info.epsilon
#: The rounding of a sum of the window's terms, relative to the sum of their
#: magnitudes: adding N = 10,000 terms in any order errs by at most N eps of it
#: (Higham, Accuracy and Stability of Numerical Algorithms, 2002, eq. 3.5), and
#: forming each term (an exp, a product or two) adds a few eps more.
SUM_ROUNDING = (NORMALIZATION_TERMS + 8) * EPS


def fsum_lognormal_sums(log_x, mu, sigma):
    """:class:`LognormalWindowSums` at ``(mu, sigma)`` summed by ``math.fsum``, with bounds.

    Takes the window's ``ln x`` floats and forms each exponent by the same
    float operations, so both sides share the largest exponent ``top``;
    the terms are formed elementwise and then summed exactly. Returns the
    log-sum, ``E_p`` of ``(u, u**2)`` and the covariance entries, and each
    value's bound on the class's rounding: ``SUM_ROUNDING`` of the sums,
    plus for each centred value ``a`` the error ``da`` of its centre
    (``SUM_ROUNDING`` of its mean's magnitude) and of forming it (an eps of
    ``|a|`` and, for ``u**2``, of ``u**2``), carried through the products as
    ``E_p[(|a| + da)(|b| + db)] - E_p[|a| |b|]``.
    """
    u = log_x - mu
    uu = u * u
    exponents = uu * (-0.5 / (sigma * sigma)) - log_x
    top = float(exponents.max())
    w = np.array([math.exp(e - top) for e in exponents.tolist()])
    total = math.fsum(w.tolist())

    def mean(values):
        return math.fsum((w * values).tolist()) / total

    means = (mean(u), mean(uu))
    centred = (u - means[0], uu - means[1])
    errors = (SUM_ROUNDING * mean(np.abs(u)) + EPS * np.abs(centred[0]),
              SUM_ROUNDING * means[1] + EPS * (np.abs(centred[1]) + uu))
    cov, cov_tol = [], []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        cov.append(mean(centred[i] * centred[j]))
        exact = mean(np.abs(centred[i] * centred[j]))
        padded = mean((np.abs(centred[i]) + errors[i]) * (np.abs(centred[j]) + errors[j]))
        cov_tol.append((1.0 + SUM_ROUNDING) * padded - exact)
    log_sum = top + math.log(total)
    tolerances = (SUM_ROUNDING + 2 * EPS * abs(log_sum),
                  (2 * SUM_ROUNDING * mean(np.abs(u)), 2 * SUM_ROUNDING * means[1]), cov_tol)
    return (log_sum, means, tuple(cov)), tolerances


class TestLognormalWindowSums:
    # the box's corners and interior, and a mode inside the window at each x_min
    MUS = (-1000.0, -30.0, 0.0, 2.5, 20.0)
    SIGMAS = (1e-6, 0.05, 1.0, 7.0, 50.0)

    @staticmethod
    def grid(x_min):
        return [(mu, sigma) for mu in TestLognormalWindowSums.MUS + (math.log(x_min + 5000),)
                for sigma in TestLognormalWindowSums.SIGMAS]

    @pytest.mark.parametrize("x_min", [1, 40, 10_000, 10**12])
    def test_against_the_explicit_window(self, x_min):
        sums = LognormalWindowSums(x_min)
        log_x = np.log(normalization_window(x_min))
        for mu, sigma in self.grid(x_min):
            log_sum, means, cov = sums(mu, sigma)
            assert sums.log_sum(mu, sigma) == log_sum
            (r_log_sum, r_means, r_cov), (tol, mean_tol, cov_tol) = fsum_lognormal_sums(
                log_x, mu, sigma)
            assert abs(log_sum - r_log_sum) <= tol, (mu, sigma)
            for got, ref, bound in zip(means + cov, r_means + r_cov, mean_tol + tuple(cov_tol)):
                assert abs(got - ref) <= bound, (mu, sigma)

    @pytest.mark.parametrize("x_min", [1, 40, 10_000, 10**12])
    def test_log_normalizer_against_the_window_formula_it_replaced(self, x_min):
        # the log-sum-exp of the density's logs over the window, each formed as
        # -ln x - ln sigma - ln(2 pi) / 2 - z**2 / 2 with z = (ln x - mu) / sigma;
        # within 1e-13 of the largest of the magnitudes it is formed from
        log_x = np.log(normalization_window(x_min))
        for mu, sigma in self.grid(x_min):
            z = (log_x - mu) / sigma
            terms = -log_x - math.log(sigma) - 0.5 * math.log(2 * math.pi) - 0.5 * z * z
            top = float(terms.max())
            old = top + math.log(float(np.exp(terms - top).sum()))
            size = max(abs(old), abs(top), abs(math.log(sigma)) + 0.5 * math.log(2 * math.pi))
            new = DiscreteLognormalParams(mu, sigma).log_normalizer(x_min)
            assert abs(new - old) <= 1e-13 * size, (mu, sigma)

    def test_a_call_leaves_the_next_unchanged(self):
        # two window sums at different x_min, called in turn at the box's corners,
        # forwards and then backwards: every call gives its first value, and
        # log_sum that value's log-sum, bit for bit
        corners = [(mu, sigma) for mu in (-1000.0, 20.0) for sigma in (1e-6, 50.0)]
        both = [LognormalWindowSums(3), LognormalWindowSums(10**6)]
        calls = [(sums, corner) for corner in corners for sums in both]
        first = [sums(*corner) for sums, corner in calls]
        for (sums, corner), value in reversed(list(zip(calls, first))):
            assert sums(*corner) == value
            assert sums.log_sum(*corner) == value[0]

    @pytest.mark.parametrize("x_min", [1, 40, 10_000, 10**12])
    def test_log_weight_is_the_window_row(self, x_min):
        # log_pmf and the normalizer round alike: the window sums' weights are
        # exp of the log weights -u**2 / (2 sigma**2) - ln x, u = ln x - mu, over
        # their largest, and log_weight over the window is that row less the
        # density's constants, bit for bit
        sums = LognormalWindowSums(x_min)
        window = normalization_window(x_min)
        for mu, sigma in self.grid(x_min):
            u = sums.log_x - mu
            row = u * u * (-0.5 / (sigma * sigma)) - sums.log_x
            assert np.array_equal(sums._weights(mu, sigma)[2], np.exp(row - row.max()))
            got = DiscreteLognormalParams(mu, sigma).log_weight(window)
            assert np.array_equal(got, row - math.log(sigma) - 0.5 * math.log(2 * math.pi))


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

    @pytest.mark.parametrize("x_min", [1, 10])
    @pytest.mark.parametrize("mu,sigma", [(1.0, 3.0), (5.0, 2.5), (-2.0, 4.0)])
    def test_heavy_lognormal_tail_correction(self, mu, sigma, x_min):
        # sigma > 2: the window's sum plus the lognormal mass past its midpoint edge,
        # against the density summed term by term to 10**6 plus the mass past that.
        # The midpoint rule's error past an edge e is about |f'(e)| / 24; the
        # reference's own error past 10**6 is below a millionth of the window's.
        def density(x):
            z = (np.log(x) - mu) / sigma
            return np.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2 * math.pi))

        def mass_above(x):
            return 0.5 * math.erfc((math.log(x) - mu) / (sigma * math.sqrt(2.0)))

        top = 10**6
        terms = density(np.arange(x_min, top + 1, dtype=float))
        reference = math.fsum(terms) + mass_above(top + 0.5)
        edge = x_min + NORMALIZATION_TERMS - 0.5
        slope = density(edge) * (1.0 + (math.log(edge) - mu) / sigma**2) / edge  # |f'(edge)|
        nc = normalization_constants(DiscreteLognormalParams(mu, sigma), x_min)
        assert nc.tail_corrected > nc.bare
        assert abs(nc.tail_corrected - reference) <= 2.0 * slope / 24


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


def full_table_cdf(dist, x):
    """``cdf`` read from the whole window's cumulative table."""
    cum = dist._window_cum
    return cum[np.minimum(np.asarray(x, dtype=np.int64) - dist.x_min, NORMALIZATION_TERMS - 1)]


def full_table_ccdf(dist, x):
    """``ccdf`` read from the whole window's cumulative table."""
    cum = dist._window_cum
    idx = np.minimum(np.asarray(x, dtype=np.int64) - dist.x_min, NORMALIZATION_TERMS)
    return np.maximum(1.0 - np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0.0), 0.0)


@pytest.fixture(scope="module")
def baseline_fits():
    """Fitted distributions on 24 hooked(alpha, 10) and 9 lognormal views, with the views."""
    hooked = [sample_view(HookedPowerLawParams(alpha, 10.0), n, seed)
              for alpha in (2.0, 3.0, 6.0, 10.0) for n in (500, 4000) for seed in (1, 2, 3)]
    lognormal = [sample_view(DiscreteLognormalParams(mu, sigma), 1000, seed)
                 for mu, sigma in ((0.2, 1.2), (0.6, 1.45), (1.0, 1.7)) for seed in (1, 2, 3)]
    return ([(fit_power_law(v).dist, v) for v in hooked] + [(fit_hooked(v).dist, v) for v in hooked]
            + [(fit_lognormal(v).dist, v) for v in lognormal])


class TestPrefixTable:
    """``cdf`` and ``ccdf`` sum the pmf only up to the largest point asked."""

    def test_same_bits_as_the_whole_window(self, baseline_fits):
        assert len(baseline_fits) == 24 + 24 + 9
        for dist, view in baseline_fits:
            far = dist.x_min + np.array([NORMALIZATION_TERMS - 2, NORMALIZATION_TERMS - 1,
                                         NORMALIZATION_TERMS, 10**7, 2**62])
            for points in (view.values, view.values[:3], far, np.append(view.values, far),
                           np.array([dist.x_min]), np.array([np.iinfo(np.int64).max])):
                assert np.array_equal(dist.cdf(points), full_table_cdf(dist, points))
                assert np.array_equal(dist.ccdf(points), full_table_ccdf(dist, points))
            ecdf = np.cumsum(view.multiplicities) / view.n_tail
            full = float(np.abs(ecdf - full_table_cdf(dist, view.values)).max())
            assert ks_distance(dist, view) == full

    def test_scalars(self, baseline_fits):
        dist, view = baseline_fits[-1]
        for x in (dist.x_min, int(view.values[-1]), dist.x_min + NORMALIZATION_TERMS):
            assert dist.cdf(x) == float(full_table_cdf(dist, x))
            assert dist.ccdf(x) == float(full_table_ccdf(dist, x))


#: Parameters over each family's box, the sampler's hard corners among them.
ANY_PARAMS = st.one_of(
    st.builds(PowerLawParams, st.floats(1.0 + 1e-9, 20.0)),
    st.builds(HookedPowerLawParams, st.floats(1.0 + 1e-9, 20.0), st.floats(-0.999, 1e6)),
    st.builds(DiscreteLognormalParams, st.floats(-1000.0, 20.0), st.floats(1e-6, 50.0)),
)


class TestGuideTable:
    """The guide table's lookup is the binary search over the whole table, bit for bit."""

    @given(params=ANY_PARAMS, x_min=st.sampled_from([1, 2, 40, 10**12]),
           n=st.integers(1, 3 * _SAMPLE_BLOCK + 7), seed=st.integers(0, 2**32))
    @example(params=PowerLawParams(1.0 + 1e-9), x_min=1, n=50_000, seed=3)
    @example(params=PowerLawParams(1.2), x_min=1, n=50_000, seed=4)
    @example(params=HookedPowerLawParams(1.0 + 1e-6, 0.5), x_min=1, n=50_000, seed=5)
    @example(params=DiscreteLognormalParams(0.0, 1e-5), x_min=10**12, n=50_000, seed=1)
    @example(params=DiscreteLognormalParams(-1000.0, 50.0), x_min=1, n=50_000, seed=6)
    @settings(max_examples=60, deadline=None)
    def test_draws_equal_the_clamped_binary_search(self, params, x_min, n, seed):
        dist = DiscreteDistribution(params, x_min)
        u = np.random.default_rng(seed).random(n)
        index = np.searchsorted(dist._window_cum, u, side="left")
        expected = np.minimum(index, NORMALIZATION_TERMS - 1) + x_min
        assert np.array_equal(dist.sample(n, seed), expected)

    @pytest.mark.parametrize("params, x_min", [
        (PowerLawParams(1.0 + 1e-9), 1), (PowerLawParams(1.2), 1), (PowerLawParams(2.5), 7),
        (HookedPowerLawParams(20.0, -0.999), 1), (DiscreteLognormalParams(2.2, 1.02), 1),
        (DiscreteLognormalParams(0.0, 1e-5), 10**12), (DiscreteLognormalParams(20.0, 1e-6), 1),
    ])
    def test_edges_and_table_entries(self, params, x_min):
        # uniforms on every bucket edge and every table entry below one, and
        # their neighbours, where a rounded bucket or edge would show
        dist = DiscreteDistribution(params, x_min)
        cum = dist._window_cum
        points = np.concatenate([np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, cum[cum < 1.0],
                                 [0.0, np.nextafter(1.0, 0.0)]])
        u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        out = np.empty(u.size, np.int64)
        dist._lookup(u, out)
        assert np.array_equal(out, np.searchsorted(cum, u, side="left"))

    def test_crowded_and_single_buckets(self):
        # alpha near one spreads the table over the buckets: both lookups run
        _, _, crowded = DiscreteDistribution(PowerLawParams(1.2), 1)._guide
        assert 0 < np.count_nonzero(crowded) < _GUIDE_BUCKETS


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

    def test_draws_in_bounded_memory(self):
        # the uniforms and one index array, clamped and offset in place
        dist = DiscreteDistribution(DiscreteLognormalParams(2.2, 1.02), 1)
        tracemalloc.start()
        try:
            draws = dist.sample(10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.dtype == np.int64
        assert peak < 20_000_000

    def test_draws_stay_on_the_window(self):
        # rounding leaves this window's cumulative mass 1.5e-4 short of one
        dist = DiscreteDistribution(DiscreteLognormalParams(0.0, 1e-5), 10**12)
        assert 1.0 - dist._window_cum[-1] > 1e-4
        sample = dist.sample(100_000, seed=1)
        assert sample.min() >= dist.x_min
        assert sample.max() <= dist.x_min + NORMALIZATION_TERMS - 1

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

import dataclasses
import itertools

import numpy as np
import pytest

from citefit.comparison import (
    FIRST,
    INDISTINGUISHABLE,
    SECOND,
    compare,
    lrt_test,
    vuong_test,
)
from citefit.dataset import CountDataset, truncate
from citefit.errors import InternalConsistencyError, UsageError
from citefit.fitting import fit_hooked, fit_lognormal, fit_power_law
from citefit.kernels import (
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
)

from conftest import sample_view


def fits_on(view):
    return fit_power_law(view), fit_lognormal(view), fit_hooked(view)


class TestVuong:
    def test_identical_models_degenerate(self):
        view = sample_view(PowerLawParams(2.5), 200, seed=1)
        fit = fit_power_law(view)
        out = vuong_test(fit, fit, view)
        assert out.degenerate
        assert out.statistic == 0.0
        assert out.better == INDISTINGUISHABLE

    def test_antisymmetry(self):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 500, seed=2)
        pl, ln, _ = fits_on(view)
        ab = vuong_test(pl, ln, view)
        ba = vuong_test(ln, pl, view)
        assert abs(ab.statistic + ba.statistic) < 1e-10

    def test_mismatched_x_min_is_usage_error(self):
        view1 = sample_view(PowerLawParams(2.5), 300, seed=3)
        view2 = truncate(view1.base, 2)
        fit1 = fit_power_law(view1)
        fit2 = fit_lognormal(view2)
        with pytest.raises(UsageError):
            vuong_test(fit1, fit2, view1)

    def test_lognormal_data_favors_lognormal(self):
        # mirrors the uniformly negative first-vs-second column on real data
        wins = 0
        for seed in range(8):
            view = sample_view(DiscreteLognormalParams(2.0, 1.0), 4000, seed=30 + seed)
            pl, ln, _ = fits_on(view)
            out = vuong_test(pl, ln, view)
            wins += out.statistic <= -1.96
        assert wins >= 7

    def test_order_invariance(self):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 400, seed=4)
        pl, ln, _ = fits_on(view)
        z1 = vuong_test(pl, ln, view).statistic
        shuffled = np.repeat(view.values, view.multiplicities)
        np.random.default_rng(0).shuffle(shuffled)
        view2 = truncate(CountDataset(shuffled), 1)
        z2 = vuong_test(pl, ln, view2).statistic
        assert z1 == pytest.approx(z2, abs=1e-12)

    def test_consistency_strengthens_with_n(self):
        def mean_z(n, seeds):
            zs = []
            for seed in seeds:
                view = sample_view(DiscreteLognormalParams(2.0, 1.0), n, seed=seed)
                pl, ln, _ = fits_on(view)
                zs.append(vuong_test(pl, ln, view).statistic)
            return np.mean(zs)

        assert mean_z(4000, range(60, 64)) < mean_z(500, range(60, 64)) < 0


class TestLrt:
    def test_tiny_gap_not_significant(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=10)
        pl, _, hooked = fits_on(view)
        pl_mod = dataclasses.replace(pl, neg_log_likelihood=741.25)
        hooked_mod = dataclasses.replace(hooked, neg_log_likelihood=741.24)
        out = lrt_test(pl_mod, hooked_mod)
        assert out.statistic == pytest.approx(0.02, abs=1e-9)
        assert out.better == INDISTINGUISHABLE

    def test_equal_values_zero(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=11)
        pl, _, hooked = fits_on(view)
        hooked_mod = dataclasses.replace(hooked, neg_log_likelihood=pl.neg_log_likelihood)
        out = lrt_test(pl, hooked_mod)
        assert out.statistic == 0.0
        assert not out.significant_05

    def test_rounding_negative_clamps_to_zero(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=12)
        pl, _, hooked = fits_on(view)
        hooked_mod = dataclasses.replace(
            hooked, neg_log_likelihood=pl.neg_log_likelihood + 4e-7
        )
        assert lrt_test(pl, hooked_mod).statistic == 0.0

    def test_larger_violation_is_internal_error(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=13)
        pl, _, hooked = fits_on(view)
        hooked_bad = dataclasses.replace(
            hooked, neg_log_likelihood=pl.neg_log_likelihood + 0.1
        )
        with pytest.raises(InternalConsistencyError):
            lrt_test(pl, hooked_bad)

    def test_thresholds(self):
        view = sample_view(HookedPowerLawParams(3.0, 30.0), 2000, seed=14)
        pl, _, hooked = fits_on(view)
        out = lrt_test(pl, hooked)
        assert out.threshold_05 == 3.841
        assert out.threshold_01 == 6.635

    def test_hooked_data_detected(self):
        wins = 0
        for seed in range(5):
            view = sample_view(HookedPowerLawParams(3.0, 30.0), 2000, seed=40 + seed)
            pl, _, hooked = fits_on(view)
            out = lrt_test(pl, hooked)
            wins += out.statistic >= 6.635 and out.better == SECOND
        assert wins >= 4

    def test_argument_kinds_enforced(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=15)
        pl, ln, hooked = fits_on(view)
        with pytest.raises(UsageError):
            lrt_test(ln, hooked)
        with pytest.raises(UsageError):
            lrt_test(pl, ln)

    def test_fits_of_two_truncations_are_refused(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=15)
        with pytest.raises(UsageError, match="same truncated data"):
            lrt_test(fit_power_law(view), fit_hooked(truncate(view.base, 2)))

    def test_order_invariance(self):
        base = sample_view(HookedPowerLawParams(3.0, 10.0), 500, seed=16)
        shuffled = np.repeat(base.values, base.multiplicities)
        np.random.default_rng(1).shuffle(shuffled)
        view2 = truncate(CountDataset(shuffled), 1)
        s1 = lrt_test(fit_power_law(base), fit_hooked(base)).statistic
        s2 = lrt_test(fit_power_law(view2), fit_hooked(view2)).statistic
        assert s1 == pytest.approx(s2, abs=1e-9)


class TestCompare:
    """``compare`` picks each pair's test as the command line did before it existed."""

    @staticmethod
    def picked(fits, a, b, view):
        """The test of ``a`` against ``b`` and the name of the better, by the old rule."""
        if {a, b} == {"pl", "hooked"}:
            outcome = lrt_test(fits["pl"], fits["hooked"])
            return outcome, {FIRST: "pl", SECOND: "hooked"}.get(outcome.better, "neither")
        outcome = vuong_test(fits[a], fits[b], view)
        return outcome, {FIRST: a, SECOND: b}.get(outcome.better, "neither")

    @pytest.mark.parametrize("params", [PowerLawParams(2.5), HookedPowerLawParams(3.0, 30.0)])
    def test_every_ordered_pair(self, params):
        view = sample_view(params, 2000, seed=40)
        fits = dict(zip(("pl", "ln", "hooked"), fits_on(view)))
        for a, b in itertools.product(fits, repeat=2):
            got = compare(fits[a], fits[b], view)
            want, better = self.picked(fits, a, b, view)
            assert (got.kind, got.statistic, got.n, got.degenerate) == (
                want.kind, want.statistic, want.n, want.degenerate)
            assert {FIRST: a, SECOND: b}.get(got.better, "neither") == better
            assert (got.threshold_05, got.threshold_01) == (want.threshold_05, want.threshold_01)
        if isinstance(params, HookedPowerLawParams):  # the verdict to map is not "neither"
            assert compare(fits["hooked"], fits["pl"], view).better == FIRST

    def test_data_from_another_truncation_is_usage_error(self):
        view = sample_view(PowerLawParams(2.5), 300, seed=3)
        pl, ln, hooked = fits_on(view)
        other = truncate(view.base, 2)
        for a, b in ((pl, hooked), (hooked, pl), (pl, ln), (ln, ln)):
            with pytest.raises(UsageError):
                compare(a, b, other)

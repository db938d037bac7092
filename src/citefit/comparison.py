"""Pairwise model comparison: ``compare`` picks the test for two fits.

The nested power-law / hooked pair, in either order, takes the
likelihood-ratio test (chi-square, one degree of freedom); every other
pair takes Vuong's test (standard normal, read two-sided). Each test's
critical values are one row of ``CRITICAL_VALUES``.

Both tests depend only on the multiset of observations, so they are
invariant to dataset ordering, and are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .dataset import TruncatedView
from .errors import InternalConsistencyError, UsageError
from .fitting import FitResult
from .kernels import HookedPowerLawParams, PowerLawParams

FIRST = "first"
SECOND = "second"
INDISTINGUISHABLE = "indistinguishable"

VUONG_THRESHOLD_05 = 1.96  # two-sided normal
VUONG_THRESHOLD_01 = 2.576
LRT_THRESHOLD_05 = 3.841
LRT_THRESHOLD_01 = 6.635
#: Each test's critical values at p=0.05 and p=0.01.
CRITICAL_VALUES = {
    "vuong": (VUONG_THRESHOLD_05, VUONG_THRESHOLD_01),
    "lrt": (LRT_THRESHOLD_05, LRT_THRESHOLD_01),
}
#: The nested pairs of parameter classes, smaller family first: the LRT's pairs.
NESTED = ((PowerLawParams, HookedPowerLawParams),)

#: Small negative LRT statistics within this tolerance are optimizer
#: round-off and are clamped to zero; anything worse is an error.
LRT_CLAMP_TOL = 1e-6


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of one pairwise test."""

    kind: str  # "vuong" or "lrt"
    statistic: float
    better: str  # FIRST, SECOND, or INDISTINGUISHABLE
    n: int
    degenerate: bool = False

    @property
    def threshold_05(self) -> float:
        return CRITICAL_VALUES[self.kind][0]

    @property
    def threshold_01(self) -> float:
        return CRITICAL_VALUES[self.kind][1]

    @property
    def significant_05(self) -> bool:
        return self.better != INDISTINGUISHABLE


def compare(fit_a: FitResult, fit_b: FitResult, data: TruncatedView) -> ComparisonOutcome:
    """The test of ``fit_a`` against ``fit_b`` on ``data``, the tail both were fitted to.

    A nested pair, in either order, takes :func:`lrt_test`, its ``better``
    read in the caller's order (FIRST is ``fit_a``); any other pair takes
    :func:`vuong_test`. UsageError when ``data`` is not the fits' tail.
    """
    _require_one_tail(fit_a, fit_b, data)
    pair = type(fit_a.params), type(fit_b.params)
    if pair in NESTED:
        return lrt_test(fit_a, fit_b)
    if pair[::-1] in NESTED:
        outcome = lrt_test(fit_b, fit_a)
        return replace(outcome, better=FIRST if outcome.better == SECOND else outcome.better)
    return vuong_test(fit_a, fit_b, data)


def _require_one_tail(fit_a: FitResult, fit_b: FitResult, data: TruncatedView):
    if not (fit_a.x_min, fit_a.n_tail) == (fit_b.x_min, fit_b.n_tail) == (data.x_min, data.n_tail):
        raise UsageError("a comparison requires both fits on the data's tail (x_min and size)")


def vuong_test(fit_a: FitResult, fit_b: FitResult, data: TruncatedView) -> ComparisonOutcome:
    """Vuong closeness test between two fits on the same truncated data.

    z = (sum of pointwise log-likelihood differences - K) / (sqrt(n) * s)
    with K = ((p_a - p_b)/2) * ln(n), p the number of fields of each fit's
    parameter class, and s the sample standard deviation of the pointwise
    differences. Positive z favors ``fit_a``; the
    verdict is two-sided at |z| >= 1.96. Each difference is evaluated
    once per distinct value and weighted by its multiplicity.

    If the two models are pointwise identical on the data (s = 0), the
    outcome is flagged degenerate and reported indistinguishable.
    """
    _require_one_tail(fit_a, fit_b, data)
    n = data.n_tail
    weights = data.multiplicities
    pointwise = fit_a.dist.log_pmf(data.values) - fit_b.dist.log_pmf(data.values)
    total = float(weights @ pointwise)
    spread = 0.0
    if n > 1 and pointwise.min() != pointwise.max():
        deviation = pointwise - total / n
        spread = math.sqrt(float(weights @ (deviation * deviation)) / (n - 1))
    if spread == 0.0:
        return ComparisonOutcome("vuong", 0.0, INDISTINGUISHABLE, n, degenerate=True)
    correction = 0.5 * (len(fields(fit_a.params)) - len(fields(fit_b.params))) * math.log(n)
    z = (total - correction) / (math.sqrt(n) * spread)
    better = (FIRST if z >= VUONG_THRESHOLD_05 else
              SECOND if z <= -VUONG_THRESHOLD_05 else INDISTINGUISHABLE)
    return ComparisonOutcome("vuong", z, better, n)


def lrt_test(fit_pl: FitResult, fit_hooked: FitResult) -> ComparisonOutcome:
    """Likelihood-ratio test of the power law against the hooked power law.

    The statistic is 2 * (negLL_pl - negLL_hooked), nonnegative because
    the hooked family contains the power law at B = 0. A small negative
    value (within 1e-6) is optimizer round-off and clamps to zero;
    anything more negative signals a failed hooked fit upstream and
    raises InternalConsistencyError. Significant (hooked better) at
    statistic >= 3.841 for p=0.05.
    """
    if (type(fit_pl.params), type(fit_hooked.params)) not in NESTED:
        raise UsageError("the LRT takes the power-law fit, then the hooked-power-law fit")
    if fit_pl.x_min != fit_hooked.x_min or fit_pl.n_tail != fit_hooked.n_tail:
        raise UsageError("LRT requires both fits on the same truncated data")
    statistic = 2.0 * (fit_pl.neg_log_likelihood - fit_hooked.neg_log_likelihood)
    if statistic < 0.0:
        if statistic < -LRT_CLAMP_TOL:
            raise InternalConsistencyError(
                f"hooked fit is worse than the nested power law by "
                f"{-statistic / 2.0:.3g}; the hooked optimizer failed"
            )
        statistic = 0.0
    better = SECOND if statistic >= LRT_THRESHOLD_05 else INDISTINGUISHABLE
    return ComparisonOutcome("lrt", statistic, better, fit_pl.n_tail)

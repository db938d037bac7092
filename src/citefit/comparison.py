"""Pairwise model comparison: Vuong test and likelihood-ratio test.

The Vuong test compares non-nested fits through the pointwise
log-likelihood differences, with a Schwarz (BIC-type) correction for the
differing parameter counts; its statistic is asymptotically standard
normal, read two-sided. The likelihood-ratio test covers the nested
power-law / hooked pair: twice the log-likelihood gap, chi-square with
one degree of freedom (critical values 3.841 at p=0.05 and 6.635 at
p=0.01). A positive statistic favors the first model for Vuong and the
larger (hooked) model for the LRT.

Both tests depend only on the multiset of observations, so they are
invariant to dataset ordering, and are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

#: Small negative LRT statistics within this tolerance are optimizer
#: round-off and are clamped to zero; anything worse is an error.
LRT_CLAMP_TOL = 1e-6


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of one pairwise test."""

    kind: str  # "vuong" or "lrt"
    statistic: float
    threshold_05: float
    threshold_01: float
    better: str  # FIRST, SECOND, or INDISTINGUISHABLE
    n: int
    degenerate: bool = False

    @property
    def significant_05(self) -> bool:
        return self.better != INDISTINGUISHABLE


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
    if fit_a.x_min != fit_b.x_min or fit_a.x_min != data.x_min:
        raise UsageError("Vuong test requires both fits and data to share one x_min")
    if fit_a.n_tail != data.n_tail or fit_b.n_tail != data.n_tail:
        raise UsageError("Vuong test requires both fits to cover the same data")
    n = data.n_tail
    weights = data.multiplicities
    pointwise = fit_a.dist.log_pmf(data.values) - fit_b.dist.log_pmf(data.values)
    total = float(weights @ pointwise)
    spread = 0.0
    if n > 1 and pointwise.min() != pointwise.max():
        deviation = pointwise - total / n
        spread = math.sqrt(float(weights @ (deviation * deviation)) / (n - 1))
    if spread == 0.0:
        return ComparisonOutcome(
            kind="vuong",
            statistic=0.0,
            threshold_05=VUONG_THRESHOLD_05,
            threshold_01=VUONG_THRESHOLD_01,
            better=INDISTINGUISHABLE,
            n=n,
            degenerate=True,
        )
    correction = 0.5 * (len(fields(fit_a.params)) - len(fields(fit_b.params))) * math.log(n)
    z = (total - correction) / (math.sqrt(n) * spread)
    if z >= VUONG_THRESHOLD_05:
        better = FIRST
    elif z <= -VUONG_THRESHOLD_05:
        better = SECOND
    else:
        better = INDISTINGUISHABLE
    return ComparisonOutcome(
        kind="vuong",
        statistic=z,
        threshold_05=VUONG_THRESHOLD_05,
        threshold_01=VUONG_THRESHOLD_01,
        better=better,
        n=n,
    )


def lrt_test(fit_pl: FitResult, fit_hooked: FitResult) -> ComparisonOutcome:
    """Likelihood-ratio test of the power law against the hooked power law.

    The statistic is 2 * (negLL_pl - negLL_hooked), nonnegative because
    the hooked family contains the power law at B = 0. A small negative
    value (within 1e-6) is optimizer round-off and clamps to zero;
    anything more negative signals a failed hooked fit upstream and
    raises InternalConsistencyError. Significant (hooked better) at
    statistic >= 3.841 for p=0.05.
    """
    if not isinstance(fit_pl.params, PowerLawParams):
        raise UsageError("first argument must be the power-law fit")
    if not isinstance(fit_hooked.params, HookedPowerLawParams):
        raise UsageError("second argument must be the hooked-power-law fit")
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
    return ComparisonOutcome(
        kind="lrt",
        statistic=statistic,
        threshold_05=LRT_THRESHOLD_05,
        threshold_01=LRT_THRESHOLD_01,
        better=better,
        n=fit_pl.n_tail,
    )

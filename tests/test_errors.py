"""Each argument check raises its own error type, with its own message."""

import numpy as np
import pytest

from citefit.dataset import CountDataset, load_counts, truncate
from citefit.errors import (
    EmptyDatasetError,
    InternalConsistencyError,
    ParameterError,
    UsageError,
)
from citefit.fitting import fit_kind, scan_x_min
from citefit.kernels import DiscreteDistribution, DiscreteLognormalParams, PowerLawParams
from citefit.simulation import (
    AttachmentParams,
    LLContourGrid,
    attachment_count_pmf,
    ll_contour,
    lognormal_ci_study,
)

DATA = CountDataset([1, 2, 3, 5])


def header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("citations\n", encoding="utf-8")
    return path


NAN_GRID = LLContourGrid("ln", "mu", (1.0,), "sigma", (1.0,), ((float("nan"),),))

CASES = {
    "empty dataset": (lambda tmp: CountDataset([]), EmptyDatasetError, "no counts"),
    "2-D counts": (lambda tmp: CountDataset(np.ones((2, 2), dtype=np.int64)), UsageError,
                   "one-dimensional"),
    "truncate at 0": (lambda tmp: truncate(DATA, 0), UsageError, "x_min must be >= 1"),
    "distribution at 0": (lambda tmp: DiscreteDistribution(PowerLawParams(2.0), 0),
                          ParameterError, "x_min must be >= 1"),
    "no draws": (lambda tmp: DiscreteDistribution(PowerLawParams(2.0)).sample(0, 1),
                 ParameterError, "sample size must be >= 1"),
    "unknown format": (lambda tmp: load_counts(header_only(tmp), "xml"), UsageError,
                       "unknown format"),
    "header only": (lambda tmp: load_counts(header_only(tmp), "csv"), EmptyDatasetError,
                    "no data rows"),
    "lognormal mu": (lambda tmp: DiscreteLognormalParams(float("nan"), 1.0), ParameterError,
                     "mu must be finite"),
    "power-law alpha": (lambda tmp: PowerLawParams(float("inf")), ParameterError,
                        "alpha must be finite"),
    "unknown kind": (lambda tmp: fit_kind(truncate(DATA, 1), "xx"), UsageError,
                     "unknown distribution kind"),
    "no candidates": (lambda tmp: scan_x_min(DATA, "pl", []), UsageError, "empty"),
    "one replicate": (lambda tmp: lognormal_ci_study([1.0], [1.0], n=10, replicates=1, seed=0),
                      UsageError, "two replicates"),
    "contour kind": (lambda tmp: ll_contour(truncate(DATA, 1), "pl", [2.0], [1.0]), UsageError,
                     "contour kind"),
    "no valid cell": (lambda tmp: NAN_GRID.argmin(), InternalConsistencyError, "no valid cells"),
    "negative m": (lambda tmp: AttachmentParams(0.5, -1.0), ParameterError,
                   "m must be nonnegative"),
    "negative count": (lambda tmp: attachment_count_pmf(AttachmentParams(0.5, 1.0), [-1]),
                       ParameterError, "nonnegative"),
}


@pytest.mark.parametrize("case", CASES)
def test_raises_its_error(tmp_path, case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert type(info.value) is error

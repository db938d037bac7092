"""Monte-Carlo parameter-precision studies and likelihood-surface tools.

The central question these answer: when data really does come from one
of the kernels, how tightly can its parameters be recovered at realistic
sample sizes? Each study cell simulates ``replicates`` datasets, fits each
one at its generator's x_min (1 for every study here), and reports the
width of the 90% interval (5th to 95th percentile) of the fitted values.
Degenerate and non-convergent replicates are excluded and counted; a cell
is flagged when it loses more than ``EXCLUSION_FLAG_FRACTION`` (10%) of
its replicates or keeps fewer than two fits. Both studies run through one
replicate loop, which returns their finished ``CIWidthGrid``s.

Reproducibility: replicate r of grid cell (i, j) draws from a generator
seeded with ``SeedSequence(seed, spawn_key=(i, j, r))``, so results are
independent of execution order and bit-identical across runs.

Also here: negative-log-likelihood contour grids (the hooked surface
shows a diagonal ridge where alpha and B compensate for each other; the
lognormal surface shows a single focal point), a one-shot demonstration
of that ridge, the algebraic mapping between the mixed
preferential/random attachment process and hooked-power-law parameters,
and the closed-form citation threshold above which the log-log slope of
a hooked law approximates its exponent to a given tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import CountDataset, TruncatedView, truncate
from .errors import (
    InternalConsistencyError,
    OutOfModelError,
    ParameterError,
    UsageError,
)
from .fitting import fit_hooked, fit_many, neg_log_likelihood
from .kernels import (
    DEFAULT_HOOKED_B,
    FAMILIES,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
)

#: Fraction of excluded replicates above which a cell is flagged.
EXCLUSION_FLAG_FRACTION = 0.10


def replicate_seed(seed: int, *key: int) -> np.random.SeedSequence:
    """Child seed for one replicate: ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))


@dataclass(frozen=True)
class CIWidthGrid:
    """90% interquantile widths of fitted parameters over a study grid."""

    target_parameter: str
    row_name: str
    row_values: tuple[float, ...]
    col_name: str
    col_values: tuple[float, ...]
    replicates: int
    widths: tuple[tuple[float, ...], ...]
    exclusions: tuple[tuple[int, ...], ...]
    flagged: tuple[tuple[bool, ...], ...]
    description: str = ""

    def width(self, row_value: float, col_value: float) -> float:
        i = self.row_values.index(row_value)
        j = self.col_values.index(col_value)
        return self.widths[i][j]

    def to_rows(self) -> list[dict]:
        rows = []
        for i, rv in enumerate(self.row_values):
            for j, cv in enumerate(self.col_values):
                rows.append(
                    {
                        "target": self.target_parameter,
                        self.row_name: rv,
                        self.col_name: cv,
                        "width": self.widths[i][j],
                        "excluded": self.exclusions[i][j],
                        "flagged": self.flagged[i][j],
                    }
                )
        return rows

    def to_json_dict(self) -> dict:
        return asdict(self)


def _interquantile_width(values: list[float]) -> float:
    """The width from the 5th to the 95th percentile, by numpy's default linear rule.

    The same values as ``np.percentile``, whose first call imports ``numpy.ma``.
    """
    ordered = np.sort(np.asarray(values, dtype=float)).tolist()
    return _linear_quantile(ordered, 95.0 / 100.0) - _linear_quantile(ordered, 5.0 / 100.0)


def _linear_quantile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of at least two sorted values, interpolated as numpy's ``linear`` method.

    At position ``(n - 1) q`` between neighbours ``a <= b`` with fraction
    ``g``, it is ``a + (b - a) g``, or ``b - (b - a) (1 - g)`` for ``g >= 1/2``.
    """
    position = (len(ordered) - 1) * q
    i = math.floor(position)
    fraction = position - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    step = b - a
    return b - step * (1.0 - fraction) if fraction >= 0.5 else a + step * fraction


def _sample_size(n) -> int:
    """``n`` as a study's sample size: a whole number of at least one, else a UsageError."""
    if not (float(n).is_integer() and n >= 1):
        raise UsageError(f"sample size must be a whole number >= 1, got {n:g}")
    return int(n)


def _run_cells(rows, cols, replicates, seed, kind, targets, cell, description):
    """The precision studies' replicate loop; returns one ``CIWidthGrid`` per target.

    ``rows`` and ``cols`` are the grid's axes as ``(name, values)``
    pairs, the values a tuple. The cells run in row-major order.
    ``cell(i, j)`` gives grid cell (i, j)'s generating distribution and
    sample size, built once per cell. Replicate r draws from it with
    :func:`replicate_seed` ``(seed, i, j, r)``. A cell's samples, truncated
    at their generator's x_min, go to :func:`~citefit.fitting.fit_many` in
    one call, which fits ``kind`` back to each (the hooked law solves their
    profile grids in one array pass). The cell keeps the parameters of the
    converged fits; the other replicates, degenerate or not converged, are
    its exclusions. A target's width needs two kept fits, else it is NaN.
    """
    (row_name, row_values), (col_name, col_values) = rows, cols
    shape = (len(row_values), len(col_values))
    widths = np.full((len(targets), *shape), np.nan)
    exclusions = np.zeros(shape, dtype=int)
    for i, j in np.ndindex(shape):
        gen, n = cell(i, j)
        views = (truncate(CountDataset(gen.sample(n, replicate_seed(seed, i, j, r))), gen.x_min)
                 for r in range(replicates))
        kept = [fit.params for fit in fit_many(views, kind) if fit is not None and fit.converged]
        exclusions[i, j] = replicates - len(kept)
        if len(kept) >= 2:
            for width, name in zip(widths, targets):
                width[i, j] = _interquantile_width([getattr(params, name) for params in kept])
    flagged = (exclusions > EXCLUSION_FLAG_FRACTION * replicates) | (replicates - exclusions < 2)
    return tuple(
        CIWidthGrid(
            target_parameter=target,
            row_name=row_name,
            row_values=row_values,
            col_name=col_name,
            col_values=col_values,
            replicates=replicates,
            widths=_as_grid(width),
            exclusions=_as_grid(exclusions),
            flagged=_as_grid(flagged),
            description=description,
        )
        for target, width in zip(targets, widths)
    )


def _as_grid(arr) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in arr.tolist())


def ci_width_study(kind: str, parameter_grid, n_grid, replicates: int, seed: int,
                   B: float = DEFAULT_HOOKED_B) -> CIWidthGrid:
    """Precision study for the scaling exponent.

    For each (alpha, n) cell: simulate ``replicates`` samples of size n
    from the generating distribution (``hooked`` with the given offset
    B, or ``pl``), fit the same family back, and record the width of the
    90% interval of the fitted alphas.
    """
    if replicates < 2:
        raise UsageError("need at least two replicates to form an interval")
    if kind not in ("hooked", "pl"):
        raise UsageError(f"unsupported generator kind {kind!r} for the alpha study")
    alphas = tuple(float(a) for a in parameter_grid)
    sizes = tuple(_sample_size(n) for n in n_grid)

    def cell(i, j):
        if kind == "hooked":
            return DiscreteDistribution(HookedPowerLawParams(alphas[i], B)), sizes[j]
        return DiscreteDistribution(PowerLawParams(alphas[i])), sizes[j]

    description = f"{kind} generator" + (f", B={B}" if kind == "hooked" else "")
    return _run_cells(("alpha", alphas), ("n", tuple(float(n) for n in sizes)),
                      replicates, seed, kind, ("alpha",), cell, description)[0]


def lognormal_ci_study(mu_grid, sigma_grid, n: int, replicates: int,
                       seed: int) -> tuple[CIWidthGrid, CIWidthGrid]:
    """Precision study for the lognormal parameters at one sample size.

    Returns two grids over (mu, sigma): widths of the fitted mu and of
    the fitted sigma. Each replicate is fitted once and feeds both.
    """
    if replicates < 2:
        raise UsageError("need at least two replicates to form an interval")
    n = _sample_size(n)
    mus = tuple(float(m) for m in mu_grid)
    sigmas = tuple(float(s) for s in sigma_grid)

    def cell(i, j):
        return DiscreteDistribution(DiscreteLognormalParams(mus[i], sigmas[j])), n

    return _run_cells(("mu", mus), ("sigma", sigmas), replicates, seed, "ln",
                      ("mu", "sigma"), cell, f"lognormal generator, n={n}")


@dataclass(frozen=True)
class LLContourGrid:
    """Negative log-likelihood of one dataset over a parameter grid."""

    kind: str
    p1_name: str
    p1_values: tuple[float, ...]
    p2_name: str
    p2_values: tuple[float, ...]
    cells: tuple[tuple[float, ...], ...]
    invalid_cells: int = 0

    def argmin(self) -> tuple[int, int]:
        arr = np.asarray(self.cells, dtype=float)
        if np.all(np.isnan(arr)):
            raise InternalConsistencyError("contour grid has no valid cells")
        i, j = np.unravel_index(np.nanargmin(arr), arr.shape)
        return int(i), int(j)

    def minimum(self) -> tuple[float, float, float]:
        i, j = self.argmin()
        return self.p1_values[i], self.p2_values[j], self.cells[i][j]

    def to_rows(self) -> list[dict]:
        return [
            {self.p1_name: p1, self.p2_name: p2, "neg_log_likelihood": self.cells[i][j]}
            for i, p1 in enumerate(self.p1_values)
            for j, p2 in enumerate(self.p2_values)
        ]

    def to_json_dict(self) -> dict:
        return asdict(self)


#: The two-parameter kinds, whose surfaces a contour grid covers.
_CONTOUR_KINDS = ("hooked", "ln")


def ll_contour(data: TruncatedView, kind: str, p1_axis, p2_axis) -> LLContourGrid:
    """Evaluate the negative log-likelihood over a parameter grid.

    No fitting happens; each cell is the objective at those parameters.
    Parameters outside the kernel domain leave NaN cells (counted),
    never an exception.
    """
    if kind not in _CONTOUR_KINDS:
        raise UsageError(f"contour kind must be one of {sorted(_CONTOUR_KINDS)}")
    family = FAMILIES[kind]
    p1 = tuple(float(v) for v in p1_axis)
    p2 = tuple(float(v) for v in p2_axis)
    for axis in (p1, p2):
        if len(axis) == 0 or any(b <= a for a, b in zip(axis, axis[1:])):
            raise UsageError("contour axes must be nonempty and strictly increasing")
    cells = np.full((len(p1), len(p2)), np.nan)
    invalid = 0
    for i, v1 in enumerate(p1):
        for j, v2 in enumerate(p2):
            try:
                cells[i, j] = neg_log_likelihood(family(v1, v2), data)
            except ParameterError:
                invalid += 1
    name1, name2 = (f.name for f in fields(family))
    return LLContourGrid(
        kind=kind,
        p1_name=name1,
        p1_values=p1,
        p2_name=name2,
        p2_values=p2,
        cells=_as_grid(cells),
        invalid_cells=invalid,
    )


@dataclass(frozen=True)
class RidgeReport:
    """One sample-fit-evaluate pass exhibiting the alpha/B trade-off.

    ``neg_ll_hybrid`` evaluates the fitted alpha with the *true* B; when
    the fit wandered up the ridge, that mismatched pair fits far worse
    than either endpoint, showing the alpha increase was only viable
    because B moved with it.
    """

    true_alpha: float
    true_B: float
    fitted_alpha: float
    fitted_B: float
    neg_ll_true: float
    neg_ll_fitted: float
    neg_ll_hybrid: float
    fit_converged: bool

    def to_json_dict(self) -> dict:
        return {
            "true_params": {"alpha": self.true_alpha, "B": self.true_B},
            "fitted_params": {"alpha": self.fitted_alpha, "B": self.fitted_B},
            "neg_ll_true": self.neg_ll_true,
            "neg_ll_fitted": self.neg_ll_fitted,
            "neg_ll_hybrid": self.neg_ll_hybrid,
            "fit_converged": self.fit_converged,
        }


def ridge_demo(
    true_alpha: float, true_B: float = DEFAULT_HOOKED_B, n: int = 500, seed: int = 0
) -> RidgeReport:
    """Sample once from a hooked law, fit it, and evaluate the hybrid point."""
    if n < 100:
        raise UsageError("ridge demonstration needs at least 100 samples")
    truth = HookedPowerLawParams(true_alpha, true_B)
    gen = DiscreteDistribution(truth, 1)
    sample = gen.sample(n, replicate_seed(seed, 0))
    view = truncate(CountDataset(sample), 1)
    fit = fit_hooked(view)
    neg_ll_true = neg_log_likelihood(truth, view)
    neg_ll_fitted = fit.neg_log_likelihood
    hybrid = HookedPowerLawParams(fit.params.alpha, true_B)
    neg_ll_hybrid = neg_log_likelihood(hybrid, view)
    if fit.converged and neg_ll_fitted > neg_ll_true + 1e-6:
        raise InternalConsistencyError(
            "converged fit is worse than the generating parameters"
        )
    return RidgeReport(
        true_alpha=true_alpha,
        true_B=true_B,
        fitted_alpha=fit.params.alpha,
        fitted_B=fit.params.B,
        neg_ll_true=neg_ll_true,
        neg_ll_fitted=neg_ll_fitted,
        neg_ll_hybrid=neg_ll_hybrid,
        fit_converged=fit.converged,
    )


@dataclass(frozen=True)
class AttachmentParams:
    """Mixed attachment process: a new citation goes to a paper chosen by
    current citation count with probability ``beta``, uniformly at random
    otherwise; each new paper carries ``m`` references.

    ``m`` is an integer in the generative story but kept real here so the
    inverse mapping from hooked parameters is total.
    """

    beta: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must lie strictly in (0, 1), got {self.beta}")
        if not (math.isfinite(self.m) and self.m >= 0.0):
            raise ParameterError(f"m must be nonnegative, got {self.m}")


def attachment_to_hooked(p: AttachmentParams) -> HookedPowerLawParams:
    """Map attachment parameters to the hooked law: alpha = 1 + 1/beta,
    B = 2m(1 - beta)/beta."""
    alpha = 1.0 + 1.0 / p.beta
    B = 2.0 * p.m * (1.0 - p.beta) / p.beta
    return HookedPowerLawParams(alpha=alpha, B=B)


def hooked_to_attachment(h: HookedPowerLawParams) -> AttachmentParams:
    """Invert the mapping: beta = 1/(alpha - 1), m = B*beta / (2(1 - beta)).

    Only hooked laws with alpha > 2 and B >= 0 correspond to an
    attachment process (alpha <= 2 would need beta >= 1); anything else
    raises OutOfModelError rather than clamping.
    """
    if h.B < 0.0:
        raise OutOfModelError(f"offset B={h.B} cannot arise from the attachment process")
    beta = 1.0 / (h.alpha - 1.0)
    if beta >= 1.0:
        raise OutOfModelError(
            f"alpha={h.alpha} implies beta={beta} >= 1, outside the attachment model"
        )
    m = h.B * beta / (2.0 * (1.0 - beta))
    return AttachmentParams(beta=beta, m=m)


def attachment_count_pmf(p: AttachmentParams, k) -> np.ndarray:
    """Long-run probability that a random paper has k citations (k >= 0)
    under the attachment process:
    ``[2m(1-beta)]**(1/beta) * [beta*k + 2m(1-beta)]**(-1-1/beta)``.

    Proportional to the hooked kernel ``(B + k)**-alpha`` under the
    parameter mapping above.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 0):
        raise ParameterError("citation counts are nonnegative")
    c = 2.0 * p.m * (1.0 - p.beta)
    return c ** (1.0 / p.beta) * (p.beta * karr + c) ** (-1.0 - 1.0 / p.beta)


def slope_tolerance_threshold(T: float, B: float) -> float:
    """Citation count above which the hooked law's log-log slope is
    within relative tolerance T of its exponent: ((1 - T)/T) * B.

    At that point x, the slope magnitude ``alpha * x / (B + x)`` equals
    ``alpha * (1 - T)`` exactly.
    """
    if not (0.0 < T < 1.0):
        raise ParameterError(f"tolerance must lie strictly in (0, 1), got {T}")
    if not (math.isfinite(B) and B >= 0.0):
        raise ParameterError(f"offset B must be nonnegative, got {B}")
    return ((1.0 - T) / T) * B

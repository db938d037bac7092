"""Maximum-likelihood fitting of the truncated discrete kernels.

All objectives are negative log-likelihoods: lower is better. Two
solvers cover the three families, matched to their likelihood surfaces:

* power law and hooked power law: one exact 1-D score solver. The hooked
  weight ``(B + x)**-alpha`` is the power law shifted by ``B``, and for
  any fixed ``B`` the objective is convex in ``alpha``, so the optimal
  ``alpha`` is the root of a monotone score (:func:`_alpha_at`). The
  power law is that solve at ``B = 0``. The hooked fit profiles it over
  ``log(B + 1)``: a fixed grid, then a root of the profile's slope, which
  is the analytic ``d/dB`` of the objective. The profile follows the long
  diagonal valley in which increases in ``alpha`` trade off against
  increases in ``B``, which makes the 2-D problem badly conditioned for
  gradient descent.
* discrete lognormal: box-constrained quasi-Newton descent (L-BFGS-B)
  with analytic gradients, started from the moments of ``ln x``. Its
  likelihood surface has a single sharp basin.

Convergence is always decided on the analytic gradient. Non-convergence
is a reported state (``converged=False``), never an exception, so batch
runs over many datasets complete. Degenerate data (constant values, or
fewer points than the model can identify) raises
:class:`~citefit.errors.DegenerateDataError`.

Everything here is a pure function of its inputs; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize

from .dataset import CountDataset, TruncatedView, truncate
from .errors import DegenerateDataError, EmptyTailError, ParameterError, ScanError, UsageError
from .kernels import (
    ALPHA_MAX,
    ALPHA_MIN,
    B_MAX,
    B_MIN,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    MU_MAX,
    MU_MIN,
    NORMALIZATION_TERMS,
    ParamSpec,
    PowerLawParams,
    SIGMA_MAX,
    SIGMA_MIN,
    log_sum_exp,
)

#: Minimum tail sizes for the fitters and the truncation scan.
MIN_TAIL_POWER_LAW = 2
MIN_TAIL_TWO_PARAM = 3
MIN_SCAN_TAIL = 10

#: Exit tolerances.
HOOKED_GRAD_TOL = 1e-6
LOGNORMAL_GRAD_TOL = 1e-7
LOGNORMAL_MAX_ITER = 10_000

_ALPHA_LO = ALPHA_MIN + 1e-9
_B_LO = B_MIN + 1e-9
_ROOT_XTOL = 1e-14
#: Profile points on the log(B + 1) grid that brackets the hooked optimum.
_PROFILE_GRID = 40


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution plus optimizer diagnostics."""

    dist: DiscreteDistribution
    neg_log_likelihood: float
    n_tail: int
    x_min: int
    converged: bool
    iterations: int
    gradient_norm_at_exit: float

    @property
    def params(self) -> ParamSpec:
        return self.dist.params


@dataclass(frozen=True)
class XminScanEntry:
    x_min: int
    fit: FitResult
    selection_score: float


@dataclass(frozen=True)
class XminScanResult:
    """Fits across truncation candidates, scored by KS distance."""

    best_x_min: int
    per_xmin: tuple[XminScanEntry, ...]

    @property
    def best(self) -> XminScanEntry:
        for entry in self.per_xmin:
            if entry.x_min == self.best_x_min:
                return entry
        raise AssertionError("scan result lost its best entry")


class _TailStats:
    """Sufficient statistics of a truncated sample, shared by the fitters."""

    def __init__(self, view: TruncatedView):
        self.values = view.values.astype(float)
        self.counts = view.multiplicities.astype(float)
        self.n = view.n_tail
        self.window = np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float)

    @property
    def degenerate(self) -> bool:
        return len(self.values) < 2


def neg_log_likelihood(params: ParamSpec, x_min: int, data: TruncatedView) -> float:
    """Negative log-likelihood of ``data`` under the kernel truncated at ``x_min``."""
    if data.values[0] < x_min:
        raise UsageError("data contains values below the requested x_min")
    dist = DiscreteDistribution(params, x_min)
    return float(-(data.multiplicities @ dist.log_pmf(data.values)))


def _fit_result(params: ParamSpec, data: TruncatedView, converged: bool,
                iterations: int, gradient_norm: float) -> FitResult:
    """The ``FitResult`` at ``params``; one distribution serves the result and its NLL."""
    dist = DiscreteDistribution(params, data.x_min)
    return FitResult(
        dist=dist,
        neg_log_likelihood=float(-(data.multiplicities @ dist.log_pmf(data.values))),
        n_tail=data.n_tail,
        x_min=data.x_min,
        converged=converged,
        iterations=iterations,
        gradient_norm_at_exit=gradient_norm,
    )


def fit_power_law(data: TruncatedView) -> FitResult:
    """MLE for the power-law exponent: the hooked profile step at ``B = 0``.

    The score (derivative of the objective in ``alpha``) is increasing, so
    its root on (1, 20] is the optimum; ``iterations`` counts the root
    finder's steps. Without a sign change the optimum is pinned at a
    boundary and the fit returns ``converged=False`` there.
    ``gradient_norm_at_exit`` is the absolute score at the returned alpha.
    """
    stats = _TailStats(data)
    if stats.n < MIN_TAIL_POWER_LAW or stats.degenerate:
        raise DegenerateDataError(
            "power-law fit needs at least two points and two distinct values"
        )
    point = _alpha_at(stats, 0.0)
    return _fit_result(PowerLawParams(point.alpha), data, not point.pinned,
                       point.iterations, abs(point.grad[0]))


class _ProfilePoint(NamedTuple):
    """The profile optimum in alpha at one offset, with the exact gradient."""

    alpha: float
    b: float
    pinned: bool
    iterations: int
    neg_log_likelihood: float
    grad: tuple[float, float]  # d/d alpha, d/d B of the objective

    @property
    def slope(self) -> float:
        """d/dt of the profile, t = log(B + 1).

        By the envelope theorem this is the partial d/dB of the objective
        at (alpha(B), B), times ``B + 1``.
        """
        return self.grad[1] * (self.b + 1.0)


# The functions handed to brentq are module-level and take their data via
# ``args``: brentq wraps its function in a self-referencing closure, so a
# closure passed to it would keep its window arrays alive until the cycle
# collector runs, and memory would grow with every fit.


def _alpha_score(alpha: float, shifted, log_window, data: float, n: int) -> float:
    w = np.exp(-alpha * shifted)
    return data - n * float(w @ log_window) / float(w.sum())


def _alpha_at(stats: _TailStats, b: float) -> _ProfilePoint:
    """MLE of alpha with the hooked offset held at ``b`` (``b = 0``: power law).

    For fixed ``b`` the objective ``alpha * sum c log(b + v) + n log Z`` is
    convex in alpha (a linear data term plus a log-sum-exp of linear
    functions), so its derivative, the score, is increasing and ``brentq``
    finds its root on ``[_ALPHA_LO, ALPHA_MAX]``. Without a sign change the
    optimum is pinned at the bound the score points to.
    """
    log_window = np.log(b + stats.window)
    shifted = log_window - log_window[0]  # keeps the window weights in range
    data = float(stats.counts @ np.log(b + stats.values))
    args = (shifted, log_window, data, stats.n)

    iterations = 0
    if _alpha_score(_ALPHA_LO, *args) >= 0.0:
        alpha, pinned = _ALPHA_LO, True
    elif _alpha_score(ALPHA_MAX, *args) <= 0.0:
        alpha, pinned = ALPHA_MAX, True
    else:
        alpha, info = brentq(
            _alpha_score, _ALPHA_LO, ALPHA_MAX, args=args, xtol=_ROOT_XTOL, full_output=True
        )
        pinned, iterations = False, info.iterations
    w = np.exp(-alpha * shifted)
    z = float(w.sum())
    p = w / z
    return _ProfilePoint(
        alpha=alpha,
        b=b,
        pinned=pinned,
        iterations=iterations,
        neg_log_likelihood=alpha * data + stats.n * (math.log(z) - alpha * log_window[0]),
        grad=(
            data - stats.n * float(p @ log_window),
            alpha * float(stats.counts @ (1.0 / (b + stats.values)))
            - alpha * stats.n * float(p @ (1.0 / (b + stats.window))),
        ),
    )


def _objective(theta, stats: _TailStats):
    """Lognormal NLL and its gradient at ``theta = (mu, sigma)``.

    Evaluates the parameter class's own log-weight and gradient, on the
    window (normalizer) and on the observed values (data term).
    """
    params = DiscreteLognormalParams(*theta)
    logw = params.log_weight(stats.window)
    log_z = log_sum_exp(logw)
    p = np.exp(logw - log_z)  # normalized window weights
    value = stats.n * log_z - float(stats.counts @ params.log_weight(stats.values))
    grad = (stats.n * (params.log_weight_gradient(stats.window) @ p)
            - params.log_weight_gradient(stats.values) @ stats.counts)
    return value, grad


def fit_lognormal(data: TruncatedView) -> FitResult:
    """MLE for the discrete lognormal via box-constrained quasi-Newton descent.

    Starts from the moments of ``ln x`` on the tail and runs L-BFGS-B
    with analytic gradients inside the box ``mu in [-1000, 20]``,
    ``sigma in (1e-6, 50]`` until the projected gradient norm drops
    below 1e-7 or 10,000 iterations pass.
    """
    stats = _TailStats(data)
    if stats.n < MIN_TAIL_TWO_PARAM:
        raise DegenerateDataError("lognormal fit needs at least three points")
    if stats.degenerate:
        raise DegenerateDataError("lognormal fit needs at least two distinct values")

    logs = np.repeat(np.log(stats.values), data.multiplicities)
    mu0 = float(np.clip(logs.mean(), MU_MIN, MU_MAX))
    sigma0 = float(np.clip(logs.std(), max(SIGMA_MIN, 1e-3), SIGMA_MAX))
    bounds = [(MU_MIN, MU_MAX), (SIGMA_MIN, SIGMA_MAX)]

    res = minimize(
        _objective,
        np.array([mu0, sigma0]),
        args=(stats,),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": LOGNORMAL_MAX_ITER,
            "gtol": LOGNORMAL_GRAD_TOL / 2.0,
            "ftol": 0.0,
        },
    )
    theta, grad, polish_steps = _newton_polish(stats, res.x, res.jac, bounds)
    grad_norm = _projected_gradient_norm(theta, grad, bounds)
    return _fit_result(DiscreteLognormalParams(float(theta[0]), float(theta[1])), data,
                       bool(grad_norm < LOGNORMAL_GRAD_TOL), int(res.nit) + polish_steps,
                       float(grad_norm))


def _newton_polish(stats: _TailStats, theta, grad, bounds, max_steps=8):
    """Drive the gradient the last stretch to zero with full Newton steps.

    L-BFGS-B stops once f-progress reaches rounding noise, which can
    leave the gradient a little above the exit tolerance; the 2x2
    Hessian (finite differences of the analytic gradient) closes that
    gap quadratically. Steps are kept only while they shrink the
    projected gradient.
    """
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    steps = 0
    for _ in range(max_steps):
        gnorm = _projected_gradient_norm(theta, grad, bounds)
        if gnorm < LOGNORMAL_GRAD_TOL / 10.0:
            break
        hessian = np.empty((2, 2))
        try:
            for i in range(2):
                h = 1e-6 * max(1.0, abs(theta[i]))
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                hessian[:, i] = (_objective(up, stats)[1] - _objective(down, stats)[1]) / (2.0 * h)
            step = np.linalg.solve(hessian, -grad)
        except (np.linalg.LinAlgError, ParameterError):  # singular, or sigma stepped to 0
            break
        if not np.all(np.isfinite(step)):
            break
        candidate = np.clip(theta + step, lower, upper)
        _, cand_grad = _objective(candidate, stats)
        if _projected_gradient_norm(candidate, cand_grad, bounds) >= gnorm:
            break
        theta, grad = candidate, cand_grad
        steps += 1
    return theta, grad, steps


def _projected_gradient_norm(theta, grad, bounds) -> float:
    stepped = np.clip(theta - grad, [b[0] for b in bounds], [b[1] for b in bounds])
    return float(np.linalg.norm(theta - stepped))


def _profile_at(t: float, stats: _TailStats, profiled: list) -> _ProfilePoint:
    """Profile point at ``B = exp(t) - 1`` (kept in the box), recorded in ``profiled``."""
    point = _alpha_at(stats, min(max(math.expm1(t), _B_LO), B_MAX))
    profiled.append(point)
    return point


def _profile_slope(t: float, stats: _TailStats, profiled: list) -> float:
    return _profile_at(t, stats, profiled).slope


def fit_hooked(data: TruncatedView) -> FitResult:
    """MLE for the hooked power law by profile likelihood over the offset.

    The objective is minimised over ``t = log(B + 1)`` on
    ``[B_MIN, B_MAX]``, with alpha solved exactly at each ``B`` by
    :func:`_alpha_at`. A fixed grid of profile points locates the best
    region; between the best point and the neighbour across which the
    profile slope changes sign, ``brentq`` finds the root of that slope.
    By the envelope theorem the slope is the exact ``d objective / dB`` at
    ``(alpha(B), B)``, times ``B + 1``. The lower of the grid point and
    the root is returned. ``converged`` means the projected analytic
    gradient there is below ``HOOKED_GRAD_TOL``; ``iterations`` counts the
    profile points evaluated.
    """
    stats = _TailStats(data)
    if stats.n < MIN_TAIL_TWO_PARAM:
        raise DegenerateDataError("hooked-power-law fit needs at least three points")
    if stats.degenerate:
        raise DegenerateDataError("hooked-power-law fit needs at least two distinct values")

    profiled: list[_ProfilePoint] = []
    grid = np.linspace(math.log1p(_B_LO), math.log1p(B_MAX), _PROFILE_GRID)
    points = [_profile_at(t, stats, profiled) for t in grid]
    k = min(range(_PROFILE_GRID), key=lambda i: points[i].neg_log_likelihood)
    best = points[k]
    side = k + 1 if best.slope < 0.0 else k - 1
    if 0 <= side < _PROFILE_GRID and points[side].slope * best.slope < 0.0:
        lo, hi = sorted((grid[k], grid[side]))
        t_root = brentq(_profile_slope, lo, hi, args=(stats, profiled), xtol=_ROOT_XTOL)
        root = _profile_at(t_root, stats, profiled)
        if root.neg_log_likelihood < best.neg_log_likelihood:
            best = root
    bounds = [(_ALPHA_LO, ALPHA_MAX), (_B_LO, B_MAX)]
    theta = np.array([best.alpha, best.b])
    grad_norm = _projected_gradient_norm(theta, np.array(best.grad), bounds)
    return _fit_result(HookedPowerLawParams(best.alpha, best.b), data,
                       bool(grad_norm < HOOKED_GRAD_TOL), len(profiled), grad_norm)


FITTERS: dict[str, Callable[[TruncatedView], FitResult]] = {
    "pl": fit_power_law,
    "ln": fit_lognormal,
    "hooked": fit_hooked,
}


def fit_kind(data: TruncatedView, kind: str) -> FitResult:
    """Dispatch to a fitter by kind: ``pl``, ``ln``, or ``hooked``."""
    try:
        return FITTERS[kind](data)
    except KeyError:
        raise UsageError(f"unknown distribution kind {kind!r}") from None


def ks_distance(dist: DiscreteDistribution, data: TruncatedView) -> float:
    """Kolmogorov-Smirnov distance between model and empirical CDFs.

    Evaluated at the distinct observed values, the standard discrete form.
    """
    ecdf = np.cumsum(data.multiplicities) / data.n_tail
    # the ccdf is constant past the window, and the clamp keeps ``+ 1`` from wrapping
    window_end = dist.x_min + NORMALIZATION_TERMS
    model_cdf = 1.0 - dist.ccdf(np.minimum(data.values, window_end) + 1)
    return float(np.abs(ecdf - model_cdf).max())


def scan_x_min(data: CountDataset, kind: str, x_min_range) -> XminScanResult:
    """Fit at each truncation candidate and keep the best by KS distance.

    Candidates leaving fewer than ``MIN_SCAN_TAIL`` observations (or only
    degenerate data) are skipped; if none survive, raises ScanError.
    Ties break toward the smaller ``x_min`` (the larger tail).
    """
    candidates = sorted(set(int(x) for x in x_min_range))
    if not candidates:
        raise UsageError("x_min_range is empty")
    entries = []
    for x_min in candidates:
        try:
            view = truncate(data, x_min)
        except EmptyTailError:
            continue
        if view.n_tail < MIN_SCAN_TAIL:
            continue
        try:
            fit = fit_kind(view, kind)
        except DegenerateDataError:
            continue
        entries.append(XminScanEntry(x_min, fit, ks_distance(fit.dist, view)))
    if not entries:
        raise ScanError(
            f"no truncation candidate left a tail of at least {MIN_SCAN_TAIL} usable points"
        )
    best = entries[0]
    for entry in entries[1:]:
        if entry.selection_score < best.selection_score:
            best = entry
    return XminScanResult(best_x_min=best.x_min, per_xmin=tuple(entries))

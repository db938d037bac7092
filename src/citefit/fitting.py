"""Maximum-likelihood fitting of the truncated discrete kernels.

All objectives are negative log-likelihoods: lower is better. On the
fixed 10,000-term normalization window every family (the hooked law at a
fixed offset ``B``) is an exponential family, so each objective is convex
in the family's natural parameters, and its Hessian there is exact:
``n`` times a covariance under the window's normalized weights ``p``.
The solvers use that and need nothing beyond numpy:

* power law and hooked power law: one driver runs every 1-D root, scalar
  or batched, :func:`_newton_roots`: safeguarded Newton inside a bracket,
  any number of roots at once, each round one evaluation of all the
  entries still searching and one :func:`_newton_step` each. The hooked
  weight ``(B + x)**-alpha`` is the power law shifted by ``B``. For any
  fixed ``B``, ``alpha`` is the natural parameter of ``log(B + x)``, so
  the score in ``alpha`` is increasing, with derivative
  ``n Var_p[log(B + x)]``; :func:`_alpha_at` finds its root. It reads the
  window's normalizer and the moments it needs from
  :class:`~citefit.kernels.PowerLawWindowSums` in constant time, so no
  step sums the window term by term. The power law is that solve at
  ``B = 0``. The hooked fit profiles it over ``log(B + 1)``: a fixed
  grid, then the root of the profile's slope. The grid's alpha roots are
  one batch of the driver (:func:`_profile_grids`), every point cold from
  its continuous MLE and every round one array evaluation;
  :func:`fit_many` passes the grids of many views at once, as a study
  cell's replicates or a scan's candidates. :func:`_offset_derivatives`
  gives that slope (the analytic ``d/dB`` of the objective) and the
  profile's exact curvature, only where the fit reads them. The profile
  follows the long diagonal valley, badly conditioned for gradient descent,
  in which increases in ``alpha`` trade off against increases in ``B``.
* discrete lognormal: damped Newton in the natural parameters
  ``eta = (mu / sigma**2, -1 / (2 sigma**2))`` of ``T = (ln x, ln**2 x)``,
  started from the moments of ``ln x``, each step reading the window's
  normalizer and moments from :class:`~citefit.kernels.LognormalWindowSums`.
  The ``(mu, sigma)`` box is four linear constraints in ``eta``, held by an
  active set (:func:`_lognormal_direction`). A profile over ``log sigma``
  by :func:`_newton_roots` agreed with it to 2e-12 but took three times
  the window passes (README).

Every fitter reads the :class:`~citefit.dataset.TruncatedView` it is
given. Convergence is always decided on the analytic gradient.
Non-convergence is a reported state (``converged=False``), never an
exception, so batch runs over many datasets complete. Degenerate data
(fewer points than ``MIN_TAIL`` gives the family, or one distinct value)
raises :class:`~citefit.errors.DegenerateDataError`.

Everything here is a pure function of its inputs; concurrent use is safe.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .dataset import CountDataset, TruncatedView, truncate
from .errors import DegenerateDataError, ScanError, UsageError
from .kernels import (
    ALPHA_MAX,
    ALPHA_MIN,
    B_MAX,
    B_MIN,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    LognormalWindowSums,
    MU_MAX,
    MU_MIN,
    ParamSpec,
    PowerLawParams,
    PowerLawWindowSums,
    SIGMA_MAX,
    SIGMA_MIN,
)

#: Each family's name and the fewest tail points it fits; every fit also
#: needs two distinct values (:func:`_degenerate`).
MIN_TAIL = {"pl": ("power-law", 2), "ln": ("lognormal", 3), "hooked": ("hooked-power-law", 3)}
#: The fewest tail points of a truncation candidate the scan fits.
MIN_SCAN_TAIL = 10

#: Exit tolerances.
HOOKED_GRAD_TOL = 1e-6
LOGNORMAL_GRAD_TOL = 1e-7
LOGNORMAL_MAX_ITER = 200

_ALPHA_LO = ALPHA_MIN + 1e-9
_B_LO = B_MIN + 1e-9
#: Root tolerance of :func:`_newton_roots`: absolute plus relative to the root.
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAX_ITER = 100
#: Profile points on the log(B + 1) grid that brackets the hooked optimum.
_PROFILE_GRID = 40
#: Rounding level of the profile slope, relative to the size of its two
#: terms: near the root it scatters by up to 1e-14 of that size.
_SLOPE_ROUNDING = 1e-13
#: Lognormal Newton: Armijo's sufficient-decrease share, the most halvings
#: of a step, and the Newton decrement per observation below which the
#: step taken is the last (the error left after it is below rounding).
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_FINAL_DECREMENT = 1e-16
_LOGNORMAL_BOUNDS = ((MU_MIN, MU_MAX), (SIGMA_MIN, SIGMA_MAX))


@dataclass(frozen=True)
class FitResult:
    """A fitted distribution plus optimizer diagnostics."""

    dist: DiscreteDistribution
    neg_log_likelihood: float
    n_tail: int
    converged: bool
    iterations: int
    gradient_norm_at_exit: float

    @property
    def params(self) -> ParamSpec:
        return self.dist.params

    @property
    def x_min(self) -> int:
        return self.dist.x_min


@dataclass(frozen=True)
class XminScanEntry:
    fit: FitResult
    selection_score: float

    @property
    def x_min(self) -> int:
        return self.fit.x_min


@dataclass(frozen=True)
class XminScanResult:
    """Fits across truncation candidates, scored by KS distance, and the best of them."""

    best: XminScanEntry
    per_xmin: tuple[XminScanEntry, ...]

    @property
    def best_x_min(self) -> int:
        return self.best.x_min


def _degenerate(data: TruncatedView, kind: str) -> str | None:
    """Why the family ``kind`` cannot fit ``data``: too few points or one distinct value; else None."""
    family, fewest = MIN_TAIL[kind]
    if data.n_tail < fewest or len(data.values) < 2:
        return f"{family} fit needs at least {fewest} points and 2 distinct values"
    return None


def _dataset_nll(dist: DiscreteDistribution, data: TruncatedView) -> float:
    """``-sum c log p(v)`` over the histogram of ``data``."""
    return float(-(data.multiplicities @ dist.log_pmf(data.values)))


def neg_log_likelihood(params: ParamSpec, data: TruncatedView) -> float:
    """Negative log-likelihood of ``data`` under the kernel truncated at the view's ``x_min``."""
    return _dataset_nll(DiscreteDistribution(params, data.x_min), data)


def _fit_result(params: ParamSpec, data: TruncatedView, converged: bool,
                iterations: int, gradient_norm: float) -> FitResult:
    """The ``FitResult`` at ``params``; one distribution serves the result and its NLL."""
    dist = DiscreteDistribution(params, data.x_min)
    return FitResult(dist, _dataset_nll(dist, data), data.n_tail, converged, iterations,
                     gradient_norm)


def _projected_gradient_norm(theta, grad, bounds) -> float:
    """Norm of ``theta - clip(theta - grad)``: zero at a minimum in the box, also on its edge."""
    return math.hypot(*(x - min(max(x - g, lo), hi)
                        for x, g, (lo, hi) in zip(theta, grad, bounds)))


def _newton_roots(evaluate, starts: list, lo: float, hi: float, bracketed: bool = False) -> list:
    """Roots in ``[lo, hi]`` of values that rise through zero there, by safeguarded Newton.

    One root per entry of ``starts``, each from its start with its own
    bracket (:func:`_newton_step`). Each round calls ``evaluate(active, x)``
    once with the indices, in increasing order, and points of the entries
    still searching; it returns a ``(value, derivative, ...)`` tuple for each.
    ``bracketed`` says every value is known to be negative at ``lo`` and
    positive at ``hi``, so no end is tried. An entry stops at a zero value,
    at an end that holds its root, once a step is below
    ``_ROOT_XTOL + _ROOT_RTOL * |x|``, or after ``_ROOT_MAX_ITER``
    evaluations. Returns per entry the last ``x`` evaluated, the tuple there
    and the number of evaluations: what the entry alone would give.
    """
    # per entry searching: its index, point and _newton_step's state (the box ends, the
    # bracket, whether each bracket end carries an evaluated value, and the last step)
    searching = [(i, min(max(start, lo), hi), [lo, hi, lo, hi, bracketed, bracketed, hi - lo])
                 for i, start in enumerate(starts)]
    roots = [None] * len(starts)
    count = 0
    while searching:
        count += 1
        active, x, brackets = zip(*searching)
        searching = []
        for i, xi, bracket, result in zip(active, x, brackets, evaluate(active, x)):
            new = _newton_step(bracket, xi, *result[:2])
            if new is None or count == _ROOT_MAX_ITER:
                roots[i] = xi, result, count
            else:
                searching.append((i, new, bracket))
    return roots


def _newton_step(bracket: list, x: float, value: float, derivative: float):
    """A search's next point after the value and derivative at ``x``, or ``None``.

    ``None`` means ``x`` is the root: the value there is zero, or it points
    out of the box at an end (``>= 0`` at the lower, ``<= 0`` at the
    upper), or the Newton step is below the tolerance. Otherwise the value's
    sign moves one end of the bracket to ``x``, and the Newton step is
    taken. A step that leaves the bracket goes to the end on that side
    while that end is unevaluated, otherwise bisects, as does a step that
    fails to halve the last one; a derivative that is not positive counts
    as a step out of the bracket. A step so taken that is below the
    tolerance also ends the search. Updates ``bracket``.
    """
    lo_end, hi_end, lo, hi, lo_seen, hi_seen, last_step = bracket
    if value >= 0.0 and x == lo_end or value <= 0.0 and x == hi_end or value == 0.0:
        return None
    if value > 0.0:
        hi, hi_seen = x, True
    else:
        lo, lo_seen = x, True
    new = x - value / derivative if derivative > 0.0 else math.copysign(math.inf, -value)
    tol = _ROOT_XTOL + _ROOT_RTOL * abs(x)
    if abs(new - x) <= tol:
        return None
    if not lo < new < hi:
        if new >= hi and not hi_seen:
            new = hi
        elif new <= lo and not lo_seen:
            new = lo
        else:
            new = 0.5 * (lo + hi)
    elif lo_seen and hi_seen and abs(new - x) > 0.5 * abs(last_step):
        new = 0.5 * (lo + hi)
    if abs(new - x) <= tol:
        return None
    bracket[2:] = lo, hi, lo_seen, hi_seen, new - x
    return new


def fit_power_law(data: TruncatedView) -> FitResult:
    """MLE for the power-law exponent: the hooked profile step at ``B = 0``.

    The score (derivative of the objective in ``alpha``) is increasing, so
    its root on (1, 20] is the optimum; ``iterations`` counts the score
    evaluations. Without a sign change the optimum is pinned at a
    boundary and the fit returns ``converged=False`` there.
    ``gradient_norm_at_exit`` is the absolute score at the returned alpha.
    """
    if reason := _degenerate(data, "pl"):
        raise DegenerateDataError(reason)
    point = _alpha_at(data, 0.0)
    return _fit_result(PowerLawParams(point.alpha), data, not point.pinned,
                       point.iterations, abs(point.score))


class _ProfilePoint(NamedTuple):
    """The profile optimum in alpha at one offset."""

    alpha: float
    b: float
    pinned: bool
    iterations: int
    neg_log_likelihood: float
    score: float  # d/d alpha of the objective
    sums: PowerLawWindowSums | None  # at b + x_min, where _alpha_at built them (else None)
    window: tuple[float, float, float] | None  # and S_0, S_1, S_2 there at alpha


class _OffsetDerivatives(NamedTuple):
    """The objective's offset derivatives at a profile point, from :func:`_offset_derivatives`."""

    grad_b: float  # d/dB of the objective
    slope: float  # d/dt of the profile, t = log(B + 1)
    curvature: float  # d slope / dt, the profile's second derivative
    rounding: float  # the slope's rounding level


def _continuous_alpha(n, x_min, b, data):
    """Newton's start: the continuous MLE ``1 + n / sum c log((b + v) / (b + x_min - 1/2))``.

    ``data`` is ``sum c log(b + v)``. Where the half-step edge
    ``b + x_min - 1/2`` is not positive, the edge is ``b + x_min``. Takes
    floats or arrays of one shape, and returns an array.
    """
    edge = b + x_min - 0.5
    edge = np.where(edge <= 0.0, edge + 0.5, edge)
    spread = data - n * np.log(edge)
    positive = spread > 0.0
    return np.where(positive, 1.0 + n / np.where(positive, spread, 1.0), ALPHA_MAX)


def _alpha_at(view: TruncatedView, b: float, start: float | None = None) -> _ProfilePoint:
    """MLE of alpha with the hooked offset held at ``b`` (``b = 0``: power law).

    For fixed ``b`` the objective ``alpha * sum c log(b + v) + n log Z`` is
    convex in alpha (a linear data term plus a log-sum-exp of linear
    functions), so its derivative, the score ``n (E_data - E_p)[log(b + x)]``,
    is increasing, with derivative ``n Var_p[log(b + x)]``.
    :func:`_newton_roots` finds its root in ``[_ALPHA_LO, ALPHA_MAX]``
    from ``start`` (default: the continuous MLE), as one entry in floats.
    A box end whose score points out of the box pins the optimum there.
    The window enters through its :class:`~citefit.kernels.PowerLawWindowSums`.
    """
    n, sums = view.n_tail, PowerLawWindowSums(b + view.x_min)
    data = float(view.multiplicities @ np.log(b + view.values))
    if start is None:
        start = float(_continuous_alpha(n, view.x_min, b, data))

    def score(active, alpha):
        return [_alpha_score(n, data, sums.log_offset, *sums(alpha[0]))]

    [(alpha, (grad_a, _, *window), iterations)] = _newton_roots(score, [start], _ALPHA_LO,
                                                                ALPHA_MAX)
    pinned, nll = _alpha_solved(alpha, grad_a, window[0], n, data, sums)
    return _ProfilePoint(alpha, b, pinned, iterations, nll, grad_a, sums, tuple(window))


def _alpha_score(n, data, log_edge, z, s1, s2):
    """The score ``n (data / n - log(b + x_min) - E_p[l])``, its derivative, and then the S_k."""
    mean = s1 / z
    return n * (data / n - log_edge - mean), n * (s2 / z - mean * mean), z, s1, s2


def _alpha_solved(alpha, score, z, n, data, sums: PowerLawWindowSums):
    """Whether a root alpha is pinned, and the objective there, from ``S_0 = z`` at alpha."""
    pinned = (score >= 0.0) & (alpha == _ALPHA_LO) | (score <= 0.0) & (alpha == ALPHA_MAX)
    return pinned, alpha * data + n * sums.log_normalizer(alpha, z)


def _alpha_roots(sums: PowerLawWindowSums, n, data, active, alpha):
    """:func:`_newton_roots`' evaluate for alpha at many offsets, one array pass a round.

    ``sums``, ``n`` and ``data`` hold every entry, and the ``active`` ones
    are taken from them unless all are active (which then come in order).
    Returns each one's score at its alpha, the score's derivative and ``S_0``.
    """
    if len(active) < len(n):
        index = np.array(active)
        sums, n, data = sums.take(index), n[index], data[index]
    columns = _alpha_score(n, data, sums.log_offset, *sums(np.array(alpha)))[:3]
    return zip(*(column.tolist() for column in columns))


def _offset_derivatives(view: TruncatedView, point: _ProfilePoint) -> _OffsetDerivatives:
    """The offset derivatives of the objective ``f`` at a profile point of :func:`_alpha_at`.

    With the window sums ``S_k`` of :func:`_alpha_at` (the point's own, where
    it carries them) and ``y0 = b + x_min``,
    ``E_p[1 / (b + x)] = S_0(alpha + 1) / (y0 S_0)``,
    ``E_p[l / (b + x)] = S_1(alpha + 1) / (y0 S_0)`` and
    ``E_p[(b + x)**-2] = S_0(alpha + 2) / (y0**2 S_0)``, so

    * ``f_B = alpha sum c / (b + v) - n alpha E_p[1 / (b + x)]``
    * ``f_aa = n Var_p[l]``
    * ``f_aB = sum c / (b + v) - n E_p[1 / (b + x)] + n alpha Cov_p[l, 1 / (b + x)]``
    * ``f_BB = -alpha sum c / (b + v)**2 + n alpha E_p[(b + x)**-2]
      + n alpha**2 Var_p[1 / (b + x)]``

    By the envelope theorem the profile's slope in ``t = log(b + 1)`` is
    ``(b + 1) f_B`` at ``(alpha(b), b)``, and its curvature is
    ``(b + 1)**2 (f_BB - f_aB**2 / f_aa) + (b + 1) f_B`` (``f_BB`` alone
    where alpha is pinned). The slope is a difference of two terms of size
    ``(b + 1) alpha sum c / (b + v)``; near the root it scatters by up to
    ``_SLOPE_ROUNDING`` of that size, its rounding level.
    """
    alpha, b, n, counts = point.alpha, point.b, view.n_tail, view.multiplicities
    sums = point.sums or PowerLawWindowSums(b + view.x_min)
    z, s1, s2 = point.window or sums(alpha)
    inverse = 1.0 / (b + view.values)
    data_inverse = float(counts @ inverse)
    z1, s1_1, _ = sums(alpha + 1.0)
    grad_b = alpha * data_inverse - alpha * n * z1 / (sums.offset * z)
    mean_inverse = z1 / (sums.offset * z)
    mean_square = sums(alpha + 2.0)[0] / (sums.offset * sums.offset * z)
    f_bb = (-alpha * float(counts @ (inverse * inverse)) + n * alpha * mean_square
            + n * alpha * alpha * (mean_square - mean_inverse * mean_inverse))
    if not point.pinned:
        mean = s1 / z
        f_ab = (data_inverse - n * mean_inverse
                + n * alpha * (s1_1 / (sums.offset * z) - mean * mean_inverse))
        f_bb -= f_ab * f_ab / (n * (s2 / z - mean * mean))
    u = b + 1.0
    return _OffsetDerivatives(grad_b, grad_b * u, u * u * f_bb + u * grad_b,
                              _SLOPE_ROUNDING * (alpha * data_inverse) * u)


class _LognormalPoint(NamedTuple):
    """The lognormal objective at ``(mu, sigma)`` with its exact derivatives.

    ``grad`` and ``hessian`` are taken in the natural parameters with
    ``ln x`` centred at ``mu``: ``T = (u, u**2)``, ``u = ln x - mu``, where
    the weight is ``exp(theta . T) / x`` with ``theta = (0, -1/(2 sigma**2))``.
    That is ``eta`` up to a fixed linear map, so Newton steps are the same
    as in ``eta``; centring keeps the chain rule to ``(mu, sigma)`` exact:
    ``d/dmu = grad[0] / sigma**2`` and ``d/dsigma = grad[1] / sigma**3``.
    """

    mu: float
    sigma: float
    value: float
    grad: tuple[float, float]  # n (E_p - E_data)[T]
    hessian: tuple[float, float, float]  # n Cov_p[T]: the (0, 0), (0, 1) and (1, 1) entries
    gradient_norm: float  # projected (mu, sigma) gradient


def _lognormal_point(data: TruncatedView, sums: LognormalWindowSums, log_values,
                     mu: float, sigma: float) -> _LognormalPoint:
    """Objective, centred natural-parameter gradient and Hessian at ``(mu, sigma)``.

    The objective is the negative log-likelihood; the density's constant
    factors cancel between the normalizer and the data term, so they are
    left out of both. The window enters through ``sums`` at ``(mu, sigma)``.
    """
    log_sum, (mean_u, mean_uu), cov = sums(mu, sigma)
    n, counts = data.n_tail, data.multiplicities
    uv = log_values - mu
    data_u, data_uu = float(counts @ uv), float(counts @ (uv * uv))
    value = n * log_sum + float(counts @ log_values) + data_uu / (2.0 * sigma * sigma)
    grad = (n * mean_u - data_u, n * mean_uu - data_uu)
    norm = _projected_gradient_norm((mu, sigma), (grad[0] / sigma**2, grad[1] / sigma**3),
                                    _LOGNORMAL_BOUNDS)
    return _LognormalPoint(mu, sigma, value, grad, tuple(n * c for c in cov), norm)


def _lognormal_direction(point: _LognormalPoint, n: int):
    """The Newton step in the centred natural parameters, inside the active constraints.

    Centred at ``mu``, each box constraint active at the point bounds the
    sign of one coordinate of the step: ``mu`` at a bound the first,
    ``sigma`` at a bound the second. The step is the minimiser of the
    quadratic model over that cone: the full Newton step if it keeps to
    the cone, else the 1-D Newton step along the edge of the blocking
    constraint. Returns ``None`` where no step lowers the model: at the
    optimum, or at a vertex that blocks both edges.

    Where ``sigma`` is far below the spacing of ``ln x`` between
    neighbouring integers, the window's weights collapse onto one integer
    and the Hessian vanishes; the model then takes the curvature of the
    continuous lognormal instead, ``n Cov[u, u**2] = n diag(sigma**2, 2 sigma**4)``.
    """
    signs = (
        -1.0 if point.mu == MU_MAX else 1.0 if point.mu == MU_MIN else 0.0,
        1.0 if point.sigma == SIGMA_MIN else -1.0 if point.sigma == SIGMA_MAX else 0.0,
    )
    var = point.sigma**2
    return (_constrained_newton_step(point.grad, point.hessian, signs)
            or _constrained_newton_step(point.grad, (n * var, 0.0, 2.0 * n * var * var), signs))


def _constrained_newton_step(grad, hessian, signs):
    """Minimiser of the quadratic model ``grad . d + d.H.d / 2`` with ``signs[i] * d[i] >= 0``.

    ``hessian`` holds the (0, 0), (0, 1) and (1, 1) entries; a zero sign
    leaves its coordinate free. Returns ``None`` if no candidate lowers
    the model.
    """
    g0, g1 = grad
    h00, h01, h11 = hessian
    candidates = []
    det = h00 * h11 - h01 * h01
    if det > 0.0:
        candidates.append(((h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det))
    if h00 > 0.0:
        candidates.append((-g0 / h00, 0.0))
    if h11 > 0.0:
        candidates.append((0.0, -g1 / h11))
    best, best_model = None, 0.0
    for d in candidates:
        if any(s * x < 0.0 for s, x in zip(signs, d)):
            continue
        model = g0 * d[0] + g1 * d[1] + 0.5 * (h00 * d[0] ** 2 + 2.0 * h01 * d[0] * d[1]
                                               + h11 * d[1] ** 2)
        if model < best_model:
            best, best_model = d, model
    return best


def _lognormal_step_limit(mu: float, sigma: float, d) -> tuple[float, int]:
    """Largest step length along ``d`` that stays in the box, and the constraint that sets it.

    With ``theta = (0, -1/(2 sigma**2))`` the constraints, in the order of
    the returned index, are ``mu' <= MU_MAX``, ``mu' >= MU_MIN``,
    ``sigma' >= SIGMA_MIN`` and ``sigma' <= SIGMA_MAX``; all are linear in
    the step (``-1`` means none blocks).
    """
    inv = 1.0 / (sigma * sigma)
    rows = (
        (d[0] + 2.0 * (MU_MAX - mu) * d[1], (MU_MAX - mu) * inv),
        (-d[0] + 2.0 * (mu - MU_MIN) * d[1], (mu - MU_MIN) * inv),
        (-d[1], 0.5 / SIGMA_MIN**2 - 0.5 * inv),
        (d[1], 0.5 * inv - 0.5 / SIGMA_MAX**2),
    )
    limit, blocking = math.inf, -1
    for k, (rate, slack) in enumerate(rows):
        if rate > 0.0 and slack > 0.0 and slack / rate < limit:
            limit, blocking = slack / rate, k
    return limit, blocking


def _lognormal_move(mu: float, sigma: float, d, t: float, blocking: int) -> tuple[float, float]:
    """``(mu, sigma)`` after the step ``t * d``, exactly on the bound ``blocking`` (-1: none).

    Elsewhere only rounding can leave the box; the result is clipped to it.
    """
    if d[1] != 0.0:
        sigma = math.sqrt(-0.5 / (t * d[1] - 0.5 / (sigma * sigma)))
    mu += t * d[0] * sigma * sigma
    if blocking in (0, 1):
        mu = (MU_MAX, MU_MIN)[blocking]
    elif blocking in (2, 3):
        sigma = (SIGMA_MIN, SIGMA_MAX)[blocking - 2]
    return min(max(mu, MU_MIN), MU_MAX), min(max(sigma, SIGMA_MIN), SIGMA_MAX)


def fit_lognormal(data: TruncatedView) -> FitResult:
    """MLE for the discrete lognormal by damped Newton in the natural parameters.

    Starts from the moments of ``ln x`` on the tail. Each iteration takes
    the Newton step of :func:`_lognormal_direction`, cut at the box
    ``mu in [-1000, 20]``, ``sigma in [1e-6, 50]``, and halves it until it
    passes Armijo's test or, as a full step, shrinks the projected
    gradient: near the optimum of a large sample the objective moves only
    by rounding. It stops when no step lowers the model or none is
    accepted, after the step whose Newton decrement is at rounding level,
    or after ``LOGNORMAL_MAX_ITER`` iterations. ``converged`` means the
    projected ``(mu, sigma)`` gradient is below ``LOGNORMAL_GRAD_TOL``.
    """
    if reason := _degenerate(data, "ln"):
        raise DegenerateDataError(reason)
    n, counts, log_values = data.n_tail, data.multiplicities, np.log(data.values)
    point_at = functools.partial(_lognormal_point, data, LognormalWindowSums(data.x_min),
                                 log_values)
    mean = float(counts @ log_values) / n
    std = math.sqrt(float(counts @ (log_values - mean) ** 2) / n)
    mu = min(max(mean, MU_MIN), MU_MAX)
    # Narrower than about half the spacing of ln x between neighbouring
    # integers, the window holds (in floating point) a single point mass,
    # whose Hessian vanishes; start no narrower than that.
    lattice = math.log1p(math.exp(-mean))  # ln(x + 1) - ln(x) at x = exp(mean)
    point = point_at(mu, min(max(std, 0.5 * lattice, 1e-3), SIGMA_MAX))
    iterations = 0
    while iterations < LOGNORMAL_MAX_ITER:
        d = _lognormal_direction(point, n)
        if d is None:
            break
        iterations += 1
        decrement = -(point.grad[0] * d[0] + point.grad[1] * d[1])
        limit, blocking = _lognormal_step_limit(point.mu, point.sigma, d)
        t = min(1.0, limit)
        for _ in range(_MAX_HALVINGS):
            trial = point_at(*_lognormal_move(point.mu, point.sigma, d, t,
                                              blocking if t == limit else -1))
            if (trial.value <= point.value - _ARMIJO * t * decrement
                    or t == 1.0 and trial.gradient_norm < point.gradient_norm):
                break
            t *= 0.5
        else:
            break  # no acceptable step: stalled at rounding level
        point = trial
        if decrement <= _FINAL_DECREMENT * n:
            break
    return _fit_result(DiscreteLognormalParams(point.mu, point.sigma), data,
                       point.gradient_norm < LOGNORMAL_GRAD_TOL, iterations,
                       point.gradient_norm)


def _offset(t: float) -> float:
    """The offset ``B = exp(t) - 1`` of the profile coordinate ``t``, kept in the box."""
    return min(max(math.expm1(t), _B_LO), B_MAX)


#: The fixed profile grid over ``t = log(B + 1)``, and its offsets.
_GRID_T = np.linspace(math.log1p(_B_LO), math.log1p(B_MAX), _PROFILE_GRID).tolist()
_GRID_B = np.array([_offset(t) for t in _GRID_T])
#: Views whose profile grids one array pass solves: with ``_PROFILE_GRID``
#: entries per view, this bounds the pass's memory whatever the number of views.
_GRID_VIEWS = 32
#: Distinct values per block when summing ``c log(b + v)`` over the grid.
_DATA_BLOCK = 4096


class _ProfileGrid(NamedTuple):
    """The profile at each point of the grid, from :func:`_profile_grids`."""

    alpha: np.ndarray
    pinned: np.ndarray
    iterations: np.ndarray
    neg_log_likelihood: np.ndarray
    score: np.ndarray

    def point(self, i: int) -> _ProfilePoint:
        return _ProfilePoint(float(self.alpha[i]), float(_GRID_B[i]), bool(self.pinned[i]),
                             int(self.iterations[i]), float(self.neg_log_likelihood[i]),
                             float(self.score[i]), None, None)


def _grid_data(view: TruncatedView) -> np.ndarray:
    """``sum c log(b + v)`` at each grid offset ``b``, a block of distinct values at a time."""
    data = np.zeros(_PROFILE_GRID)
    values, counts = view.values, view.multiplicities
    for lo in range(0, len(values), _DATA_BLOCK):
        block = slice(lo, lo + _DATA_BLOCK)
        data += np.log(_GRID_B[:, None] + values[block]) @ counts[block]
    return data


def _profile_grids(views: list[TruncatedView]) -> list[_ProfileGrid]:
    """Each view's profile at every grid offset, solved in one array pass.

    The pass holds one entry per (view, grid point) and solves alpha at all
    of them together by :func:`_newton_roots`, each from its continuous MLE,
    every round one array evaluation (:func:`_alpha_roots`). An entry's
    arithmetic does not depend on the other entries, so a view's grid is the
    same in any batch.
    """
    shape = (len(views), _PROFILE_GRID)
    n = np.repeat([float(view.n_tail) for view in views], _PROFILE_GRID)
    x_min = np.repeat([float(view.x_min) for view in views], _PROFILE_GRID)
    b = np.tile(_GRID_B, len(views))
    data = np.concatenate([_grid_data(view) for view in views])
    sums = PowerLawWindowSums(b + x_min)
    roots = _newton_roots(functools.partial(_alpha_roots, sums, n, data),
                          _continuous_alpha(n, x_min, b, data).tolist(), _ALPHA_LO, ALPHA_MAX)
    alpha, score, z, iterations = map(np.array, zip(*((x, value, z, count)
                                                      for x, (value, _, z), count in roots)))
    pinned, nll = _alpha_solved(alpha, score, z, n, data, sums)
    columns = [column.reshape(shape) for column in (alpha, pinned, iterations, nll, score)]
    return [_ProfileGrid(*row) for row in zip(*columns)]


def fit_hooked(data: TruncatedView) -> FitResult:
    """MLE for the hooked power law by profile likelihood over the offset.

    The objective is minimised over ``t = log(B + 1)`` on
    ``[B_MIN, B_MAX]``, with alpha solved exactly at each ``B`` as by
    :func:`_alpha_at`. A fixed grid of profile points locates the best
    region; :func:`_profile_grids` solves it in one array pass, every point
    cold from its continuous MLE. The grid is kept because on a two-regime
    mixture the profile can have two local minima, and a local search for
    the slope root can stop in the worse one with ``converged`` just as
    true. Between the best grid point and the neighbour across which the
    profile slope changes sign, :func:`_newton_roots` finds the root of that
    slope, starting from the secant of the two, each of its points solved
    by :func:`_alpha_at` from the alpha of the point before.
    :func:`_offset_derivatives` gives the slope and its derivative at
    those two grid points and at each point of the root phase, and nowhere
    else. The lower of the grid point and the root is returned.
    ``converged`` means the projected analytic gradient there is below
    ``HOOKED_GRAD_TOL``; ``iterations`` counts the profile points evaluated.
    :func:`fit_many` fits many views this way, their grids solved together.
    """
    if reason := _degenerate(data, "hooked"):
        raise DegenerateDataError(reason)
    return _fit_hooked_profile(data, _profile_grids([data])[0])


def _fit_hooked_profile(data: TruncatedView, grid: _ProfileGrid) -> FitResult:
    """:func:`fit_hooked` from the view's solved profile grid on: the slope root and the result."""
    k = int(np.argmin(grid.neg_log_likelihood))
    best, iterations = grid.point(k), _PROFILE_GRID
    at_best = _offset_derivatives(data, best)
    side = k + 1 if at_best.slope < 0.0 else k - 1
    side_slope = (_offset_derivatives(data, grid.point(side)).slope
                  if 0 <= side < _PROFILE_GRID else 0.0)
    if side_slope * at_best.slope < 0.0:
        (lo, slope_lo), (hi, slope_hi) = sorted(((_GRID_T[k], at_best.slope),
                                                 (_GRID_T[side], side_slope)))
        path = [(best, at_best)]

        def slope(active, t):
            point = _alpha_at(data, _offset(t[0]), path[-1][0].alpha)
            at = _offset_derivatives(data, point)
            path.append((point, at))
            # below its rounding level the slope is zero, which no Newton step can resolve
            return [(at.slope if abs(at.slope) > at.rounding else 0.0, at.curvature)]

        secant = lo - slope_lo * (hi - lo) / (slope_hi - slope_lo)
        iterations += _newton_roots(slope, [secant], lo, hi, bracketed=True)[0][2]
        if path[-1][0].neg_log_likelihood < best.neg_log_likelihood:
            best, at_best = path[-1]
    grad_norm = _projected_gradient_norm((best.alpha, best.b), (best.score, at_best.grad_b),
                                         ((_ALPHA_LO, ALPHA_MAX), (_B_LO, B_MAX)))
    return _fit_result(HookedPowerLawParams(best.alpha, best.b), data,
                       grad_norm < HOOKED_GRAD_TOL, iterations, grad_norm)


def fit_many(views: Iterable[TruncatedView], kind: str) -> list[FitResult | None]:
    """Fit ``kind`` to each view, in order; ``None`` for a view too degenerate to fit.

    Each fit equals ``fit_kind(view, kind)``. The other kinds call
    ``fit_kind``, and so ``FITTERS``, once a view, so that a wrapper put in
    ``FITTERS`` sees every view, the degenerate ones too. The hooked fits
    solve their profile grids together, ``_GRID_VIEWS`` views to a pass,
    and take the views from ``views`` as they go.
    """
    fits = []
    if kind != "hooked":
        for view in views:
            try:
                fits.append(fit_kind(view, kind))
            except DegenerateDataError:
                fits.append(None)
        return fits
    views = iter(views)
    while chunk := list(itertools.islice(views, _GRID_VIEWS)):
        usable = [not _degenerate(view, "hooked") for view in chunk]
        fitted = list(itertools.compress(chunk, usable))
        grids = iter(_profile_grids(fitted) if fitted else ())
        fits += [_fit_hooked_profile(view, next(grids)) if ok else None
                 for view, ok in zip(chunk, usable)]
    return fits


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
    return float(np.abs(ecdf - dist.cdf(data.values)).max())


def scan_x_min(data: CountDataset, kind: str, x_min_range) -> XminScanResult:
    """Fit at each truncation candidate and keep the best by KS distance.

    Candidates above the largest count are dropped before any is
    truncated, so the work is bounded by the data. Candidates leaving
    fewer than ``MIN_SCAN_TAIL`` observations (or only degenerate data)
    are skipped; if none survive, raises ScanError. The others are fitted
    together by :func:`fit_many`.
    Ties break toward the smaller ``x_min`` (the larger tail).
    """
    candidates = sorted(set(int(x) for x in x_min_range))
    if not candidates:
        raise UsageError("x_min_range is empty")
    candidates = candidates[:bisect.bisect_right(candidates, int(data.values[-1]))]
    views = [view for view in (truncate(data, x_min) for x_min in candidates)
             if view.n_tail >= MIN_SCAN_TAIL]
    entries = [XminScanEntry(fit, ks_distance(fit.dist, view))
               for view, fit in zip(views, fit_many(views, kind)) if fit is not None]
    if not entries:
        raise ScanError(
            f"no truncation candidate left a tail of at least {MIN_SCAN_TAIL} usable points"
        )
    best = min(entries, key=lambda entry: entry.selection_score)  # the first of a tie
    return XminScanResult(best=best, per_xmin=tuple(entries))

"""Maximum-likelihood fitting of the truncated discrete kernels.

All objectives are negative log-likelihoods: lower is better. On the
fixed 10,000-term normalization window every family (the hooked law at a
fixed offset ``B``) is an exponential family, so each objective is convex
in the family's natural parameters, and its Hessian there is exact:
``n`` times a covariance under the window's normalized weights ``p``.
The solvers use that and need nothing beyond numpy:

* power law and hooked power law: one exact 1-D score solver. The hooked
  weight ``(B + x)**-alpha`` is the power law shifted by ``B``. For any
  fixed ``B``, ``alpha`` is the natural parameter of ``log(B + x)``, so
  the score in ``alpha`` is increasing, with derivative
  ``n Var_p[log(B + x)]``; :func:`_alpha_at` finds its root by
  safeguarded Newton. The power law is that solve at ``B = 0``. The
  hooked fit profiles it over ``log(B + 1)``: a fixed grid, then Brent's
  root (:func:`_brent_root`) of the profile's slope, which is the
  analytic ``d/dB`` of the objective. The profile follows the long
  diagonal valley in which increases in ``alpha`` trade off against
  increases in ``B``, which makes the 2-D problem badly conditioned for
  gradient descent.
* discrete lognormal: damped Newton in the natural parameters
  ``eta = (mu / sigma**2, -1 / (2 sigma**2))`` of ``T = (ln x, ln**2 x)``,
  started from the moments of ``ln x``. The ``(mu, sigma)`` box is four
  linear constraints in ``eta``, held by an active set
  (:func:`_lognormal_direction`).

Convergence is always decided on the analytic gradient. Non-convergence
is a reported state (``converged=False``), never an exception, so batch
runs over many datasets complete. Degenerate data (constant values, or
fewer points than the model can identify) raises
:class:`~citefit.errors.DegenerateDataError`.

Everything here is a pure function of its inputs; concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import CountDataset, TruncatedView, truncate
from .errors import DegenerateDataError, EmptyTailError, ScanError, UsageError
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
)

#: Minimum tail sizes for the fitters and the truncation scan.
MIN_TAIL_POWER_LAW = 2
MIN_TAIL_TWO_PARAM = 3
MIN_SCAN_TAIL = 10

#: Exit tolerances.
HOOKED_GRAD_TOL = 1e-6
LOGNORMAL_GRAD_TOL = 1e-7
LOGNORMAL_MAX_ITER = 200

_ALPHA_LO = ALPHA_MIN + 1e-9
_B_LO = B_MIN + 1e-9
#: Root tolerance: absolute plus relative to the root, as in Brent's zeroin.
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAX_ITER = 100
#: Profile points on the log(B + 1) grid that brackets the hooked optimum.
_PROFILE_GRID = 40
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
        # Window-sized work rows, reused by every evaluation of one fit. Fresh
        # temporaries would cost page faults whenever the allocator has
        # returned the freed ones to the system.
        self.scratch = np.empty((4, NORMALIZATION_TERMS))

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


def _projected_gradient_norm(theta, grad, bounds) -> float:
    """Norm of ``theta - clip(theta - grad)``: zero at a minimum in the box, also on its edge."""
    return math.hypot(*(x - min(max(x - g, lo), hi)
                        for x, g, (lo, hi) in zip(theta, grad, bounds)))


def _brent_root(f, xa: float, xb: float, args=()) -> float:
    """Root of ``f(x, *args)`` between ``xa`` and ``xb``, across which ``f`` changes sign.

    Brent's zeroin: inverse quadratic interpolation or secant steps, with
    a bisection whenever they would not shrink the bracket fast enough.
    Stops once the bracket is narrower than
    ``_ROOT_XTOL + _ROOT_RTOL * |x|``, or after ``_ROOT_MAX_ITER`` steps.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre, *args), f(xcur, *args)
    if fpre == 0.0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre * fcur < 0.0:  # the root lies between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur, *args)
    return xcur


def fit_power_law(data: TruncatedView) -> FitResult:
    """MLE for the power-law exponent: the hooked profile step at ``B = 0``.

    The score (derivative of the objective in ``alpha``) is increasing, so
    its root on (1, 20] is the optimum; ``iterations`` counts the score
    evaluations. Without a sign change the optimum is pinned at a
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


def _continuous_alpha(stats: _TailStats, b: float, data: float) -> float:
    """Newton's start: the continuous MLE ``1 + n / sum c log((b + v) / (b + x_min - 1/2))``.

    ``data`` is ``sum c log(b + v)``. Where the half-step edge
    ``b + x_min - 1/2`` is not positive, the edge is ``b + x_min``.
    """
    edge = b + stats.window[0] - 0.5
    if edge <= 0.0:
        edge += 0.5
    spread = data - stats.n * math.log(edge)
    return 1.0 + stats.n / spread if spread > 0.0 else ALPHA_MAX


def _alpha_at(stats: _TailStats, b: float, start: float | None = None) -> _ProfilePoint:
    """MLE of alpha with the hooked offset held at ``b`` (``b = 0``: power law).

    For fixed ``b`` the objective ``alpha * sum c log(b + v) + n log Z`` is
    convex in alpha (a linear data term plus a log-sum-exp of linear
    functions), so its derivative, the score ``n (E_data - E_p)[log(b + x)]``,
    is increasing, with derivative ``n Var_p[log(b + x)]``. Safeguarded
    Newton from ``start`` (default: the continuous MLE) finds its root in
    ``[_ALPHA_LO, ALPHA_MAX]``, keeping a bracket: a step that leaves it
    goes to the box end on that side when that end is still unevaluated,
    otherwise bisects, as does a step that fails to halve the last one.
    A box end whose score points out of the box pins the optimum there.
    """
    shifted, shifted_sq, w = stats.scratch[:3]
    np.log(np.add(stats.window, b, out=shifted), out=shifted)
    log_edge = float(shifted[0])
    shifted -= log_edge  # log((b + x) / (b + x_min)) keeps the window weights in range
    np.multiply(shifted, shifted, out=shifted_sq)
    data = float(stats.counts @ np.log(b + stats.values))
    target = data / stats.n - log_edge  # the score is n (target - E_p[shifted])
    if start is None:
        start = _continuous_alpha(stats, b, data)

    lo, hi = _ALPHA_LO, ALPHA_MAX  # the root lies in [lo, hi]
    lo_seen = hi_seen = False  # whether lo / hi carry an evaluated score
    alpha = min(max(start, lo), hi)
    last_step, pinned = hi - lo, False
    for iterations in range(1, _ROOT_MAX_ITER + 1):
        np.exp(np.multiply(shifted, -alpha, out=w), out=w)
        z = float(w.sum())
        mean = float(w @ shifted) / z
        score = stats.n * (target - mean)
        if score >= 0.0 and alpha == _ALPHA_LO or score <= 0.0 and alpha == ALPHA_MAX:
            pinned = True
            break
        if score == 0.0:
            break
        if score > 0.0:
            hi, hi_seen = alpha, True
        else:
            lo, lo_seen = alpha, True
        curvature = stats.n * (float(w @ shifted_sq) / z - mean * mean)
        new = alpha - score / curvature if curvature > 0.0 else math.copysign(math.inf, -score)
        if abs(new - alpha) <= _ROOT_XTOL + _ROOT_RTOL * alpha:
            break
        if not lo < new < hi:
            if new >= hi and not hi_seen:
                new = hi
            elif new <= lo and not lo_seen:
                new = lo
            else:
                new = 0.5 * (lo + hi)
        elif lo_seen and hi_seen and abs(new - alpha) > 0.5 * abs(last_step):
            new = 0.5 * (lo + hi)
        if abs(new - alpha) <= _ROOT_XTOL + _ROOT_RTOL * alpha:
            break
        last_step, alpha = new - alpha, new

    inverse = np.reciprocal(np.add(stats.window, b, out=shifted_sq), out=shifted_sq)
    return _ProfilePoint(
        alpha=alpha,
        b=b,
        pinned=pinned,
        iterations=iterations,
        neg_log_likelihood=alpha * data + stats.n * (math.log(z) - alpha * log_edge),
        grad=(
            score,
            alpha * float(stats.counts @ (1.0 / (b + stats.values)))
            - alpha * stats.n * float(w @ inverse) / z,
        ),
    )


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


def _lognormal_point(stats: _TailStats, log_window, log_values, mu: float,
                     sigma: float) -> _LognormalPoint:
    """Objective, centred natural-parameter gradient and Hessian at ``(mu, sigma)``.

    The objective is the negative log-likelihood; the density's constant
    factors cancel between the normalizer and the data term, so they are
    left out of both.
    """
    u, uu, p, work = stats.scratch
    np.subtract(log_window, mu, out=u)
    np.multiply(u, u, out=uu)
    np.multiply(uu, -0.5 / (sigma * sigma), out=p)
    p -= log_window  # the log weights
    top = float(p.max())
    p -= top
    np.exp(p, out=p)
    z = float(p.sum())
    p /= z
    mean_u, mean_uu = float(p @ u), float(p @ uu)
    u -= mean_u
    uu -= mean_uu
    n = stats.n
    np.multiply(p, u, out=work)
    h00, h01 = n * float(work @ u), n * float(work @ uu)
    np.multiply(p, uu, out=work)
    hessian = (h00, h01, n * float(work @ uu))

    uv = log_values - mu
    data_u, data_uu = float(stats.counts @ uv), float(stats.counts @ (uv * uv))
    value = n * (top + math.log(z)) + float(stats.counts @ log_values) \
        + data_uu / (2.0 * sigma * sigma)
    grad = (n * mean_u - data_u, n * mean_uu - data_uu)
    norm = _projected_gradient_norm((mu, sigma), (grad[0] / sigma**2, grad[1] / sigma**3),
                                    _LOGNORMAL_BOUNDS)
    return _LognormalPoint(mu, sigma, value, grad, hessian, norm)


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
    stats = _TailStats(data)
    if stats.n < MIN_TAIL_TWO_PARAM:
        raise DegenerateDataError("lognormal fit needs at least three points")
    if stats.degenerate:
        raise DegenerateDataError("lognormal fit needs at least two distinct values")

    log_window, log_values = np.log(stats.window), np.log(stats.values)
    mean = float(stats.counts @ log_values) / stats.n
    std = math.sqrt(float(stats.counts @ (log_values - mean) ** 2) / stats.n)
    mu = min(max(mean, MU_MIN), MU_MAX)
    # Narrower than about half the spacing of ln x between neighbouring
    # integers, the window holds (in floating point) a single point mass,
    # whose Hessian vanishes; start no narrower than that.
    lattice = math.log1p(math.exp(-mean))  # ln(x + 1) - ln(x) at x = exp(mean)
    point = _lognormal_point(stats, log_window, log_values, mu,
                             min(max(std, 0.5 * lattice, 1e-3), SIGMA_MAX))
    iterations = 0
    while iterations < LOGNORMAL_MAX_ITER:
        d = _lognormal_direction(point, stats.n)
        if d is None:
            break
        iterations += 1
        decrement = -(point.grad[0] * d[0] + point.grad[1] * d[1])
        limit, blocking = _lognormal_step_limit(point.mu, point.sigma, d)
        t = min(1.0, limit)
        for _ in range(_MAX_HALVINGS):
            trial = _lognormal_point(stats, log_window, log_values,
                                     *_lognormal_move(point.mu, point.sigma, d, t,
                                                      blocking if t == limit else -1))
            if (trial.value <= point.value - _ARMIJO * t * decrement
                    or t == 1.0 and trial.gradient_norm < point.gradient_norm):
                break
            t *= 0.5
        else:
            break  # no acceptable step: stalled at rounding level
        point = trial
        if decrement <= _FINAL_DECREMENT * stats.n:
            break
    return _fit_result(DiscreteLognormalParams(point.mu, point.sigma), data,
                       point.gradient_norm < LOGNORMAL_GRAD_TOL, iterations,
                       point.gradient_norm)


def _profile_at(t: float, stats: _TailStats, profiled: dict) -> _ProfilePoint:
    """Profile point at ``B = exp(t) - 1`` (kept in the box).

    Memoised in ``profiled`` by ``t``; a new point's Newton solve starts
    from the alpha of the point evaluated last.
    """
    point = profiled.get(t)
    if point is None:
        start = profiled[next(reversed(profiled))].alpha if profiled else None
        point = _alpha_at(stats, min(max(math.expm1(t), _B_LO), B_MAX), start)
        profiled[t] = point
    return point


def _profile_slope(t: float, stats: _TailStats, profiled: dict) -> float:
    return _profile_at(t, stats, profiled).slope


def fit_hooked(data: TruncatedView) -> FitResult:
    """MLE for the hooked power law by profile likelihood over the offset.

    The objective is minimised over ``t = log(B + 1)`` on
    ``[B_MIN, B_MAX]``, with alpha solved exactly at each ``B`` by
    :func:`_alpha_at`. A fixed grid of profile points locates the best
    region; between the best point and the neighbour across which the
    profile slope changes sign, :func:`_brent_root` finds the root of that
    slope. By the envelope theorem the slope is the exact
    ``d objective / dB`` at ``(alpha(B), B)``, times ``B + 1``. The lower of
    the grid point and the root is returned. ``converged`` means the
    projected analytic gradient there is below ``HOOKED_GRAD_TOL``;
    ``iterations`` counts the profile points evaluated.
    """
    stats = _TailStats(data)
    if stats.n < MIN_TAIL_TWO_PARAM:
        raise DegenerateDataError("hooked-power-law fit needs at least three points")
    if stats.degenerate:
        raise DegenerateDataError("hooked-power-law fit needs at least two distinct values")

    profiled: dict[float, _ProfilePoint] = {}
    grid = np.linspace(math.log1p(_B_LO), math.log1p(B_MAX), _PROFILE_GRID).tolist()
    points = [_profile_at(t, stats, profiled) for t in grid]
    k = min(range(_PROFILE_GRID), key=lambda i: points[i].neg_log_likelihood)
    best = points[k]
    side = k + 1 if best.slope < 0.0 else k - 1
    if 0 <= side < _PROFILE_GRID and points[side].slope * best.slope < 0.0:
        lo, hi = sorted((grid[k], grid[side]))
        root = _profile_at(_brent_root(_profile_slope, lo, hi, args=(stats, profiled)),
                           stats, profiled)
        if root.neg_log_likelihood < best.neg_log_likelihood:
            best = root
    grad_norm = _projected_gradient_norm((best.alpha, best.b), best.grad,
                                         ((_ALPHA_LO, ALPHA_MAX), (_B_LO, B_MAX)))
    return _fit_result(HookedPowerLawParams(best.alpha, best.b), data,
                       grad_norm < HOOKED_GRAD_TOL, len(profiled), grad_norm)


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

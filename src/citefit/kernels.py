"""Discrete left-truncated heavy-tailed distribution kernels.

Three families over integer support ``x >= x_min``, one parameter class
each. The class holds its family's formulas: ``log_weight(x)``,
``log_normalizer(x_min)``, the ``tail_integral(edge)`` of the continuous
kernel, and ``heavy_tailed``.

* :class:`HookedPowerLawParams`: weight ``(B + x)**-alpha``
* :class:`PowerLawParams`: weight ``x**-alpha``, the hooked law at
  ``B = 0``. It reuses the hooked formulas with a class constant
  ``B = 0.0``, which gives the same values bit for bit.
* :class:`DiscreteLognormalParams`: weight given by the continuous
  lognormal density evaluated at integers.

Each family is normalized by the sum of its weights over the first
10,000 integers from ``x_min``, the window: the probability-mass
normalizer throughout (it keeps the objective smooth in the parameters
and the windowed pmf summing to one exactly). Each parameter class gives
its log, ``log_normalizer(x_min)``, from its family's window-sum class,
which also gives the moments the family's fitter needs:
:class:`PowerLawWindowSums` for the power-law families (a 16-term head
plus an Euler-Maclaurin tail, in constant time, at one offset or an
array of them) and :class:`LognormalWindowSums` for the lognormal (term
by term). For reporting, :func:`normalization_constants` also gives a
tail-corrected constant, which appends the midpoint integral of the
continuous kernel beyond the window whenever the tail decays slowly
(``heavy_tailed``: ``alpha <= 2`` for the power laws, ``sigma > 2`` for
the lognormal); for ``alpha = 2`` at ``x_min = 1`` it reproduces pi**2/6
to near machine precision.

Support convention: the distribution lives on that window,
``x_min .. x_min + 9999``. ``cdf``, ``ccdf`` and ``sample`` are taken
over it: ``sample`` draws only there, and past it ``cdf`` is the
window's whole mass and ``ccdf`` its complement. ``log_pmf`` past the
window is still the kernel over the window's normalizer.

All lognormal evaluation is done in log space to avoid underflow at
extreme parameter values (fits on real citation data can reach location
parameters of several hundred below zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import NonNormalizableError, ParameterError, SupportError

#: Number of terms summed for the normalization constant.
NORMALIZATION_TERMS = 10_000
#: Buckets of the sampler's guide table. A power of two, so that a draw's
#: bucket ``floor(u * K)`` and each bucket's edge ``k / K`` are exact.
_GUIDE_BUCKETS = 2**14
#: Draws the sampler looks up at a time.
_SAMPLE_BLOCK = 2**13
#: Leading window terms that ``PowerLawWindowSums`` adds term by term.
_HEAD_TERMS = 16
#: ``B_2m / (2m)!`` for m = 1..4, the Euler-Maclaurin coefficients of the
#: derivatives of odd order 1, 3, 5 and 7.
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
#: ``1 / (n! (n + i + 1))``, the coefficients of ``z**n`` in ``_phi``'s power
#: series, for n <= 25, padded with zeros to 32 terms: ``[n, i, 0]``.
_SERIES_COEFFICIENTS = np.array(
    [[1.0 / (math.factorial(n) * (n + i + 1)) if n <= 25 else 0.0 for i in range(3)]
     for n in range(32)])[:, :, None]

_LOG_2PI = math.log(2.0 * math.pi)

#: Box constraints used by the optimizers and recommended for sampling.
ALPHA_MIN, ALPHA_MAX = 1.0, 20.0
B_MIN, B_MAX = -0.999, 1e6
MU_MIN, MU_MAX = -1000.0, 20.0
SIGMA_MIN, SIGMA_MAX = 1e-6, 50.0
#: Default generator offset of the hooked precision study and ridge demo.
DEFAULT_HOOKED_B = 10.0


@dataclass(frozen=True)
class HookedPowerLawParams:
    """Exponent ``alpha > 1`` and offset ``B > -1`` of ``(B + x)**-alpha``."""

    alpha: float
    B: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (math.isfinite(self.B) and self.B > -1.0):
            raise ParameterError(f"offset B must be > -1, got {self.B}")

    def log_weight(self, x: np.ndarray) -> np.ndarray:
        """``-alpha * log(B + x)`` at float points ``x >= 1``."""
        return -self.alpha * np.log(self.B + x)

    def log_normalizer(self, x_min: int) -> float:
        """Log of the window sum of the weights, from :class:`PowerLawWindowSums`."""
        sums = PowerLawWindowSums(self.B + x_min)
        return sums.log_normalizer(self.alpha, sums(self.alpha)[0])

    def tail_integral(self, edge: float) -> float:
        """Integral of the continuous kernel over ``(edge, inf)``."""
        return (self.B + edge) ** (1.0 - self.alpha) / (self.alpha - 1.0)

    @property
    def heavy_tailed(self) -> bool:
        return self.alpha <= 2.0


@dataclass(frozen=True)
class PowerLawParams:
    """Scaling exponent ``alpha > 1`` of the ``x**-alpha`` kernel."""

    alpha: float
    # The hooked law at B = 0; a class constant, not a field. 0.0 + x == x,
    # so the shared formulas give the power law's values bit for bit.
    B = 0.0
    log_weight = HookedPowerLawParams.log_weight
    log_normalizer = HookedPowerLawParams.log_normalizer
    tail_integral = HookedPowerLawParams.tail_integral
    heavy_tailed = HookedPowerLawParams.heavy_tailed

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class DiscreteLognormalParams:
    """Log-scale location ``mu`` and spread ``sigma > 0``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    def log_weight(self, x: np.ndarray) -> np.ndarray:
        """Log of the continuous lognormal density at float points ``x >= 1``."""
        log_w = _lognormal_terms(np.log(x), self.mu, self.sigma)[2]
        return log_w - math.log(self.sigma) - 0.5 * _LOG_2PI

    def log_normalizer(self, x_min: int) -> float:
        """Log of the window sum of the weights, from :class:`LognormalWindowSums`."""
        log_sum = LognormalWindowSums(x_min).log_sum(self.mu, self.sigma)
        return log_sum - math.log(self.sigma) - 0.5 * _LOG_2PI

    def tail_integral(self, edge: float) -> float:
        """Lognormal mass above ``edge``."""
        z = (math.log(edge) - self.mu) / self.sigma
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    @property
    def heavy_tailed(self) -> bool:
        return self.sigma > 2.0


ParamSpec = Union[PowerLawParams, HookedPowerLawParams, DiscreteLognormalParams]

#: Parameter class of each distribution kind, by its command-line name.
FAMILIES: dict[str, type] = {
    "pl": PowerLawParams,
    "ln": DiscreteLognormalParams,
    "hooked": HookedPowerLawParams,
}


def _check_alpha(alpha: float):
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    if alpha <= 1.0:
        raise NonNormalizableError(
            f"alpha must exceed 1 for the tail sum to converge, got {alpha}"
        )


def normalization_window(x_min: int) -> np.ndarray:
    """The 10,000 support points from ``x_min`` whose weights make the normalizer."""
    return np.arange(x_min, x_min + NORMALIZATION_TERMS, dtype=float)


def _phi(z):
    """``phi_i(z)``, the integral of ``t**i exp(z t)`` over ``[0, 1]``, for i = 0, 1, 2.

    A power series near zero; elsewhere ``expm1`` and the recurrence
    ``phi_i = (exp(z) - i phi_(i-1)) / z`` from integration by parts,
    which for ``|z| >= 2`` and ``i <= 2`` does not amplify rounding. An
    array ``z`` gives the three results stacked, with the series taken on
    its entries with ``|z| < 2`` only (:func:`_phi_series`).
    """
    if isinstance(z, np.ndarray):
        small = np.abs(z) < 2.0
        phi = np.array(_phi_closed(np.where(small, -2.0, z), np))
        if small.any():
            phi[:, small] = _phi_series(z[small])
        return phi
    if abs(z) < 2.0:
        phi0, phi1, phi2 = 1.0, 0.5, 1.0 / 3.0
        term, n = 1.0, 0
        while abs(term) > 1e-17:  # every phi_i exceeds 0.08 here
            n += 1
            term *= z / n  # z**n / n!
            phi0 += term / (n + 1)
            phi1 += term / (n + 2)
            phi2 += term / (n + 3)
        return phi0, phi1, phi2
    return _phi_closed(z, math)


def _phi_closed(z, xp):
    """:func:`_phi` by the recurrence, ``exp`` and ``expm1`` taken from ``xp`` (math or numpy)."""
    phi0, exp = xp.expm1(z) / z, xp.exp(z)
    phi1 = (exp - phi0) / z
    return phi0, phi1, (exp - 2.0 * phi1) / z


def _phi_series(z: np.ndarray) -> np.ndarray:
    """:func:`_phi`'s power series at an array of ``z`` with ``|z| < 2``, as rows i = 0, 1, 2.

    ``phi_i`` is the sum of ``z**n / (n! (n + i + 1))`` over n; the terms
    past n = 25 are below 1e-17. The powers come as a running product and
    the terms are added as a pairwise tree.
    """
    powers = np.empty((len(_SERIES_COEFFICIENTS), 1, len(z)))
    powers[0] = 1.0
    np.multiply.accumulate(np.broadcast_to(z, powers[1:].shape), out=powers[1:])
    return _tree_sum(_SERIES_COEFFICIENTS * powers)


def _tree_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis, of length a power of two, as a pairwise tree.

    Adds in place, into ``terms``. Every entry of the result takes the same
    additions in the same order, whatever the other entries are.
    """
    size = len(terms)
    while size > 1:
        size //= 2
        terms[:size] += terms[size:2 * size]
    return terms[0]


class PowerLawWindowSums:
    """The window sums of a power-law kernel offset to ``y0 = B + x_min``, in constant time.

    With ``y_j = y0 + j``, ``l_j = log(y_j / y0)`` and weights
    ``w_j = exp(-alpha l_j)``, calling the object at ``alpha`` returns
    ``S_k`` = the sum of ``w_j l_j**k`` over the window ``j < 10,000``,
    for k = 0, 1, 2. Then the log-normalizer is ``ln S_0 - alpha ln y0``,
    ``E_p[log(B + x)] = ln y0 + S_1 / S_0`` and
    ``Var_p[log(B + x)] = S_2 / S_0 - (S_1 / S_0)**2``.

    The first 16 terms are summed term by term. The rest, on
    ``[a, e] = [y0 + 16, y0 + 9999]``, is Euler-Maclaurin: the integral,
    which in ``u = log(y / y0)`` is ``y0`` times that of
    ``exp((1 - alpha) u) u**k`` (:func:`_phi`), the two endpoint
    half-terms, and four Bernoulli corrections. The ``m``-th derivative of ``w l**k`` in ``y`` is
    ``(-1)**m y**-m w Q_k``, where ``P`` is the rising factorial
    ``alpha (alpha + 1) ... (alpha + m - 1)`` and ``Q_0 = P``,
    ``Q_1 = P l - P'``, ``Q_2 = P l**2 - 2 P' l + P''`` (primes: d/d alpha).
    Against a ``math.fsum`` of the window, the sums agree to a few units
    in 1e-14 for alpha in (1, 21], B in the fitter's box and x_min from 1
    to 2**62.

    The head and the endpoints depend on ``y0`` alone and are computed once.

    ``offset`` is a float, or a 1-D array of offsets with ``alpha`` an
    array of the same shape, and the sums come back as the same kind. One
    code serves both, with ``math`` or ``numpy`` picked from the offset's
    type; only the head has two forms: floats add it in a loop, and an
    array sums each entry's head as a pairwise tree (:func:`_tree_sum`).
    No sum runs across entries, so an entry's sums do not depend on the
    other entries of its array.

    The float form stays beside the array form because a solve at one
    offset cannot afford numpy's per-call cost: on 2 cores with numpy 2.4,
    one evaluation took 7-12 us in floats and 155-280 us as an array of one,
    and a power-law fit 0.13-0.21 ms in floats and 1.1-1.7 ms as a batch of one.
    """

    __slots__ = ("offset", "log_offset", "_xp", "_head", "_ends", "_span")

    def __init__(self, offset: float | np.ndarray):
        xp = np if isinstance(offset, np.ndarray) else math
        self._xp, self.offset, self.log_offset = xp, offset, xp.log(offset)
        # at the ends a = y0 + 16 and e = y0 + 9999 of the tail: l, 1 / y with the
        # sign that the odd derivatives' -y**-m take in the Euler-Maclaurin
        # difference (+ at a, - at e), and 1 / y**2
        last = NORMALIZATION_TERMS - 1
        a, e = offset + _HEAD_TERMS, offset + last
        self._ends = [(xp.log1p(_HEAD_TERMS / offset), 1.0 / a, 1.0 / (a * a)),
                      (xp.log1p(last / offset), -1.0 / e, 1.0 / (e * e))]
        self._span = xp.log1p((last - _HEAD_TERMS) / a)  # log(e / a)
        if xp is np:
            self._ends = np.array(self._ends)
            self._head = np.log1p(np.arange(_HEAD_TERMS)[:, None] / offset)
        else:
            self._head = [math.log1p(j / offset) for j in range(1, _HEAD_TERMS)]

    def take(self, index) -> "PowerLawWindowSums":
        """The sums at the offsets ``offset[index]``, of an array of offsets."""
        taken = object.__new__(PowerLawWindowSums)
        taken._xp = np
        for name in ("offset", "log_offset", "_head", "_ends", "_span"):
            setattr(taken, name, getattr(self, name)[..., index])
        return taken

    def _head_sums(self, alpha):
        """The sums of ``w l**k`` over the window's first 16 terms."""
        if self._xp is math:
            s0, s1, s2 = 1.0, 0.0, 0.0  # the j = 0 term: w = 1, l = 0
            for ell in self._head:
                w = math.exp(-alpha * ell)
                s0 += w
                w *= ell
                s1 += w
                s2 += w * ell
            return s0, s1, s2
        # one row per term, j = 0 included. Each sum is copied out of its table,
        # and w l**2 takes the place of w, so at most two tables are held.
        ell = self._head
        w = np.multiply(ell, -alpha)
        np.exp(w, out=w)
        wl = w * ell
        s0 = _tree_sum(w).copy()
        np.multiply(wl, ell, out=w)
        return s0, _tree_sum(wl).copy(), _tree_sum(w).copy()

    def __call__(self, alpha):
        xp = self._xp
        s0, s1, s2 = self._head_sums(alpha)

        s = 1.0 - alpha
        la, span = self._ends[0][0], self._span
        phi0, phi1, phi2 = _phi(s * span)
        scale = self.offset * xp.exp(s * la) * span
        s0 += scale * phi0
        s1 += scale * (la * phi0 + span * phi1)
        s2 += scale * (la * la * phi0 + span * (2.0 * la * phi1 + span * phi2))

        # rising factorials (alpha)_m at m = 3, 5, 7, with two alpha-derivatives,
        # from (alpha)_1 = alpha, whose derivatives are 1 and 0
        p, dp, ddp = alpha, 1.0, 0.0
        rising = []
        for i in range(1, 7):
            factor = alpha + i
            p, dp, ddp = p * factor, dp * factor + p, ddp * factor + 2.0 * dp
            if i % 2 == 0:
                rising.append((p, dp, ddp))
        for ell, f, inv2 in self._ends:
            # D = 1/2 + the Bernoulli corrections over w, with D' and D''
            g = _BERNOULLI[0] * f
            d0, d1, d2 = 0.5 + g * alpha, g, 0.0
            for c, (p, dp, ddp) in zip(_BERNOULLI[1:], rising):
                f = f * inv2
                g = c * f
                d0 += g * p
                d1 += g * dp
                d2 += g * ddp
            # w l**k D - k w l**(k - 1) D' + k (k - 1) / 2 w l**(k - 2) D''
            w = xp.exp(-alpha * ell)
            wd0, wd1 = w * d0, w * d1
            s0 += wd0
            wd0 = wd0 * ell - wd1  # w (l D - D'), the k = 1 term
            s1 += wd0
            s2 += (wd0 - wd1) * ell + w * d2
        return s0, s1, s2

    def log_normalizer(self, alpha, s0):
        """``ln S_0 - alpha ln y0``, the log of the window sum of ``(y0 + j)**-alpha``; ``s0 = S_0``."""
        return self._xp.log(s0) - alpha * self.log_offset


def _lognormal_terms(log_x: np.ndarray, mu: float, sigma: float):
    """Rows ``u = ln x - mu``, ``u**2`` and the log weight ``-u**2 / (2 sigma**2) - ln x``.

    The window sums and ``DiscreteLognormalParams.log_weight`` both take
    their exponent from here, so ``log_pmf`` shares the normalizer's rounding.
    """
    u = log_x - mu
    uu = u * u
    log_w = uu * (-0.5 / (sigma * sigma))
    log_w -= log_x
    return u, uu, log_w


class LognormalWindowSums:
    """The lognormal kernel's window sums at ``x_min``, summed term by term.

    With ``u = ln x - mu`` and weights ``w = exp(-u**2 / (2 sigma**2)) / x``
    on the window, :meth:`log_sum` gives ``ln`` of the sum of ``w`` (the
    density's ``1 / (sigma sqrt(2 pi))`` left out); a call adds ``E_p`` and
    ``Cov_p`` of ``(u, u**2)`` under the normalized weights ``p``, for the
    fitter.
    """

    __slots__ = ("log_x",)

    def __init__(self, x_min: int):
        self.log_x = np.log(normalization_window(x_min))

    def _weights(self, mu: float, sigma: float):
        """Rows ``u``, ``u**2`` and ``w`` over its largest term, the row's sum, and the log-sum."""
        u, uu, w = _lognormal_terms(self.log_x, mu, sigma)
        top = float(w.max())
        w -= top
        np.exp(w, out=w)
        total = float(w.sum())
        return u, uu, w, total, top + math.log(total)

    def log_sum(self, mu: float, sigma: float) -> float:
        """The log of the window sum of ``w``."""
        return self._weights(mu, sigma)[4]

    def __call__(self, mu: float, sigma: float):
        """The log-sum, ``E_p`` of ``(u, u**2)`` and the (0, 0), (0, 1), (1, 1) entries of ``Cov_p``."""
        u, uu, p, total, log_sum = self._weights(mu, sigma)
        p /= total
        mean_u, mean_uu = float(p @ u), float(p @ uu)
        u -= mean_u
        uu -= mean_uu
        pu, puu = p * u, p * uu
        return log_sum, (mean_u, mean_uu), (float(pu @ u), float(pu @ uu), float(puu @ uu))


def unnormalized_weight(params: ParamSpec, x):
    """Kernel weight at integer points ``x >= 1``: ``x**-alpha``,
    ``(B+x)**-alpha``, or the lognormal density
    ``exp(-(ln x - mu)^2 / (2 sigma^2)) / (x sigma sqrt(2 pi))``.

    Accepts a scalar or array; returns the matching shape.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1):
        raise SupportError("kernel weights are defined for x >= 1")
    out = params.log_weight(np.atleast_1d(arr))
    return np.exp(float(out[0])) if arr.ndim == 0 else np.exp(out)


@dataclass(frozen=True)
class NormalizationConstants:
    """Bare windowed sum and its tail-corrected companion."""

    bare: float
    tail_corrected: float


def normalization_constants(params: ParamSpec, x_min: int) -> NormalizationConstants:
    """Both normalization constants for a kernel truncated at ``x_min``.

    ``bare`` is the sum of the first 10,000 kernel weights starting at
    ``x_min`` (the pmf normalizer). ``tail_corrected`` appends the
    midpoint integral of the continuous kernel beyond the window when
    the tail decays slowly enough for the bare sum to be visibly short;
    otherwise the two coincide.
    """
    bare = DiscreteDistribution(params, x_min).norm_const
    edge = x_min + NORMALIZATION_TERMS - 0.5  # midpoint rule past the window
    tail = params.tail_integral(edge) if params.heavy_tailed else 0.0
    return NormalizationConstants(bare, bare + tail)


def normalization_constant(params: ParamSpec, x_min: int) -> float:
    """Tail-corrected normalization constant (see ``normalization_constants``)."""
    return normalization_constants(params, x_min).tail_corrected


@dataclass(frozen=True)
class DiscreteDistribution:
    """A kernel with its truncation point and eagerly computed normalizer.

    Immutable after construction; evaluation methods are safe to call
    concurrently. Sampling takes an explicit seed and keeps all generator
    state local to the call.
    """

    params: ParamSpec
    x_min: int = 1
    norm_const: float = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x_min < 1:
            raise ParameterError(f"x_min must be >= 1, got {self.x_min}")
        # the window's sum holds the weight at x_min: no pmf there exceeds one by rounding
        first = float(self.params.log_weight(np.array([float(self.x_min)]))[0])
        log_norm = max(self.params.log_normalizer(self.x_min), first)
        object.__setattr__(self, "norm_const", math.exp(log_norm))
        object.__setattr__(self, "_log_norm", log_norm)

    def _cumulative(self, terms: int) -> np.ndarray:
        """Cumulative pmf over the window's first ``terms`` points.

        ``np.cumsum`` adds in order, so a shorter table is the head of a
        longer one, bit for bit.
        """
        log_weight = self.params.log_weight(normalization_window(self.x_min)[:terms])
        return np.cumsum(np.exp(log_weight - self._log_norm))

    @cached_property
    def _window_cum(self) -> np.ndarray:
        """Cumulative pmf over the whole window, built on the first ``sample``."""
        cum = self._cumulative(NORMALIZATION_TERMS)
        cum.flags.writeable = False
        return cum

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampler's guide table over ``_window_cum`` (Chen and Asau, 1974).

        For each of ``_GUIDE_BUCKETS`` equal buckets ``[k/K, (k+1)/K)`` of
        the unit interval: ``start``, how many table entries lie below the
        bucket; ``first``, the first entry at or past its left edge (inf
        past the table's end); and ``crowded``, whether it holds more than
        one entry.
        """
        cum = self._window_cum
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS  # exact: K is a power of two
        bounds = np.searchsorted(cum, edges, side="left")
        start = bounds[:-1]
        first = np.append(cum, np.inf)[start]
        return start, first, np.diff(bounds) > 1

    def _validate_support(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < self.x_min):
            raise SupportError(
                f"evaluation point below truncation x_min={self.x_min}"
            )
        return arr, scalar

    def log_pmf(self, x):
        """Log probability mass at ``x >= x_min`` (scalar or array)."""
        arr, scalar = self._validate_support(x)
        out = self.params.log_weight(arr.astype(float)) - self._log_norm
        return float(out[0]) if scalar else out

    def pmf(self, x):
        """Probability mass at ``x >= x_min`` (scalar or array)."""
        return np.exp(self.log_pmf(x))

    def cdf(self, x):
        """P(X <= x), the pmf summed over ``[x_min, x]``; past the window, its whole mass.

        The pmf is summed only up to the largest ``x`` (at most the
        window's end), so ``x`` may be the largest ``int64``.
        """
        arr, scalar = self._validate_support(x)
        idx = np.minimum(arr.astype(np.int64) - self.x_min, NORMALIZATION_TERMS - 1)
        out = self._cumulative(int(idx.max(initial=0)) + 1)[idx]
        return float(out[0]) if scalar else out

    def ccdf(self, x):
        """P(X >= x) = 1 - sum of pmf over [x_min, x); equals 1 at x_min.

        The pmf sums to one over the normalization window, so beyond the
        window the ccdf stays at the window's own tail,
        ``max(1 - cum[-1], 0)``. The pmf is summed only up to the largest
        ``x``, at most over the window, so the cost does not grow with ``x``.
        """
        arr, scalar = self._validate_support(x)
        idx = np.minimum(arr.astype(np.int64) - self.x_min, NORMALIZATION_TERMS)
        cum = self._cumulative(max(int(idx.max(initial=0)), 1))
        before = np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0.0)
        out = np.maximum(1.0 - before, 0.0)
        return float(out[0]) if scalar else out

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw ``n`` i.i.d. values on the window by inverse-CDF lookup.

        A uniform draw ``u`` takes the first window point whose cumulative
        mass reaches ``u``, found through a guide table (Chen and Asau,
        1974; Devroye, 1986, ch. III): ``u``'s bucket of ``2**14`` equal
        buckets of [0, 1) gives the table entries below it, and one
        comparison decides a bucket that holds at most one entry; the
        draws in buckets that hold more take a binary search. Either way
        the point is the one ``searchsorted`` finds over the whole table.
        A draw past the window's cumulative mass, which rounding can leave
        short of one, takes the window's last point. Draws are looked up
        ``_SAMPLE_BLOCK`` at a time, so memory beyond the result stays
        bounded. Output is a fixed function of ``seed``. The draws are
        ``int64``, so the window's last point, ``x_min + 9999``, may be at
        most ``2**63 - 1``.

        Parameters
        ----------
        n : int
            Number of draws, >= 1.
        seed : int, SeedSequence, or Generator
            Source of randomness; an integer gives reproducible output.
        """
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
        if self.x_min > np.iinfo(np.int64).max - (NORMALIZATION_TERMS - 1):
            raise ParameterError(
                f"x_min must be at most 2**63 - {NORMALIZATION_TERMS} for int64 draws, "
                f"got {self.x_min}")
        rng = np.random.default_rng(seed)
        draws = np.empty(n, np.int64)
        uniform = np.empty(min(n, _SAMPLE_BLOCK))
        for lo in range(0, n, _SAMPLE_BLOCK):
            u = rng.random(out=uniform[:min(_SAMPLE_BLOCK, n - lo)])
            self._lookup(u, draws[lo:lo + u.size])
        np.minimum(draws, NORMALIZATION_TERMS - 1, out=draws)
        draws += self.x_min
        return draws

    def _lookup(self, u: np.ndarray, out: np.ndarray):
        """``searchsorted(_window_cum, u, "left")`` for uniforms ``u``, into ``out``."""
        start, first, crowded = self._guide
        bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
        np.take(start, bucket, out=out)
        out += first[bucket] < u
        hard = np.flatnonzero(crowded[bucket])
        if hard.size:
            out[hard] = np.searchsorted(self._window_cum, u[hard], side="left")

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

Each family is normalized by dividing by the sum of its weights over the
truncated integer support, approximated by the sum of the first 10,000
terms starting at ``x_min``. That windowed sum is the probability-mass
normalizer throughout (it keeps the objective smooth in the parameters
and the windowed pmf summing to one exactly); each parameter class gives
its logarithm, ``log_normalizer(x_min)``. The lognormal sums the window
term by term. The power-law families take it, with the two moments of
``log(B + x)`` that their fitter needs, from :class:`PowerLawWindowSums`:
a 16-term head plus an Euler-Maclaurin tail, in scalar arithmetic and
constant time. For reporting, a tail-corrected constant is also computed
which appends the midpoint integral of the continuous kernel beyond the
window whenever the tail decays slowly (``heavy_tailed``: ``alpha <= 2``
for the power laws, ``sigma > 2`` for the lognormal); for ``alpha = 2``
at ``x_min = 1`` it reproduces pi**2/6 to near machine precision.

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
#: Leading window terms that ``PowerLawWindowSums`` adds one by one.
_HEAD_TERMS = 16
#: ``B_2m / (2m)!`` for m = 1..4, the Euler-Maclaurin coefficients of the
#: derivatives of odd order 1, 3, 5 and 7.
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)

#: Sampler stops extending its cumulative table at this mass...
CUMULATIVE_CAP = 1.0 - 1e-12
#: ...or at this many tabulated support points, whichever comes first.
MAX_TABLE_LENGTH = 1 << 24

_LOG_2PI = math.log(2.0 * math.pi)

#: Box constraints used by the optimizers and recommended for sampling.
ALPHA_MIN, ALPHA_MAX = 1.0, 20.0
B_MIN, B_MAX = -0.999, 1e6
MU_MIN, MU_MAX = -1000.0, 20.0
SIGMA_MIN, SIGMA_MAX = 1e-6, 50.0


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
        """Log of the window sum of the weights, ``ln S_0 - alpha ln(B + x_min)``."""
        sums = PowerLawWindowSums(self.B + x_min)
        return math.log(sums(self.alpha)[0]) - self.alpha * sums.log_offset

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
        logx = np.log(x)
        z = (logx - self.mu) / self.sigma
        return -logx - math.log(self.sigma) - 0.5 * _LOG_2PI - 0.5 * z * z

    def log_normalizer(self, x_min: int) -> float:
        """Log of the window sum of the weights, summed term by term."""
        return log_sum_exp(self.log_weight(normalization_window(x_min)))

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


def log_sum_exp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` for finite ``a``, shifted by the maximum so no term overflows."""
    top = float(a.max())
    return top + math.log(float(np.exp(a - top).sum()))


def normalization_window(x_min: int) -> np.ndarray:
    """The 10,000 support points from ``x_min`` whose weights make the normalizer."""
    return np.arange(x_min, x_min + NORMALIZATION_TERMS, dtype=float)


def _phi(z: float) -> tuple[float, float, float]:
    """``phi_i(z)``, the integral of ``t**i exp(z t)`` over ``[0, 1]``, for i = 0, 1, 2.

    A power series near zero; elsewhere ``expm1`` and the recurrence
    ``phi_i = (exp(z) - i phi_(i-1)) / z`` from integration by parts,
    which for ``|z| >= 2`` and ``i <= 2`` does not amplify rounding.
    """
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
    phi0 = math.expm1(z) / z
    phi1 = (math.exp(z) - phi0) / z
    return phi0, phi1, (math.exp(z) - 2.0 * phi1) / z


class PowerLawWindowSums:
    """The window sums of a power-law kernel offset to ``y0 = B + x_min``, in constant time.

    With ``y_j = y0 + j``, ``l_j = log(y_j / y0)`` and weights
    ``w_j = exp(-alpha l_j)``, calling the object at ``alpha`` returns
    ``S_k`` = the sum of ``w_j l_j**k`` over the window ``j < 10,000``,
    for k = 0, 1, 2. Then the log-normalizer is ``ln S_0 - alpha ln y0``,
    ``E_p[log(B + x)] = ln y0 + S_1 / S_0`` and
    ``Var_p[log(B + x)] = S_2 / S_0 - (S_1 / S_0)**2``.

    The first 16 terms are summed one by one. The rest, on
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
    """

    __slots__ = ("offset", "log_offset", "_head", "_ends", "_log_a", "_span")

    def __init__(self, offset: float):
        self.offset = offset
        self.log_offset = math.log(offset)
        self._head = [math.log1p(j / offset) for j in range(1, _HEAD_TERMS)]
        last = NORMALIZATION_TERMS - 1
        a = offset + _HEAD_TERMS
        self._log_a = math.log1p(_HEAD_TERMS / offset)
        self._span = math.log1p((last - _HEAD_TERMS) / a)  # log(e / a)
        # (sign in the Euler-Maclaurin difference, 1 / y, l) at a and at e
        self._ends = ((-1.0, 1.0 / a, self._log_a),
                      (1.0, 1.0 / (offset + last), math.log1p(last / offset)))

    def __call__(self, alpha: float) -> tuple[float, float, float]:
        s0, s1, s2 = 1.0, 0.0, 0.0  # the j = 0 term: w = 1, l = 0
        for ell in self._head:
            w = math.exp(-alpha * ell)
            s0 += w
            w *= ell
            s1 += w
            s2 += w * ell

        s = 1.0 - alpha
        la, span = self._log_a, self._span
        phi0, phi1, phi2 = _phi(s * span)
        scale = self.offset * math.exp(s * la) * span
        s0 += scale * phi0
        s1 += scale * (la * phi0 + span * phi1)
        s2 += scale * (la * la * phi0 + span * (2.0 * la * phi1 + span * phi2))

        # rising factorials (alpha)_m, with two alpha-derivatives, at m = 1, 3, 5, 7
        p, dp, ddp = 1.0, 0.0, 0.0
        rising = []
        for i in range(7):
            factor = alpha + i
            p, dp, ddp = p * factor, dp * factor + p, ddp * factor + 2.0 * dp
            if i % 2 == 0:
                rising.append((p, dp, ddp))
        for sign, inv, ell in self._ends:
            w = math.exp(-alpha * ell)
            s0 += 0.5 * w
            s1 += 0.5 * w * ell
            s2 += 0.5 * w * ell * ell
            # odd m: the derivative carries -y**-m
            f, inv2 = -sign * w * inv, inv * inv
            for c, (p, dp, ddp) in zip(_BERNOULLI, rising):
                g = c * f
                s0 += g * p
                s1 += g * (p * ell - dp)
                s2 += g * (p * ell * ell - 2.0 * dp * ell + ddp)
                f *= inv2
        return s0, s1, s2


def log_unnormalized_weight(params: ParamSpec, x):
    """Natural log of the kernel weight at integer points ``x >= 1``.

    Accepts a scalar or array; returns the matching shape.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1):
        raise SupportError("kernel weights are defined for x >= 1")
    scalar = arr.ndim == 0
    out = params.log_weight(np.atleast_1d(arr))
    return float(out[0]) if scalar else out


def unnormalized_weight(params: ParamSpec, x):
    """Kernel weight at ``x``: ``x**-alpha``, ``(B+x)**-alpha``, or the
    lognormal density ``exp(-(ln x - mu)^2 / (2 sigma^2)) / (x sigma sqrt(2 pi))``."""
    return np.exp(log_unnormalized_weight(params, x))


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
    otherwise the two coincide. Both are read off
    :class:`DiscreteDistribution`.
    """
    dist = DiscreteDistribution(params, x_min)
    return NormalizationConstants(dist.norm_const, dist.norm_const_tail_corrected)


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
    norm_const_tail_corrected: float = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x_min < 1:
            raise ParameterError(f"x_min must be >= 1, got {self.x_min}")
        log_norm = self.params.log_normalizer(self.x_min)
        bare = math.exp(log_norm)
        edge = self.x_min + NORMALIZATION_TERMS - 0.5  # midpoint rule past the window
        tail = self.params.tail_integral(edge) if self.params.heavy_tailed else 0.0
        object.__setattr__(self, "norm_const", bare)
        object.__setattr__(self, "norm_const_tail_corrected", bare + tail)
        object.__setattr__(self, "_log_norm", log_norm)

    @cached_property
    def _window_cum(self) -> np.ndarray:
        """Cumulative pmf over the window, built on first use.

        Only ``cdf``, ``ccdf`` and ``sample`` read it; a distribution built
        for its normalizer alone never pays for it.
        """
        log_weight = self.params.log_weight(normalization_window(self.x_min))
        cum = np.cumsum(np.exp(log_weight - self._log_norm))
        cum.flags.writeable = False
        return cum

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
        out = np.exp(self.log_pmf(x))
        return out

    def cdf(self, x):
        """P(X <= x), the pmf summed over ``[x_min, x]``; past the window, its whole mass.

        No point past ``x`` is formed, so ``x`` may be the largest ``int64``.
        """
        arr, scalar = self._validate_support(x)
        cum = self._window_cum
        out = cum[np.minimum(arr.astype(np.int64) - self.x_min, len(cum) - 1)]
        return float(out[0]) if scalar else out

    def ccdf(self, x):
        """P(X >= x) = 1 - sum of pmf over [x_min, x); equals 1 at x_min.

        The pmf sums to one over the normalization window, so beyond the
        window the ccdf stays at the window's own tail,
        ``max(1 - cum[-1], 0)``: the cost does not depend on ``x``.
        """
        arr, scalar = self._validate_support(x)
        cum = self._window_cum
        idx = np.minimum(arr.astype(np.int64) - self.x_min, len(cum))
        before = np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0.0)
        out = np.maximum(1.0 - before, 0.0)
        return float(out[0]) if scalar else out

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw ``n`` i.i.d. values by inverse-CDF search.

        The cumulative table starts at the normalization window and is
        lazily extended (doubling) until it covers the largest drawn
        uniform, capped at cumulative mass ``1 - 1e-12``; draws beyond
        the cap clamp to the last tabulated value. Output is a fixed
        function of ``seed``.

        Parameters
        ----------
        n : int
            Number of draws, >= 1.
        seed : int, SeedSequence, or Generator
            Source of randomness; an integer gives reproducible output.
        """
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        targets = np.minimum(rng.random(n), CUMULATIVE_CAP)
        pieces = [self._window_cum]
        total = len(self._window_cum)
        reach = float(self._window_cum[-1])
        need = float(targets.max())
        while reach < need and total < MAX_TABLE_LENGTH:
            size = min(total, MAX_TABLE_LENGTH - total)
            xs = np.arange(self.x_min + total, self.x_min + total + size, dtype=float)
            chunk = reach + np.cumsum(np.exp(self.params.log_weight(xs) - self._log_norm))
            if chunk[-1] <= reach:  # weights underflowed; no more mass reachable
                break
            pieces.append(chunk)
            reach = float(chunk[-1])
            total += size
        cum = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.minimum(idx, len(cum) - 1)  # clamp beyond the cap
        return (self.x_min + idx).astype(np.int64)

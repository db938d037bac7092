"""Discrete left-truncated heavy-tailed distribution kernels.

Three families over integer support ``x >= x_min``:

* power law, weight ``x**-alpha``
* hooked power law, weight ``(B + x)**-alpha`` (reduces to the power law
  at ``B = 0``)
* discrete lognormal, weight given by the continuous lognormal density
  evaluated at integers

Each family is normalized by dividing by the sum of its weights over the
truncated integer support, approximated by the sum of the first 10,000
terms starting at ``x_min``. That windowed sum is the probability-mass
normalizer throughout (it keeps the objective smooth in the parameters
and the windowed pmf summing to one exactly). For reporting, a
tail-corrected constant is also computed which appends the midpoint
integral of the continuous kernel beyond the window whenever the tail
decays slowly (``alpha <= 2`` for the power laws, ``sigma > 2`` for the
lognormal); for ``alpha = 2`` at ``x_min = 1`` it reproduces pi**2/6 to
near machine precision.

All lognormal evaluation is done in log space to avoid underflow at
extreme parameter values (fits on real citation data can reach location
parameters of several hundred below zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import logsumexp

from .errors import NonNormalizableError, ParameterError, SupportError

#: Number of terms summed for the normalization constant.
NORMALIZATION_TERMS = 10_000

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
class PowerLawParams:
    """Scaling exponent ``alpha > 1`` of the ``x**-alpha`` kernel."""

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class HookedPowerLawParams:
    """Exponent ``alpha > 1`` and offset ``B > -1`` of ``(B + x)**-alpha``."""

    alpha: float
    B: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (math.isfinite(self.B) and self.B > -1.0):
            raise ParameterError(f"offset B must be > -1, got {self.B}")


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


ParamSpec = Union[PowerLawParams, HookedPowerLawParams, DiscreteLognormalParams]


def _check_alpha(alpha: float):
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    if alpha <= 1.0:
        raise NonNormalizableError(
            f"alpha must exceed 1 for the tail sum to converge, got {alpha}"
        )


def log_unnormalized_weight(params: ParamSpec, x):
    """Natural log of the kernel weight at integer points ``x >= 1``.

    Accepts a scalar or array; returns the matching shape.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 1):
        raise SupportError("kernel weights are defined for x >= 1")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = _log_weights(params, arr)
    return float(out[0]) if scalar else out


def unnormalized_weight(params: ParamSpec, x):
    """Kernel weight at ``x``: ``x**-alpha``, ``(B+x)**-alpha``, or the
    lognormal density ``exp(-(ln x - mu)^2 / (2 sigma^2)) / (x sigma sqrt(2 pi))``."""
    return np.exp(log_unnormalized_weight(params, x))


def _log_weights(params: ParamSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(params, PowerLawParams):
        return -params.alpha * np.log(x)
    if isinstance(params, HookedPowerLawParams):
        return -params.alpha * np.log(params.B + x)
    if isinstance(params, DiscreteLognormalParams):
        logx = np.log(x)
        z = (logx - params.mu) / params.sigma
        return -logx - math.log(params.sigma) - 0.5 * _LOG_2PI - 0.5 * z * z
    raise ParameterError(f"unknown parameter spec {params!r}")


def _tail_integral(params: ParamSpec, window_end: int) -> float:
    """Midpoint integral of the continuous kernel over (window_end + 1/2, inf)."""
    edge = window_end + 0.5
    if isinstance(params, PowerLawParams):
        return edge ** (1.0 - params.alpha) / (params.alpha - 1.0)
    if isinstance(params, HookedPowerLawParams):
        return (params.B + edge) ** (1.0 - params.alpha) / (params.alpha - 1.0)
    z = (math.log(edge) - params.mu) / params.sigma
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _heavy_tailed(params: ParamSpec) -> bool:
    if isinstance(params, DiscreteLognormalParams):
        return params.sigma > 2.0
    return params.alpha <= 2.0


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
    if x_min < 1:
        raise ParameterError(f"x_min must be >= 1, got {x_min}")
    window = np.arange(x_min, x_min + NORMALIZATION_TERMS, dtype=float)
    bare = float(np.exp(logsumexp(_log_weights(params, window))))
    corrected = bare
    if _heavy_tailed(params):
        corrected = bare + _tail_integral(params, x_min + NORMALIZATION_TERMS - 1)
    return NormalizationConstants(bare=bare, tail_corrected=corrected)


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
    _window_cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x_min < 1:
            raise ParameterError(f"x_min must be >= 1, got {self.x_min}")
        if isinstance(self.params, HookedPowerLawParams) and self.params.B + self.x_min <= 0:
            raise ParameterError("B + x_min must be positive")
        window = np.arange(self.x_min, self.x_min + NORMALIZATION_TERMS, dtype=float)
        logw = _log_weights(self.params, window)
        log_norm = float(logsumexp(logw))
        consts = NormalizationConstants(
            bare=math.exp(log_norm),
            tail_corrected=math.exp(log_norm)
            + (_tail_integral(self.params, self.x_min + NORMALIZATION_TERMS - 1)
               if _heavy_tailed(self.params) else 0.0),
        )
        cum = np.cumsum(np.exp(logw - log_norm))
        cum.flags.writeable = False
        object.__setattr__(self, "norm_const", consts.bare)
        object.__setattr__(self, "norm_const_tail_corrected", consts.tail_corrected)
        object.__setattr__(self, "_log_norm", log_norm)
        object.__setattr__(self, "_window_cum", cum)

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
        out = _log_weights(self.params, arr.astype(float)) - self._log_norm
        return float(out[0]) if scalar else out

    def pmf(self, x):
        """Probability mass at ``x >= x_min`` (scalar or array)."""
        out = np.exp(self.log_pmf(x))
        return out

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
            chunk = reach + np.cumsum(np.exp(_log_weights(self.params, xs) - self._log_norm))
            if chunk[-1] <= reach:  # weights underflowed; no more mass reachable
                break
            pieces.append(chunk)
            reach = float(chunk[-1])
            total += size
        cum = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.minimum(idx, len(cum) - 1)  # clamp beyond the cap
        return (self.x_min + idx).astype(np.int64)

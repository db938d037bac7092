"""Discrete left-truncated heavy-tailed distribution kernels.

Three families over integer support ``x >= x_min``, one parameter class
each. The class holds its family's formulas: ``log_weight(x)``, the
``tail_integral(edge)`` of the continuous kernel, and ``heavy_tailed``.

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
and the windowed pmf summing to one exactly); it is computed in one
place, :class:`DiscreteDistribution`. For reporting, a tail-corrected
constant is also computed which appends the midpoint integral of the
continuous kernel beyond the window whenever the tail decays slowly
(``heavy_tailed``: ``alpha <= 2`` for the power laws, ``sigma > 2`` for
the lognormal); for ``alpha = 2`` at ``x_min = 1`` it reproduces
pi**2/6 to near machine precision.

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
    :class:`DiscreteDistribution`, the one place the window is summed.
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
        log_norm = log_sum_exp(self.params.log_weight(self._window()))
        bare = math.exp(log_norm)
        edge = self.x_min + NORMALIZATION_TERMS - 0.5  # midpoint rule past the window
        tail = self.params.tail_integral(edge) if self.params.heavy_tailed else 0.0
        object.__setattr__(self, "norm_const", bare)
        object.__setattr__(self, "norm_const_tail_corrected", bare + tail)
        object.__setattr__(self, "_log_norm", log_norm)

    def _window(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + NORMALIZATION_TERMS, dtype=float)

    @cached_property
    def _window_cum(self) -> np.ndarray:
        """Cumulative pmf over the window, built on first use.

        Only ``ccdf`` and ``sample`` read it; a distribution built for its
        normalizer alone never pays for it.
        """
        cum = np.cumsum(np.exp(self.params.log_weight(self._window()) - self._log_norm))
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

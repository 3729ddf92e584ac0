"""The prior-family registry: parameters, aliases, checks, densities, transforms.

:data:`FAMILIES` maps each prior family's name to its class and is the only
list of them: the spec schema reads names, parameters, aliases and supports
from it, and validates parameter values by constructing the family.  Each
family knows its log density, the analytic derivative of that log density,
and the bijection that maps an unconstrained real coordinate onto its support
(with the log-Jacobian needed for density corrections in unconstrained space).

Conventions:
  * the second Normal parameter is a standard deviation,
  * HalfNormal is supported on [0, inf) with normalizer sqrt(2/pi)/sigma,
  * Exponential is parameterized by its rate ``lam`` (mean = 1/lam),
  * out-of-support points get log density -inf rather than an error, and
    the derivative there is the one-sided limit from inside the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Mapping

from .errors import InvalidParamValue

_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Transforms: unconstrained z  <->  constrained x


class IdentityTransform:
    """x = z, for distributions supported on the whole real line."""

    def forward(self, z: float) -> float:
        return z

    def inverse(self, x: float) -> float:
        return x

    def log_jacobian(self, z: float) -> float:
        return 0.0

    def dforward_dz(self, z: float) -> float:
        return 1.0

    def dlog_jacobian_dz(self, z: float) -> float:
        return 0.0


class ExpTransform:
    """x = exp(z), mapping the real line onto (0, inf)."""

    def forward(self, z: float) -> float:
        try:
            return math.exp(z)
        except OverflowError:
            return float("inf")

    def inverse(self, x: float) -> float:
        return math.log(x)

    def log_jacobian(self, z: float) -> float:
        return z

    def dforward_dz(self, z: float) -> float:
        return self.forward(z)

    def dlog_jacobian_dz(self, z: float) -> float:
        return 1.0


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _log_sigmoid(z: float) -> float:
    if z >= 0:
        return -math.log1p(math.exp(-z))
    return z - math.log1p(math.exp(z))


@dataclass(frozen=True)
class LogisticIntervalTransform:
    """x = lower + (upper - lower) * logistic(z), mapping onto (lower, upper)."""

    lower: float
    upper: float

    def forward(self, z: float) -> float:
        return self.lower + (self.upper - self.lower) * _sigmoid(z)

    def inverse(self, x: float) -> float:
        p = (x - self.lower) / (self.upper - self.lower)
        return math.log(p) - math.log1p(-p)

    def log_jacobian(self, z: float) -> float:
        return math.log(self.upper - self.lower) + _log_sigmoid(z) + _log_sigmoid(-z)

    def dforward_dz(self, z: float) -> float:
        s = _sigmoid(z)
        return (self.upper - self.lower) * s * (1.0 - s)

    def dlog_jacobian_dz(self, z: float) -> float:
        return 1.0 - 2.0 * _sigmoid(z)


Transform = IdentityTransform | ExpTransform | LogisticIntervalTransform


# ---------------------------------------------------------------------------
# Distributions


class PriorDistribution:
    """A prior family: its dataclass fields are its canonical parameters, ``ALIASES``
    maps other lowercase names onto them, ``SUPPORT`` is None if parameters set it."""

    ALIASES: ClassVar[Mapping[str, str]]
    SUPPORT: ClassVar[tuple[float, float] | None]

    @classmethod
    def param_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def support(self) -> tuple[float, float]:
        return self.SUPPORT

    def _require_positive(self, name: str) -> None:
        value = getattr(self, name)
        if not value > 0:
            raise InvalidParamValue(f"{type(self).__name__}: {name} must be > 0, got {value}")


@dataclass(frozen=True)
class Normal(PriorDistribution):
    mu: float
    sigma: float

    ALIASES = {"loc": "mu", "mean": "mu", "sd": "sigma", "scale": "sigma"}
    SUPPORT = (-math.inf, math.inf)

    def __post_init__(self):
        self._require_positive("sigma")

    def log_pdf(self, x: float) -> float:
        t = (x - self.mu) / self.sigma
        return -0.5 * t * t - math.log(self.sigma) - 0.5 * _LOG_2PI

    def dlogpdf_dx(self, x: float) -> float:
        return -(x - self.mu) / (self.sigma * self.sigma)

    def transform(self) -> Transform:
        return IdentityTransform()


@dataclass(frozen=True)
class HalfNormal(PriorDistribution):
    sigma: float

    ALIASES = {"sd": "sigma", "scale": "sigma"}
    SUPPORT = (0.0, math.inf)

    def __post_init__(self):
        self._require_positive("sigma")

    def log_pdf(self, x: float) -> float:
        if x < 0:
            return _NEG_INF
        t = x / self.sigma
        return 0.5 * math.log(2.0 / math.pi) - math.log(self.sigma) - 0.5 * t * t

    def dlogpdf_dx(self, x: float) -> float:
        return -x / (self.sigma * self.sigma)

    def transform(self) -> Transform:
        return ExpTransform()


@dataclass(frozen=True)
class Uniform(PriorDistribution):
    lower: float
    upper: float

    ALIASES = {"low": "lower", "a": "lower", "high": "upper", "b": "upper"}
    SUPPORT = None

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidParamValue(f"Uniform: lower must be < upper, got lower={self.lower}, upper={self.upper}")

    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def log_pdf(self, x: float) -> float:
        if x < self.lower or x > self.upper:
            return _NEG_INF
        return -math.log(self.upper - self.lower)

    def dlogpdf_dx(self, x: float) -> float:
        return 0.0

    def transform(self) -> Transform:
        return LogisticIntervalTransform(self.lower, self.upper)


@dataclass(frozen=True)
class Exponential(PriorDistribution):
    lam: float

    ALIASES = {"rate": "lam", "lambda": "lam"}
    SUPPORT = (0.0, math.inf)

    def __post_init__(self):
        self._require_positive("lam")

    def log_pdf(self, x: float) -> float:
        if x < 0:
            return _NEG_INF
        return math.log(self.lam) - self.lam * x

    def dlogpdf_dx(self, x: float) -> float:
        return -self.lam

    def transform(self) -> Transform:
        return ExpTransform()


FAMILIES: dict[str, type[PriorDistribution]] = {
    cls.__name__: cls for cls in (Normal, HalfNormal, Uniform, Exponential)
}


def from_spec(spec) -> PriorDistribution:
    """Instantiate the family a validated ``DistributionSpec`` names."""
    return FAMILIES[spec.name](**spec.params)


__all__ = [
    *FAMILIES,
    "FAMILIES",
    "PriorDistribution",
    "from_spec",
    "IdentityTransform",
    "ExpTransform",
    "LogisticIntervalTransform",
    "Transform",
]

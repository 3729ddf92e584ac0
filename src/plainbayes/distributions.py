"""The prior-family registry: parameters, aliases, checks, densities, transforms.

:data:`FAMILIES` maps each prior family's name to its class and is the only
list of them: the spec schema reads names, parameters, aliases and supports
from it, and a parsed prior is an instance of its family.  Constructing a
family checks its parameter values, whoever constructs it.  Each family
knows its log density, the analytic derivative of that log density, and the
bijection that maps an unconstrained real coordinate onto its support
(with the log-Jacobian needed for density corrections in unconstrained space);
``emit`` writes the same arithmetic as source for the factorisation section of
the generated density (its rows section calls the methods themselves).

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

    def emit(self, z: str, let, bind) -> tuple[str, str, str, str]:
        """Source for (forward, log_jacobian, dforward_dz, dlog_jacobian_dz) at the local ``z``,
        the same operations in the same order, forward a local; ``let`` and ``bind`` as in
        ``formula.emit``, and ``exp``, ``log1p`` and ``inf`` those of ``math``."""
        return z, "0.0", "1.0", "0.0"


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

    def emit(self, z: str, let, bind) -> tuple[str, str, str, str]:
        """As ``IdentityTransform.emit``; where ``forward`` gives inf, ``exp`` raises OverflowError."""
        x = let(f"exp({z})")
        return x, z, x, "1.0"


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

    def emit(self, z: str, let, bind) -> tuple[str, str, str, str]:
        """As ``IdentityTransform.emit``; the sigmoid and log-sigmoids share one exp and one log1p."""
        e = let(f"exp(-{z}) if {z} >= 0 else exp({z})")
        s = let(f"1.0 / (1.0 + {e}) if {z} >= 0 else {e} / (1.0 + {e})")
        log1p_e, width = let(f"log1p({e})"), bind(self.upper - self.lower)
        log_jacobian = (f"{bind(math.log(self.upper - self.lower))} + (-{log1p_e} if {z} >= 0 else {z} - {log1p_e})"
                        f" + (-{log1p_e} if {z} <= 0 else -{z} - {log1p_e})")
        return let(f"{bind(self.lower)} + {width} * {s}"), log_jacobian, f"{width} * {s} * (1.0 - {s})", f"1.0 - 2.0 * {s}"


Transform = IdentityTransform | ExpTransform | LogisticIntervalTransform


# ---------------------------------------------------------------------------
# Distributions


def _check_real(distribution: str, name: str, value: object) -> float:
    """``value`` as a finite float; a bool, a non-number, NaN, an infinity or an
    integer beyond the float range raises :class:`InvalidParamValue`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParamValue(f"{distribution}: parameter {name!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise InvalidParamValue(f"{distribution}: parameter {name!r} must be finite, got {value!r}")
    return value


class PriorDistribution:
    """A prior family: its dataclass fields are its canonical parameters, stored
    as finite floats, ``POSITIVE`` names those that must be > 0, ``ALIASES``
    maps other lowercase names onto them, ``SUPPORT`` is None if parameters set it."""

    ALIASES: ClassVar[Mapping[str, str]]
    SUPPORT: ClassVar[tuple[float, float] | None]
    POSITIVE: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        family = type(self).__name__
        for name in self.param_names():
            value = _check_real(family, name, getattr(self, name))
            if name in self.POSITIVE and not value > 0:
                raise InvalidParamValue(f"{family}: {name} must be > 0, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def param_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def support(self) -> tuple[float, float]:
        return self.SUPPORT


@dataclass(frozen=True)
class Normal(PriorDistribution):
    mu: float
    sigma: float

    ALIASES = {"loc": "mu", "mean": "mu", "sd": "sigma", "scale": "sigma"}
    SUPPORT = (-math.inf, math.inf)
    POSITIVE = ("sigma",)

    def log_pdf(self, x: float) -> float:
        t = (x - self.mu) / self.sigma
        return -0.5 * t * t - math.log(self.sigma) - 0.5 * _LOG_2PI

    def dlogpdf_dx(self, x: float) -> float:
        return -(x - self.mu) / (self.sigma * self.sigma)

    def emit(self, x: str, let, bind) -> tuple[str, str]:
        """Source for (log_pdf, dlogpdf_dx) at the local ``x``, as ``IdentityTransform.emit``."""
        t = let(f"({x} - {bind(self.mu)}) / {bind(self.sigma)}")
        return (f"-0.5 * {t} * {t} - {bind(math.log(self.sigma))} - {bind(0.5 * _LOG_2PI)}",
                f"-({x} - {bind(self.mu)}) / {bind(self.sigma * self.sigma)}")

    def transform(self) -> Transform:
        return IdentityTransform()


@dataclass(frozen=True)
class HalfNormal(PriorDistribution):
    sigma: float

    ALIASES = {"sd": "sigma", "scale": "sigma"}
    SUPPORT = (0.0, math.inf)
    POSITIVE = ("sigma",)

    def log_pdf(self, x: float) -> float:
        if x < 0:
            return _NEG_INF
        t = x / self.sigma
        return 0.5 * math.log(2.0 / math.pi) - math.log(self.sigma) - 0.5 * t * t

    def dlogpdf_dx(self, x: float) -> float:
        return -x / (self.sigma * self.sigma)

    def emit(self, x: str, let, bind) -> tuple[str, str]:
        t = f"({x} / {bind(self.sigma)})"
        return (f"-inf if {x} < 0 else {bind(0.5 * math.log(2.0 / math.pi) - math.log(self.sigma))} - 0.5 * {t} * {t}",
                f"-{x} / {bind(self.sigma * self.sigma)}")

    def transform(self) -> Transform:
        return ExpTransform()


@dataclass(frozen=True)
class Uniform(PriorDistribution):
    lower: float
    upper: float

    ALIASES = {"low": "lower", "a": "lower", "high": "upper", "b": "upper"}
    SUPPORT = None

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.upper - self.lower < math.inf:  # an infinite width: a density of 0, a log-Jacobian of inf
            raise InvalidParamValue(f"Uniform: lower must be < upper, upper - lower finite, got lower={self.lower}, upper={self.upper}")

    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def log_pdf(self, x: float) -> float:
        if x < self.lower or x > self.upper:
            return _NEG_INF
        return -math.log(self.upper - self.lower)

    def dlogpdf_dx(self, x: float) -> float:
        return 0.0

    def emit(self, x: str, let, bind) -> tuple[str, str]:
        return f"-inf if {x} < {bind(self.lower)} or {x} > {bind(self.upper)} else {bind(-math.log(self.upper - self.lower))}", "0.0"

    def transform(self) -> Transform:
        return LogisticIntervalTransform(self.lower, self.upper)


@dataclass(frozen=True)
class Exponential(PriorDistribution):
    lam: float

    ALIASES = {"rate": "lam", "lambda": "lam"}
    SUPPORT = (0.0, math.inf)
    POSITIVE = ("lam",)

    def log_pdf(self, x: float) -> float:
        if x < 0:
            return _NEG_INF
        return math.log(self.lam) - self.lam * x

    def dlogpdf_dx(self, x: float) -> float:
        return -self.lam

    def emit(self, x: str, let, bind) -> tuple[str, str]:
        return f"-inf if {x} < 0 else {bind(math.log(self.lam))} - {bind(self.lam)} * {x}", bind(-self.lam)

    def transform(self) -> Transform:
        return ExpTransform()


FAMILIES: dict[str, type[PriorDistribution]] = {
    cls.__name__: cls for cls in (Normal, HalfNormal, Uniform, Exponential)
}


__all__ = [
    *FAMILIES,
    "FAMILIES",
    "PriorDistribution",
    "IdentityTransform",
    "ExpTransform",
    "LogisticIntervalTransform",
    "Transform",
]

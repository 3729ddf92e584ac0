"""Assemble a differentiable unconstrained-space log posterior.

Given a validated model and a dataset, :func:`build_posterior` produces a
:class:`PosteriorFn` computing

    log p(z) = sum_i [ log prior_i(x_i) + log |J_i(z_i)| ]
             + sum_r Normal_logpdf(y_r | mu_r, sigma)

where x_i = forward_i(z_i) are the constrained parameters, mu_r is the
likelihood-mean formula evaluated on row r, and sigma is the constrained
noise parameter.  Gradients are exact: symbolic formula partials chained
with analytic distribution and transform derivatives.

The formula and its partials are compiled once with the data columns bound
as arrays, so a call repeats only the parameter-dependent operations, those
of evaluating the formula in the same order; numpy broadcasting makes this
identical to evaluating the scalar formula row by row.  The mean is checked
through the likelihood's own ``t . t``; only if that is not finite are the
rows scanned for the first offending one.

Density policy: proposals outside a prior's support (or with a degenerate
noise scale) get -inf so samplers can reject them; a non-finite likelihood
mean raises :class:`NonFiniteDensity`; NaN anywhere is a hard error.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import formula
from .data_io import Dataset
from .distributions import IdentityTransform, from_spec
from .errors import (
    DimensionMismatch,
    MissingResponseColumn,
    NonFiniteDensity,
    NonFiniteGradient,
    NonFiniteResult,
    UnresolvedVariable,
)
from .spec_schema import ValidatedModel

__all__ = ["PosteriorFn", "build_posterior"]

_LOG_2PI = math.log(2.0 * math.pi)

# Below this log density, a non-finite gradient is overflow at a hopeless
# point (reject gracefully); above it, it is a bug (hard error).
_GRADIENT_OVERFLOW_FLOOR = -1e10


class PosteriorFn:
    """A pure, immutable log density over unconstrained coordinates.

    ``log_density_and_grad`` is the primitive; ``log_density`` derives from
    it unless a cheaper value-only callable is supplied.  ``transforms`` map
    each unconstrained coordinate onto its parameter's support (identities
    when None).  The samplers constrain their kept draws through them, and
    so does ``constrain`` unless given a callable, which must agree with
    them and so needs them given too.  Instances are safe to share across
    chains.
    """

    def __init__(
        self,
        param_names,
        log_density_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
        log_density: Callable[[np.ndarray], float] | None = None,
        constrain: Callable[[np.ndarray], dict[str, float]] | None = None,
        transforms=None,
    ):
        self.param_names = tuple(param_names)
        if transforms is None:
            if constrain is not None:
                raise TypeError("a constrain callable needs the transforms it applies: the samplers use those")
            transforms = [IdentityTransform()] * len(self.param_names)
        self.transforms = tuple(transforms)
        self._value_and_grad = log_density_and_grad
        self._value = log_density
        self._constrain = constrain

    @property
    def dimension(self) -> int:
        return len(self.param_names)

    def _check(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dimension,):
            raise DimensionMismatch(self.dimension, int(z.size))
        return z

    def log_density(self, z) -> float:
        z = self._check(z)
        if self._value is not None:
            return self._value(z)
        return self._value_and_grad(z)[0]

    def log_density_and_grad(self, z) -> tuple[float, np.ndarray]:
        z = self._check(z)
        return self._value_and_grad(z)

    def constrain(self, z) -> dict[str, float]:
        z = self._check(z)
        if self._constrain is not None:
            return self._constrain(z)
        return {name: tf.forward(zi) for name, tf, zi in zip(self.param_names, self.transforms, z.tolist())}


def _rows(value, n_rows: int) -> np.ndarray:
    """``value`` as an n-vector of floats; an array already is one (data columns are n-vectors)."""
    if isinstance(value, np.ndarray):
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), (n_rows,))


def _at(compiled, x, n_rows: int) -> np.ndarray:
    """A compiled expression's n-vector at the parameter values ``x``."""
    return _rows(compiled(x), n_rows) if callable(compiled) else compiled


def build_posterior(model: ValidatedModel, data: Dataset, *, response_column: str = "y") -> PosteriorFn:
    """Compile a model + dataset into a PosteriorFn."""
    spec = model.spec
    names = list(spec.priors)
    dists = [from_spec(spec.priors[name]) for name in names]
    transforms = [dist.transform() for dist in dists]
    noise_name = spec.likelihood.noise_param
    noise_index = names.index(noise_name)
    dim = len(names)

    if response_column not in data.columns:
        raise MissingResponseColumn(response_column)
    y = data.columns[response_column]
    n_rows = data.n_rows

    column_vars = [v for v, role in model.variable_roles.items() if role == "column"]
    for v in column_vars:
        if v not in data.columns:
            raise UnresolvedVariable(v, "dataset does not provide this column")
    fixed_env = {v: data.columns[v] for v in column_vars}

    def compile_rows(ast):
        """``ast`` compiled over the parameters; if parameter-free, its n-vector, computed once."""
        compiled = formula.compile_formula(ast, names, fixed_env)
        return compiled if callable(compiled) else np.ascontiguousarray(_rows(compiled, n_rows))

    mean = compile_rows(model.formula_ast)
    # (i, d mu / d x_i) for each parameter whose partial is not the literal 0,
    # which would add exactly +0.0; the noise scale always, with None for 0.
    partials = []
    for i, name in enumerate(names):
        partial = formula.differentiate(model.formula_ast, name)
        if partial != formula.NumberLiteral(0.0):
            partials.append((i, compile_rows(partial)))
        elif i == noise_index:
            partials.append((i, None))

    def density(z: np.ndarray, with_grad: bool):
        """Log density at ``z``; with ``with_grad``, the pair (value, gradient)."""
        x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
        total = 0.0
        for zi, xi, dist, tf in zip(z, x, dists, transforms):
            total += dist.log_pdf(xi) + tf.log_jacobian(zi)
        if math.isnan(total):
            raise NonFiniteDensity("prior log density is NaN")

        sigma = x[noise_index]
        loglik = -math.inf  # outside a prior's support, or noise-scale underflow/overflow
        if total > -math.inf and sigma > 0.0 and math.isfinite(sigma):
            try:
                resid = y - _at(mean, x, n_rows)
                t = resid / sigma
                tt = float(np.dot(t, t))
                if not math.isfinite(tt):  # a non-finite mean makes t.t non-finite
                    formula.check_finite(_at(mean, x, n_rows))
            except NonFiniteResult as exc:
                bad = np.broadcast_to(np.asarray(exc.value, dtype=float), (n_rows,)) if exc.value is not None else None
                row = int(np.argmin(np.isfinite(bad))) if bad is not None else None
                raise NonFiniteDensity(f"likelihood mean is non-finite: {exc}", row=row) from None
            loglik = -0.5 * tt - n_rows * math.log(sigma) - 0.5 * n_rows * _LOG_2PI
            if math.isnan(loglik):
                raise NonFiniteDensity("likelihood log density is NaN")
        if loglik == -math.inf:
            return (-math.inf, np.zeros(dim)) if with_grad else -math.inf
        total += loglik
        if not with_grad:
            return total

        # d log|J_i| / dz_i, d x_i / dz_i and d log prior_i / dx_i (one-sided at support edges)
        dljk = np.array([tf.dlog_jacobian_dz(zi) for tf, zi in zip(transforms, z)], dtype=float)
        dfwd = np.array([tf.dforward_dz(zi) for tf, zi in zip(transforms, z)], dtype=float)
        dprior = np.array([dist.dlogpdf_dx(xi) for dist, xi in zip(dists, x)], dtype=float)
        grad = dprior * dfwd + dljk

        # d loglik / d x_i = w * (r . d mu / d x_i), plus dsigma for the noise scale
        cube = sigma * sigma * sigma
        if cube > 0.0:
            r, w = resid, 1.0 / (sigma * sigma)
            dsigma = float(np.dot(resid, resid)) / cube - n_rows / sigma
        else:
            # sigma^3 underflows to 0: the same derivatives through t = resid / sigma,
            # only here, so that every other sigma keeps the arithmetic the draws depend on
            r, w = t, 1.0 / sigma
            dsigma = (tt - n_rows) * w
        try:
            for i, dmu in partials:
                s = 0.0 if dmu is None else w * float(np.dot(r, _at(dmu, x, n_rows)))
                if i == noise_index:
                    s += dsigma
                grad[i] += s * dfwd[i]
        except NonFiniteResult:
            # derivative overflow (e.g. near a division singularity) while
            # the density itself is fine: same policy as non-finite grad.
            # A non-finite partial that raises nothing makes its component
            # non-finite, which the same check catches.
            grad[:] = math.nan

        if not np.isfinite(grad).all():
            # Overflow in the chain rule at an astronomically improbable point
            # is a rejection, not a bug; the sampler will flag it divergent.
            if total < _GRADIENT_OVERFLOW_FLOOR:
                return total, np.zeros(dim)
            raise NonFiniteGradient("gradient contains non-finite components", z=z)
        return total, grad

    return PosteriorFn(
        param_names=names,
        log_density_and_grad=lambda z: density(z, True),
        log_density=lambda z: density(z, False),
        transforms=transforms,
    )

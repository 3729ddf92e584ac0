"""Assemble a differentiable unconstrained-space log posterior.

Given a validated model and a dataset, :func:`build_posterior` produces a
:class:`PosteriorFn` computing

    log p(z) = sum_i [ log prior_i(x_i) + log |J_i(z_i)| ]
             + sum_r Normal_logpdf(y_r | mu_r, sigma)

where x_i = forward_i(z_i) are the constrained parameters, mu_r is the
likelihood-mean formula evaluated on row r, and sigma is the constrained
noise parameter.  Gradients are exact: symbolic formula partials chained
with analytic distribution and transform derivatives.

The formula is evaluated once per call with data columns bound as arrays;
numpy broadcasting makes this identical to evaluating the scalar formula
row by row.

Density policy: proposals outside a prior's support (or with a degenerate
noise scale) get -inf so samplers can reject them; a non-finite likelihood
mean raises :class:`NonFiniteDensity`; NaN anywhere is a hard error.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from . import formula
from .data_io import Dataset
from .distributions import from_spec
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
    it unless a cheaper value-only callable is supplied.  Instances are safe
    to share across chains.
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
        self.transforms = tuple(transforms) if transforms is not None else None
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
        return dict(zip(self.param_names, map(float, z)))


def build_posterior(
    model: ValidatedModel,
    data: Dataset,
    *,
    response_column: str = "y",
    include_likelihood: bool = True,
) -> PosteriorFn:
    """Compile a model + dataset into a PosteriorFn.

    ``include_likelihood=False`` zeroes the likelihood term (prior plus
    Jacobian only); it exists for tests and diagnostics of the additive
    decomposition, not as a public modeling feature.
    """
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

    ast = model.formula_ast
    partials = [formula.differentiate(ast, name) for name in names]

    def _mu(env: Mapping[str, object]) -> np.ndarray:
        try:
            value = formula.evaluate(ast, env)
        except NonFiniteResult as exc:
            bad = np.broadcast_to(np.asarray(exc.value, dtype=float), (n_rows,)) if exc.value is not None else None
            row = int(np.argmin(np.isfinite(bad))) if bad is not None else None
            raise NonFiniteDensity(f"likelihood mean is non-finite: {exc}", row=row) from None
        return np.broadcast_to(np.asarray(value, dtype=float), (n_rows,))

    def _prior_term(z: np.ndarray, x: list[float]) -> float:
        total = 0.0
        for zi, xi, dist, tf in zip(z, x, dists, transforms):
            total += dist.log_pdf(xi) + tf.log_jacobian(zi)
        return total

    def value_only(z: np.ndarray) -> float:
        x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
        total = _prior_term(z, x)
        if total == -math.inf:
            return -math.inf
        if math.isnan(total):
            raise NonFiniteDensity("prior log density is NaN")
        if include_likelihood:
            total += _log_likelihood(x)
        return total

    def _log_likelihood(x: list[float]) -> float:
        sigma = x[noise_index]
        if not (sigma > 0.0 and math.isfinite(sigma)):
            return -math.inf  # noise-scale underflow/overflow guard
        env = dict(zip(names, x))
        env.update(fixed_env)
        mu = _mu(env)
        resid = y - mu
        t = resid / sigma
        loglik = -0.5 * float(np.dot(t, t)) - n_rows * math.log(sigma) - 0.5 * n_rows * _LOG_2PI
        if math.isnan(loglik):
            raise NonFiniteDensity("likelihood log density is NaN")
        return loglik

    def value_and_grad(z: np.ndarray) -> tuple[float, np.ndarray]:
        x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
        total = _prior_term(z, x)
        if total == -math.inf:
            return -math.inf, np.zeros(dim)
        if math.isnan(total):
            raise NonFiniteDensity("prior log density is NaN")

        dljk = np.empty(dim)  # d log|J_i| / dz_i
        dfwd = np.empty(dim)  # d x_i / dz_i
        dprior = np.empty(dim)  # d log prior_i / dx_i (one-sided at support edges)
        for i, (zi, xi, dist, tf) in enumerate(zip(z, x, dists, transforms)):
            dljk[i] = tf.dlog_jacobian_dz(zi)
            dfwd[i] = tf.dforward_dz(zi)
            dprior[i] = dist.dlogpdf_dx(xi)

        grad = dprior * dfwd + dljk

        if include_likelihood:
            sigma = x[noise_index]
            if not (sigma > 0.0 and math.isfinite(sigma)):
                return -math.inf, np.zeros(dim)
            env = dict(zip(names, x))
            env.update(fixed_env)
            mu = _mu(env)
            resid = y - mu
            inv_var = 1.0 / (sigma * sigma)
            t = resid / sigma
            loglik = -0.5 * float(np.dot(t, t)) - n_rows * math.log(sigma) - 0.5 * n_rows * _LOG_2PI
            if loglik == -math.inf:
                return -math.inf, np.zeros(dim)
            if math.isnan(loglik):
                raise NonFiniteDensity("likelihood log density is NaN")
            total += loglik
            try:
                for i, name in enumerate(names):
                    dmu = formula.evaluate(partials[i], env)
                    dmu = np.broadcast_to(np.asarray(dmu, dtype=float), (n_rows,))
                    s = inv_var * float(np.dot(resid, dmu))
                    if i == noise_index:
                        s += float(np.dot(resid, resid)) / (sigma * sigma * sigma) - n_rows / sigma
                    grad[i] += s * dfwd[i]
            except NonFiniteResult:
                # derivative overflow (e.g. near a division singularity) while
                # the density itself is fine: same policy as non-finite grad
                grad[:] = math.nan

        if not np.all(np.isfinite(grad)):
            # Overflow in the chain rule at an astronomically improbable point
            # is a rejection, not a bug; the sampler will flag it divergent.
            if total < _GRADIENT_OVERFLOW_FLOOR:
                return total, np.zeros(dim)
            raise NonFiniteGradient("gradient contains non-finite components", z=z)
        return total, grad

    def constrain(z: np.ndarray) -> dict[str, float]:
        return {name: tf.forward(zi) for name, tf, zi in zip(names, transforms, z)}

    return PosteriorFn(
        param_names=names,
        log_density_and_grad=value_and_grad,
        log_density=value_only,
        constrain=constrain,
        transforms=transforms,
    )

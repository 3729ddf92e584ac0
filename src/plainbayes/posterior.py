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
rows scanned for the first offending one.  Sums over the rows are dot
products taken in fixed blocks, so the density has the same bits under any
BLAS thread count.

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

# OpenBLAS sums a dot product of up to 10 000 elements on one thread, and of
# more on as many threads as it has, in an order that depends on that count.
_DOT_BLOCK = 8192

np_dot = getattr(np.dot, "_implementation", np.dot)  # np.dot less its __array_function__ dispatch


class PosteriorFn:
    """A pure, immutable log density over unconstrained coordinates.

    ``log_density_and_grad`` is the primitive; ``log_density`` derives from
    it unless a cheaper value-only callable is supplied.  Both check ``z``;
    ``unchecked_value_and_grad`` and ``unchecked_value`` are the callables
    themselves, for callers that pass a float64 array of shape
    ``(dimension,)`` (the samplers).  ``transforms`` map
    each unconstrained coordinate onto its parameter's support (identities
    when None).  The samplers constrain their kept draws through them, and
    so does ``constrain`` unless given a callable, which must agree with
    them and so needs them given too.  Instances are safe to share across
    chains.  ``fork_safe`` marks callables whose only effect is their result,
    as ``build_posterior``'s are: the samplers may then run chains in forked
    worker processes, where any other effect would be lost to the caller.
    """

    def __init__(
        self,
        param_names,
        log_density_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
        log_density: Callable[[np.ndarray], float] | None = None,
        constrain: Callable[[np.ndarray], dict[str, float]] | None = None,
        transforms=None,
        *,
        fork_safe: bool = False,
    ):
        self.param_names = tuple(param_names)
        self.fork_safe = fork_safe
        if transforms is None:
            if constrain is not None:
                raise TypeError("a constrain callable needs the transforms it applies: the samplers use those")
            transforms = [IdentityTransform()] * len(self.param_names)
        self.transforms = tuple(transforms)
        self.unchecked_value_and_grad = log_density_and_grad
        self.unchecked_value = log_density if log_density is not None else lambda z: log_density_and_grad(z)[0]
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
        return self.unchecked_value(self._check(z))

    def log_density_and_grad(self, z) -> tuple[float, np.ndarray]:
        return self.unchecked_value_and_grad(self._check(z))

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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` for n-vectors, the same bits under any BLAS thread count:
    ``np.dot`` over blocks of ``_DOT_BLOCK`` rows, the block sums added in
    order.  Up to one block, that is ``np.dot`` itself."""
    if a.shape[0] <= _DOT_BLOCK:
        return float(np_dot(a, b))
    total = 0.0
    for start in range(0, a.shape[0], _DOT_BLOCK):
        total += float(np_dot(a[start:start + _DOT_BLOCK], b[start:start + _DOT_BLOCK]))
    return total


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

    dot = np_dot if n_rows <= _DOT_BLOCK else _dot  # the same bits as _dot, less its call

    def compile_rows(ast):
        """``ast`` compiled into a function of the parameter values giving its
        n-vector; a parameter-free one computed once, here."""
        compiled = formula.compile_formula(ast, names, fixed_env)
        if not callable(compiled):
            vector = np.ascontiguousarray(_rows(compiled, n_rows))
            return lambda x: vector
        if formula.free_vars(ast) & fixed_env.keys():
            return compiled  # a data column in it makes every value an n-vector
        return lambda x: _rows(compiled(x), n_rows)

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
                resid = y - mean(x)
                t = resid / sigma
                tt = float(dot(t, t))
                if not math.isfinite(tt):  # a non-finite mean makes t.t non-finite
                    formula.check_finite(mean(x))
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

        # d log prior_i / dx_i (one-sided at support edges) * d x_i / dz_i + d log|J_i| / dz_i,
        # in Python floats: the same IEEE operations as on arrays, at a fraction of the cost
        dfwd = [tf.dforward_dz(zi) for tf, zi in zip(transforms, z)]
        grad = [
            dist.dlogpdf_dx(xi) * dfwd_i + tf.dlog_jacobian_dz(zi)
            for dist, xi, dfwd_i, tf, zi in zip(dists, x, dfwd, transforms, z)
        ]

        # d loglik / d x_i = w * (r . d mu / d x_i), plus dsigma for the noise scale
        cube = sigma * sigma * sigma
        if cube > 0.0:
            r, w = resid, 1.0 / (sigma * sigma)
            dsigma = float(dot(resid, resid)) / cube - n_rows / sigma
        else:
            # sigma^3 underflows to 0: the same derivatives through t = resid / sigma,
            # only here, so that every other sigma keeps the arithmetic the draws depend on
            r, w = t, 1.0 / sigma
            dsigma = (tt - n_rows) * w
        try:
            for i, dmu in partials:
                s = 0.0 if dmu is None else w * float(dot(r, dmu(x)))
                if i == noise_index:
                    s += dsigma
                grad[i] += s * dfwd[i]
        except NonFiniteResult:
            # derivative overflow (e.g. near a division singularity) while
            # the density itself is fine: same policy as non-finite grad.
            # A non-finite partial that raises nothing makes its component
            # non-finite, which the same check catches.
            grad = [math.nan] * dim

        if not all(map(math.isfinite, grad)):
            # Overflow in the chain rule at an astronomically improbable point
            # is a rejection, not a bug; the sampler will flag it divergent.
            if total < _GRADIENT_OVERFLOW_FLOOR:
                return total, np.zeros(dim)
            raise NonFiniteGradient("gradient contains non-finite components", z=z)
        return total, np.array(grad)

    return PosteriorFn(
        param_names=names,
        log_density_and_grad=lambda z: density(z, True),
        log_density=lambda z: density(z, False),
        transforms=transforms,
        fork_safe=True,
    )

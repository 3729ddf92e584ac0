"""Assemble a differentiable unconstrained-space log posterior.

Given a validated model and a dataset, :func:`build_posterior` produces a
:class:`PosteriorFn` computing

    log p(z) = sum_i [ log prior_i(x_i) + log |J_i(z_i)| ]
             + sum_r Normal_logpdf(y_r | mu_r, sigma)

where x_i = forward_i(z_i) are the constrained parameters, mu_r is the
likelihood-mean formula evaluated on row r, and sigma is the constrained
noise parameter.  Gradients are exact: symbolic formula partials chained
with analytic distribution and transform derivatives.

The sums over rows take one of two paths.  *Rows*, the reference: one
function generated by :func:`formula.emit`, the data columns bound as arrays,
gives the n-vectors of the mean and its partials, each operation once, in
the order of evaluating the scalar formula row by row; a non-finite ``t . t``
scans the rows for the first bad mean; dot products are taken in fixed
blocks, so the bits do not depend on the BLAS thread count.  *Factorisation*,
for a mean affine in the data, mu = c_0 + sum_k c_k X_k: with
B = [1, X_1, ..., X_K] = QR factored once and b = Q^T y - R c,
sum (y - mu)^2 = b . b + |y - Q Q^T y|^2 and sum (y - mu) d mu / d x_i =
(R^T b) . d c / d x_i, in O(K^2) Python floats, by one straight-line function
generated once per posterior (one assignment per distinct formula node, each
sum unrolled in ``sum``'s order, and each prior family's and transform's
arithmetic inlined, its constants bound once).  A B that is rank-deficient or
has n <= K + 1 rows, and any call with a c_k or partial that raises, an
``exp`` that overflows, a non-finite b . b or gradient, or an underflowing
sigma^3, take the rows.

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
from .distributions import IdentityTransform
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

_RANK_TOL = 1e-8  # a column this close to the span of those before it makes B rank-deficient

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
        self._shape = (len(self.param_names),)
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
        if z.shape != self._shape:
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


def _thin_qr(columns, y: np.ndarray, dot):
    """``(R, Q^T y, |y - Q Q^T y|^2)`` in Python floats (R a list of rows) for the thin QR
    of the n-vector ``columns`` by classical Gram-Schmidt run twice; None if rank-deficient.
    A sum beyond the float range, unwarned, fails the rank check or makes rho infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = len(columns)
        q, R = [], [[0.0] * m for _ in range(m)]
        for j, v in enumerate(columns):
            scale = math.sqrt(float(dot(v, v)))
            for _ in range(2):
                for i, a in enumerate([float(dot(qi, v)) for qi in q]):
                    v = v - a * q[i]
                    R[i][j] += a
            R[j][j] = math.sqrt(float(dot(v, v)))
            if not R[j][j] > _RANK_TOL * scale:
                return None
            q.append(v / R[j][j])
        qty = [float(dot(qi, y)) for qi in q]
        rest = y - sum(a * qi for a, qi in zip(qty, q))
        return R, qty, float(dot(rest, rest))


def _row_formulas(names, columns, n_rows, asts):
    """``formulas(x, with_grad)``, one straight-line function generated as source, returning
    ``(mean, partials)``: the n-vector of ``asts[0]`` at the parameter values ``x`` and, with
    ``with_grad``, a tuple of the n-vectors of ``asts[1:]`` (None for None).  ``partials`` is None
    without ``with_grad``, or where a partial raises :class:`NonFiniteResult`: the mean's lines come
    first, so only its errors escape.  One memo spans the trees.  A tree with no parameter is
    computed here as a contiguous vector, and one with no column is broadcast at each call."""
    env = {"NonFiniteResult": NonFiniteResult, "broadcast_to": np.broadcast_to, "asarray": np.asarray}
    lines, let, bind = formula.writer(env)
    params, memo = {name: f"x{i}" for i, name in enumerate(names)}, {}

    def vector(ast):
        formula.emit(ast, params, columns, let, bind, memo)
        value, local = memo[id(ast)][1]
        if local is None:
            return bind(np.ascontiguousarray(np.broadcast_to(np.asarray(value, dtype=float), (n_rows,))))
        if formula.free_vars(ast) & columns.keys():
            return local
        return let(f"broadcast_to(asarray({local}, dtype=float), {bind((n_rows,))})")

    mean, split = vector(asts[0]), len(lines)
    partials = "".join(f"{'None' if ast is None else vector(ast)}, " for ast in asts[1:])
    body = [f"{', '.join(params.values())}, = x", *lines[:split], f"if not with_grad: return {mean}, None", "try:",
            *(f"    {line}" for line in lines[split:]), f"    return {mean}, ({partials})", "except NonFiniteResult:",
            f"    return {mean}, None"]
    exec("def formulas(x, with_grad):\n" + "\n".join(f"    {line}" for line in body), env)
    return env["formulas"]


def _straight_line(names, dists, transforms, noise_index, n_rows, coefficients, partials, qr, rows):
    """The factorisation's log density ``density(z, with_grad)``, one straight-line function
    generated as source: see the module docstring.  ``partials`` holds (i, _, the ASTs of
    d c / d x_i or None for 0) per gradient term.  Numbers and functions are bound, never
    printed, and every name is made here, so no blueprint text reaches the source."""
    R, qty, rho = qr
    columns_at_0 = dict.fromkeys(formula.free_vars(coefficients[0]) - set(names), 0.0)
    # a quotient that raises, a float division by 0 in a prior term (inf on the rows' numpy
    # scalars), or an exp that overflows (inf in the rows, whose prior is then -inf)
    env = {"inf": math.inf, "log": math.log, "exp": math.exp, "log1p": math.log1p, "array": np.array,
           "zeros": np.zeros, "rows": rows, "Unvouched": (NonFiniteResult, ZeroDivisionError, OverflowError)}
    z = [f"z{i}" for i in range(len(names))]
    lines, let, bind = formula.writer(env)
    lines.append(f"{', '.join(z)}, = z.tolist()")

    def dot(a, b):
        return " + ".join(["0.0", *(f"{p} * {q}" for p, q in zip(a, b))])  # 0.0 + x is sum's 0 + x, bit for bit, and a faster add

    def emit(asts):  # one memo per build: a subtree the ASTs share is one local
        return [formula.emit(ast, dict(zip(names, x)), columns_at_0, let, bind, memo) for ast in asts]

    memo = {}
    inlined = [tf.emit(zi, let, bind) for tf, zi in zip(transforms, z)]  # (x, log |J|, dx/dz, dlog |J|/dz)
    x = [xi for xi, *_ in inlined]
    priors = [dist.emit(xi, let, bind) for dist, xi in zip(dists, x)]  # (log prior, dlog prior/dx)
    total = "0.0"
    for (lp, _), (_, lj, *_) in zip(priors, inlined):
        total = let(f"{total} + (({lp}) + ({lj}))")
    sigma = x[noise_index]
    lines.append(f"if not ({total} > -inf and 0.0 < {sigma} < inf): return rows(z, with_grad)")
    cube = let(f"{sigma} * {sigma} * {sigma}")
    c = emit(coefficients)
    b = [let(f"{bind(qy)} - ({dot(map(bind, row), c)})") for qy, row in zip(qty, R)]
    ss = let(f"{dot(b, b)} + {bind(rho)}")
    lines.append(f"if not ({cube} > 0.0 and {ss} < inf): return rows(z, with_grad)")
    loglik = let(f"-0.5 * ({ss} / ({sigma} * {sigma})) - {bind(n_rows)} * log({sigma}) - {bind(0.5 * n_rows * _LOG_2PI)}")
    value = let(f"{total} + {loglik}")
    lines.append(f"if not with_grad: return -inf if {loglik} == -inf else {value}")
    lines.append(f"if {loglik} == -inf: return -inf, zeros({bind(len(names))})")
    d = [let(dx) for _, _, dx, _ in inlined]
    g = [let(f"({dl}) * {di} + ({dj})") for (_, dl), di, (*_, dj) in zip(priors, d, inlined)]
    w = let(f"1.0 / ({sigma} * {sigma})")
    dsigma = let(f"{ss} / {cube} - {bind(n_rows)} / {sigma}")
    btr = [let(dot(map(bind, col), b)) for col in zip(*R)]
    for i, _, asts in partials:
        s = "0.0" if asts is None else f"{w} * ({dot(btr, emit(asts))})"
        g[i] = let(f"{g[i]} + ({s}{f' + {dsigma}' if i == noise_index else ''}) * {d[i]}")
    lines.append(f"if {' and '.join(f'-inf < {gi} < inf' for gi in g)}: return {value}, array([{', '.join(g)}])")
    body = "\n".join(f"        {line}" for line in lines)
    exec(f"def density(z, with_grad=False):\n    try:\n{body}\n    except Unvouched:\n        pass\n    return rows(z, with_grad)", env)
    return env["density"]


def build_posterior(model: ValidatedModel, data: Dataset, *, response_column: str = "y") -> PosteriorFn:
    """Compile a model + dataset into a PosteriorFn."""
    spec = model.spec
    names = list(spec.priors)
    dists = list(spec.priors.values())
    transforms = [dist.transform() for dist in dists]
    noise_name = spec.likelihood.noise_param
    noise_index = names.index(noise_name)
    dim = len(names)

    if response_column not in data.columns:
        raise MissingResponseColumn(response_column)
    y = data.columns[response_column]
    n_rows = data.n_rows

    column_vars = model.columns
    mean_ast = spec.likelihood.ast
    for v in column_vars:
        if v not in data.columns:
            raise UnresolvedVariable(v, "dataset does not provide this column")
    fixed_env = {v: data.columns[v] for v in column_vars}

    dot = np_dot if n_rows <= _DOT_BLOCK else _dot  # the same bits as _dot, less its call

    # mu = c_0 + sum_k c_k X_k when each slope c_k (its partial in a column) has no column
    # in it; c_0 is mu at every column 0, and d c_0 / d x_i is d mu / d x_i there
    slopes = [formula.differentiate(mean_ast, v) for v in column_vars]
    affine = not any(formula.free_vars(slope) & fixed_env.keys() for slope in slopes)

    qr = affine and n_rows > len(slopes) + 1 and _thin_qr([np.ones(n_rows)] + list(fixed_env.values()), y, dot)
    # (i, the AST of d mu / d x_i, with the factorisation those of d c / d x_i) for each parameter whose
    # partial is not the literal 0, which would add exactly +0.0; the noise scale always, with None for 0.
    partials = []
    for i, name in enumerate(names):
        partial = formula.differentiate(mean_ast, name)
        if partial != formula.NumberLiteral(0.0):
            partials.append((i, partial, qr and [partial, *(formula.differentiate(s, name) for s in slopes)]))
        elif i == noise_index:
            partials.append((i, None, None))
    formulas = _row_formulas(names, fixed_env, n_rows, [mean_ast, *(partial for _, partial, _ in partials)])

    def density(z: np.ndarray, with_grad: bool = False):
        """Log density at ``z`` from row sums; with ``with_grad``, the pair (value, gradient).
        An overflow below gives -inf, a rejection or an error, so numpy need not warn of it."""
        with np.errstate(over="ignore"):
            x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
            total = 0.0
            for zi, xi, dist, tf in zip(z, x, dists, transforms):
                total += dist.log_pdf(xi) + tf.log_jacobian(zi)
            if math.isnan(total):
                raise NonFiniteDensity("prior log density is NaN")

            sigma = x[noise_index]
            loglik = -math.inf  # outside a prior's support, or noise-scale underflow/overflow
            if total > -math.inf and sigma > 0.0 and math.isfinite(sigma):
                cube = sigma * sigma * sigma
                try:
                    mean, dmus = formulas(x, with_grad)
                    resid = y - mean
                    t = resid / sigma
                    tt = float(dot(t, t))
                    if not math.isfinite(tt):  # a non-finite mean makes t.t non-finite
                        formula.check_finite(mean)
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
            if cube > 0.0:
                r, w = resid, 1.0 / (sigma * sigma)
                dsigma = float(dot(resid, resid)) / cube - n_rows / sigma
            else:
                # sigma^3 underflows to 0: the same derivatives through t = resid / sigma,
                # only here, so that every other sigma keeps the arithmetic the draws depend on
                r, w = t, 1.0 / sigma
                dsigma = (tt - n_rows) * w
            if dmus is None:  # a partial raised (as near a division singularity): as a non-finite one
                grad = [math.nan] * dim
            for (i, *_), dmu in zip(partials, dmus or ()):
                s = 0.0 if dmu is None else w * float(dot(r, dmu))
                if i == noise_index:
                    s += dsigma
                grad[i] += s * dfwd[i]

            if not all(map(math.isfinite, grad)):
                # Overflow in the chain rule at an astronomically improbable point
                # is a rejection, not a bug; the sampler will flag it divergent.
                if total < _GRADIENT_OVERFLOW_FLOOR:
                    return total, np.zeros(dim)
                raise NonFiniteGradient("gradient contains non-finite components", z=z)
            return total, np.array(grad)

    if qr:
        density = _straight_line(names, dists, transforms, noise_index, n_rows, [mean_ast, *slopes],
                                 partials, qr, density)
    return PosteriorFn(
        param_names=names,
        log_density_and_grad=lambda z: density(z, True),
        log_density=density,
        transforms=transforms,
        fork_safe=True,
    )

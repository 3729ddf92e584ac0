"""Assemble a differentiable unconstrained-space log posterior.

Given a validated model and a dataset, :func:`build_posterior` produces a
:class:`PosteriorFn` computing

    log p(z) = sum_i [ log prior_i(x_i) + log |J_i(z_i)| ]
             + sum_r Normal_logpdf(y_r | mu_r, sigma)

where x_i = forward_i(z_i) are the constrained parameters, mu_r is the
likelihood-mean formula evaluated on row r, and sigma is the constrained
noise parameter.  Gradients are exact: symbolic formula partials chained
with analytic distribution and transform derivatives.

The density is one function per posterior, generated as source once, one
assignment per distinct formula node.  *Factorisation*, for a mean affine in
the data, mu = c_0 + sum_k c_k X_k: with B = [1, X_1, ..., X_K] = QR factored
once (its sums by ``math.fsum``, whatever the BLAS and CPU) and b = Q^T y - R c,
sum (y - mu)^2 = b . b + |y - Q Q^T y|^2 and
sum (y - mu) d mu / d x_i = (R^T b) . d c / d x_i, in O(K^2) Python floats,
each sum unrolled in ``sum``'s order, each prior family's and transform's
arithmetic inlined.  A call with a c_k or partial that raises, an ``exp``
that overflows, a non-finite b . b or gradient, or an underflowing sigma^3
falls through to the *rows* below it, the reference and the whole function
for any other mean or a B rank-deficient or of n <= K + 1 rows: the families'
and transforms' own methods on the numpy scalars of ``z``; the n-vectors of
the mean and its partials (scalars where they have no column), the columns
bound as arrays, each operation once, in the order of evaluating the scalar
formula row by row; the value and gradient through t = (y - mu) / sigma, and
a non-finite ``t . t`` scans the rows for the first bad mean; each sum over
the rows is ``row_sum`` of an elementwise product, numpy's pairwise sum in
the order its C loop fixes.  No BLAS routine runs in a density call, so its
bits depend on neither the BLAS thread count nor the CPU kernel BLAS would
pick.

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

_RANK_TOL = 1e-8  # a column this close to the span of those before it makes B rank-deficient

# every sum over the rows a density call takes, of an elementwise product: numpy's pairwise sum, in
# the order its C loop fixes, whatever the BLAS, its thread count or its CPU kernel
row_sum = np.add.reduce


class PosteriorFn:
    """A pure, immutable log density over unconstrained coordinates.

    ``log_density_and_grad`` is the primitive; ``log_density`` derives from
    it unless a cheaper value-only callable is supplied.  Both check ``z``;
    ``unchecked_value_and_grad`` and ``unchecked_value`` are the callables
    themselves, for callers that pass a float64 array of shape
    ``(dimension,)``.  ``float_density(z_0, ..., z_{d-1}, with_grad=False)``,
    the samplers' entry, takes z's coordinates as floats and returns log p,
    or with ``with_grad`` the tuple ``(log p, d_0, ..., d_{d-1})``: the one
    ``build_posterior`` generates, or else the array callables called on the
    array of the floats.  ``transforms`` map
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
        float_density: Callable[..., float | tuple] | None = None,
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
        self.float_density = float_density or _float_entry(self.dimension, log_density_and_grad, self.unchecked_value)
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


def _float_entry(dim: int, value_and_grad: Callable | None, value: Callable) -> Callable:
    """``float_density`` for array callables: ``density(*z, with_grad)`` calls one on ``np.array(z)``."""

    def density(*args):
        z = np.array(args[:dim])
        if args[dim:] and args[dim]:
            logp, grad = value_and_grad(z)
            return (logp, *grad.tolist())
        return value(z)

    return density


def fsum_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` correctly rounded, ``math.fsum`` of the products, so in the same bits under any
    BLAS and CPU; where a partial sum leaves the float range, their plain sum (inf or NaN)."""
    products = (a * b).tolist()
    try:
        return math.fsum(products)
    except (OverflowError, ValueError):
        return sum(products)


def _thin_qr(columns, y: np.ndarray):
    """``(R, Q^T y, |y - Q Q^T y|^2)`` in Python floats (R a list of rows) for the thin QR
    of the n-vector ``columns`` by classical Gram-Schmidt run twice; None if rank-deficient.
    A sum beyond the float range, unwarned, fails the rank check or makes rho infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = len(columns)
        q, R = [], [[0.0] * m for _ in range(m)]
        for j, v in enumerate(columns):
            scale = math.sqrt(fsum_dot(v, v))
            for _ in range(2):
                for i, a in enumerate([fsum_dot(qi, v) for qi in q]):
                    v = v - a * q[i]
                    R[i][j] += a
            R[j][j] = math.sqrt(fsum_dot(v, v))
            if not R[j][j] > _RANK_TOL * scale:
                return None
            q.append(v / R[j][j])
        qty = [fsum_dot(qi, y) for qi in q]
        rest = y - sum(a * qi for a, qi in zip(qty, q))
        return R, qty, fsum_dot(rest, rest)


def _density(names, dists, transforms, noise_index, y, columns, mean, slopes, partials, qr):
    """``density(z_0, ..., z_{d-1}, with_grad=False)``, generated as source: see the module docstring.  ``partials``
    holds (i, the AST of d mu / d x_i, those of d c / d x_i) per gradient term, None for 0; ``qr`` is
    the factorisation's, if it applies.  Numbers and functions are bound, never printed, and every
    name is made here, so no blueprint text reaches the source."""
    n_rows, dim = y.shape[0], len(names)
    # Unvouched: a quotient that raises, a float division by 0 in a prior term (inf on the rows'
    # numpy scalars), an exp that overflows (inf in the rows, whose prior is then -inf), or a guard
    # that fails (it raises, where a branch around the rest would cost every call a long jump)
    env = {"inf": math.inf, "log": math.log, "exp": math.exp, "log1p": math.log1p, "isnan": math.isnan,
           "isfinite": math.isfinite, "np": np, "array": np.array, "row_sum": row_sum, "multiply": np.multiply,
           "check_finite": formula.check_finite,
           "Unvouched": (NonFiniteResult, ArithmeticError), "NonFiniteResult": NonFiniteResult,
           "NonFiniteDensity": NonFiniteDensity, "NonFiniteGradient": NonFiniteGradient}
    lines, let, bind = formula.writer(env)  # one numbering of the locals across the sections
    zeros, rows_n, log_norm = ", ".join(["0.0"] * dim), bind(n_rows), bind(0.5 * n_rows * _LOG_2PI)
    z = [f"z{i}" for i in range(dim)]

    def nest(start):  # the lines from ``start`` on, one block deeper
        lines[start:] = [f"    {line}" for line in lines[start:]]

    def finite(g):
        return " and ".join(f"-inf < {gi} < inf" for gi in g)

    def call(method, at):
        return f"{bind(method)}({at})"

    def prior(z, inline):  # x, the sum of log p + log |J|, and per parameter (dlog p / dx, dx / dz, dlog |J| / dz),
        # each family's and transform's arithmetic inlined, or its own methods called
        # maps: (x, log |J|, dx / dz, dlog |J| / dz) per parameter; logs: (log p, dlog p / dx)
        maps = [tf.emit(zi, let, bind) if inline else
                (let(call(tf.forward, zi)), call(tf.log_jacobian, zi), call(tf.dforward_dz, zi),
                 call(tf.dlog_jacobian_dz, zi)) for tf, zi in zip(transforms, z)]
        x = [xi for xi, *_ in maps]
        logs = [dist.emit(xi, let, bind) if inline else (call(dist.log_pdf, xi), call(dist.dlogpdf_dx, xi))
                for dist, xi in zip(dists, x)]
        total = "0.0"
        for (lp, _), (_, lj, *_) in zip(logs, maps):
            total = let(f"{total} + (({lp}) + ({lj}))")
        return x, total, [(dl, dx, dj) for (_, dl), (_, _, dx, dj) in zip(logs, maps)]

    def prior_gradient(terms):  # (dx / dz, and dlog p / dx * dx / dz + dlog |J| / dz) per parameter
        d = [let(dx) for _, dx, _ in terms]
        return d, [let(f"({dl}) * {di} + ({dj})") for (dl, _, dj), di in zip(terms, d)]

    if qr:  # the factorisation, in Python floats; a call it cannot vouch for falls through to the rows
        R, qty, rho = qr
        lines.append("try:")

        def sum_of_products(a, b):
            return " + ".join(["0.0", *(f"{p} * {q}" for p, q in zip(a, b))])  # 0.0 + x is sum's 0 + x, bit for bit, and a faster add

        x, total, terms = prior(z, inline=True)
        params, memo, at_0 = dict(zip(names, x)), {}, dict.fromkeys(formula.free_vars(mean) - set(names), 0.0)

        def emit(asts):  # one memo per section: a subtree the ASTs share is one local
            return [formula.emit(ast, params, at_0, let, bind, memo) for ast in asts]

        sigma = x[noise_index]
        lines.append(f"if not ({total} > -inf and 0.0 < {sigma} < inf): raise ArithmeticError")
        cube = let(f"{sigma} * {sigma} * {sigma}")
        c = emit([mean, *slopes])
        b = [let(f"{bind(qy)} - ({sum_of_products(map(bind, row), c)})") for qy, row in zip(qty, R)]
        ss = let(f"{sum_of_products(b, b)} + {bind(rho)}")
        lines.append(f"if not ({cube} > 0.0 and {ss} < inf): raise ArithmeticError")
        loglik = let(f"-0.5 * ({ss} / ({sigma} * {sigma})) - {rows_n} * log({sigma}) - {log_norm}")
        value = let(f"{total} + {loglik}")
        lines.append(f"if not with_grad: return -inf if {loglik} == -inf else {value}")
        lines.append(f"if {loglik} == -inf: return -inf, {zeros}")
        d, g = prior_gradient(terms)
        w = let(f"1.0 / ({sigma} * {sigma})")
        dsigma = let(f"{ss} / {cube} - {rows_n} / {sigma}")
        btr = [let(sum_of_products(map(bind, col), b)) for col in zip(*R)]
        for i, _, asts in partials:
            s = "0.0" if asts is None else f"{w} * ({sum_of_products(btr, emit(asts))})"
            g[i] = let(f"{g[i]} + ({s}{f' + {dsigma}' if i == noise_index else ''}) * {d[i]}")
        lines.append(f"if {finite(g)}: return {value}, {', '.join(g)}")
        nest(1)
        lines += ["except Unvouched:", "    pass"]

    # the rows, under numpy's errstate: an overflow, or a NaN it leads to, gives -inf, a rejection or an
    # error, so numpy need not warn of it; the methods on the numpy scalars of z's array, and the mean and
    # its partials as n-vectors, or scalars that numpy broadcasts over the rows
    u, rows = [f"u{i}" for i in range(dim)], len(lines) + 1
    lines += ['with np.errstate(over="ignore", invalid="ignore"):', f"z = array([{', '.join(z)}])", f"{', '.join(u)}, = z"]
    x, total, terms = prior(u, inline=False)
    params, memo = dict(zip(names, x)), {}

    def vector(ast):  # a tree with no parameter is computed here, contiguous; one with no column stays a scalar
        name = formula.emit(ast, params, columns, let, bind, memo)
        value, local = memo[id(ast)][1]
        if local is None:  # the value emit bound as ``name``, bound in its place
            env[name] = np.ascontiguousarray(np.broadcast_to(np.asarray(value, dtype=float), (n_rows,)))
            return name
        return local

    sigma = x[noise_index]
    # outside a prior's support, or sigma underflows or overflows
    minus_inf = f"return (-inf, {zeros}) if with_grad else -inf"
    lines += [f"if isnan({total}): raise NonFiniteDensity('prior log density is NaN')",
              f"if not ({total} > -inf and {sigma} > 0.0 and isfinite({sigma})): {minus_inf}",
              "try:"]
    start, mu = len(lines), vector(mean)
    block = len(lines) + 1
    lines += ["if with_grad:", "try:"]  # a partial that raises (as near a division singularity) is a non-finite one
    dmus = [None if ast is None else vector(ast) for _, ast, _ in partials]
    lines.append("raised = False")
    nest(block + 1)
    lines += ["except NonFiniteResult:", "    raised = True"]
    nest(block)
    # let go of the vectors the mean and partials were made of (each a memoised node's local): held
    # to the return and freed there at once, at 10^4 rows they made the allocator give memory back,
    # and fault it in, every call
    spent = [local for _, (_, local) in memo.values() if local not in (None, mu, *dmus, *params.values())]
    lines += [" = ".join([*spent, "None"])] if spent else []
    lines.append(f"p = {bind(y)} - {mu}")  # the residuals, then the buffer of each product the sums below take
    t = let(f"p / {sigma}")
    tt = let(f"float(row_sum(multiply({t}, {t}, p)))")
    lines.append(f"if not isfinite({tt}): check_finite({mu})")  # a non-finite mean makes t . t non-finite
    nest(start)
    lines += ["except NonFiniteResult as exc:",
              "    row = None if exc.value is None else int(np.argmin(np.isfinite("
              f"np.broadcast_to(np.asarray(exc.value, dtype=float), {bind((n_rows,))}))))",
              "    raise NonFiniteDensity(f'likelihood mean is non-finite: {exc}', row=row) from None"]
    loglik = let(f"-0.5 * {tt} - {rows_n} * log({sigma}) - {log_norm}")
    lines += [f"if isnan({loglik}): raise NonFiniteDensity('likelihood log density is NaN')",
              f"if {loglik} == -inf: {minus_inf}"]
    total = let(f"{total} + {loglik}")
    lines.append(f"if not with_grad: return float({total})")
    d, g = prior_gradient(terms)  # dlog p / dx one-sided at a support's edges
    # d loglik / d x_i = (t . d mu / d x_i) / sigma, plus (t . t - n) / sigma for the noise scale:
    # through t, which t . t has shown finite, never the residuals' own squares
    w = let(f"1.0 / {sigma}")
    dsigma = let(f"({tt} - {rows_n}) * {w}")
    lines.append("if not raised:")
    block = len(lines)
    for (i, *_), dmu in zip(partials, dmus):
        s = "0.0" if dmu is None else f"{w} * float(row_sum(multiply({t}, {dmu}, p)))"
        g[i] = let(f"{g[i]} + ({s}{f' + {dsigma}' if i == noise_index else ''}) * {d[i]}")
    lines.append(f"if {finite(g)}: return float({total}), {', '.join(f'float({gi})' for gi in g)}")
    nest(block)
    # a non-finite gradient at an astronomically improbable point is a rejection, not a bug
    lines += [f"if {total} < {bind(_GRADIENT_OVERFLOW_FLOOR)}: return float({total}), {zeros}",
              "raise NonFiniteGradient('gradient contains non-finite components', z=z)"]
    nest(rows)
    exec(f"def density({', '.join(z)}, with_grad=False):\n" + "\n".join(f"    {line}" for line in lines), env)
    return env["density"]


def build_posterior(model: ValidatedModel, data: Dataset, *, response_column: str = "y") -> PosteriorFn:
    """Compile a model + dataset into a PosteriorFn."""
    spec = model.spec
    names = list(spec.priors)
    dists = list(spec.priors.values())
    transforms = [dist.transform() for dist in dists]
    noise_name = spec.likelihood.noise_param
    noise_index = names.index(noise_name)

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

    # mu = c_0 + sum_k c_k X_k when each slope c_k (its partial in a column) has no column
    # in it; c_0 is mu at every column 0, and d c_0 / d x_i is d mu / d x_i there
    squares = {}  # one squared denominator per quotient, across the partials
    slopes = [formula.differentiate(mean_ast, v, squares) for v in column_vars]
    affine = not any(formula.free_vars(slope) & fixed_env.keys() for slope in slopes)

    qr = affine and n_rows > len(slopes) + 1 and _thin_qr([np.ones(n_rows)] + list(fixed_env.values()), y)
    # (i, the AST of d mu / d x_i, with the factorisation those of d c / d x_i) for each parameter whose
    # partial is not the literal 0, which would add exactly +0.0; the noise scale always, with None for 0.
    partials = []
    for i, name in enumerate(names):
        partial = formula.differentiate(mean_ast, name, squares)
        if partial != formula.NumberLiteral(0.0):
            partials.append((i, partial, qr and [partial, *(formula.differentiate(s, name, squares) for s in slopes)]))
        elif i == noise_index:
            partials.append((i, None, None))
    density = _density(names, dists, transforms, noise_index, y, fixed_env, mean_ast, slopes, partials, qr)

    def value_and_grad(z):
        logp, *grad = density(*z.tolist(), True)
        return logp, np.array(grad)

    return PosteriorFn(names, value_and_grad, lambda z: density(*z.tolist()), transforms=transforms, fork_safe=True,
                       float_density=density)

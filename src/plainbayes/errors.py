"""Exception and warning types shared across the package.

Every error raised by plainbayes derives from :class:`PlainbayesError`, so
callers (notably the CLI) can catch one base class and still report the
specific failure by class name.
"""

from __future__ import annotations


class PlainbayesError(Exception):
    """Base class for all plainbayes errors."""


# ---------------------------------------------------------------------------
# Formula language


class FormulaError(PlainbayesError):
    """Base class for formula lexing/parsing/evaluation errors."""


class FormulaSyntax(FormulaError):
    """The formula source does not conform to the expression grammar."""


class IllegalCharacter(FormulaSyntax):
    def __init__(self, position: int, detail: str):
        super().__init__(f"illegal character at position {position}: {detail}")
        self.position = position


class UnexpectedToken(FormulaSyntax):
    def __init__(self, position: int, detail: str):
        super().__init__(f"unexpected token at position {position}: {detail}")
        self.position = position


class LiteralOverflow(FormulaSyntax):
    def __init__(self, position: int, text: str):
        super().__init__(f"number at position {position} overflows a float: {text}")
        self.position = position


class FormulaTooDeep(FormulaSyntax):
    def __init__(self, position: int, limit: int):
        super().__init__(f"formula nests deeper than {limit} levels at position {position}")
        self.position = position


class UnexpectedEnd(FormulaSyntax):
    def __init__(self, detail: str = "expression ended unexpectedly"):
        super().__init__(detail)


class UnboundVariable(FormulaError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not bound in the environment")
        self.name = name


class NonFiniteResult(FormulaError):
    """Evaluation produced a non-finite value (e.g. division by zero)."""

    def __init__(self, detail: str, value=None):
        super().__init__(detail)
        self.value = value


# ---------------------------------------------------------------------------
# Model spec schema


class SchemaError(PlainbayesError):
    """Base class for model-spec parsing and validation errors."""


class NoJsonObject(SchemaError):
    """No balanced top-level JSON object could be located in the text."""


class MalformedJson(SchemaError):
    pass


class MissingKey(SchemaError):
    def __init__(self, key: str):
        super().__init__(f"required key {key!r} is missing")
        self.key = key


class UnknownDistribution(SchemaError):
    def __init__(self, name: str, context: str = ""):
        detail = f"unknown distribution {name!r}"
        if context:
            detail += f" ({context})"
        super().__init__(detail)
        self.name = name


class MissingParam(SchemaError):
    def __init__(self, distribution: str, detail: str):
        super().__init__(f"{distribution}: {detail}")
        self.distribution = distribution


class InvalidParamValue(SchemaError):
    pass


class InvalidSpec(SchemaError):
    """A spec object was constructed with structurally invalid contents."""


class UnresolvedVariable(SchemaError):
    def __init__(self, name: str, detail: str = ""):
        msg = f"variable {name!r} is neither a prior parameter nor a data column"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
        self.name = name


class NoiseNotPositiveSupport(SchemaError):
    def __init__(self, name: str, distribution: str, eligible: tuple[str, ...]):
        super().__init__(
            f"noise parameter {name!r} has prior {distribution}, which does not have "
            f"strictly positive support (use {' or '.join(eligible)})"
        )
        self.name = name


class ShadowedColumn(SchemaError):
    def __init__(self, name: str):
        super().__init__(f"prior name {name!r} collides with a data column of the same name")
        self.name = name


# ---------------------------------------------------------------------------
# Distributions / posterior


class DimensionMismatch(PlainbayesError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected a parameter vector of length {expected}, got {got}")


class MissingResponseColumn(PlainbayesError):
    def __init__(self, name: str):
        super().__init__(f"dataset has no response column {name!r}")
        self.name = name


class NonFiniteDensity(PlainbayesError):
    """The likelihood mean evaluated to a non-finite value (hard error)."""

    def __init__(self, detail: str, row: int | None = None):
        if row is not None:
            detail = f"{detail} (first offending row: {row})"
        super().__init__(detail)
        self.row = row


# ---------------------------------------------------------------------------
# Sampler


class SamplerError(PlainbayesError):
    pass


class NonFiniteGradient(SamplerError):
    def __init__(self, detail: str, z=None):
        if z is not None:
            detail = f"{detail} at z={list(map(float, z))!r}"
        super().__init__(detail)
        self.z = z


class AllDivergent(SamplerError):
    def __init__(self, fraction: float):
        super().__init__(
            f"{fraction:.0%} of post-warmup transitions were divergent (>50%); "
            f"the posterior geometry is not sampleable with the current settings"
        )
        self.fraction = fraction


class BadInitialPoint(SamplerError):
    """No initialization jitter produced a finite log density."""


# ---------------------------------------------------------------------------
# Diagnostics


class InsufficientSamples(PlainbayesError):
    pass


# ---------------------------------------------------------------------------
# Elicitation


class ElicitationError(PlainbayesError):
    pass


class EmptyInput(ElicitationError):
    pass


class MissingApiKey(ElicitationError):
    def __init__(self, env_name: str):
        super().__init__(f"environment variable {env_name!r} is not set")
        self.env_name = env_name


class HttpError(ElicitationError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"HTTP {status}: {body_excerpt}")
        self.status = status


class LlmTimeout(ElicitationError):
    pass


class LlmProtocolError(ElicitationError):
    """The endpoint answered, but not in the expected chat-completion shape."""


class FixtureMiss(ElicitationError):
    def __init__(self, key: str):
        super().__init__(f"no recorded fixture for prompt hash {key}")
        self.key = key


class ElicitationFailed(ElicitationError):
    def __init__(self, last_error: Exception, last_response: str | None = None):
        super().__init__(f"all attempts exhausted; last error: {last_error}")
        self.last_error = last_error
        self.last_response = last_response


# ---------------------------------------------------------------------------
# Data IO / reporting


class DataError(PlainbayesError):
    pass


class MalformedCsv(DataError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class RaggedRow(MalformedCsv):
    def __init__(self, line: int, expected: int, got: int):
        DataError.__init__(self, f"line {line}: expected {expected} cells, got {got}")
        self.line = line


class NonNumericCell(MalformedCsv):
    def __init__(self, line: int, column: str, text: str):
        DataError.__init__(self, f"line {line}, column {column!r}: not a number: {text!r}")
        self.line = line
        self.column = column


class MalformedTrace(PlainbayesError):
    pass


class NonFiniteDraws(PlainbayesError):
    """A parameter's draws hold NaN or an infinity, which no histogram bin holds."""

    def __init__(self, param: str):
        super().__init__(f"parameter {param!r} has non-finite draws; cannot bin them")
        self.param = param


class PlotMismatch(PlainbayesError):
    def __init__(self, params_a, params_b):
        super().__init__(
            f"traces have different parameter sets: {sorted(params_a)} vs {sorted(params_b)}"
        )


# ---------------------------------------------------------------------------
# Warnings


class PlainbayesWarning(UserWarning):
    pass


class ExtraKeyWarning(PlainbayesWarning):
    """Unknown JSON keys were ignored while parsing a spec."""


class ZeroVarianceWarning(PlainbayesWarning):
    """All samples identical; the diagnostic is undefined and reported as NaN."""


class SummaryCellWarning(PlainbayesWarning):
    """A summary cell could not be computed and was reported as NaN."""

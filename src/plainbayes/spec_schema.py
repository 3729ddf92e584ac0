"""JSON contracts for model blueprints: parsing, normalization, validation.

Two wire shapes are supported:

* prior JSON: ``{"distribution": "<Name>", "params": {"<name>": <number>}}``
* model JSON: ``{"priors": {"<param>": <prior-json>, ...},
  "likelihood": {"distribution": "Normal", "formula": "<expr>"}}``

Prior families, their canonical parameters and the parameter-name aliases
produced by different LLM runs come from :data:`distributions.FAMILIES`;
aliases are normalized to canonical names on parse, and parameter values are
checked by constructing the family.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import formula
from .distributions import FAMILIES
from .errors import (
    ExtraKeyWarning,
    InvalidParamValue,
    InvalidSpec,
    MalformedJson,
    MissingKey,
    MissingParam,
    NoiseNotPositiveSupport,
    NoJsonObject,
    ShadowedColumn,
    UnknownDistribution,
    UnresolvedVariable,
)

__all__ = [
    "DistributionSpec",
    "LikelihoodSpec",
    "ModelSpec",
    "ValidatedModel",
    "sanitize_llm_text",
    "parse_prior_json",
    "parse_model_json",
    "validate_model",
    "prior_to_obj",
    "model_to_obj",
    "model_to_json",
]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Families supported on (0, inf) may carry the likelihood noise scale.
_NOISE_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.SUPPORT == (0.0, math.inf))

_POSITIONAL_RE = re.compile(r"^param\d+$")


def _is_identifier(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENTIFIER_RE.match(name))


def _check_real(distribution: str, name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParamValue(f"{distribution}: parameter {name!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise InvalidParamValue(f"{distribution}: parameter {name!r} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution with canonical, validated parameters."""

    name: str
    params: dict[str, float]

    def __post_init__(self):
        family = FAMILIES.get(self.name)
        if family is None:
            raise UnknownDistribution(str(self.name))
        required = family.param_names()
        cleaned: dict[str, float] = {}
        for pname in required:
            if pname not in self.params:
                raise MissingParam(self.name, f"required parameter {pname!r} is missing")
            cleaned[pname] = _check_real(self.name, pname, self.params[pname])
        extra = set(self.params) - set(required)
        if extra:
            raise InvalidParamValue(f"{self.name}: unexpected parameters {sorted(extra)}")
        family(**cleaned)  # the family's own value checks
        object.__setattr__(self, "params", cleaned)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class LikelihoodSpec:
    """Observation model: distribution family, mean formula, noise parameter."""

    formula_source: str
    distribution: str = "Normal"
    noise_param: str = "sigma"

    def __post_init__(self):
        if self.distribution != "Normal":
            raise UnknownDistribution(str(self.distribution), context="likelihood supports only Normal")
        if not _is_identifier(self.noise_param):
            raise InvalidSpec(f"noise parameter name {self.noise_param!r} is not a valid identifier")
        # The formula must parse; the AST itself is rebuilt by validate_model.
        formula.parse_formula(self.formula_source)


@dataclass(frozen=True)
class ModelSpec:
    """Named priors plus a likelihood: the full model blueprint."""

    priors: dict[str, DistributionSpec]
    likelihood: LikelihoodSpec

    def __post_init__(self):
        if not self.priors:
            raise InvalidSpec("a model needs at least one prior")
        for name in self.priors:
            if not _is_identifier(name):
                raise InvalidSpec(f"prior name {name!r} is not a valid identifier")
        object.__setattr__(self, "priors", dict(self.priors))


@dataclass(frozen=True)
class ValidatedModel:
    """A ModelSpec whose formula variables were resolved against data columns."""

    spec: ModelSpec
    formula_ast: formula.FormulaAst
    variable_roles: dict[str, str] = field(default_factory=dict)  # name -> "prior" | "column"


# ---------------------------------------------------------------------------
# Sanitizing raw LLM text


def sanitize_llm_text(raw: str) -> str:
    """Extract the first balanced top-level JSON object from raw LLM output.

    Markdown fences and surrounding prose are discarded as a side effect of
    the balanced-brace scan; string literals (including escapes) are honored
    so that braces inside JSON strings do not confuse the scan.
    """
    if not raw:
        raise NoJsonObject("empty response text")
    start = raw.find("{")
    while start != -1:
        end = _scan_balanced(raw, start)
        if end != -1:
            return raw[start : end + 1]
        start = raw.find("{", start + 1)
    raise NoJsonObject("no balanced top-level JSON object found in response")


def _scan_balanced(text: str, start: int) -> int:
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        c = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
            continue
        if c == '"':
            in_string = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


# ---------------------------------------------------------------------------
# JSON parsing


def _loads_object(text: str) -> dict:
    def reject_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise MalformedJson(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=reject_duplicates)
    except MalformedJson:
        raise
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedJson(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _warn_extra_keys(obj: Mapping, known: Iterable[str], context: str) -> None:
    extra = [k for k in obj if k not in set(known)]
    if extra:
        warnings.warn(f"ignoring unknown {context} keys: {sorted(extra)}", ExtraKeyWarning, stacklevel=3)


def _parse_prior_obj(obj: Mapping, context: str = "prior") -> DistributionSpec:
    if "distribution" not in obj:
        raise MalformedJson(f"{context}: missing 'distribution'")
    raw_name = obj["distribution"]
    name = next((n for n in FAMILIES if isinstance(raw_name, str) and n.lower() == raw_name.lower()), None)
    if name is None:
        raise UnknownDistribution(str(raw_name))
    family = FAMILIES[name]

    params_raw = obj.get("params")
    if params_raw is None:
        raise MissingParam(name, "missing 'params' object")
    if not isinstance(params_raw, Mapping):
        raise MalformedJson(f"{context}: 'params' must be an object")

    canonical = family.param_names()
    params: dict[str, float] = {}
    unknown: list[str] = []
    for key, value in params_raw.items():
        key_str = str(key)
        lower = key_str.lower()
        canon = lower if lower in canonical else family.ALIASES.get(lower)
        if canon is None:
            if _POSITIONAL_RE.match(lower):
                raise MissingParam(
                    name,
                    f"positional parameter name {key_str!r} is not accepted; "
                    f"use named parameters {list(canonical)}",
                )
            unknown.append(key_str)
            continue
        if canon in params:
            raise InvalidParamValue(
                f"{name}: parameter {canon!r} given more than once (aliased as {key_str!r})"
            )
        params[canon] = _check_real(name, canon, value)
    if unknown:
        warnings.warn(f"{name}: ignoring unknown parameters {sorted(unknown)}", ExtraKeyWarning, stacklevel=3)
    return DistributionSpec(name, params)


def parse_prior_json(text: str) -> tuple[str | None, DistributionSpec]:
    """Parse a single prior JSON object.

    Returns ``(identifier, spec)`` where the identifier comes from an
    optional ``"parameter"``/``"name"`` key (``None`` when absent, as in
    plain elicitation responses).
    """
    obj = _loads_object(text)
    name = None
    for key in ("parameter", "name"):
        if _is_identifier(obj.get(key)):
            name = obj[key]
            break
    _warn_extra_keys(obj, ("distribution", "params", "parameter", "name"), "prior")
    return name, _parse_prior_obj(obj)


def parse_model_json(text: str) -> ModelSpec:
    """Parse a full model JSON object into a :class:`ModelSpec`."""
    obj = _loads_object(text)
    if "priors" not in obj:
        raise MissingKey("priors")
    if "likelihood" not in obj:
        raise MissingKey("likelihood")
    _warn_extra_keys(obj, ("priors", "likelihood"), "model")

    priors_obj = obj["priors"]
    if not isinstance(priors_obj, Mapping):
        raise MalformedJson("'priors' must be an object")
    priors: dict[str, DistributionSpec] = {}
    for pname, pobj in priors_obj.items():
        if not _is_identifier(pname):
            raise MalformedJson(f"prior name {pname!r} is not a valid identifier")
        if not isinstance(pobj, Mapping):
            raise MalformedJson(f"prior {pname!r} must be an object")
        _warn_extra_keys(pobj, ("distribution", "params"), f"prior {pname!r}")
        priors[pname] = _parse_prior_obj(pobj, context=f"prior {pname!r}")
    if not priors:
        raise InvalidSpec("a model needs at least one prior")

    lik_obj = obj["likelihood"]
    if not isinstance(lik_obj, Mapping):
        raise MalformedJson("'likelihood' must be an object")
    if "distribution" not in lik_obj:
        raise MissingKey("likelihood.distribution")
    if "formula" not in lik_obj:
        raise MissingKey("likelihood.formula")
    _warn_extra_keys(lik_obj, ("distribution", "formula", "noise_param"), "likelihood")
    dist_name = lik_obj["distribution"]
    if not isinstance(dist_name, str) or dist_name.lower() != "normal":
        raise UnknownDistribution(str(dist_name), context="likelihood supports only Normal")
    formula_source = lik_obj["formula"]
    if not isinstance(formula_source, str):
        raise MalformedJson("'formula' must be a string")
    noise = lik_obj.get("noise_param", "sigma")
    if not _is_identifier(noise):
        raise MalformedJson(f"'noise_param' must be an identifier, got {noise!r}")

    likelihood = LikelihoodSpec(formula_source=formula_source, distribution="Normal", noise_param=noise)
    return ModelSpec(priors=priors, likelihood=likelihood)


# ---------------------------------------------------------------------------
# Validation against a dataset


def validate_model(spec: ModelSpec, data_columns: Iterable[str]) -> ValidatedModel:
    """Resolve formula variables and check the noise prior's support.

    Every free variable of the formula must name either a prior or a data
    column, prior names must not shadow columns, and the noise parameter
    must name a prior with strictly positive support.
    """
    columns = set(data_columns)
    for name in spec.priors:
        if name in columns:
            raise ShadowedColumn(name)

    ast = formula.parse_formula(spec.likelihood.formula_source)
    roles: dict[str, str] = {}
    for var in sorted(formula.free_vars(ast)):
        if var in spec.priors:
            roles[var] = "prior"
        elif var in columns:
            roles[var] = "column"
        else:
            raise UnresolvedVariable(var, f"formula {spec.likelihood.formula_source!r}")

    noise = spec.likelihood.noise_param
    if noise not in spec.priors:
        raise UnresolvedVariable(noise, "the likelihood noise parameter must name a prior")
    noise_dist = spec.priors[noise].name
    if noise_dist not in _NOISE_FAMILIES:
        raise NoiseNotPositiveSupport(noise, noise_dist, _NOISE_FAMILIES)

    return ValidatedModel(spec=spec, formula_ast=ast, variable_roles=roles)


# ---------------------------------------------------------------------------
# Serialization


def prior_to_obj(spec: DistributionSpec) -> dict:
    return {"distribution": spec.name, "params": dict(spec.params)}


def model_to_obj(spec: ModelSpec) -> dict:
    likelihood: dict = {
        "distribution": spec.likelihood.distribution,
        "formula": spec.likelihood.formula_source,
    }
    if spec.likelihood.noise_param != "sigma":
        likelihood["noise_param"] = spec.likelihood.noise_param
    return {
        "priors": {name: prior_to_obj(d) for name, d in spec.priors.items()},
        "likelihood": likelihood,
    }


def model_to_json(spec: ModelSpec, indent: int | None = 2) -> str:
    return json.dumps(model_to_obj(spec), indent=indent)

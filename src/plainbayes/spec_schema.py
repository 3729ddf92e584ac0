"""JSON contracts for model blueprints: parsing, normalization, validation.

Two wire shapes are supported:

* prior JSON: ``{"distribution": "<Name>", "params": {"<name>": <number>}}``
* model JSON: ``{"priors": {"<param>": <prior-json>, ...},
  "likelihood": {"distribution": "Normal", "formula": "<expr>"}}``

Prior families, their canonical parameters and the parameter-name aliases
produced by different LLM runs come from :data:`distributions.FAMILIES`;
aliases are normalized to canonical names on parse, and a parsed prior is
an instance of its family, whose construction checks the parameter values.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

from . import formula
from .distributions import FAMILIES, PriorDistribution
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


@dataclass(frozen=True)
class LikelihoodSpec:
    """Observation model: a Normal with this mean formula and noise parameter.
    ``ast`` is the formula parsed once, here."""

    formula_source: str
    noise_param: str = "sigma"
    ast: formula.FormulaAst = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_identifier(self.noise_param):
            raise InvalidSpec(f"noise parameter name {self.noise_param!r} is not a valid identifier")
        object.__setattr__(self, "ast", formula.parse_formula(self.formula_source))


@dataclass(frozen=True)
class ModelSpec:
    """Named priors (family instances) plus a likelihood: the full model blueprint."""

    priors: dict[str, PriorDistribution]
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
    """A ModelSpec whose formula variables were resolved: ``columns`` are the
    formula's data columns, sorted; every other variable is a prior."""

    spec: ModelSpec
    columns: tuple[str, ...]


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


def _parse_prior_obj(obj: Mapping, context: str = "prior") -> PriorDistribution:
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
    params: dict[str, object] = {}
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
        params[canon] = value
    if unknown:
        warnings.warn(f"{name}: ignoring unknown parameters {sorted(unknown)}", ExtraKeyWarning, stacklevel=3)
    for pname in canonical:
        if pname not in params:
            raise MissingParam(name, f"required parameter {pname!r} is missing")
    return family(**params)  # the family checks the values


def parse_prior_json(text: str) -> tuple[str | None, PriorDistribution]:
    """Parse a single prior JSON object.

    Returns ``(identifier, prior)`` where the identifier comes from an
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
    priors: dict[str, PriorDistribution] = {}
    for pname, pobj in priors_obj.items():
        if not _is_identifier(pname):
            raise MalformedJson(f"prior name {pname!r} is not a valid identifier")
        if not isinstance(pobj, Mapping):
            raise MalformedJson(f"prior {pname!r} must be an object")
        _warn_extra_keys(pobj, ("distribution", "params"), f"prior {pname!r}")
        priors[pname] = _parse_prior_obj(pobj, context=f"prior {pname!r}")

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

    likelihood = LikelihoodSpec(formula_source=formula_source, noise_param=noise)
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

    formula_columns = []
    for var in sorted(formula.free_vars(spec.likelihood.ast)):
        if var in columns:
            formula_columns.append(var)
        elif var not in spec.priors:
            raise UnresolvedVariable(var, f"formula {spec.likelihood.formula_source!r}")

    noise = spec.likelihood.noise_param
    if noise not in spec.priors:
        raise UnresolvedVariable(noise, "the likelihood noise parameter must name a prior")
    noise_dist = type(spec.priors[noise]).__name__
    if noise_dist not in _NOISE_FAMILIES:
        raise NoiseNotPositiveSupport(noise, noise_dist, _NOISE_FAMILIES)

    return ValidatedModel(spec=spec, columns=tuple(formula_columns))


# ---------------------------------------------------------------------------
# Serialization


def prior_to_obj(prior: PriorDistribution) -> dict:
    return {"distribution": type(prior).__name__, "params": asdict(prior)}


def model_to_obj(spec: ModelSpec) -> dict:
    likelihood: dict = {
        "distribution": "Normal",
        "formula": spec.likelihood.formula_source,
    }
    if spec.likelihood.noise_param != "sigma":
        likelihood["noise_param"] = spec.likelihood.noise_param
    return {
        "priors": {name: prior_to_obj(d) for name, d in spec.priors.items()},
        "likelihood": likelihood,
    }


def model_to_json(spec: ModelSpec) -> str:
    return json.dumps(model_to_obj(spec), indent=2)

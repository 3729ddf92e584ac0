"""Prompt rendering, chat-endpoint calls, and record/replay fixtures.

Two prompt templates ship as package resources: one that asks for a single
prior distribution given a user's belief about one parameter, and one that
asks for a complete model (priors + likelihood) given a holistic problem
description.  Rendering is pure string substitution, so identical inputs
always produce byte-identical prompts.

Responses are obtained through one of three modes:

* ``live``    — POST a single-turn chat request to a generic JSON endpoint.
* ``replay``  — look the rendered prompt up in a fixture directory keyed by
  the SHA-256 of the prompt bytes (no network involved).
* ``record``  — live call, then persist the fixture for future replay.

Invalid responses are retried (up to ``max_retries``) with a one-line
machine-generated correction note appended to the prompt.  API keys are read
from the environment at call time and never stored, logged, or echoed into
error messages or fixtures.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
from pathlib import Path

import requests

from .errors import (
    ElicitationError,
    ElicitationFailed,
    EmptyInput,
    FixtureMiss,
    FormulaSyntax,
    HttpError,
    LlmProtocolError,
    LlmTimeout,
    MissingApiKey,
    SchemaError,
)
from .spec_schema import (
    DistributionSpec,
    ModelSpec,
    parse_model_json,
    parse_prior_json,
    sanitize_llm_text,
)

__all__ = [
    "LlmConfig",
    "FixtureStore",
    "render_prior_prompt",
    "render_model_prompt",
    "call_llm",
    "elicit_prior",
    "elicit_model",
    "packaged_fixtures_dir",
]

_RETRY_NOTE = "Previous response was invalid: {error}. Respond with only the JSON object."
DEFAULT_API_KEY_ENV = "LLM_API_KEY"
DEFAULT_RESPONSE_POINTER = "/choices/0/message/content"


def _resource_root():
    return resources.files(__package__) / "resources"


def packaged_fixtures_dir() -> Path:
    """Directory of fixtures shipped with the package (experiment replays)."""
    return Path(str(_resource_root() / "fixtures"))


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return (_resource_root() / name).read_text(encoding="utf-8")


@dataclass(frozen=True)
class LlmConfig:
    mode: str = "replay"  # "live" | "replay" | "record"
    endpoint_url: str = ""
    model_name: str = ""
    api_key_env: str = DEFAULT_API_KEY_ENV
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 2
    fixtures_dir: str | Path | None = None
    response_text_pointer: str = DEFAULT_RESPONSE_POINTER

    def __post_init__(self):
        if self.mode not in ("live", "replay", "record"):
            raise ElicitationError(f"unknown mode {self.mode!r} (expected live, replay, or record)")
        if self.mode in ("live", "record") and not self.endpoint_url:
            raise ElicitationError(f"endpoint_url is required in {self.mode} mode")
        if self.mode in ("replay", "record") and self.fixtures_dir is None:
            raise ElicitationError(f"fixtures_dir is required in {self.mode} mode")
        if self.temperature < 0:
            raise ElicitationError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_retries < 0:
            raise ElicitationError(f"max_retries must be >= 0, got {self.max_retries}")


class FixtureStore:
    """One JSON file per recorded response, named by the prompt's SHA-256."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    @staticmethod
    def key_for(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    def path_for(self, prompt: str) -> Path:
        return self.directory / f"{self.key_for(prompt)}.json"

    def get(self, prompt: str) -> str:
        path = self.path_for(prompt)
        if not path.exists():
            raise FixtureMiss(self.key_for(prompt))
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload["response_text"]

    def put(self, prompt: str, response_text: str, model_name: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(prompt)
        payload = {
            "prompt_hash": self.key_for(prompt),
            "response_text": response_text,
            "metadata": {
                "model_name": model_name,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            },
        }
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# Prompt rendering


def render_prior_prompt(parameter_name: str, belief_text: str) -> str:
    """Fill the single-prior template with a parameter name and belief text."""
    if not parameter_name or not parameter_name.strip():
        raise EmptyInput("parameter_name must be nonempty")
    if not belief_text or not belief_text.strip():
        raise EmptyInput("belief_text must be nonempty")
    template = _template("prior_prompt.txt")
    return template.replace("{parameter_name}", parameter_name).replace("{belief_text}", belief_text)


def render_model_prompt(description: str) -> str:
    """Fill the whole-model template with the user's problem description."""
    if not description or not description.strip():
        raise EmptyInput("description must be nonempty")
    return _template("model_prompt.txt").replace("{description}", description)


# ---------------------------------------------------------------------------
# Transport


def _resolve_pointer(document, pointer: str):
    """Minimal RFC 6901 JSON-pointer resolution."""
    node = document
    if pointer in ("", "/"):
        return node
    for raw in pointer.lstrip("/").split("/"):
        token = raw.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list):
            try:
                node = node[int(token)]
            except (ValueError, IndexError):
                raise LlmProtocolError(f"response has no element {token!r} along pointer {pointer!r}") from None
        elif isinstance(node, dict):
            if token not in node:
                raise LlmProtocolError(f"response has no key {token!r} along pointer {pointer!r}")
            node = node[token]
        else:
            raise LlmProtocolError(f"cannot descend into {type(node).__name__} along pointer {pointer!r}")
    if not isinstance(node, str):
        raise LlmProtocolError(f"pointer {pointer!r} did not resolve to text")
    return node


def _live_call(prompt: str, cfg: LlmConfig) -> str:
    api_key = os.environ.get(cfg.api_key_env)
    if not api_key:
        raise MissingApiKey(cfg.api_key_env)
    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    try:
        response = requests.post(cfg.endpoint_url, json=payload, headers=headers, timeout=cfg.timeout)
    except requests.Timeout:
        raise LlmTimeout(f"no response within {cfg.timeout}s") from None
    except requests.RequestException as exc:
        # never interpolate headers/key material into the message
        raise HttpError(0, f"transport failure: {type(exc).__name__}") from None
    if not 200 <= response.status_code < 300:
        raise HttpError(response.status_code, response.text[:300])
    try:
        document = response.json()
    except ValueError:
        raise LlmProtocolError(f"endpoint did not return JSON: {response.text[:120]!r}") from None
    return _resolve_pointer(document, cfg.response_text_pointer)


def call_llm(prompt: str, cfg: LlmConfig) -> str:
    """Resolve a prompt to response text according to the configured mode."""
    if cfg.mode == "replay":
        return FixtureStore(cfg.fixtures_dir).get(prompt)
    text = _live_call(prompt, cfg)
    if cfg.mode == "record":
        FixtureStore(cfg.fixtures_dir).put(prompt, text, cfg.model_name)
    return text


# ---------------------------------------------------------------------------
# Elicitation with retry


def _elicit(base_prompt: str, cfg: LlmConfig, parse):
    prompt = base_prompt
    last_error: Exception | None = None
    last_response: str | None = None
    for attempt in range(cfg.max_retries + 1):
        try:
            response = call_llm(prompt, cfg)
        except FixtureMiss:
            if attempt == 0:
                raise  # genuinely unseen prompt
            # no fixture recorded for a retry prompt: the retries are exhausted
            raise ElicitationFailed(last_error, last_response) from None
        last_response = response
        try:
            return parse(sanitize_llm_text(response))
        except (SchemaError, FormulaSyntax) as exc:
            last_error = exc
            prompt = prompt + "\n" + _RETRY_NOTE.format(error=exc)
    raise ElicitationFailed(last_error, last_response)


def elicit_prior(parameter_name: str, belief_text: str, cfg: LlmConfig) -> DistributionSpec:
    """Render, call, sanitize, and parse a single-prior elicitation."""
    prompt = render_prior_prompt(parameter_name, belief_text)
    return _elicit(prompt, cfg, lambda text: parse_prior_json(text)[1])


def elicit_model(description: str, cfg: LlmConfig) -> ModelSpec:
    """Render, call, sanitize, and parse a whole-model elicitation."""
    prompt = render_model_prompt(description)
    return _elicit(prompt, cfg, parse_model_json)

import hashlib
import io
import json
import math
import urllib.error
import urllib.request

import pytest

from plainbayes.distributions import Exponential, HalfNormal, Normal, Uniform
from plainbayes.elicitation import (
    FixtureStore,
    LlmConfig,
    call_llm,
    elicit_model,
    elicit_prior,
    packaged_fixtures_dir,
    render_model_prompt,
    render_prior_prompt,
)
from plainbayes.errors import (
    ElicitationError,
    ElicitationFailed,
    EmptyInput,
    FixtureMiss,
    HttpError,
    LlmProtocolError,
    LlmTimeout,
    MissingApiKey,
)


def replay_cfg(directory) -> LlmConfig:
    return LlmConfig(mode="replay", fixtures_dir=directory)


@pytest.fixture()
def shipped() -> LlmConfig:
    return replay_cfg(packaged_fixtures_dir())


@pytest.fixture()
def beliefs() -> dict:
    from importlib import resources

    path = resources.files("plainbayes") / "resources" / "examples" / "linear_regression_beliefs.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture()
def description() -> str:
    from importlib import resources

    path = resources.files("plainbayes") / "resources" / "examples" / "linear_regression_description.txt"
    return path.read_text(encoding="utf-8")


class TestRendering:
    def test_prior_prompt_contains_belief_marker(self, beliefs):
        prompt = render_prior_prompt("beta", beliefs["beta"])
        assert "USER BELIEF for 'beta'" in prompt
        assert beliefs["beta"] in prompt

    def test_prior_prompt_contains_vocabulary(self):
        prompt = render_prior_prompt("alpha", "x")
        assert 'Available distributions: "Normal", "HalfNormal", "Uniform", "Exponential".' in prompt

    def test_prior_prompt_empty_inputs(self):
        with pytest.raises(EmptyInput):
            render_prior_prompt("", "x")
        with pytest.raises(EmptyInput):
            render_prior_prompt("alpha", "   ")

    def test_model_prompt_contains_contract(self, description):
        prompt = render_model_prompt(description)
        assert '"formula": A string representing the mean' in prompt
        assert f"---\n{description}\n---" in prompt

    def test_model_prompt_empty(self):
        with pytest.raises(EmptyInput):
            render_model_prompt("")

    def test_rendering_is_deterministic(self, description):
        assert render_model_prompt(description) == render_model_prompt(description)

    def test_fixture_key_is_sha256_of_prompt_bytes(self):
        prompt = render_prior_prompt("a", "b")
        assert FixtureStore.key_for(prompt) == hashlib.sha256(prompt.encode()).hexdigest()


class TestConfig:
    def test_live_requires_endpoint(self):
        with pytest.raises(ElicitationError):
            LlmConfig(mode="live")

    @pytest.mark.parametrize("url", ["chat.example/v1", "file:///etc/hostname", "ftp://chat.example/v1"])
    def test_live_requires_http_endpoint(self, url):
        # urllib would also open file: and ftp: URLs
        with pytest.raises(ElicitationError, match="http"):
            LlmConfig(mode="live", endpoint_url=url)

    def test_replay_requires_fixtures(self):
        with pytest.raises(ElicitationError):
            LlmConfig(mode="replay", fixtures_dir=None)

    def test_unknown_mode(self):
        with pytest.raises(ElicitationError):
            LlmConfig(mode="cached", fixtures_dir=".")

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, math.nan])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ElicitationError, match="timeout must be finite and > 0"):
            LlmConfig(mode="live", endpoint_url="http://127.0.0.1:9/x", timeout=timeout)


    @pytest.mark.parametrize("temperature", [-1.0, math.nan, math.inf])
    def test_temperature_must_be_finite_and_nonnegative(self, temperature):
        with pytest.raises(ElicitationError, match="temperature must be finite and >= 0"):
            LlmConfig(mode="live", endpoint_url="http://127.0.0.1:9/x", temperature=temperature)


class TestReplay:
    def test_round_trip_store(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.put("hello", "world", "test-model")
        assert store.get("hello") == "world"
        payload = json.loads(store.path_for("hello").read_text())
        assert payload["prompt_hash"] == FixtureStore.key_for("hello")
        assert payload["metadata"]["model_name"] == "test-model"

    def test_miss(self, tmp_path):
        with pytest.raises(FixtureMiss):
            call_llm("unseen prompt", replay_cfg(tmp_path))

    @pytest.mark.parametrize(
        "body, problem",
        [
            ('{"response_text": ', "not valid JSON"),
            ('["response_text"]', "expected a JSON object"),
            ('{"x": 1}', "expected a JSON object"),
            ('{"response_text": 7}', "expected a JSON object"),
        ],
    )
    def test_corrupt_fixture_names_the_file(self, tmp_path, body, problem):
        store = FixtureStore(tmp_path)
        store.path_for("p").write_text(body, encoding="utf-8")
        with pytest.raises(ElicitationError, match=problem) as err:
            store.get("p")
        assert str(store.path_for("p")) in str(err.value)

    def test_shipped_prior_fixtures(self, shipped, beliefs):
        spec = elicit_prior("beta", beliefs["beta"], shipped)
        assert spec == Normal(mu=2.0, sigma=1.0)
        spec = elicit_prior("sigma", beliefs["sigma"], shipped)
        assert spec == HalfNormal(sigma=15.0)
        spec = elicit_prior("alpha", beliefs["alpha"], shipped)
        assert spec == Normal(mu=0.0, sigma=12.5)

    def test_shipped_model_fixture(self, shipped, description):
        spec = elicit_model(description, shipped)
        assert list(spec.priors) == ["alpha", "beta", "sigma"]
        assert spec.priors["alpha"] == Uniform(lower=-25.0, upper=25.0)
        assert spec.priors["beta"] == Exponential(lam=0.5)
        assert spec.priors["sigma"] == HalfNormal(sigma=15.0)
        assert spec.likelihood.formula_source == "alpha + beta * X"

    def test_fenced_fixture_parses(self, tmp_path):
        store = FixtureStore(tmp_path)
        prompt = render_prior_prompt("beta", "fenced test belief")
        store.put(prompt, '```json\n{"distribution":"Exponential","params":{"rate":0.5}}\n```', "m")
        spec = elicit_prior("beta", "fenced test belief", replay_cfg(tmp_path))
        assert spec == Exponential(lam=0.5)

    def test_prose_fixture_exhausts_retries(self, tmp_path):
        store = FixtureStore(tmp_path)
        prompt = render_prior_prompt("beta", "prose test belief")
        store.put(prompt, "I think a Normal prior would be lovely.", "m")
        with pytest.raises(ElicitationFailed):
            elicit_prior("beta", "prose test belief", replay_cfg(tmp_path))

    def test_retry_prompt_has_its_own_fixture(self, tmp_path):
        store = FixtureStore(tmp_path)
        prompt = render_prior_prompt("beta", "retry belief")
        bad = '{"distribution":"Cauchy","params":{"x0":0}}'
        store.put(prompt, bad, "m")
        retry_prompt = (
            prompt
            + "\nPrevious response was invalid: unknown distribution 'Cauchy'. "
            + "Respond with only the JSON object."
        )
        store.put(retry_prompt, '{"distribution":"Normal","params":{"mu":0,"sigma":1}}', "m")
        spec = elicit_prior("beta", "retry belief", replay_cfg(tmp_path))
        assert spec == Normal(mu=0.0, sigma=1.0)

    def test_overflowing_literal_is_retried(self, tmp_path):
        store = FixtureStore(tmp_path)
        prompt = render_model_prompt("overflow")
        model = '{"priors": {"a": {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}}}, ' \
                '"likelihood": {"distribution": "Normal", "formula": "a + %s * X"}}'
        store.put(prompt, model % "1e999", "m")
        retry_prompt = (
            prompt
            + "\nPrevious response was invalid: number at position 4 overflows a float: 1e999. "
            + "Respond with only the JSON object."
        )
        store.put(retry_prompt, model % "2", "m")
        spec = elicit_model("overflow", replay_cfg(tmp_path))
        assert spec.likelihood.formula_source == "a + 2 * X"

    def test_too_deep_formula_is_retried(self, tmp_path):
        store = FixtureStore(tmp_path)
        prompt = render_model_prompt("deep")
        model = '{"priors": {"a": {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}}}, ' \
                '"likelihood": {"distribution": "Normal", "formula": "%s"}}'
        store.put(prompt, model % ("(" * 300 + "a * X" + ")" * 300), "m")
        retry_prompt = (
            prompt
            + "\nPrevious response was invalid: formula nests deeper than 100 levels at position 100. "
            + "Respond with only the JSON object."
        )
        store.put(retry_prompt, model % "a * X", "m")
        spec = elicit_model("deep", replay_cfg(tmp_path))
        assert spec.likelihood.formula_source == "a * X"

    def test_model_fixture_missing_likelihood_fails(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.put(render_model_prompt("desc"), '{"priors": {}}', "m")
        with pytest.raises(ElicitationFailed):
            elicit_model("desc", replay_cfg(tmp_path))


class _FakeResponse(io.BytesIO):
    """What ``urllib.request.urlopen`` returns for a 2xx answer."""


def _http_error(status, text):
    return urllib.error.HTTPError("https://chat.example/v1", status, "error", {}, io.BytesIO(text.encode()))


def _fake_urlopen(monkeypatch, answer):
    """Patch ``urlopen`` to return ``answer`` (a payload to serialize, or raw
    bytes) or to raise it (an exception); returns what each call was given."""
    calls = []

    def urlopen(request, timeout=None):
        calls.append((request, timeout))
        if isinstance(answer, BaseException):
            raise answer
        return _FakeResponse(answer if isinstance(answer, bytes) else json.dumps(answer).encode())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return calls


def _chat_payload(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class TestLiveTransport:
    LIVE = dict(mode="live", endpoint_url="https://chat.example/v1", model_name="m1")

    def test_missing_api_key_before_any_network(self, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        calls = _fake_urlopen(monkeypatch, AssertionError("network should not be touched"))
        with pytest.raises(MissingApiKey):
            call_llm("p", LlmConfig(**self.LIVE))
        assert calls == []

    def test_live_extracts_first_candidate(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k-123")
        calls = _fake_urlopen(monkeypatch, _chat_payload("hello"))
        out = call_llm("the prompt", LlmConfig(**self.LIVE, temperature=0.25, timeout=7.5))
        assert out == "hello"
        (request, timeout), = calls
        assert (request.full_url, request.get_method(), timeout) == ("https://chat.example/v1", "POST", 7.5)
        assert json.loads(request.data) == {
            "model": "m1",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.25,
        }
        assert request.get_header("Authorization") == "Bearer k-123"
        assert request.get_header("Content-type") == "application/json"

    def test_http_error_excerpt_has_no_key(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-super-secret")
        _fake_urlopen(monkeypatch, _http_error(503, "upstream unavailable"))
        with pytest.raises(HttpError) as err:
            call_llm("p", LlmConfig(**self.LIVE))
        assert err.value.status == 503
        assert "upstream unavailable" in str(err.value)
        assert "sk-super-secret" not in str(err.value)

    def test_timeout(self, monkeypatch):
        # a connect timeout: urllib wraps the socket's TimeoutError in URLError
        monkeypatch.setenv("LLM_API_KEY", "k")
        _fake_urlopen(monkeypatch, urllib.error.URLError(TimeoutError("timed out")))
        with pytest.raises(LlmTimeout):
            call_llm("p", LlmConfig(**self.LIVE, timeout=0.01))

    def test_read_timeout(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        _fake_urlopen(monkeypatch, TimeoutError("timed out"))
        with pytest.raises(LlmTimeout):
            call_llm("p", LlmConfig(**self.LIVE, timeout=0.01))

    def test_transport_failure_has_no_key(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-super-secret")
        _fake_urlopen(monkeypatch, urllib.error.URLError(ConnectionRefusedError(111, "refused")))
        with pytest.raises(HttpError) as err:
            call_llm("p", LlmConfig(**self.LIVE))
        assert err.value.status == 0
        assert str(err.value) == "HTTP 0: transport failure: URLError"

    def test_body_not_json(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        _fake_urlopen(monkeypatch, b"<html>gateway</html>")
        with pytest.raises(LlmProtocolError, match="did not return JSON"):
            call_llm("p", LlmConfig(**self.LIVE))

    def test_unexpected_shape(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        for body in ({"data": []}, {"choices": []}, {"choices": [{"message": {"content": 3}}]}, ["x"]):
            _fake_urlopen(monkeypatch, body)
            with pytest.raises(LlmProtocolError, match=r"no text at choices\[0\]\.message\.content"):
                call_llm("p", LlmConfig(**self.LIVE))

    def test_record_mode_persists_fixture(self, monkeypatch, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "key-abc")
        _fake_urlopen(monkeypatch, _chat_payload("rec"))
        cfg = LlmConfig(**{**self.LIVE, "mode": "record"}, fixtures_dir=tmp_path)
        assert call_llm("record me", cfg) == "rec"
        # replay now works offline, and nothing on disk contains the key
        replayed = call_llm("record me", replay_cfg(tmp_path))
        assert replayed == "rec"
        for f in tmp_path.glob("*.json"):
            assert "key-abc" not in f.read_text()

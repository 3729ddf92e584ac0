"""plainbayes: Bayesian linear-model inference from plain-language descriptions.

The pipeline goes: natural-language beliefs/description -> validated model
blueprint (via a chat LLM or recorded fixtures) -> differentiable log
posterior over a small formula DSL -> NUTS/Metropolis sampling -> summary
statistics and histogram plots.
"""

__version__ = "0.1.0"

_MODULE_OF = {  # each name's module, loaded on first access: importing the package loads no numpy
    **dict.fromkeys(("Dataset", "SimConfig", "load_csv", "save_csv", "simulate_linear"), "data_io"),
    **dict.fromkeys(("SummaryTable", "ess_bulk", "hdi", "mode_estimate", "split_rhat", "summarize"), "diagnostics"),
    **dict.fromkeys(("LlmConfig", "elicit_model", "elicit_prior"), "elicitation"),
    **dict.fromkeys(("PosteriorFn", "build_posterior"), "posterior"),
    **dict.fromkeys(("SamplerConfig", "Trace", "load_trace", "nuts_sample", "rwm_sample", "save_trace"), "sampler"),
    **dict.fromkeys(("LikelihoodSpec", "ModelSpec", "ValidatedModel", "parse_model_json", "parse_prior_json",
                     "sanitize_llm_text", "validate_model"), "spec_schema"),
}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)

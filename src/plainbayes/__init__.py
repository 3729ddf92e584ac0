"""plainbayes: Bayesian linear-model inference from plain-language descriptions.

The pipeline goes: natural-language beliefs/description -> validated model
blueprint (via a chat LLM or recorded fixtures) -> differentiable log
posterior over a small formula DSL -> NUTS/Metropolis sampling -> summary
statistics and histogram plots.
"""

__version__ = "0.1.0"

from .data_io import Dataset, SimConfig, load_csv, save_csv, simulate_linear  # noqa: F401
from .diagnostics import SummaryTable, ess_bulk, hdi, mode_estimate, split_rhat, summarize  # noqa: F401
from .elicitation import LlmConfig, elicit_model, elicit_prior  # noqa: F401
from .posterior import PosteriorFn, build_posterior  # noqa: F401
from .sampler import SamplerConfig, Trace, load_trace, nuts_sample, rwm_sample, save_trace  # noqa: F401
from .spec_schema import (  # noqa: F401
    LikelihoodSpec,
    ModelSpec,
    ValidatedModel,
    parse_model_json,
    parse_prior_json,
    sanitize_llm_text,
    validate_model,
)

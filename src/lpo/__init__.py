"""Black-box prompt optimization by exploring a latent semantic space.

Seed prompts are embedded into a continuous vector space, new candidate
points are generated by interpolation, extrapolation, or Gaussian
perturbation, decoded back to natural-language templates through a chat
backend, scored on a validation slice, and the top performers survive into
the next round.
"""

__version__ = "0.1.0"  # first: the gateway reads it while this package loads

from .core import (
    Dataset,
    Example,
    PromptTemplate,
    SplitSpec,
    load_dataset,
    render_prompt,
    split_dataset,
    validate_template,
)
from .decoder import DecodeStrategy, decode, refine_format
from .encoder import EncoderSpec, encode
from .errors import (
    BackendError,
    BudgetExhaustedError,
    CandidateInvalidError,
    LPOError,
    ValidationError,
)
from .evaluator import EvalConfig, ScoredPrompt, evaluate, extract_label
from .explorer import (
    CandidateRecord,
    ExplorationPolicy,
    Provenance,
    extrapolate,
    generate_candidates,
    interpolate,
    perturb,
)
from .gateway import BackendConfig, Budget, ChatRequest, ChatResponse, chat, embed, usage_report
from .optimizer import OptimizerConfig, RunRecord, iterate, run_cycle, select_top
from .projector import LinearProjector, PairedCorpus, apply, fit_ridge, load_weights, save_weights
from .toyspace import ToySpaceSpec, toy_decode, toy_encode

__all__ = [
    "BackendConfig",
    "BackendError",
    "Budget",
    "BudgetExhaustedError",
    "CandidateInvalidError",
    "CandidateRecord",
    "ChatRequest",
    "ChatResponse",
    "Dataset",
    "DecodeStrategy",
    "EncoderSpec",
    "EvalConfig",
    "Example",
    "ExplorationPolicy",
    "LPOError",
    "LinearProjector",
    "OptimizerConfig",
    "PairedCorpus",
    "PromptTemplate",
    "Provenance",
    "RunRecord",
    "ScoredPrompt",
    "SplitSpec",
    "ToySpaceSpec",
    "ValidationError",
    "apply",
    "chat",
    "decode",
    "embed",
    "encode",
    "evaluate",
    "extract_label",
    "extrapolate",
    "fit_ridge",
    "generate_candidates",
    "interpolate",
    "iterate",
    "load_dataset",
    "load_weights",
    "perturb",
    "refine_format",
    "render_prompt",
    "run_cycle",
    "save_weights",
    "select_top",
    "split_dataset",
    "toy_decode",
    "toy_encode",
    "usage_report",
    "validate_template",
]

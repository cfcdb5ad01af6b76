"""Maps prompt templates to latent embedding vectors.

Encoding goes through the gateway's embedding backend. The backend's vector
is taken as-is: no pooling configuration, no fine-tuning, no rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gateway
from .core import PromptTemplate, as_vector
from .errors import ValidationError
from .gateway import BackendConfig, Budget


@dataclass(frozen=True)
class EncoderSpec:
    """Embedding backend plus the expected vector dimension."""

    backend: BackendConfig
    dimension: int = 8

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValidationError("encoder dimension must be >= 1")


def encode(spec: EncoderSpec, templates: Sequence[PromptTemplate],
           budget: Budget) -> list[np.ndarray]:
    """Embed templates in order, one vector of dimension d per template.

    ``budget.embeddings`` serves a text this backend embedded before, as seeds
    are re-encoded every iteration.
    """
    if not templates:
        raise ValidationError("encode called with no templates")
    backend_id, known = gateway.backend_fingerprint(spec.backend), budget.embeddings
    keys = {t.text: (backend_id, t.text) for t in templates}
    missing = [text for text, key in keys.items() if key not in known]
    if missing:
        vectors = gateway.embed(spec.backend, missing, budget)
        for text, vec in zip(missing, vectors):
            known[keys[text]] = as_vector(vec, dim=spec.dimension,
                                          name=f"embedding of {text[:30]!r}")
    return [known[keys[t.text]] for t in templates]

"""Maps prompt templates to latent embedding vectors.

Encoding goes through the gateway's embedding backend. The backend's vector
is taken as-is: no pooling configuration, no fine-tuning, no rescaling. A
text's vector is kept in the run's reply cache, so it is embedded once.
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

    Each text is embedded once per reply cache (:func:`lpo.gateway.cached_embed`),
    as seeds are re-encoded every iteration: a text the backend embedded
    before comes back from ``budget.replies`` bit for bit, with no call.
    """
    if not templates:
        raise ValidationError("encode called with no templates")
    vectors = gateway.cached_embed(spec.backend, [t.text for t in templates], budget)
    return [as_vector(vec, dim=spec.dimension, name=f"embedding of {t.text[:30]!r}")
            for t, vec in zip(templates, vectors)]

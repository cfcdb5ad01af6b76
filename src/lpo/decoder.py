"""Turns explored latent points back into natural-language prompt templates.

Three routes, picked by DecodeStrategy.kind:

- ``anchor_blend``: the default for black-box backends. True pseudo-token
  injection needs access to the decoder model's embedding layer, which a
  remote API does not expose; asking the chat backend to merge the
  candidate's two parent prompts in proportion to the blend weight is the
  closest observable analogue (provenance guarantees the parents exist).
- ``soft_prompt``: projects the latent point into decoder token space and
  ships it over the gateway's soft-prompt wire extension together with a
  fixed paraphrase instruction. Mock chat backends only; a remote one is
  refused when the strategy is built.
- ``toy_inverse``: exact inverse of the toy encoder, for oracle tests.

A second pass (:func:`refine_format`) conforms raw decodes to the seeds'
formatting conventions; one attempt only, to bound per-candidate cost.

A chat request at temperature 0, a refinement by default, is asked once per
reply cache (:func:`lpo.gateway.cached_chat`); a sampled decode is drawn
afresh every time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from . import gateway, prompts
from .core import PromptTemplate, text_digest, validate_template
from .errors import CandidateInvalidError, ValidationError
from .explorer import CandidateRecord
from .gateway import BackendConfig, Budget, ChatRequest
from .projector import LinearProjector, apply as project
from .toyspace import ToySpaceSpec, toy_decode

logger = logging.getLogger(__name__)

DECODE_KINDS = ("anchor_blend", "soft_prompt", "toy_inverse")


@dataclass(frozen=True)
class DecodeStrategy:
    """Decode route plus the collaborators it needs.

    ``chat`` serves both decoding (at ``decode_temperature``, where diversity
    helps) and format refinement (at ``refinement_temperature``, default 0.0,
    where it must be conservative). Both temperatures are finite and >= 0.
    """

    kind: str = "anchor_blend"
    chat: BackendConfig | None = None
    toy_space: ToySpaceSpec | None = None
    projector: LinearProjector | None = None
    decode_temperature: float = 0.7
    refinement_temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DECODE_KINDS:
            raise ValidationError(f"unknown decode kind {self.kind!r}")
        if self.decode_temperature < 0 or self.refinement_temperature < 0:
            raise ValidationError("temperatures must be >= 0")
        if self.kind == "toy_inverse" and self.toy_space is None:
            raise ValidationError("toy_inverse decoding needs a toy_space")
        if self.kind == "soft_prompt" and self.projector is None:
            raise ValidationError("soft_prompt decoding needs a projector")
        if self.kind in ("anchor_blend", "soft_prompt") and self.chat is None:
            raise ValidationError(f"{self.kind} decoding needs a chat backend")
        if self.kind == "soft_prompt" and self.chat.kind != "mock":
            raise ValidationError("soft_prompt decoding needs a mock chat backend: "
                                  "remote backends refuse soft prompts")
        if not all(map(math.isfinite, (self.decode_temperature, self.refinement_temperature))):
            raise ValidationError("temperatures must be finite")


def _parent_templates(candidate: CandidateRecord,
                      seeds: Sequence[PromptTemplate]) -> tuple[PromptTemplate, PromptTemplate]:
    by_id = {s.id: s for s in seeds}
    parents = candidate.provenance.parents
    missing = [pid for pid in parents if pid not in by_id]
    if missing:
        raise ValidationError(f"candidate {candidate.id} references unknown parents {missing}")
    if len(parents) != 2:
        raise ValidationError(f"candidate {candidate.id} has {len(parents)} parent(s), not two")
    return by_id[parents[0]], by_id[parents[1]]


def decode(strategy: DecodeStrategy, candidate: CandidateRecord,
           seeds: Sequence[PromptTemplate], budget: Budget) -> str:
    """Produce raw prompt text for one candidate latent point.

    The chat request goes through :func:`lpo.gateway.cached_chat`: at a
    ``decode_temperature`` above 0, the default, every decode is drawn
    afresh; at 0 a request asked before is served from ``budget.replies``.
    """
    if strategy.kind == "toy_inverse":
        return toy_decode(strategy.toy_space, candidate.embedding)

    if strategy.kind == "soft_prompt":
        projected = project(strategy.projector, candidate.embedding)
        req = ChatRequest(
            user_text=prompts.SOFT_PROMPT_INSTRUCTION,
            temperature=strategy.decode_temperature,
            soft_prompt=tuple(projected.tolist()),
        )
        return gateway.cached_chat(strategy.chat, req, budget)

    first, second = _parent_templates(candidate, seeds)
    weight = float(candidate.provenance.weight)
    instruction = prompts.blend_instruction(first.text, second.text, weight)
    req = ChatRequest(user_text=instruction, temperature=strategy.decode_temperature)
    return gateway.cached_chat(strategy.chat, req, budget)


def refine_format(strategy: DecodeStrategy, raw_text: str,
                  seeds: Sequence[PromptTemplate], budget: Budget,
                  template_id: str = "", *, backend_id: str | None = None) -> PromptTemplate:
    """Conform raw decoded text to the seeds' formatting conventions.

    Already-valid text is returned verbatim (byte-equal, zero chat calls)
    with origin ``decoded``. Otherwise one chat call rewrites it to carry
    exactly one input placeholder without changing essential content; if the
    reply still fails validation the candidate is marked invalid via
    CandidateInvalidError, which is not fatal to a run. At a
    ``refinement_temperature`` of 0, the default, a request asked before is
    served from ``budget.replies`` (:func:`decode` says how), keyed by
    ``backend_id``, the chat backend's fingerprint, which a caller refining
    many candidates takes once.
    """
    if not seeds:
        raise ValidationError("refine_format needs at least one seed for reference")
    tid = template_id or "t-" + text_digest(raw_text)[:8]
    try:
        return validate_template(raw_text, template_id=tid, origin="decoded")
    except ValidationError as first_failure:
        reason = str(first_failure)
    if strategy.chat is None:
        raise CandidateInvalidError(f"invalid decode and no refinement backend: {reason}")
    instruction = prompts.refine_instruction(raw_text, [s.text for s in seeds])
    req = ChatRequest(user_text=instruction, temperature=strategy.refinement_temperature)
    reply = gateway.cached_chat(strategy.chat, req, budget, backend_id)
    try:
        return validate_template(reply, template_id=tid, origin="refined")
    except ValidationError as exc:
        raise CandidateInvalidError(
            f"refinement reply still invalid ({exc}); original failure: {reason}"
        ) from exc

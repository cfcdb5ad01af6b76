"""Instruction texts sent to chat backends, versioned with the repo.

Embedded payloads (parent prompts, raw candidates, model replies) sit between
explicit sentinel markers so that deterministic mock backends can recover
them without guessing. Remote backends simply see well-delimited text.
"""

BLOCK_A_OPEN = "<<<PROMPT-A>>>"
BLOCK_A_CLOSE = "<<<END-PROMPT-A>>>"
BLOCK_B_OPEN = "<<<PROMPT-B>>>"
BLOCK_B_CLOSE = "<<<END-PROMPT-B>>>"
BLOCK_RAW_OPEN = "<<<CANDIDATE>>>"
BLOCK_RAW_CLOSE = "<<<END-CANDIDATE>>>"
BLOCK_REPLY_OPEN = "<<<REPLY>>>"
BLOCK_REPLY_CLOSE = "<<<END-REPLY>>>"

BLEND_INSTRUCTION = """\
You will merge two task instructions into one new instruction.

{a_open}
{parent_a}
{a_close}

{b_open}
{parent_b}
{b_close}

Write a single new instruction that blends the two above, weighting the
first by {weight:.4f} and the second by {remainder:.4f}. Preserve the literal
placeholder {{text}} exactly once. Reply with the new instruction only.
blend_weight={weight!r}
"""

SOFT_PROMPT_INSTRUCTION = """\
The message carries one continuous pseudo-token in place of ordinary words.
Paraphrase the instruction that the pseudo-token represents as plain text.
Reply with the instruction only.
"""

REFINE_INSTRUCTION = """\
Rewrite the candidate instruction below so it follows the formatting
conventions of the reference instructions, without changing its essential
content. The rewritten instruction must contain the literal placeholder
{{text}} exactly once, marking where the input text is inserted.

Reference instructions:
{references}

{raw_open}
{raw}
{raw_close}

Reply with the rewritten instruction only.
"""

EXTRACT_INSTRUCTION = """\
A model was asked to classify a text and replied with the passage below.
Decide which single label the reply asserts.

{reply_open}
{raw}
{reply_close}

Answer with exactly one of: {labels}. If the reply asserts none of them,
answer: unparsed.
"""


def blend_instruction(parent_a: str, parent_b: str, weight: float) -> str:
    return BLEND_INSTRUCTION.format(
        a_open=BLOCK_A_OPEN, a_close=BLOCK_A_CLOSE,
        b_open=BLOCK_B_OPEN, b_close=BLOCK_B_CLOSE,
        parent_a=parent_a, parent_b=parent_b,
        weight=weight, remainder=1.0 - weight,
    )


def refine_instruction(raw: str, references: list[str]) -> str:
    refs = "\n---\n".join(references)
    return REFINE_INSTRUCTION.format(
        references=refs, raw_open=BLOCK_RAW_OPEN, raw_close=BLOCK_RAW_CLOSE, raw=raw,
    )


def extract_instruction(raw: str, labels: list[str]) -> str:
    return EXTRACT_INSTRUCTION.format(
        reply_open=BLOCK_REPLY_OPEN, reply_close=BLOCK_REPLY_CLOSE,
        raw=raw, labels=", ".join(labels),
    )


def extract_block(text: str, open_marker: str, close_marker: str) -> str | None:
    """Pull the payload between two sentinel markers, or None if absent."""
    start = text.find(open_marker)
    if start < 0:
        return None
    start += len(open_marker)
    end = text.find(close_marker, start)
    if end < 0:
        return None
    return text[start:end].strip("\n")

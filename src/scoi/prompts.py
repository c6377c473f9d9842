"""Prompt rendering for the two supported model-facing layouts.

Rendering is a pure function of (template, examples, test input); the exact
byte layouts are locked by golden fixtures.  Selected examples appear in
selection order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

PROMPT_STYLES = ("delimiter", "instruction")


class _Template(NamedTuple):
    style: str = "delimiter"
    source_language: str = "source"
    target_language: str = "target"


class PromptTemplate(_Template):
    """Refuses an unknown style when made, by ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.style not in PROMPT_STYLES:
            raise ValueError(f"unknown prompt style {self.style!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def render_prompt(
    template: PromptTemplate,
    examples: Sequence[tuple[str, str]],
    test_source: str,
    expected_count: int | None = None,
) -> str:
    """Render demonstrations plus the open test block.

    delimiter style separates example pairs with a ``###`` line and ends on
    an open target line; instruction style opens with a one-line translate
    instruction and uses bare ``lang:`` prefixes.  ``expected_count``
    guards against rendering a short or overfull selection unnoticed.
    """
    if expected_count is not None and len(examples) != expected_count:
        raise ValueError(f"expected {expected_count} examples, got {len(examples)}")
    src, tgt = template.source_language, template.target_language
    parts: list[str] = []
    if template.style == "delimiter":
        for ex_source, ex_target in examples:
            parts.append(f"{src} sentence: {ex_source}\n{tgt} sentence: {ex_target}\n###\n")
        parts.append(f"{src} sentence: {test_source}\n{tgt} sentence:")
    else:
        parts.append(f"Instruction: Translate the following {src} text into {tgt}.\n\n")
        for ex_source, ex_target in examples:
            parts.append(f"{src}: {ex_source}\n{tgt}: {ex_target}\n")
        parts.append(f"{src}: {test_source}\n{tgt}:")
    return "".join(parts)

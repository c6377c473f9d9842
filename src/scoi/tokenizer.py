"""Frozen rule-based tokenizer for the lexical side of the pipeline.

The rule set is deliberately small, deterministic, and locked by a golden
test corpus:

1. Split on Unicode whitespace.
2. From each chunk, peel leading punctuation characters one at a time into
   their own tokens, then trailing punctuation likewise (emitted in their
   original order after the core).
3. A character is punctuation iff its Unicode category starts with "P".
4. Case is kept; punctuation tokens are kept; word-internal punctuation
   (hyphens, apostrophes, decimal points) stays attached.

Rule 2 sees one chunk at a time, and a chunk always yields at least one
token, so ``tokenize(text)`` is the concatenation of ``tokenize(chunk)``
over ``text.split()``; ``apply_token_flags`` filters and maps each token
on its own.  Ingest relies on both and tokenizes each distinct chunk of a
file once.

No attempt is made to reproduce any external tokenizer token-for-token;
changing these rules invalidates cached corpora, so bump TOKENIZER_VERSION
if they ever move.
"""

from __future__ import annotations

import unicodedata

TOKENIZER_VERSION = 1


class _PunctTable(dict):
    """Character -> whether it is punctuation; filled on first lookup."""

    def __missing__(self, ch: str) -> bool:
        flag = self[ch] = unicodedata.category(ch).startswith("P")
        return flag


_PUNCT = _PunctTable()


def tokenize(text: str) -> list[str]:
    """Tokenize one sentence.

    Raises ValueError when the text contains no tokens at all.
    """
    tokens: list[str] = []
    append = tokens.append
    punct = _PUNCT
    for chunk in text.split():
        # One lookup per end: most chunks have no punctuation at either.
        if not punct[chunk[0]] and not punct[chunk[-1]]:
            append(chunk)
            continue
        start, end = 0, len(chunk)
        while start < end and punct[chunk[start]]:
            start += 1
        while end > start and punct[chunk[end - 1]]:
            end -= 1
        tokens.extend(chunk[:start])
        if start < end:
            append(chunk[start:end])
        tokens.extend(chunk[end:])
    if not tokens:
        raise ValueError("text produced no tokens")
    return tokens


def apply_token_flags(
    tokens: list[str], fold_case: bool = False, strip_punctuation: bool = False
) -> list[str]:
    """Optional post-processing for the lexical side, off by default.

    Whether word coverage should be case folded or see punctuation tokens
    is a judgment call; both behaviors are exposed as explicit ingestion
    flags instead of being baked into the frozen rule set.
    """
    if strip_punctuation:
        tokens = [t for t in tokens if not all(_PUNCT[ch] for ch in t)]
    if fold_case:
        tokens = [t.lower() for t in tokens]
    return tokens

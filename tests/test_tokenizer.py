import unicodedata

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from scoi.tokenizer import TOKENIZER_VERSION, tokenize

# Frozen golden cases: the rule set is append-only; changing any of these
# expectations means bumping TOKENIZER_VERSION and rebuilding caches.
GOLDEN = [
    ("Hello, world.", ["Hello", ",", "world", "."]),
    ("a a a", ["a", "a", "a"]),
    ("The cat sat.", ["The", "cat", "sat", "."]),
    ("'quoted' words", ["'", "quoted", "'", "words"]),
    ("(parenthetical)", ["(", "parenthetical", ")"]),
    ("don't stop", ["don't", "stop"]),
    ("well-known fact", ["well-known", "fact"]),
    ("Wait...", ["Wait", ".", ".", "."]),
    ("3.5 percent", ["3.5", "percent"]),
    ("Keep CASE As-Is", ["Keep", "CASE", "As-Is"]),
    ("«Guillemets», dit-il.", ["«", "Guillemets", "»", ",", "dit-il", "."]),
    ("one,two", ["one,two"]),  # internal punctuation stays attached
    ("end!?", ["end", "!", "?"]),
]


@pytest.mark.parametrize("text,expected", GOLDEN)
def test_golden_cases(text, expected):
    assert tokenize(text) == expected


def test_multiplicity_preserved():
    from collections import Counter

    assert Counter(tokenize("a a a")) == Counter({"a": 3})


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        tokenize("")
    with pytest.raises(ValueError):
        tokenize("   ")


@given(st.lists(st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8), min_size=1, max_size=10))
def test_idempotent_on_punctuation_free_text(words):
    tokens = tokenize(" ".join(words))
    assert tokens == words
    assert tokenize(" ".join(tokens)) == tokens


def reference_tokenize(text: str) -> list[str]:
    """The four documented rules, one character at a time."""
    tokens = []
    for chunk in text.split():  # rule 1: Unicode whitespace
        lead, trail = [], []
        while chunk and unicodedata.category(chunk[0]).startswith("P"):  # rules 2 and 3
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and unicodedata.category(chunk[-1]).startswith("P"):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens += lead + ([chunk] if chunk else []) + trail[::-1]  # rule 4: the core stays whole
    return tokens


PUNCTUATION = ["Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"]
CHARACTERS = st.characters(
    categories=[*PUNCTUATION, "Sm", "Sc", "Sk", "So", "Mn", "Mc", "Me", "Lu", "Ll", "Nd"]
)
WHITESPACE = st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c"])
CHUNKS = st.one_of(
    st.text(CHARACTERS, min_size=1, max_size=6),
    st.text(st.characters(categories=PUNCTUATION), min_size=1, max_size=4),
)


@settings(max_examples=500)
@given(st.lists(st.tuples(CHUNKS, st.text(WHITESPACE, min_size=1, max_size=2)), max_size=8))
def test_matches_the_reference_rules(parts):
    text = "".join(chunk + space for chunk, space in parts)
    expected = reference_tokenize(text)
    if not expected:
        with pytest.raises(ValueError):
            tokenize(text)
    else:
        assert tokenize(text) == expected


def test_version_is_unchanged():
    assert TOKENIZER_VERSION == 1

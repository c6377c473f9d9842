import pytest
from hypothesis import given
import hypothesis.strategies as st

from scoi.tokenizer import tokenize

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

"""Seeded synthetic corpus generator for the pipeline benchmark.

Writes a plain-text parallel corpus (``corpus.src`` / ``corpus.tgt``), its
CoNLL-U parses (``corpus.conllu``), and test inputs (``test.src`` /
``test.conllu``).  The bytes written are a pure function of the workload
parameters and the seed: every random draw comes from ``random.Random``
seeded with a string, whose output is fixed across platforms and
interpreter versions.

* Trees are random recursive trees (node i attaches under a uniformly
  chosen earlier node) whose nodes are then shuffled into token order, so
  heads point both left and right.
* Dependents carry one of 36 UD relations drawn Zipf-like; the root is
  labelled ``root``.
* Words come from a Zipf vocabulary of 20,000 generated types, a few of
  them punctuation.  Targets are a pseudo translation: each word spelled
  backwards plus a suffix vowel.
* Every 100th test input (ids 99, 199, ...) is drawn from a disjoint
  vocabulary without punctuation, so it shares no token with the corpus
  and selection takes the BM25-fallback path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

# Universal Dependencies v2 relations other than ``root``, in a rough
# frequency order so the Zipf draw favours the common ones.
DEPRELS = (
    "punct", "case", "nsubj", "det", "obj", "advmod", "amod", "obl", "nmod",
    "conj", "cc", "mark", "aux", "compound", "advcl", "cop", "xcomp", "acl",
    "nummod", "ccomp", "flat", "appos", "iobj", "fixed", "parataxis", "csubj",
    "expl", "dep", "discourse", "list", "clf", "dislocated", "goeswith",
    "orphan", "reparandum", "vocative",
)
VOCAB_SIZE = 20_000
WORD_ZIPF_S = 1.05
LABEL_ZIPF_S = 1.2
NO_OVERLAP_EVERY = 100
PUNCTUATION = (".", ",", ";", "?", "!")
# Disjoint alphabets: corpus words never contain "x" or "q", the
# no-overlap test words always start with "xq".
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "st", "tr", "pl", "gr", "sh")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_TARGET_SUFFIX = ("a", "e", "o")


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes of one synthetic corpus; all lengths are token counts, inclusive."""

    pairs: int
    min_tokens: int
    max_tokens: int
    tests: int
    test_min_tokens: int
    test_max_tokens: int


def _cumulative(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def _make_word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) for _ in range(syllables))


def make_vocabulary(rng: random.Random, size: int = VOCAB_SIZE) -> list[str]:
    """Distinct word types in rank order; punctuation sits among the top ranks."""
    seen: set[str] = set(PUNCTUATION)
    words: list[str] = []
    while len(words) < size - len(PUNCTUATION):
        word = _make_word(rng, 1 + min(len(words) // 400, 3) + rng.randrange(2))
        if word not in seen:
            seen.add(word)
            words.append(word)
    for rank, mark in zip((1, 3, 9, 40, 60), PUNCTUATION):
        words.insert(rank, mark)
    return words


def _translate(word: str) -> str:
    if word in PUNCTUATION:
        return word
    return word[::-1] + _TARGET_SUFFIX[len(word) % len(_TARGET_SUFFIX)]


class _SentenceMaker:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = make_vocabulary(rng)
        self.word_cum = _cumulative(len(self.words), WORD_ZIPF_S)
        self.label_cum = _cumulative(len(DEPRELS), LABEL_ZIPF_S)

    def tree(self, n: int) -> tuple[list[int], list[str]]:
        """1-based heads (0 for the root) and relations, in token order."""
        rng = self.rng
        creation_parent = [-1] + [rng.randrange(i) for i in range(1, n)]
        position = list(range(n))
        rng.shuffle(position)
        labels = rng.choices(DEPRELS, cum_weights=self.label_cum, k=n - 1)
        heads = [0] * n
        deprels = ["root"] * n
        for node in range(1, n):
            heads[position[node]] = position[creation_parent[node]] + 1
            deprels[position[node]] = labels[node - 1]
        return heads, deprels

    def corpus_words(self, n: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.word_cum, k=n)

    def foreign_words(self, n: int) -> list[str]:
        return ["xq" + _make_word(self.rng, 2) for _ in range(n)]


def _conllu_block(words: list[str], heads: list[int], deprels: list[str]) -> str:
    rows = [
        f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{rel}\t_\t_"
        for i, (form, head, rel) in enumerate(zip(words, heads, deprels), start=1)
    ]
    return "\n".join(rows) + "\n\n"


def generate(spec: CorpusSpec, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the five input files under ``out_dir`` and return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("corpus.src", "corpus.tgt", "corpus.conllu", "test.src", "test.conllu")}
    maker = _SentenceMaker(random.Random(f"perfbench:{seed}:{spec}"))
    rng = maker.rng

    src, tgt, parses = [], [], []
    for _ in range(spec.pairs):
        n = rng.randint(spec.min_tokens, spec.max_tokens)
        words = maker.corpus_words(n)
        src.append(" ".join(words) + "\n")
        tgt.append(" ".join(_translate(w) for w in reversed(words)) + "\n")
        parses.append(_conllu_block(words, *maker.tree(n)))

    test_src, test_parses = [], []
    for i in range(spec.tests):
        n = rng.randint(spec.test_min_tokens, spec.test_max_tokens)
        if i % NO_OVERLAP_EVERY == NO_OVERLAP_EVERY - 1:
            words = maker.foreign_words(n)
        else:
            words = maker.corpus_words(n)
        test_src.append(" ".join(words) + "\n")
        test_parses.append(_conllu_block(words, *maker.tree(n)))

    for name, lines in (("corpus.src", src), ("corpus.tgt", tgt), ("corpus.conllu", parses),
                        ("test.src", test_src), ("test.conllu", test_parses)):
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    return paths

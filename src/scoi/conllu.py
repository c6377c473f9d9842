"""CoNLL-U ingestion: one dependency tree per sentence block.

Only the tree skeleton is consumed: token order, HEAD, and DEPREL.
Multiword-token ranges (ids like ``3-4``) and empty nodes (``5.1``) are
skipped; comment lines are ignored; extra columns are tolerated.  DEPREL
strings are interned into the shared label vocabulary as they appear.
"""

from __future__ import annotations

from typing import Iterator, TextIO

from .errors import DataError, MalformedTreeError
from .treepoly import ROOT, DependencyTree, LabelVocabulary

_HEAD_COL = 6
_DEPREL_COL = 7


def _iter_blocks(fh: TextIO) -> Iterator[list[tuple[int, str]]]:
    """Yield sentence blocks as lists of (line number, line) pairs."""
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        block.append((lineno, line))
    if block:
        yield block


def _parse_block(block: list[tuple[int, str]], vocab: LabelVocabulary, block_index: int) -> DependencyTree:
    heads: list[int] = []
    label_ids: list[int] = []
    lines: list[int] = []
    position: dict[int, int] = {}
    for lineno, line in block:
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) <= _DEPREL_COL:
            raise DataError(
                f"line {lineno}: expected at least {_DEPREL_COL + 1} tab-separated columns"
            )
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue
        try:
            tid = int(token_id)
            head = int(cols[_HEAD_COL])
        except ValueError as exc:
            raise DataError(f"line {lineno}: non-integer ID or HEAD column") from exc
        if tid in position:
            raise DataError(f"line {lineno}: duplicate token ID {tid}")
        position[tid] = len(heads)
        heads.append(head)
        label_ids.append(vocab.add(cols[_DEPREL_COL]))
        lines.append(lineno)
    if not position:
        raise DataError(f"sentence block {block_index} has no syntactic tokens")

    root_lines = [lines[i] for i, h in enumerate(heads) if h == 0]
    if len(root_lines) != 1:
        raise MalformedTreeError(
            f"sentence block {block_index}: expected exactly one HEAD=0 token, "
            f"found {len(root_lines)} (lines {root_lines})"
        )
    parents: list[int] = []
    for i, head in enumerate(heads):
        if head == 0:
            parents.append(ROOT)
            continue
        pos = position.get(head)
        if pos is None:
            raise MalformedTreeError(
                f"sentence block {block_index}, line {lines[i]}: HEAD {head} "
                f"does not name a token in the block"
            )
        parents.append(pos)
    try:
        return DependencyTree(label_ids, parents)
    except MalformedTreeError as exc:
        raise MalformedTreeError(f"sentence block {block_index}: {exc}") from None


def load_conllu(path, vocab: LabelVocabulary) -> list[DependencyTree]:
    """Parse a CoNLL-U file into trees, one per block, in file order."""
    trees: list[DependencyTree] = []
    with open(path, "r", encoding="utf-8") as fh:
        for block_index, block in enumerate(_iter_blocks(fh)):
            trees.append(_parse_block(block, vocab, block_index))
    return trees


def tree_to_conllu(tree: DependencyTree, vocab: LabelVocabulary, forms: list[str] | None = None) -> str:
    """Render a tree back into a minimal CoNLL-U block (skeleton columns only).

    FORM defaults to ``w<i>`` placeholders; LEMMA/UPOS/etc. are ``_``.
    Useful for cache-free round trips and for inspection output.
    """
    rows = []
    for i in range(tree.n):
        form = forms[i] if forms else f"w{i + 1}"
        head = 0 if tree.parents[i] == ROOT else tree.parents[i] + 1
        deprel = vocab.labels[tree.labels[i]]
        rows.append(f"{i + 1}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(rows) + "\n"

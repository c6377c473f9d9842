"""CoNLL-U ingestion as columns: one dependency tree per sentence block.

Only the tree skeleton is read: token order, HEAD and DEPREL.  Multiword-token
ranges (ids like ``3-4``) and empty nodes (``5.1``) are skipped, comment lines
are ignored and extra columns are tolerated.  ``\\r\\n`` and ``\\r`` end a line
as ``\\n`` does, and a line that is empty or only whitespace ends a block.

The file is read as bytes in chunks of about ``_CHUNK_BYTES``, each cut after
an empty line, so no block spans two chunks.  A chunk is scanned as one byte
array: ``np.flatnonzero`` finds its lines and tabs, and ID and HEAD are read
as ASCII digits.  The word IDs of a block must be 1, 2, ..., n in order, as
CoNLL-U numbers them, so a token's parent is HEAD - 1 and nothing is sorted.
Each DEPREL's fixed-width key (its length, then its bytes as 64-bit words)
is hashed into one uint64 and grouped with ``np.unique``; every key is
checked against its group's first before new labels go into the vocabulary,
in first-seen order.  ``first_bad_tree`` checks every tree at once.

The scan vouches for a whole chunk or for none of it.  A chunk that is not
UTF-8, or that has a line led by a whitespace byte, a short row, an ID or HEAD
that is not 1 to 9 ASCII digits, IDs that are not 1 to n in block order, a
DEPREL longer than ``_KEY_BYTES`` bytes, two DEPRELs that share a hash, a
dangling HEAD or a block that is not a tree, is parsed instead by the
per-line parser ``_parse_lines``.  It raises the first error in file order,
located by line or block, or, for odd but valid input such as a ``+3`` HEAD
or gapped IDs, returns the chunk's trees.  Every error names the file.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Iterator

import numpy as np

from .errors import DataError, MalformedTreeError
from .treepoly import ROOT, DependencyTree, LabelVocabulary, first_bad_tree, offsets_from_sizes

_CHUNK_BYTES = 1 << 20
_HEAD_COL = 6
_DEPREL_COL = 7
# The scan reads an ID or HEAD of up to this many digits; a longer one takes
# the per-line path.
_DIGITS = 9
# DEPRELs up to this many bytes are interned as fixed-width keys; a chunk with
# a longer one takes the per-line path.
_KEY_BYTES = 64
# _WORD_MASKS[j, w] keeps the bytes of word j (bytes 8j to 8j + 7) of a key
# w bytes wide.
_WORD_MASKS = np.array([[(1 << 8 * min(max(w - 8 * j, 0), 8)) - 1 for w in range(_KEY_BYTES + 1)]
                        for j in range(_KEY_BYTES // 8)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # an odd multiplier for the DEPREL key hash
# First bytes of the UTF-8 forms of the characters ``str.strip()`` removes: a
# line that starts with none of them is not blank, and a chunk with a
# non-empty line that starts with one takes the per-line path.
_SPACE_LEAD = np.zeros(256, bool)
_SPACE_LEAD[list(b"\t\n\v\f\r\x1c\x1d\x1e\x1f \xc2\xe1\xe2\xe3")] = True


def take_offsets(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries that items ``rows`` own under ``offsets``, in that order,
    and the offsets over them: item ``rows[j]`` becomes item j."""
    rows = np.asarray(rows, dtype=np.int64)
    sizes = offsets[rows + 1] - offsets[rows]
    taken = offsets_from_sizes(sizes)
    return np.repeat(offsets[rows] - taken[:-1], sizes) + np.arange(taken[-1]), taken


class TreeColumns(Sequence):
    """Trees as columns: tree i owns the int32 ``labels`` and ``parents``
    entries ``offsets[i]:offsets[i+1]``, and its parents index its own nodes
    (``ROOT`` for the root).  Each item is a ``DependencyTree`` built on
    access; none is kept."""

    def __init__(self, labels: np.ndarray, parents: np.ndarray, offsets: np.ndarray):
        self.labels, self.parents, self.offsets = labels, parents, offsets

    _bounds = cached_property(lambda self: self.offsets.tolist())

    @classmethod
    def from_trees(cls, trees: Sequence[DependencyTree]) -> "TreeColumns":
        offsets = offsets_from_sizes([len(t.labels) for t in trees])
        n = int(offsets[-1])
        labels = np.fromiter(chain.from_iterable(t.labels for t in trees), np.int32, n)
        parents = np.fromiter(chain.from_iterable(t.parents for t in trees), np.int32, n)
        return cls(labels, parents, offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> DependencyTree:
        i = range(len(self))[i]
        a, b = self._bounds[i], self._bounds[i + 1]
        return DependencyTree(self.labels[a:b].tolist(), self.parents[a:b].tolist())

    def __iter__(self) -> Iterator[DependencyTree]:
        return map(self.__getitem__, range(len(self)))


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


def _chunks(fh: BinaryIO) -> Iterator[bytes]:
    """Chunks of the file, each about _CHUNK_BYTES.

    Line ends are translated to ``\\n``.  Every chunk ends with one, and every
    chunk but the last ends with an empty line.
    """
    carry, held = b"", b""
    while True:
        raw = fh.read(_CHUNK_BYTES)
        eof = not raw
        raw, held = held + raw, b""
        if not eof and raw.endswith(b"\r"):  # it may be the first half of \r\n
            raw, held = raw[:-1], b"\r"
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        buf = carry + raw
        # carry holds no empty line, so the search starts at its last byte.
        cut = len(buf) if eof else buf.rfind(b"\n\n", max(len(carry) - 1, 0)) + 2
        if not eof and cut == 1:  # no empty line yet
            carry = buf
            continue
        chunk, carry = buf[:cut], buf[cut:]
        if chunk:
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            yield chunk
        if eof:
            return


def _digits(b: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field ``b[start:end]`` read as an int32, and whether it is 1 to
    ``_DIGITS`` ASCII digits (where it is not, the number means nothing)."""
    width = end - start
    ok = (width >= 1) & (width <= _DIGITS)
    value = np.zeros(len(start), np.int32)
    for k in range(min(int(width.max(initial=0)), _DIGITS)):  # the k-th digit from the right
        digit = b[np.maximum(end - 1 - k, 0)] - np.uint8(ord("0"))
        digit *= width > k
        ok &= digit <= 9
        value += digit * np.int32(10**k)
    return value, ok


def _hash(keys: list[np.ndarray]) -> np.ndarray:
    """One uint64 per string from its key words: equal keys hash equal."""
    hashed = keys[0]
    for key in keys[1:]:
        hashed = hashed * _MIX + key  # wraps modulo 2**64
    return hashed


def _intern(data: bytes, b: np.ndarray, start: np.ndarray, width: np.ndarray,
            vocab: LabelVocabulary) -> np.ndarray | None:
    """Vocabulary ids of the UTF-8 strings ``b[start:start+width]``, none
    longer than ``_KEY_BYTES``; the new ones are added in first-seen order.
    None, with the vocabulary untouched, if two different strings share a
    hash."""
    if not len(start):
        return np.empty(0, np.int32)
    # A key is the width, then the bytes as little-endian words, zeroed past
    # the end; the words are read through a view with a one-byte stride.
    padded = np.concatenate((b, np.zeros(_KEY_BYTES, np.uint8)))
    words = np.ndarray(len(b) + _KEY_BYTES - 7, "<u8", padded, strides=(1,))
    keys = [width.astype(np.uint64)] + [
        words[start + 8 * j] & _WORD_MASKS[j, width] for j in range(-(-int(width.max()) // 8))]
    distinct, group = np.unique(_hash(keys), return_inverse=True)
    first = np.full(len(distinct), len(start))  # return_index would need a stable sort
    np.minimum.at(first, group, np.arange(len(start)))
    # Each string must equal its group's first-seen one in every key word.
    leader = first[group]
    if any((key != key[leader]).any() for key in keys):
        return None
    ids = np.empty(len(first), np.int32)
    for g in np.argsort(first).tolist():
        s = int(start[first[g]])
        ids[g] = vocab.add(data[s:s + int(width[first[g]])].decode("utf-8"))
    return ids[group]


def _scan(data: bytes, vocab: LabelVocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """int32 labels, int32 parents and int64 node counts of the blocks of
    ``data``, newline-terminated lines, and its line count; or None if any
    block needs the per-line parser: for its error, or for a field the scan
    does not read."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1)) if len(ends) else ends
    lead = b[starts]  # an empty line's lead byte is its \n
    blank = starts == ends
    if _SPACE_LEAD[lead[~blank]].any():
        return None
    opens = ~blank
    opens[1:] &= blank[:-1]
    n_blocks = int(np.count_nonzero(opens))

    # Rows are the lines of blocks that are not comments.
    rows = np.flatnonzero(~blank & (lead != ord("#")))
    row_end = ends[rows]
    # Tab positions, then positions past the end, so tab k + 7 of a row exists.
    is_tab = np.empty(len(b) + _DEPREL_COL + 1, bool)
    np.equal(b, ord("\t"), out=is_tab[:len(b)])
    is_tab[len(b):] = True
    tabs = np.flatnonzero(is_tab)
    first_tab = np.searchsorted(tabs, starts[rows])
    if (tabs[first_tab + _DEPREL_COL - 1] >= row_end).any():  # a short row
        return None
    id_end = tabs[first_tab]
    ids, id_ok = _digits(b, starts[rows], id_end)
    # A row whose ID is not digits is skipped if the ID holds "-" or "." (a
    # range or an empty node).
    for s, e in zip(starts[rows[~id_ok]].tolist(), id_end[~id_ok].tolist()):
        if b"-" not in data[s:e] and b"." not in data[s:e]:
            return None
    rows, row_end, first_tab, ids = rows[id_ok], row_end[id_ok], first_tab[id_ok], ids[id_ok]
    heads, head_ok = _digits(b, tabs[first_tab + _HEAD_COL - 1] + 1, tabs[first_tab + _HEAD_COL])
    deprel_start = tabs[first_tab + _DEPREL_COL - 1] + 1
    deprel_width = np.minimum(tabs[first_tab + _DEPREL_COL], row_end) - deprel_start
    if not head_ok.all() or deprel_width.max(initial=0) > _KEY_BYTES:
        return None

    # The IDs of every block must be 1, 2, ..., n in order, so a token's
    # parent is HEAD - 1 (ROOT for HEAD 0), and a HEAD above n is out of range.
    block = (np.cumsum(opens) - 1)[rows]
    sizes = np.bincount(block, minlength=n_blocks)
    offsets = offsets_from_sizes(sizes)
    if (ids + offsets[block] != np.arange(1, len(ids) + 1)).any():
        return None
    parents = heads - 1
    labels = _intern(data, b, deprel_start, deprel_width, vocab)
    # This also refuses a block with no tokens or a root count other than
    # one, and a HEAD that names no token of its block.
    if labels is None or first_bad_tree(labels, parents, offsets, len(vocab)) is not None:
        return None
    return labels, parents, sizes, len(ends)


def _parse_lines(data: bytes, first_line: int, first_block: int,
                 vocab: LabelVocabulary) -> TreeColumns:
    """The blocks of ``data``, newline-terminated lines that start at line
    ``first_line`` and block ``first_block``, parsed one line at a time."""
    trees: list[DependencyTree] = []
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(data.split(b"\n")[:-1], first_line):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"line {lineno}: not UTF-8") from None
        if line.strip():
            block.append((lineno, line))
        elif block:
            trees.append(_parse_block(block, vocab, first_block + len(trees)))
            block = []
    if block:
        trees.append(_parse_block(block, vocab, first_block + len(trees)))
    return TreeColumns.from_trees(trees)


def load_conllu(path, vocab: LabelVocabulary) -> TreeColumns:
    """Parse a CoNLL-U file into tree columns, one tree per block, in file
    order.  Every error message starts with ``path``."""
    parts = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, np.int64))]
    try:
        with open(path, "rb") as fh:
            first_line, n_blocks = 1, 0
            for chunk in _chunks(fh):
                part = _scan(chunk, vocab)
                if part is None:
                    trees = _parse_lines(chunk, first_line, n_blocks, vocab)
                    part = trees.labels, trees.parents, np.diff(trees.offsets), chunk.count(b"\n")
                parts.append(part[:3])
                first_line += part[3]
                n_blocks += len(part[2])
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    labels, parents, sizes = (np.concatenate(column) for column in zip(*parts))
    return TreeColumns(labels, parents, offsets_from_sizes(sizes))


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

import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from scoi import conllu
from scoi.conllu import load_conllu, tree_to_conllu
from scoi.errors import DataError, MalformedTreeError
from scoi.treepoly import ROOT, DependencyTree, LabelVocabulary

from conftest import perfbench_gen, random_recursive_tree


def write(tmp_path, text):
    path = tmp_path / "sample.conllu"
    path.write_text(text, encoding="utf-8")
    return path


SIMPLE = """\
# sent_id = 1
1\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_
2\tthe\tthe\tDET\t_\t_\t1\tdet\t_\t_

"""


def test_two_token_block(tmp_path):
    vocab = LabelVocabulary()
    trees = load_conllu(write(tmp_path, SIMPLE), vocab)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.n == 2
    assert tree.root == 0
    assert vocab.labels[tree.labels[0]] == "root"
    assert vocab.labels[tree.labels[1]] == "det"
    assert tree.parents == [ROOT, 0]


def test_multiword_ranges_and_empty_nodes_skipped(tmp_path):
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
        "2\tel\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
    )
    # Empty-node lines carry underscore HEAD, which only parses because the
    # row is skipped before HEAD is read.
    vocab = LabelVocabulary()
    trees = load_conllu(write(tmp_path, text), vocab)
    assert trees[0].n == 2
    assert vocab.labels == ["case", "root"]


def test_double_root_names_lines(tmp_path):
    text = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "\n"
    )
    with pytest.raises(MalformedTreeError) as err:
        load_conllu(write(tmp_path, text), LabelVocabulary())
    assert "lines [1, 2]" in str(err.value)


def test_zero_roots_rejected(tmp_path):
    text = "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n\n"
    with pytest.raises(MalformedTreeError):
        load_conllu(write(tmp_path, text), LabelVocabulary())


def test_dangling_head_rejected(tmp_path):
    text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t9\tdep\t_\t_\n\n"
    with pytest.raises(MalformedTreeError) as err:
        load_conllu(write(tmp_path, text), LabelVocabulary())
    assert "HEAD 9" in str(err.value)


def test_duplicate_token_id_rejected_with_its_line(tmp_path):
    # Keeping either token 2 would attach token 3 to the wrong node.
    text = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t1\tnsubj\t_\t_\n"
        "2\tc\t_\t_\t_\t_\t1\tobj\t_\t_\n"
        "3\td\t_\t_\t_\t_\t2\tamod\t_\t_\n"
        "\n"
    )
    path = write(tmp_path, text)
    with pytest.raises(DataError) as err:
        load_conllu(path, LabelVocabulary())
    assert str(err.value) == f"{path}: line 3: duplicate token ID 2"


def test_short_row_rejected(tmp_path):
    text = "1\ta\t0\troot\n\n"
    with pytest.raises(DataError):
        load_conllu(write(tmp_path, text), LabelVocabulary())


def test_comments_and_trailing_blanks_tolerated(tmp_path):
    text = "# newdoc\n# text = hi\n" + "1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n\n\n\n"
    trees = load_conllu(write(tmp_path, text), LabelVocabulary())
    assert len(trees) == 1


def test_extra_columns_tolerated(tmp_path):
    text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\textra\tcolumns\n\n"
    trees = load_conllu(write(tmp_path, text), LabelVocabulary())
    assert trees[0].n == 1


def test_hundred_sentence_round_trip(tmp_path):
    rng = random.Random(13)
    vocab = LabelVocabulary(f"rel{i}" for i in range(7))
    originals = [random_recursive_tree(rng, rng.randint(1, 20), 7) for _ in range(100)]
    text = "".join(tree_to_conllu(t, vocab) + "\n" for t in originals)
    reloaded_vocab = LabelVocabulary()
    reloaded = load_conllu(write(tmp_path, text), reloaded_vocab)
    assert len(reloaded) == 100
    for orig, back in zip(originals, reloaded):
        assert back.parents == orig.parents
        assert [reloaded_vocab.labels[l] for l in back.labels] == [
            vocab.labels[l] for l in orig.labels
        ]
    # A second round trip is textually identical.
    text2 = "".join(tree_to_conllu(t, reloaded_vocab) + "\n" for t in reloaded)
    relabeled = load_conllu(write(tmp_path, text2), LabelVocabulary())
    assert [t.parents for t in relabeled] == [t.parents for t in originals]


# --- the columnar scan against the line parser it replaced ---------------------


def _oracle_blocks(fh):
    block = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\n")
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # surrogateescape turned a bad byte into a lone surrogate
            raise DataError(f"line {lineno}: not UTF-8") from None
        if not line.strip():
            if block:
                yield block
                block = []
            continue
        block.append((lineno, line))
    if block:
        yield block


def _oracle_parse_block(block, vocab, block_index):
    heads, label_ids, lines, position = [], [], [], {}
    for lineno, line in block:
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) <= 7:
            raise DataError(f"line {lineno}: expected at least 8 tab-separated columns")
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue
        try:
            tid = int(token_id)
            head = int(cols[6])
        except ValueError as exc:
            raise DataError(f"line {lineno}: non-integer ID or HEAD column") from exc
        if tid in position:
            raise DataError(f"line {lineno}: duplicate token ID {tid}")
        position[tid] = len(heads)
        heads.append(head)
        label_ids.append(vocab.add(cols[7]))
        lines.append(lineno)
    if not position:
        raise DataError(f"sentence block {block_index} has no syntactic tokens")
    root_lines = [lines[i] for i, h in enumerate(heads) if h == 0]
    if len(root_lines) != 1:
        raise MalformedTreeError(
            f"sentence block {block_index}: expected exactly one HEAD=0 token, "
            f"found {len(root_lines)} (lines {root_lines})"
        )
    parents = []
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


def oracle_load_conllu(path, vocab):
    """The line-by-line parser the columnar scan replaced, with the file name
    in front of every error and a located error for a line that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return [
                _oracle_parse_block(block, vocab, index)
                for index, block in enumerate(_oracle_blocks(fh))
            ]
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def outcome(load, path):
    """(labels, tree columns) of a parse, or (error type, message)."""
    vocab = LabelVocabulary()
    try:
        trees = load(path, vocab)
    except DataError as exc:
        return type(exc), str(exc)
    sizes = [len(t.labels) for t in trees]
    return vocab.labels, (
        [label for t in trees for label in t.labels],
        [parent for t in trees for parent in t.parents],
        [sum(sizes[:i]) for i in range(len(sizes) + 1)],
    )


def columns(path):
    """Like ``outcome``, but reads load_conllu's columns directly."""
    vocab = LabelVocabulary()
    try:
        cols = load_conllu(path, vocab)
    except DataError as exc:
        return type(exc), str(exc)
    assert (cols.labels.dtype, cols.parents.dtype, cols.offsets.dtype) == (
        np.int32, np.int32, np.int64)
    return vocab.labels, (cols.labels.tolist(), cols.parents.tolist(), cols.offsets.tolist())


DEPRELS = ("root", "nsubj", "obl:tmod", "compound:prt", "dislocated", "依存", "é", "",
           "nmod:poss:" + "x" * 60)
SEPARATORS = ("", " ", "\t" * 9, "　", "\x85", " \xa0\x0b")
FAULTS = ("short-row", "non-integer", "duplicate-id", "no-tokens", "zero-roots", "two-roots",
          "dangling-head", "cycle", "comment-only", "not-utf8")


SPELLINGS = ("{}", "000{}", "+{}", " {}", "{} ", "{:010d}")  # as ``int`` reads them


@st.composite
def conllu_blocks(draw):
    fault = draw(st.sampled_from(FAULTS + (None,) * 10))
    if fault == "comment-only":
        return ["# comment only"] * draw(st.integers(1, 2))
    if fault == "no-tokens":
        return ["1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_", "1.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_"]
    n = draw(st.integers(3 if fault == "cycle" else 1, 6))
    parents = [ROOT] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    if draw(st.booleans()):  # gaps between IDs
        ids = sorted(draw(st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True)))
    else:
        ids = list(range(1, n + 1))
    heads = [0 if p == ROOT else ids[p] for p in parents]
    if fault == "zero-roots":
        heads[0] = ids[-1] if n > 1 else ids[0]
    elif fault == "two-roots" and n > 1:
        heads[-1] = 0
    elif fault == "dangling-head":
        heads[-1] = 99
    elif fault == "cycle":
        heads[1], heads[2] = ids[2], ids[1]
    # Most blocks spell every number plainly, so the scan vouches for them.
    spellings = st.sampled_from(SPELLINGS if draw(st.integers(0, 3)) == 3 else SPELLINGS[:1])
    rows = []
    for i in range(n):
        cols = [draw(spellings).format(ids[i]), "w", "_", "_", "_", "_",
                draw(spellings).format(heads[i]), draw(st.sampled_from(DEPRELS)), "_", "_"]
        cols += ["extra"] * draw(st.integers(0, 2)) if draw(st.booleans()) else []
        rows.append(cols)
    if fault == "short-row":
        rows[-1] = rows[-1][:draw(st.integers(1, 7))]
    elif fault == "non-integer":
        rows[-1][draw(st.sampled_from((0, 6)))] = draw(st.sampled_from(("_", "x", "", "1e3")))
    elif fault == "duplicate-id" and n > 1:
        rows[-1][0] = rows[0][0]
    elif fault == "not-utf8":
        rows[-1][1] = "bad\udcff"  # written as the byte 0xff
    lines = ["\t".join(cols) for cols in draw(st.permutations(rows))]
    for extra in draw(st.lists(st.sampled_from(
            ("# sent_id = x", "#", "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
             "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_")), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


@st.composite
def conllu_files(draw) -> bytes:
    lines = [draw(st.sampled_from(SEPARATORS)) for _ in range(draw(st.integers(0, 2)))]
    for block in draw(st.lists(conllu_blocks(), max_size=5)):
        lines += block
        lines += [draw(st.sampled_from(SEPARATORS)) for _ in range(draw(st.integers(1, 3)))]
    if lines and draw(st.booleans()):  # no trailing blank line, or none at all
        while lines and not lines[-1].strip():
            lines.pop()
    ends = draw(st.sampled_from(("\n", "\r\n", "\r", "mixed")))
    text = "".join(
        line + (draw(st.sampled_from(("\n", "\r\n", "\r"))) if ends == "mixed" else ends)
        for line in lines
    )
    if text and draw(st.booleans()):
        text = text[:-1] if not text.endswith("\r\n") else text[:-2]
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(conllu_files(), st.sampled_from((1, 7, 64, conllu._CHUNK_BYTES)))
def test_scan_matches_the_line_parser(tmp_path_factory, data, chunk_bytes):
    path = tmp_path_factory.mktemp("conllu") / "sample.conllu"
    path.write_bytes(data)
    expected = outcome(oracle_load_conllu, path)
    with mock.patch.object(conllu, "_CHUNK_BYTES", chunk_bytes):
        assert columns(path) == expected
        assert outcome(load_conllu, path) == expected


def test_odd_but_valid_fields_take_the_per_line_path(tmp_path):
    text = (
        "+2\ta\t_\t_\t_\t_\t 0\troot\t_\t_\n"
        "0001\tb\t_\t_\t_\t_\t+2\tdet\t_\t_\n"
        "\t \n"
        "1\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
    )
    vocab = LabelVocabulary()
    trees = load_conllu(write(tmp_path, text), vocab)
    assert [t.parents for t in trees] == [[ROOT, 0], [ROOT]]
    assert vocab.labels == ["root", "det"]


def test_line_endings_are_translated_as_text_mode_does(tmp_path):
    lf = SIMPLE + "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
    expected = outcome(load_conllu, write(tmp_path, lf))
    for ending in ("\r\n", "\r"):
        path = tmp_path / "other.conllu"
        path.write_bytes(lf.replace("\n", ending).encode("utf-8"))
        assert outcome(load_conllu, path) == expected


def test_every_error_names_the_file(tmp_path):
    path = write(tmp_path, "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t9\tdep\t_\t_\n\n")
    with pytest.raises(MalformedTreeError) as err:
        load_conllu(path, LabelVocabulary())
    assert str(err.value) == (
        f"{path}: sentence block 0, line 2: HEAD 9 does not name a token in the block"
    )


def test_not_utf8_is_located_after_the_blocks_before_it(tmp_path):
    path = tmp_path / "bad.conllu"
    good = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
    path.write_bytes((good + "# x\n").encode() + b"1\t\xff\t_\t_\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(DataError) as err:
        load_conllu(path, LabelVocabulary())
    assert str(err.value) == f"{path}: line 4: not UTF-8"
    # An error in an earlier block comes first.
    path.write_bytes(b"1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
                     b"1\t\xff\t_\t_\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(MalformedTreeError, match="sentence block 0: expected exactly one HEAD=0"):
        load_conllu(path, LabelVocabulary())


def test_space_lead_bytes_cover_every_whitespace_character():
    leads = {chr(c).encode("utf-8")[0] for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert leads == set(np.flatnonzero(conllu._SPACE_LEAD).tolist())


def features_file(tmp_path, n=60, seed=3):
    """A valid file using every feature the scan reads: comments, ranges, empty
    nodes, extra columns, gaps and odd spellings in IDs, long and multibyte
    DEPRELs, CRLF ends and whitespace-only separators."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(n):
        tree = random_recursive_tree(rng, rng.randint(1, 12), len(DEPRELS))
        ids = sorted(rng.sample(range(1, 40), tree.n))
        rows = [
            f"{ids[i]}\tw\t_\t_\t_\t_\t{0 if p == ROOT else ids[p]}\t{DEPRELS[tree.labels[i]]}\t_\t_"
            for i, p in enumerate(tree.parents)
        ]
        rows.insert(0, "# sent_id = s")
        rows.insert(rng.randint(1, len(rows)), "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_")
        if rng.random() < 0.2:  # a signed HEAD and an extra column
            cols = rows[-1].split("\t")
            cols[6] = "+" + cols[6]
            rows[-1] = "\t".join(cols + ["extra"])
        blocks.append("\r\n".join(rows) + rng.choice(("\r\n\r\n", "\n \n", "\n\n\n")))
    path = tmp_path / "features.conllu"
    path.write_bytes("".join(blocks).encode("utf-8"))
    return path


@pytest.mark.parametrize("chunk_bytes", [1, 7, 64])
def test_chunk_size_does_not_change_the_output(tmp_path, chunk_bytes):
    path = features_file(tmp_path)
    expected = columns(path)
    assert len(expected[1][2]) == 61
    with mock.patch.object(conllu, "_CHUNK_BYTES", chunk_bytes):
        assert columns(path) == expected
    assert outcome(oracle_load_conllu, path) == expected


def test_parse_peak_memory_is_bounded_by_the_chunk(tmp_path):
    # A scan of the whole 8 MiB file at once peaks near 90 MiB under
    # tracemalloc; 1 MiB chunks keep the parse near 15 MiB, most of it
    # the chunk's own arrays.
    rng = random.Random(5)
    rows = [f"{i}\tw\t_\t_\t_\t_\t{0 if i == 1 else rng.randint(1, i - 1)}\t{rng.choice(DEPRELS[:5])}\t_\t_\n"
            for i in range(1, 31)]
    block = "".join(rows) + "\n"
    path = tmp_path / "large.conllu"
    path.write_text(block * (8 * 2**20 // len(block) + 1), encoding="utf-8")
    assert path.stat().st_size >= 8 * 2**20
    tracemalloc.start()
    try:
        trees = load_conllu(path, LabelVocabulary())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trees) == path.stat().st_size // len(block)
    assert peak < 32 * 2**20


def test_canonical_input_never_takes_the_per_line_path(tmp_path):
    gen = perfbench_gen()
    demo = Path(__file__).resolve().parent.parent / "data" / "demo"
    paths = [demo / "corpus.conllu", demo / "test.conllu"]
    for seed, (low, high) in enumerate([(8, 40), (40, 130)]):
        spec = gen.CorpusSpec(pairs=200, min_tokens=low, max_tokens=high,
                              tests=20, test_min_tokens=low, test_max_tokens=high)
        written = gen.generate(spec, seed, tmp_path / str(seed))
        paths += [written["corpus.conllu"], written["test.conllu"]]
    with mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        for path in paths:
            assert len(load_conllu(path, LabelVocabulary())) >= 8
    assert spy.call_count == 0
    # The same spy does see odd but valid input.
    with mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        test_odd_but_valid_fields_take_the_per_line_path(tmp_path)
    assert spy.call_count == 1


def _block(ids, heads, deprels):
    return "".join(f"{i}\tw\t_\t_\t_\t_\t{h}\t{d}\t_\t_\n" for i, h, d in zip(ids, heads, deprels)) + "\n"


@pytest.mark.parametrize("ids, heads", [
    ((1, 2, 4), (0, 1, 2)),     # a gap
    ((2, 1, 3), (0, 2, 1)),     # out of order
    ((1, 3, 2), (0, 1, 1)),     # out of order, each HEAD naming a token
    ((5, 6, 7), (0, 5, 6)),     # not starting at 1
])
def test_ids_that_are_not_1_to_n_in_order_take_the_per_line_path(tmp_path, ids, heads):
    path = write(tmp_path, _block((1, 2), (0, 1), ("root", "det"))
                 + _block(ids, heads, ("root", "nsubj", "obj")))
    expected = outcome(oracle_load_conllu, path)
    assert not isinstance(expected[0], type)  # a valid file
    with mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        assert columns(path) == expected
    assert spy.call_count == 1


def test_a_hash_collision_takes_the_per_line_path(tmp_path):
    rng = random.Random(8)
    labels = DEPRELS[:-1]  # the last one is longer than a key
    vocab = LabelVocabulary(labels)
    trees = [random_recursive_tree(rng, rng.randint(1, 12), len(labels)) for _ in range(40)]
    path = write(tmp_path, "".join(tree_to_conllu(t, vocab) + "\n" for t in trees))
    with mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        expected = columns(path)
    assert spy.call_count == 0
    assert len(expected[0]) == len(labels)  # every label shares the forced hash
    constant = lambda keys: np.zeros(len(keys[0]), np.uint64)  # noqa: E731
    with mock.patch.object(conllu, "_hash", constant), \
         mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        assert columns(path) == expected
    assert spy.call_count == 1


def test_labels_sharing_their_first_word_intern_apart(tmp_path):
    # The two labels agree in their first 8 bytes and in their width.
    path = write(tmp_path, _block((1, 2, 3), (0, 1, 1), ("root", "compound:prt", "compound:svc"))
                 + _block((1, 2), (0, 1), ("compound:svc", "compound:prt")))
    vocab = LabelVocabulary()
    with mock.patch.object(conllu, "_parse_lines", wraps=conllu._parse_lines) as spy:
        cols = load_conllu(path, vocab)
    assert spy.call_count == 0
    assert vocab.labels == ["root", "compound:prt", "compound:svc"]
    assert cols.labels.tolist() == [0, 1, 2, 2, 1]
    assert outcome(load_conllu, path) == outcome(oracle_load_conllu, path)

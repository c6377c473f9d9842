import io
import random
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from scoi.conllu import load_conllu, tree_to_conllu
from scoi.corpus import (
    _SEGMENTS,
    ExampleRecord,
    _read_text,
    _tokenize_lines,
    apply_polynomial_cache,
    attach_polynomials,
    corpus_columns,
    filter_by_length,
    load_parallel_corpus,
    load_test_inputs,
    read_corpus_cache,
    write_corpus_cache,
)
from scoi.errors import AlignmentError, DataError
from scoi.tokenizer import apply_token_flags, tokenize
from scoi.treepoly import DependencyTree, LabelVocabulary, simplified_polynomial

from conftest import random_recursive_tree, write_poly_items


def records_of(columns):
    """Every row of ingested columns as a record, with its tree."""
    return [columns.record(row) for row in range(len(columns.ids))]


def build_corpus_files(tmp_path, n=12, seed=0, long_source_at=None):
    rng = random.Random(seed)
    vocab = LabelVocabulary(f"rel{i}" for i in range(5))
    words = ["sun", "moon", "star", "wind", "rain", "tree"]
    sources, targets, blocks = [], [], []
    for i in range(n):
        if long_source_at is not None and i in long_source_at:
            tokens = [rng.choice(words) for _ in range(130)]
            tree = random_recursive_tree(rng, 130, 5)
        else:
            tokens = [rng.choice(words) for _ in range(rng.randint(2, 6))]
            tree = random_recursive_tree(rng, len(tokens), 5)
        sources.append(" ".join(tokens))
        targets.append(" ".join(reversed(tokens)))
        blocks.append(tree_to_conllu(tree, vocab))
    src = tmp_path / "corpus.src"
    tgt = tmp_path / "corpus.tgt"
    conllu = tmp_path / "corpus.conllu"
    src.write_text("\n".join(sources) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(targets) + "\n", encoding="utf-8")
    conllu.write_text("\n".join(blocks), encoding="utf-8")
    return src, tgt, conllu


class TestLoadParallelCorpus:
    def test_alignment_and_ids(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=8)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        assert [r.id for r in records] == list(range(8))
        assert all(r.tree is not None for r in records)
        assert all(r.tokens.total == len(r.token_list) for r in records)

    def test_count_mismatch_is_hard_error(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=5)
        tgt.write_text("only one line\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            load_parallel_corpus(src, tgt, conllu, LabelVocabulary())

    def test_test_inputs_have_no_target(self, tmp_path):
        src, _, conllu = build_corpus_files(tmp_path, n=4)
        records = records_of(load_test_inputs(src, conllu, LabelVocabulary()))
        assert all(r.target == "" for r in records)


VOCAB = LabelVocabulary(["root"])


class TestFilterByLength:
    def test_boundary_is_strictly_more_than(self):
        def fake(n_tokens, rid):
            tokens = tuple(f"t{i}" for i in range(n_tokens))
            from scoi.coverage import TokenBag

            return ExampleRecord(rid, " ".join(tokens), "", tokens, TokenBag.from_tokens(tokens),
                                 tree=DependencyTree([0], [-1]))

        columns = corpus_columns([fake(121, 0), fake(120, 1), fake(3, 2)], VOCAB)
        kept, removed = filter_by_length(columns, 120)
        assert [r.id for r in records_of(kept)] == [1, 2]
        assert removed == 1

    def test_empty_corpus_passthrough(self):
        kept, removed = filter_by_length(corpus_columns([], VOCAB), 120)
        assert records_of(kept) == [] and removed == 0

    def test_ids_survive_filtering(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10, long_source_at={3, 7})
        vocab = LabelVocabulary()
        columns = load_parallel_corpus(src, tgt, conllu, vocab)
        kept, removed = filter_by_length(columns, 120)
        assert removed == 2
        assert [r.id for r in records_of(kept)] == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_target_side_flag(self, tmp_path):
        from scoi.coverage import TokenBag

        tokens = ("a", "b")
        record = ExampleRecord(
            0, "a b", " ".join(["x"] * 125), tokens, TokenBag.from_tokens(tokens),
            tree=DependencyTree([0, 0], [-1, 0]),
        )
        columns = corpus_columns([record], VOCAB)
        kept, removed = filter_by_length(columns, 120, count_target=True)
        assert records_of(kept) == [] and removed == 1
        kept, removed = filter_by_length(columns, 120, count_target=False)
        assert len(records_of(kept)) == 1


    @pytest.mark.parametrize("target", ["", " \u3000\t"], ids=["empty", "whitespace"])
    def test_target_without_chunks_counts_zero_tokens(self, tmp_path, target):
        src, tgt, conllu = build_corpus_files(tmp_path, n=3)
        lines = tgt.read_text(encoding="utf-8").split("\n")
        lines[1] = target
        tgt.write_text("\n".join(lines), encoding="utf-8")
        columns = load_parallel_corpus(src, tgt, conllu, LabelVocabulary())
        kept, removed = filter_by_length(columns, 120, count_target=True)
        assert removed == 0
        assert [r.target for r in records_of(kept)] == [r.target for r in records_of(columns)]
        assert records_of(kept)[1].target == target


class TestTokenFlags:
    def test_fold_case_lowers_lexical_side_only(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_text("The Cat SAT .\n", encoding="utf-8")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\n", encoding="utf-8")
        conllu = tmp_path / "c.conllu"
        conllu.write_text(
            "1\tThe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
            "2\tCat\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
            "3\tSAT\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "4\t.\t_\t_\t_\t_\t3\tpunct\t_\t_\n\n",
            encoding="utf-8",
        )
        records = records_of(
            load_parallel_corpus(src, tgt, conllu, LabelVocabulary(), fold_case=True)
        )
        assert records[0].token_list == ("the", "cat", "sat", ".")
        assert records[0].source == "The Cat SAT ."

    def test_strip_punctuation_drops_punct_tokens(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_text("Hello , world .\n", encoding="utf-8")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\n", encoding="utf-8")
        conllu = tmp_path / "c.conllu"
        conllu.write_text("1\tHello\t_\t_\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        records = records_of(load_parallel_corpus(
            src, tgt, conllu, LabelVocabulary(), strip_punctuation=True
        ))
        assert records[0].token_list == ("Hello", "world")

    def test_all_punctuation_record_rejected_under_strip(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_text("...\n", encoding="utf-8")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\n", encoding="utf-8")
        conllu = tmp_path / "c.conllu"
        conllu.write_text("1\t.\t_\t_\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_parallel_corpus(src, tgt, conllu, LabelVocabulary(), strip_punctuation=True)
        assert str(err.value) == f"{src}: line 1: no tokens left after token flags"


class TestCorpusCache:
    def test_round_trip(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        records[3].target = "naïve ✓ 😀"
        path = tmp_path / "corpus.bin"
        write_corpus_cache(path, corpus_columns(records, vocab))
        loaded_vocab, loaded, _ = read_corpus_cache(path)
        assert loaded_vocab == vocab
        assert [(r.id, r.source, r.target, r.token_list) for r in loaded] == [
            (r.id, r.source, r.target, r.token_list) for r in records
        ]
        assert [r.tokens for r in loaded] == [r.tokens for r in records]
        assert [(r.tree.labels, r.tree.parents) for r in loaded] == [
            (r.tree.labels, r.tree.parents) for r in records
        ]
        assert all(r.poly is None for r in loaded)

    def test_two_ingests_are_byte_identical(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for path in (a, b):
            vocab = LabelVocabulary()
            write_corpus_cache(path, load_parallel_corpus(src, tgt, conllu, vocab))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_text('{"format":"other","version":1,"labels":[]}\n', encoding="utf-8")
        with pytest.raises(DataError):
            read_corpus_cache(path)

    def test_rejects_version_1(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"format":"scoi-corpus","version":1,"tokenizer_version":1,"labels":[]}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="unsupported corpus cache version 1"):
            read_corpus_cache(path)

    def test_record_cut_inside_a_character_is_not_utf8(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=3)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        records[0].target, records[1].target = "é", "è"
        path = tmp_path / "corpus.bin"
        write_corpus_cache(path, corpus_columns(records, vocab))
        fh = io.BytesIO(path.read_bytes())
        header = fh.readline()
        segments = {name: np.load(fh) for name in _SEGMENTS}
        assert segments["target_offsets"][1] == 2
        segments["target_offsets"][1] = 1  # record 1 now starts on a continuation byte
        with open(path, "wb") as out:
            out.write(header)
            for array in segments.values():
                np.save(out, array)
        with pytest.raises(DataError, match=r"record 0: target is not UTF-8"):
            read_corpus_cache(path)


class TestPolynomials:
    def test_attach_matches_direct_computation(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        attach_polynomials(records, vocab)
        for record in records:
            assert record.poly == simplified_polynomial(record.tree, vocab)

    def test_cache_fidelity(self, tmp_path):
        from scoi.treepoly import read_polynomial_cache

        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        attach_polynomials(records, vocab)
        path = tmp_path / "poly.bin"
        write_poly_items(path, ((r.id, r.poly) for r in records), vocab)
        _, items = read_polynomial_cache(path)

        fresh = records_of(load_parallel_corpus(src, tgt, conllu, LabelVocabulary()))
        apply_polynomial_cache(fresh, items)
        for record in fresh:
            assert record.poly == simplified_polynomial(record.tree, vocab)

    def test_missing_cache_entry_rejected(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=3)
        vocab = LabelVocabulary()
        records = records_of(load_parallel_corpus(src, tgt, conllu, vocab))
        with pytest.raises(DataError):
            apply_polynomial_cache(records, [])


# --- columnar ingest against per-line records ---------------------------------

_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\u0085", "\u00a0", "\u2003", "\u2028", "\u3000"]
# Letters whose case folds to another length, a combining mark, digits, CJK,
# and punctuation, which tokenize peels off the ends of a chunk.
_CHARS = list("abAB\u00e9\u00df\u0130\u03a3\u0301\u4e2d3") + list(".,!\u00bf\u2014\u00ab\u00bb'-")
_chunk = st.text(st.sampled_from(_CHARS), min_size=1, max_size=5)
_piece = st.one_of(_chunk, st.sampled_from(_SPACES))
_target_line = st.lists(_piece, max_size=8).map("".join)
_source_line = _target_line.filter(str.split)


def _read_lines_oracle(data: bytes) -> list[str]:
    """Lines as text mode splits them, the way ingest read files before columns."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _records_oracle(path, sources, targets, trees, fold_case, strip_punctuation):
    """One record per line, each tokenized whole."""
    records = []
    for i, (source, target) in enumerate(zip(sources, targets)):
        if not source.split():
            raise DataError(f"{path}: line {i + 1}: no tokens")
        tokens = apply_token_flags(tokenize(source), fold_case, strip_punctuation)
        if not tokens:
            raise DataError(f"{path}: line {i + 1}: no tokens left after token flags")
        records.append(ExampleRecord(i, source, target, tuple(tokens), tree=trees[i]))
    return records


def _outcome(write):
    try:
        return write()
    except DataError as exc:
        return type(exc).__name__, str(exc)


class TestColumnarIngest:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
        fold_case=st.booleans(),
        strip_punctuation=st.booleans(),
        max_tokens=st.integers(1, 12),
        count_target=st.booleans(),
        final_break=st.booleans(),
    )
    def test_cache_bytes_equal_per_line_records(
        self, tmp_path_factory, n, data, fold_case, strip_punctuation, max_tokens, count_target,
        final_break,
    ):
        sources = data.draw(st.lists(_source_line, min_size=n, max_size=n))
        targets = data.draw(st.lists(_target_line, min_size=n, max_size=n))
        blank = data.draw(st.none() | st.integers(0, n - 1))
        if blank is not None:
            sources[blank] = data.draw(st.text(st.sampled_from(_SPACES), max_size=3))
        endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=n, max_size=n))
        tmp = tmp_path_factory.mktemp("ingest")
        src, tgt, conllu = tmp / "c.src", tmp / "c.tgt", tmp / "c.conllu"
        for path, lines in ((src, sources), (tgt, targets)):
            text = "".join(map(str.__add__, lines, endings))
            if not final_break:
                text = text[:-len(endings[-1])]
            path.write_bytes(text.encode("utf-8"))
        conllu.write_text("1\tw\t_\t_\t_\t_\t0\troot\t_\t_\n\n" * n, encoding="utf-8")
        flags = fold_case, strip_punctuation

        def columnar(cache, test_cache):
            vocab = LabelVocabulary()
            columns = load_parallel_corpus(src, tgt, conllu, vocab, *flags)
            kept, removed = filter_by_length(columns, max_tokens, count_target)
            write_corpus_cache(cache, kept)
            write_corpus_cache(test_cache, load_test_inputs(src, conllu, vocab, *flags))
            return removed

        def per_line(cache, test_cache):
            vocab = LabelVocabulary()
            trees = load_conllu(conllu, vocab)
            lines = _read_lines_oracle(src.read_bytes()), _read_lines_oracle(tgt.read_bytes())
            if not len(lines[0]) == len(lines[1]) == len(trees):
                raise AlignmentError(
                    f"corpus misaligned: {len(lines[0])} source lines, {len(lines[1])} "
                    f"target lines, {len(trees)} parsed sentences"
                )
            records = _records_oracle(src, *lines, trees, *flags)
            kept = [
                r for r in records
                if len(r.token_list) <= max_tokens
                and not (count_target and r.target.split() and len(tokenize(r.target)) > max_tokens)
            ]
            write_corpus_cache(cache, corpus_columns(kept, vocab))
            tests = _records_oracle(src, lines[0], [""] * len(lines[0]), trees, *flags)
            write_corpus_cache(test_cache, corpus_columns(tests, vocab))
            return len(records) - len(kept)

        got = _outcome(lambda: columnar(tmp / "a.bin", tmp / "a-test.bin"))
        want = _outcome(lambda: per_line(tmp / "b.bin", tmp / "b-test.bin"))
        assert got == want
        if isinstance(want, int):
            assert (tmp / "a.bin").read_bytes() == (tmp / "b.bin").read_bytes()
            assert (tmp / "a-test.bin").read_bytes() == (tmp / "b-test.bin").read_bytes()


def test_tokenize_peak_memory_per_chunk_occurrence(tmp_path):
    # 200,000 chunk occurrences, one in ten a chunk of two or three tokens.
    # Expanding every occurrence through int64 offsets peaked near 52 bytes
    # per occurrence under tracemalloc; int32 occurrence arrays that expand
    # only the multi-token chunks stay near 32.
    rng = random.Random(3)
    words = [f"w{i}" for i in range(3000)]
    forms = ["{}"] * 18 + ["{},", "\u00ab{}\u00bb"]
    n_lines, per_line = 20_000, 10
    path = tmp_path / "large.src"
    path.write_text("".join(
        " ".join(rng.choice(forms).format(rng.choice(words)) for _ in range(per_line)) + "\n"
        for _ in range(n_lines)
    ), encoding="utf-8")
    text = _read_text(path)
    tracemalloc.start()
    try:
        tokens = _tokenize_lines(path, text, False, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tokens.offsets) == n_lines + 1
    assert len(tokens.token_ids) > n_lines * per_line
    assert tokens.offsets.dtype == np.int64 and tokens.token_ids.dtype == np.int32
    assert peak < 40 * n_lines * per_line

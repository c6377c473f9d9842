import io
import random

import numpy as np
import pytest

from scoi.conllu import tree_to_conllu
from scoi.corpus import (
    _SEGMENTS,
    ExampleRecord,
    apply_polynomial_cache,
    attach_polynomials,
    filter_by_length,
    load_parallel_corpus,
    load_test_inputs,
    read_corpus_cache,
    write_corpus_cache,
)
from scoi.errors import AlignmentError, DataError
from scoi.treepoly import LabelVocabulary, simplified_polynomial

from conftest import random_recursive_tree, write_poly_items


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
        records = load_parallel_corpus(src, tgt, conllu, vocab)
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
        records = load_test_inputs(src, conllu, LabelVocabulary())
        assert all(r.target == "" for r in records)


class TestFilterByLength:
    def test_boundary_is_strictly_more_than(self):
        def fake(n_tokens, rid):
            tokens = tuple(f"t{i}" for i in range(n_tokens))
            from scoi.coverage import TokenBag

            return ExampleRecord(rid, " ".join(tokens), "", tokens, TokenBag.from_tokens(tokens))

        kept, removed = filter_by_length([fake(121, 0), fake(120, 1), fake(3, 2)], 120)
        assert [r.id for r in kept] == [1, 2]
        assert removed == 1

    def test_empty_corpus_passthrough(self):
        kept, removed = filter_by_length([], 120)
        assert kept == [] and removed == 0

    def test_ids_survive_filtering(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10, long_source_at={3, 7})
        vocab = LabelVocabulary()
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        kept, removed = filter_by_length(records, 120)
        assert removed == 2
        assert [r.id for r in kept] == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_target_side_flag(self, tmp_path):
        from scoi.coverage import TokenBag

        tokens = ("a", "b")
        record = ExampleRecord(0, "a b", " ".join(["x"] * 125), tokens, TokenBag.from_tokens(tokens))
        kept, removed = filter_by_length([record], 120, count_target=True)
        assert kept == [] and removed == 1
        kept, removed = filter_by_length([record], 120, count_target=False)
        assert len(kept) == 1


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
        records = load_parallel_corpus(src, tgt, conllu, LabelVocabulary(), fold_case=True)
        assert records[0].token_list == ("the", "cat", "sat", ".")
        assert records[0].source == "The Cat SAT ."

    def test_strip_punctuation_drops_punct_tokens(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_text("Hello , world .\n", encoding="utf-8")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\n", encoding="utf-8")
        conllu = tmp_path / "c.conllu"
        conllu.write_text("1\tHello\t_\t_\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        records = load_parallel_corpus(
            src, tgt, conllu, LabelVocabulary(), strip_punctuation=True
        )
        assert records[0].token_list == ("Hello", "world")

    def test_all_punctuation_record_rejected_under_strip(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_text("...\n", encoding="utf-8")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\n", encoding="utf-8")
        conllu = tmp_path / "c.conllu"
        conllu.write_text("1\t.\t_\t_\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_parallel_corpus(src, tgt, conllu, LabelVocabulary(), strip_punctuation=True)


class TestCorpusCache:
    def test_round_trip(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        vocab = LabelVocabulary()
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        records[3].target = "naïve ✓ 😀"
        path = tmp_path / "corpus.bin"
        write_corpus_cache(path, records, vocab)
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
            records = load_parallel_corpus(src, tgt, conllu, vocab)
            write_corpus_cache(path, records, vocab)
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
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        records[0].target, records[1].target = "é", "è"
        path = tmp_path / "corpus.bin"
        write_corpus_cache(path, records, vocab)
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
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        attach_polynomials(records, vocab)
        for record in records:
            assert record.poly == simplified_polynomial(record.tree, vocab)

    def test_cache_fidelity(self, tmp_path):
        from scoi.treepoly import read_polynomial_cache

        src, tgt, conllu = build_corpus_files(tmp_path, n=10)
        vocab = LabelVocabulary()
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        attach_polynomials(records, vocab)
        path = tmp_path / "poly.bin"
        write_poly_items(path, ((r.id, r.poly) for r in records), vocab)
        _, items = read_polynomial_cache(path)

        fresh = load_parallel_corpus(src, tgt, conllu, LabelVocabulary())
        apply_polynomial_cache(fresh, items)
        for record in fresh:
            assert record.poly == simplified_polynomial(record.tree, vocab)

    def test_missing_cache_entry_rejected(self, tmp_path):
        src, tgt, conllu = build_corpus_files(tmp_path, n=3)
        vocab = LabelVocabulary()
        records = load_parallel_corpus(src, tgt, conllu, vocab)
        with pytest.raises(DataError):
            apply_polynomial_cache(records, [])

import random

import pytest

from scoi.conllu import load_conllu, tree_to_conllu
from scoi.errors import DataError, MalformedTreeError
from scoi.treepoly import ROOT, LabelVocabulary

from conftest import random_recursive_tree


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
    with pytest.raises(DataError) as err:
        load_conllu(write(tmp_path, text), LabelVocabulary())
    assert str(err.value) == "line 3: duplicate token ID 2"


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

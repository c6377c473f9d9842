from pathlib import Path

import pytest

from scoi.prompts import PromptTemplate, render_prompt

FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLES = [
    ("Der Hund schläft.", "The dog sleeps."),
    ("Die Katze rennt.", "The cat runs."),
    ("Ich sehe den Fluss.", "I see the river."),
    ("Wir lesen ein Buch.", "We read a book."),
]
TEST_SOURCE = "Der Vogel singt."


def test_delimiter_single_example():
    template = PromptTemplate("delimiter", "German", "English")
    rendered = render_prompt(template, EXAMPLES[:1], TEST_SOURCE)
    assert rendered == (
        "German sentence: Der Hund schläft.\n"
        "English sentence: The dog sleeps.\n"
        "###\n"
        "German sentence: Der Vogel singt.\n"
        "English sentence:"
    )


def test_delimiter_zero_shot():
    template = PromptTemplate("delimiter", "German", "English")
    rendered = render_prompt(template, [], TEST_SOURCE)
    assert rendered == "German sentence: Der Vogel singt.\nEnglish sentence:"


def test_delimiter_four_shot_matches_golden_fixture(tmp_path):
    template = PromptTemplate("delimiter", "German", "English")
    rendered = render_prompt(template, EXAMPLES, TEST_SOURCE, expected_count=4)
    golden = (FIXTURES / "prompt_delimiter_k4.txt").read_text(encoding="utf-8")
    assert rendered == golden


def test_instruction_four_shot_matches_golden_fixture():
    template = PromptTemplate("instruction", "German", "English")
    rendered = render_prompt(template, EXAMPLES, TEST_SOURCE, expected_count=4)
    golden = (FIXTURES / "prompt_instruction_k4.txt").read_text(encoding="utf-8")
    assert rendered == golden


def test_instruction_header_shape():
    template = PromptTemplate("instruction", "French", "English")
    rendered = render_prompt(template, EXAMPLES[:1], "Le chat dort.")
    assert rendered.startswith("Instruction: Translate the following French text into English.\n\n")
    assert rendered.endswith("French: Le chat dort.\nEnglish:")


def test_mismatched_count_rejected():
    template = PromptTemplate("delimiter", "German", "English")
    with pytest.raises(ValueError):
        render_prompt(template, EXAMPLES[:2], TEST_SOURCE, expected_count=4)


def test_unknown_style_rejected():
    with pytest.raises(ValueError):
        PromptTemplate("markdown", "a", "b")


def test_rendering_is_pure():
    template = PromptTemplate("delimiter", "German", "English")
    a = render_prompt(template, EXAMPLES, TEST_SOURCE)
    b = render_prompt(template, EXAMPLES, TEST_SOURCE)
    assert a == b

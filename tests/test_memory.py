"""Memory budgets of an in-process ``scoi build`` and ``scoi select``.

A process's peak RSS moves by MiBs with heap layout and path lengths, so it
cannot hold a memory gain.  ``tracemalloc`` counts numpy's buffers too, and
on a fixed corpus its peaks repeat to within a few kB once a warm-up run has
loaded every module and a garbage collection has run.  Each peak below must
stay within its budget plus ``MARGIN``.  A change that lowers a peak may lower
its budget; raising one is a bound change, stated with its reason.

On a small corpus the CoNLL-U scan, whose arrays are as long as one read
chunk, sets the build's peak, so the corpus tokenization has a budget of its
own: its peak above the memory in use when it starts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import tracemalloc

import pytest

import scoi.corpus
from scoi.cli import main
from scoi.config import INPUT_KEYS

from conftest import perfbench_gen

# Traced peaks in bytes on the corpus below, with CPython 3.11.7 and numpy
# 2.4.6, measured on the change that made the polynomial cache a shared term
# table (cache version 3, on top of a4ebd50).  There, keeping every record's
# rows as one dense matrix, as version 2 did, took select to 6.77 MB, and an
# int64 copy of the chunk occurrences in corpus._expand_chunks took the
# tokenization to 2.39 MB.
BUDGETS = {"build": 13_366_000, "tokenize": 1_871_000, "select": 5_584_000}
MARGIN = 0.02


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    gen = perfbench_gen()
    inputs = tmp_path_factory.mktemp("memory-budget")
    spec = gen.CorpusSpec(pairs=2_000, min_tokens=8, max_tokens=40,
                          tests=20, test_min_tokens=8, test_max_tokens=40)
    gen.generate(spec, 3, inputs)
    path = inputs / "run.cfg"
    path.write_text("".join(f"{key} = {inputs / name}\n" for key, name in zip(
        INPUT_KEYS, ("corpus.src", "corpus.tgt", "corpus.conllu", "test.src", "test.conllu")
    )) + "strategy = all\n", encoding="utf-8")
    return path


def traced_peaks(config, out, monkeypatch) -> dict[str, int]:
    """The traced peaks of a cold build into ``out``, of the corpus
    tokenization inside it, and of a select."""
    peaks = {"tokenize": 0}
    # reset_peak() clears the build's peak so far; keep it here.
    outer = []
    tokenize = scoi.corpus._tokenize_lines

    def traced_tokenize(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        outer.append(peak)
        tracemalloc.reset_peak()
        try:
            return tokenize(*args, **kwargs)
        finally:
            peaks["tokenize"] = max(peaks["tokenize"], tracemalloc.get_traced_memory()[1] - current)

    monkeypatch.setattr(scoi.corpus, "_tokenize_lines", traced_tokenize)
    for command in ("build", "select"):
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(config), "--out-dir", str(out)]) == 0
            peaks[command] = max([tracemalloc.get_traced_memory()[1], *outer])
        finally:
            tracemalloc.stop()
        outer.clear()
    monkeypatch.undo()
    return peaks


def test_traced_peaks_stay_within_their_budgets(config, tmp_path, monkeypatch):
    traced_peaks(config, tmp_path / "warm-up", monkeypatch)
    peaks = traced_peaks(config, tmp_path / "measured", monkeypatch)
    over = {name: (peaks[name], budget) for name, budget in BUDGETS.items()
            if peaks[name] > budget * (1 + MARGIN)}
    assert not over, f"traced peaks above budget + {MARGIN:.0%} (peak, budget): {over}"

"""In-process pipeline run, with or without per-layer tracing.

    python3 perfbench/traced.py --config CFG --out-dir DIR --result FILE [--trace]

Imports ``scoi.cli`` (timing the fresh import), then runs ``build`` (cold),
``build`` (no-op) and ``select`` through ``scoi.cli.main`` in this one
process and writes the wall times to ``--result`` as JSON.  ``src`` must be
on ``PYTHONPATH``.

With ``--trace`` it first replaces the module-level names that the
pipeline's callers look up (``scoi.cli.bm25_topk``, ``scoi.corpus.tokenize``,
``scoi.selection.occurrence_sum``, ``Polynomial.dense``, ...) with timing
wrappers.  Every call becomes a span (name, start, end, parent span, test
id); spans stay in memory and are written to ``--spans`` when the run ends.
No file of the program changes.  Worker processes forked by the pipeline's
process pools inherit the wrappers and write their spans to ``--spill-dir``
when they exit; under a start method other than ``fork`` their work is
seen only at the parent's boundary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

perf_counter = time.perf_counter


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


class Tracer:
    """Span recorder: parallel arrays, one entry per wrapped call."""

    def __init__(self, spill_dir: Path | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.test = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.test_id = -1
        self.spill_dir = spill_dir

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None, name_of=None, test_of=None):
        """Timing wrapper around ``fn``; ``name_of(args)`` picks a per-call name,
        ``test_of(args)`` sets the test id for the span and its children."""
        tracer = self
        starts, ends, names, parents, tests = self.start, self.end, self.name, self.parent, self.test
        stack = self.stack
        counts = self.counts
        fixed = self.name_id(name) if name_of is None else None
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed if name_of is None else name_id(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            previous_test = tracer.test_id
            if test_of is not None:
                tracer.test_id = test_of(args)
            tests.append(tracer.test_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                tracer.test_id = previous_test
            if on_result is not None:
                on_result(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- forked workers ------------------------------------------------------

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's spans and spill at exit."""
        from multiprocessing.util import Finalize

        for arr in (self.start, self.end, self.name, self.parent, self.test):
            del arr[:]
        self.stack.clear()
        self.counts.clear()
        self.test_id = -1
        Finalize(self, self.spill, exitpriority=10)

    def spill(self) -> None:
        if self.spill_dir is not None:
            self.save(self.spill_dir / f"worker-{os.getpid()}")

    def save(self, stem: Path) -> None:
        import numpy as np

        np.savez(
            str(stem) + ".npz",
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            test=np.frombuffer(self.test, dtype=np.int64),
        )
        meta = {"pid": os.getpid(), "names": self.names, "counts": self.counts}
        Path(str(stem) + ".json").write_text(json.dumps(meta), encoding="utf-8")


# --- what gets wrapped --------------------------------------------------------
#
# (span name, [targets], hook).  A target is "module:attribute" or
# "module:Class.attribute"; every name a caller looks the function up by is
# listed, so calls through either module are seen.  Hooks add counts at the
# same boundary: hook(counts, args, result).

_GREEDY = ("scoi", "syntax-only", "word-only")


def _sha_bytes(c, a, r):
    _add(c, "manifest.sha256_file.bytes", os.path.getsize(a[0]))


def _conllu_counts(c, a, r):
    _add(c, "conllu.trees", len(r))
    _add(c, "conllu.nodes", sum(len(t.labels) for t in r))


def _poly_terms(c, a, r):
    _add(c, "treepoly.terms", r.n_terms if hasattr(r, "n_terms") else sum(r.values()))


def _bm25_counts(c, a, r):
    index, query = a[0], a[1]
    _add(c, "retrieval.bm25_topk.postings_scanned", sum(index.df(t) for t in query.counts))
    _add(c, "retrieval.bm25_topk.fallbacks", 0 if r else 1)


def _strategy_counts(c, a, r):
    pool, plan = a[1], a[2]
    if plan.strategy in _GREEDY:
        # Each greedy step scores every candidate not yet committed.
        scored = sum(
            len(pool) - step["position"]
            for step in r.steps
            if step.get("action") in ("commit", "restart")
        )
    elif plan.strategy in ("topk-poly", "dpp"):
        scored = len(pool)
    else:
        scored = 0
    _add(c, "selection.candidates_scored", scored)


LAYERS = (
    ("manifest.sha256_file", ("scoi.cli:sha256_file", "scoi.manifest:sha256_file"), _sha_bytes),
    ("manifest.stage_is_current", ("scoi.cli:stage_is_current",), None),
    ("conllu.load_conllu", ("scoi.corpus:load_conllu",), _conllu_counts),
    ("treepoly.DependencyTree", ("scoi.conllu:DependencyTree", "scoi.corpus:DependencyTree"), None),
    ("tokenizer.tokenize", ("scoi.corpus:tokenize",),
     lambda c, a, r: _add(c, "tokenizer.tokens", len(r))),
    ("corpus.load_parallel_corpus", ("scoi.cli:load_parallel_corpus",), None),
    ("corpus.load_test_inputs", ("scoi.cli:load_test_inputs",), None),
    ("corpus.filter_by_length", ("scoi.cli:filter_by_length",),
     lambda c, a, r: _add(c, "corpus.filter_by_length.removed", r[1])),
    ("treepoly.simplified_polynomial",
     ("scoi.corpus:simplified_polynomial", "scoi.corpus:simplified_term_counter"), _poly_terms),
    ("corpus.attach_polynomials", ("scoi.cli:attach_polynomials",), None),
    ("treepoly.write_polynomial_cache", ("scoi.cli:write_polynomial_cache",), None),
    ("corpus.write_corpus_cache", ("scoi.cli:write_corpus_cache",), None),
    ("corpus.read_corpus_cache", ("scoi.cli:read_corpus_cache",), None),
    ("treepoly.read_polynomial_cache", ("scoi.cli:read_polynomial_cache",), None),
    ("corpus.apply_polynomial_cache", ("scoi.cli:apply_polynomial_cache",), None),
    ("retrieval.load_index", ("scoi.cli:load_index",), None),
    ("retrieval.build_index", ("scoi.cli:build_index",), None),
    ("retrieval.save_index", ("scoi.cli:save_index",), None),
    ("treepoly.Polynomial.dense", ("scoi.treepoly:Polynomial.dense",), None),
    ("retrieval.bm25_topk", ("scoi.cli:bm25_topk",), _bm25_counts),
    ("coverage.max_similarities",
     ("scoi.selection:max_similarities", "scoi.coverage:max_similarities"), None),
    ("coverage.occurrence_sum", ("scoi.selection:occurrence_sum", "scoi.coverage:occurrence_sum"),
     lambda c, a, r: _add(c, "coverage.occurrence_sum.occurrences", int(a[1].sum()))),
    ("treepoly.polynomial_distance", ("scoi.selection:polynomial_distance",), None),
    ("retrieval.word_matrix", ("scoi.selection:word_matrix",), None),
    ("prompts.render_prompt", ("scoi.cli:render_prompt",),
     lambda c, a, r: _add(c, "prompts.bytes", len(r.encode("utf-8")))),
    ("cli.cmd_build", ("scoi.cli:cmd_build",), None),
    ("cli.cmd_select", ("scoi.cli:cmd_select",), None),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer; returns the targets that no longer exist."""
    from multiprocessing.util import register_after_fork

    absent = []
    for name, targets, hook in LAYERS:
        for target in targets:
            owner, attr = _resolve(target)
            if not hasattr(owner, attr):
                absent.append(target)
                continue
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result=hook))
    cli = importlib.import_module("scoi.cli")
    cli.run_strategy = tracer.wrap(
        "", cli.run_strategy, on_result=_strategy_counts,
        name_of=lambda a: "selection." + a[2].strategy,
    )
    # Per-test span: everything below it carries the test input's id.
    cli._select_one = tracer.wrap("cli.select_one", cli._select_one, test_of=lambda a: a[0].id)
    register_after_fork(tracer, Tracer.after_fork)
    return absent


# --- summary ------------------------------------------------------------------


def load_parts(tracer: Tracer, spill_dir: Path | None) -> list:
    """(span names, span arrays, counts) of this process and of every spilled worker."""
    import numpy as np

    parts = [(
        tracer.names,
        {k: np.frombuffer(getattr(tracer, k), dtype=np.float64 if k in ("start", "end") else np.int64)
         for k in ("start", "end", "name", "parent", "test")},
        dict(tracer.counts),
    )]
    if spill_dir is not None:
        for meta_path in sorted(spill_dir.glob("worker-*.json")):
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            with np.load(meta_path.with_suffix(".npz")) as data:
                arrays = {k: data[k] for k in data.files}
            parts.append((meta["names"], arrays, meta["counts"]))
    return parts


def summarize(parts: list) -> dict:
    """Per span name: calls, total self seconds, inclusive p50/p95 in ms."""
    import numpy as np

    self_s: dict[str, float] = {}
    durations: dict[str, list] = {}
    counts: dict[str, float] = {}
    spans = 0
    for names, arr, part_counts in parts:
        dur = arr["end"] - arr["start"]
        spans += dur.shape[0]
        has_parent = arr["parent"] >= 0
        # Spans of one process nest, so children cover disjoint parts of
        # their parent: self time is duration minus the children's durations.
        covered = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.shape[0])
        own = dur - covered
        for nid, name in enumerate(names):
            mask = arr["name"] == nid
            if not mask.any():
                continue
            self_s[name] = self_s.get(name, 0.0) + float(own[mask].sum())
            durations.setdefault(name, []).append(dur[mask])
        for key, value in part_counts.items():
            _add(counts, key, value)
    layers = {}
    for name, chunks in durations.items():
        ms = np.concatenate(chunks) * 1e3
        p50, p95 = np.percentile(ms, [50, 95])
        layers[name] = {"calls": int(ms.shape[0]), "self_s": self_s[name],
                        "p50_ms": float(p50), "p95_ms": float(p95)}
    return {"layers": layers, "counts": counts, "spans": spans, "processes": len(parts)}


def save_spans(parts: list, stem: Path) -> None:
    """All spans of the run, one array set per process, in one .npz file."""
    import numpy as np

    payload = {}
    names = {}
    for i, (part_names, arr, _) in enumerate(parts):
        names[i] = part_names
        for key, value in arr.items():
            payload[f"p{i}_{key}"] = value
    np.savez(str(stem) + ".npz", **payload)
    Path(str(stem) + ".json").write_text(json.dumps({"names": names}), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spill-dir", help="where forked workers write their spans")
    parser.add_argument("--spans", help="path stem for the span dump (traced runs)")
    args = parser.parse_args()

    t0 = perf_counter()
    cli = importlib.import_module("scoi.cli")
    import_s = perf_counter() - t0

    tracer = None
    absent: list[str] = []
    spill_dir = Path(args.spill_dir) if args.spill_dir else None
    if args.trace:
        if spill_dir is not None:
            spill_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spill_dir)
        absent = install(tracer)

    commands = []
    common = ["--config", args.config, "--out-dir", args.out_dir]
    for label, argv in (("build", ["build", *common]), ("rebuild", ["build", *common]),
                        ("select", ["select", *common])):
        t0 = perf_counter()
        code = cli.main(argv)
        commands.append({"command": label, "seconds": perf_counter() - t0, "exit_code": code})

    result = {
        "import_s": import_s,
        "commands": commands,
        "wall_s": import_s + sum(c["seconds"] for c in commands),
        "absent_targets": absent,
    }
    if tracer is not None:
        import multiprocessing

        result["start_method"] = multiprocessing.get_start_method()
        parts = load_parts(tracer, spill_dir)
        result.update(summarize(parts))
        if args.spans:
            save_spans(parts, Path(args.spans))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0 if all(c["exit_code"] == 0 for c in commands) else 1


if __name__ == "__main__":
    sys.exit(main())

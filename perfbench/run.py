#!/usr/bin/env python3
"""Pipeline benchmark for scoi: ``build``, no-op rebuild and ``select`` on seeded corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's corpus
from the seed, checks the bundled demo config against the golden files,
then:

* ``--trace 0``: runs the real ``scoi build`` (cold, into an empty out dir),
  ``scoi build`` again (every stage skipped) and ``scoi select``, each in its
  own process, and reports the end-to-end metrics.  The three commands
  alternate in rounds (a cold build, two rebuilds, a select): the
  workload's minimum number of rounds, and another while it is expected to
  end within ``--seconds``.  A fixed reference script
  (``perfbench/reference.py``) runs before and after each timed command, and
  the command's wall time is rescaled by the reference's, so that the
  shared host's changing speed cancels out.  Each metric is the median over
  its samples.
* ``--trace 1``: runs the same three commands in one process, first
  untraced and then with every layer wrapped (``perfbench/traced.py``), and
  reports the per-layer metrics plus the tracing overhead.

Every selection is checked (``perfbench/check.py``).  A results file with
machine facts and every raw sample goes to ``.bench_work/results/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from check import (  # noqa: E402
    STRATEGIES,
    Tally,
    check_demo,
    check_selections,
    compare_digests,
    expected_inputs,
    sha256_file,
    sha256_tree,
)
from gen import CorpusSpec, generate  # noqa: E402

CLI_ENTRY = "import sys; from scoi.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0  # the whole run, generation and checks included
REBUILDS_PER_ROUND = 2  # a rebuild is short, so it takes more samples to steady its median
# Timed commands are rescaled to a machine on which reference.py takes this long.
REFERENCE_NOMINAL_S = 0.5
FLOOR_SENTENCES_PER_S = 50_000
# Smaller than the first sizing runs, so that every command repeats in a run and 22
# runs of each of the three workloads take under an hour.
TESTS_SELECT_ALL = 100
PAIRS_LONG = 1_200
TESTS_LONG = 16
MEASUREMENT_LIMITS = (
    "Shared 2-vCPU machine; other tenants can add noise. Input files are read from a warm "
    "page cache right after generation, because the benchmark may not drop caches. Peak RSS "
    "is ru_maxrss of the command's process tree (wait4), in MiB."
)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    strategies: tuple[str, ...]
    k: int
    workers: int
    rounds: int  # at least this many rounds of cold build, rebuilds and select per run
    why: str


WORKLOADS = {
    "ingest-20k": Workload(
        CorpusSpec(pairs=20_000, min_tokens=8, max_tokens=40,
                   tests=200, test_min_tokens=8, test_max_tokens=40),
        strategies=("scoi",), k=4, workers=1, rounds=2,
        why="20k short pairs, strategy scoi: ingest, cache write/read and BM25 over a large "
            "index carry most of the time",
    ),
    "select-all-2k": Workload(
        CorpusSpec(pairs=2_000, min_tokens=8, max_tokens=40,
                   tests=TESTS_SELECT_ALL, test_min_tokens=8, test_max_tokens=40),
        strategies=STRATEGIES, k=4, workers=1, rounds=2,
        why="small corpus, 100 test inputs x 7 strategies: selection and coverage scoring "
            "carry most of the time",
    ),
    "long-parallel": Workload(
        CorpusSpec(pairs=PAIRS_LONG, min_tokens=40, max_tokens=130,
                   tests=TESTS_LONG, test_min_tokens=40, test_max_tokens=110),
        strategies=STRATEGIES, k=8, workers=2, rounds=3,
        why="long sentences, k = 8, two worker processes: numpy-bound coverage, the length "
            "filter and the process-pool paths",
    ),
}

TIMED = ("setup_s", "rebuild_s", "select_s")
END_TO_END = {
    "setup_s": "s",
    "rebuild_s": "s",
    "select_s": "s",
    "build_peak_rss_mb": "MiB",
    "select_peak_rss_mb": "MiB",
}

# Per-layer metrics of the traced run.  Span names are those of traced.py.
SPAN_SECONDS = (
    "manifest.sha256_file", "manifest.stage_is_current", "conllu.load_conllu",
    "treepoly.DependencyTree", "tokenizer.tokenize", "corpus.load_parallel_corpus",
    "corpus.load_test_inputs", "corpus.filter_by_length", "treepoly.simplified_polynomial",
    "corpus.attach_polynomials", "treepoly.write_polynomial_cache", "corpus.write_corpus_cache",
    "corpus.read_corpus_cache", "treepoly.read_polynomial_cache", "corpus.apply_polynomial_cache",
    "retrieval.load_index", "treepoly.Polynomial.dense", "retrieval.build_index",
    "retrieval.save_index", "retrieval.bm25_topk", "coverage.max_similarities",
    "coverage.occurrence_sum", *(f"selection.{s}" for s in STRATEGIES),
    "treepoly.polynomial_distance", "retrieval.word_matrix", "prompts.render_prompt",
    "cli.cmd_build", "cli.cmd_select",
)
SPAN_CALLS = ("treepoly.simplified_polynomial", "treepoly.Polynomial.dense",
              "coverage.max_similarities", "coverage.occurrence_sum",
              "treepoly.polynomial_distance")
SPAN_PERCENTILES = ("retrieval.bm25_topk", *(f"selection.{s}" for s in STRATEGIES))
TRACE_COUNTS = {
    "manifest.sha256_file.bytes": "bytes", "conllu.trees": "count", "conllu.nodes": "count",
    "tokenizer.tokens": "count", "corpus.filter_by_length.removed": "count",
    "treepoly.terms": "count", "retrieval.bm25_topk.postings_scanned": "count",
    "retrieval.bm25_topk.fallbacks": "count", "coverage.occurrence_sum.occurrences": "count",
    "selection.candidates_scored": "count", "prompts.bytes": "bytes",
}
OUTPUT_BYTES = {
    "treepoly.poly_cache_bytes": ("corpus.poly.jsonl", "test.poly.jsonl"),
    "corpus.cache_bytes": ("corpus.jsonl", "test.jsonl"),
    "retrieval.index_bytes": ("bm25.idx",),
    "cli.select.output_bytes": tuple(f"{kind}_{s}.jsonl" for s in STRATEGIES
                                     for kind in ("selections", "prompts")),
}
RECORD_COUNTS = ("commits", "restarts", "pool_exhausted", "bm25_fallback", "dpp_jitter")


class RunTimeout(Exception):
    pass


@dataclass
class CommandResult:
    seconds: float
    peak_rss_mb: float
    exit_code: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts the program's processes with ``src`` on the path, under one deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = run_dir / "stderr.log"

    def run(self, argv: list[str], stdout=subprocess.DEVNULL) -> CommandResult:
        """Run one process tree; wall time from start to reaping, peak RSS via wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunTimeout(f"no time left for {argv[:3]}")
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.run_dir, env=self.env,
                                    stdout=stdout, stderr=err, start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise RunTimeout(f"{argv[:3]} passed the {RUN_LIMIT_S:.0f} s run limit")
        return CommandResult(seconds, usage.ru_maxrss / 1024.0, proc.returncode)

    def reference(self) -> float:
        result = self.run([str(HERE / "reference.py")])
        if result.exit_code != 0:
            raise RuntimeError(f"reference.py exited with {result.exit_code}; see {self.log}")
        return result.seconds

    def cli(self, command: str, config: Path, out_dir: Path) -> CommandResult:
        return self.run(["-c", CLI_ENTRY, command, "--config", str(config),
                         "--out-dir", str(out_dir)])

    def json_output(self, argv: list[str]) -> dict:
        path = self.run_dir / "probe.json"
        with open(path, "wb") as fh:
            result = self.run(argv, stdout=fh)
        if result.exit_code != 0:
            raise RuntimeError(f"{argv[0]} exited with {result.exit_code}; see {self.log}")
        return json.loads(path.read_text(encoding="utf-8"))


def summarize(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with every raw value."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "raw": values}


def _check_layout() -> None:
    needed = [ROOT / "src" / "scoi" / "cli.py", ROOT / "data" / "demo" / "demo.cfg",
              ROOT / "BENCHMARK.json",
              *(ROOT / "tests" / "fixtures" / f"demo_{n}.jsonl"
                for n in ("selections_scoi", "selections_random", "prompts_scoi"))]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"error: not a scoi source checkout (missing {', '.join(missing)})")


def _write_config(inputs: Path, workload: Workload) -> Path:
    config = inputs / "run.cfg"
    strategy = "all" if workload.strategies == STRATEGIES else workload.strategies[0]
    config.write_text(
        "corpus_source = corpus.src\ncorpus_target = corpus.tgt\n"
        "corpus_conllu = corpus.conllu\ntest_source = test.src\ntest_conllu = test.conllu\n"
        f"strategy = {strategy}\nk = {workload.k}\nworkers = {workload.workers}\n",
        encoding="utf-8",
    )
    return config


def _cache_digests(out_dir: Path) -> dict:
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir())
            if p.is_file() and not p.name.endswith("manifest.json")}


def _check_rebuild(out_dir: Path, tally: Tally) -> None:
    try:
        stages = json.loads((out_dir / "build-manifest.json").read_text("utf-8"))["stages"]
    except (OSError, ValueError, KeyError) as exc:
        tally.note(f"rebuild: unreadable build manifest ({exc})")
        return
    rerun = [name for name, stage in stages.items() if not stage.get("skipped", True)]
    if rerun:
        tally.note(f"rebuild re-ran stages {rerun}")


def measure_end_to_end(runner, workload, config, expect, seconds, tally) -> dict:
    """Rounds of a cold build, rebuilds and a select, with the reference after each.

    Each command's wall time is rescaled by the mean of the reference runs just
    before and after it; the unscaled wall times are kept under ``*_wall``.
    """
    out = runner.run_dir / "out"
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples.update({f"{name}_wall": [] for name in TIMED})
    samples["reference_s"] = [runner.reference()]
    reference_caches = None
    outcome: dict = {}

    def timed(name: str, command: str) -> CommandResult:
        result = runner.cli(command, config, out)
        before = samples["reference_s"][-1]
        after = runner.reference()
        samples["reference_s"].append(after)
        samples[f"{name}_wall"].append(result.seconds)
        scale = REFERENCE_NOMINAL_S / statistics.fmean((before, after))
        samples[name].append(result.seconds * scale)
        return result

    begin = time.monotonic()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        build = timed("setup_s", "build")
        samples["build_peak_rss_mb"].append(build.peak_rss_mb)
        if build.exit_code != 0:
            tally.note(f"cold build exited with {build.exit_code}")
        else:
            caches = _cache_digests(out)
            if reference_caches is None:
                reference_caches = caches
            elif caches != reference_caches:
                tally.note("cold builds of identical inputs wrote different caches")
        for _ in range(REBUILDS_PER_ROUND):
            rebuild = timed("rebuild_s", "build")
            if rebuild.exit_code != 0:
                tally.note(f"rebuild exited with {rebuild.exit_code}")
            else:
                _check_rebuild(out, tally)
        select = timed("select_s", "select")
        samples["select_peak_rss_mb"].append(select.peak_rss_mb)
        if select.exit_code != 0:
            tally.note(f"select exited with {select.exit_code}")
            shutil.rmtree(out, ignore_errors=True)  # every selection then fails
        checked = check_selections(out, workload.strategies, workload.k, *expect, tally)
        if outcome:
            compare_digests(outcome["digests"], checked["digests"], len(expect[1]),
                            "repeated select", tally)
        else:
            outcome = checked
        rounds = len(samples["select_s"])
        per_round = (time.monotonic() - begin) / rounds
        if rounds >= workload.rounds and (time.monotonic() - begin + per_round > seconds
                                     or time.monotonic() + 2 * per_round > runner.deadline):
            break
    return {"samples": samples, **outcome}


def measure_traced(runner, workload, config, expect, workload_name, tally) -> dict:
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    modes = {}
    for mode in ("untraced", "traced"):
        out = runner.run_dir / mode
        argv = [str(HERE / "traced.py"), "--config", str(config), "--out-dir", str(out),
                "--result", str(runner.run_dir / f"{mode}.json")]
        if mode == "traced":
            argv += ["--trace", "--spill-dir", str(runner.run_dir / "spill"),
                     "--spans", str(spans / workload_name)]
        code = runner.run(argv).exit_code
        if code != 0:
            tally.note(f"{mode} in-process run exited with {code}")
        result = json.loads((runner.run_dir / f"{mode}.json").read_text("utf-8"))
        if result["absent_targets"]:
            # A lost wrapper would read as a layer that costs nothing.
            tally.note(f"trace wrappers found no target for {result['absent_targets']}")
        modes[mode] = {"result": result,
                       "check": check_selections(out, workload.strategies, workload.k, *expect,
                                                 tally),
                       "out": out}
    compare_digests(modes["untraced"]["check"]["digests"], modes["traced"]["check"]["digests"],
                    len(expect[1]), "traced run", tally)
    return modes


def per_layer_metrics(modes: dict, floor: dict) -> dict:
    traced = modes["traced"]["result"]
    layers = traced.get("layers", {})
    counts = traced.get("counts", {})
    empty = {"calls": 0, "self_s": 0.0, "p50_ms": 0.0, "p95_ms": 0.0}
    metrics = {"cli.import_s": (traced["import_s"], "s")}
    for name in SPAN_SECONDS:
        metrics[f"{name}.s"] = (layers.get(name, empty)["self_s"], "s")
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = (layers.get(name, empty)["calls"], "count")
    for name in SPAN_PERCENTILES:
        metrics[f"{name}.p50_ms"] = (layers.get(name, empty)["p50_ms"], "ms")
        metrics[f"{name}.p95_ms"] = (layers.get(name, empty)["p95_ms"], "ms")
    for name, unit in TRACE_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    out = modes["traced"]["out"]
    for name, files in OUTPUT_BYTES.items():
        metrics[name] = (sum((out / f).stat().st_size for f in files if (out / f).is_file()),
                         "bytes")
    records = modes["traced"]["check"].get("counters", {})
    for name in RECORD_COUNTS:
        metrics[f"selection.{name}"] = (records.get(name, 0), "count")
    steps = records.get("commits", 0) + records.get("restarts", 0)
    metrics["selection.commit_ratio"] = (records.get("commits", 0) / steps if steps else 0.0,
                                         "ratio")
    untraced_s = modes["untraced"]["result"]["wall_s"]
    overhead = traced["wall_s"] - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_s, "ratio")
    metrics.update(floor_metrics(floor))
    return metrics


def floor_metrics(floor: dict) -> dict:
    return {
        "treepoly.floor_25node_sentences_per_s": (floor["median"], "1/s"),
        "treepoly.floor_25node_sentences_per_s.min": (floor["min"], "1/s"),
        "treepoly.floor_25node.margin": (floor["min"] / FLOOR_SENTENCES_PER_S - 1.0, "ratio"),
    }


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_digest": sha256_tree(sorted((ROOT / "src").rglob("*.py"))),
        "seed": seed,
        "loadavg_at_start": os.getloadavg(),
        "limits": MEASUREMENT_LIMITS,
    }


def _registry_check(name: str, seed: int, key: str, digests: dict, n_tests: int,
                    tally: Tally) -> None:
    """Selections of one workload, seed and program must match earlier runs in this checkout."""
    path = WORK / "digests" / f"{name}-seed{seed}.json"
    registry = json.loads(path.read_text("utf-8")) if path.is_file() else {}
    if key in registry:
        compare_digests(registry[key], digests, n_tests, "earlier run of this seed", tally)
    elif tally.failed == 0 and digests:
        registry[key] = digests
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")


def _declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _print_report(name: str, metrics: dict, spreads: dict, tally: Tally, floor: dict,
                  results_path: Path) -> None:
    print(f"workload {name}")
    for metric, (value, unit) in metrics.items():
        spread = spreads.get(metric)
        extra = (f"  median of {spread['n']}, q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g}"
                 if spread else "")
        if f"{metric}_wall" in spreads:
            extra += f", unscaled wall {spreads[f'{metric}_wall']['median']:.4g} s"
        print(f"  {metric:<46} {value:>14.6g} {unit}{extra}")
    if "reference_s" in spreads:
        print(f"  reference.py: median {spreads['reference_s']['median']:.4g} s against "
              f"{REFERENCE_NOMINAL_S} s nominal")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_share':<46} {share:>14.6g} ratio  ({tally.failed} of {tally.attempted})")
    print(f"  floor probe: median {floor['median']:,.0f} sentences/s, min {floor['min']:,.0f} "
          f"({floor['min'] / FLOOR_SENTENCES_PER_S - 1.0:+.1%} over the 50k floor)")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(f"  results: {results_path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _check_layout()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    declared = _declared_metrics(trace)

    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
    tally = Tally()
    try:
        facts = machine_facts(args.seed)
        # The demo build and select overlap corpus generation; none of them is timed.
        demo_out = run_dir / "demo"
        demo_cfg = ROOT / "data" / "demo" / "demo.cfg"
        with ThreadPoolExecutor(max_workers=1) as pool:
            demo = pool.submit(lambda: [runner.cli(command, demo_cfg, demo_out)
                                        for command in ("build", "select")])
            inputs = run_dir / "inputs"
            generate(workload.corpus, args.seed, inputs)
            config = _write_config(inputs, workload)
            demo.result()
        check_demo(demo_out, ROOT / "tests" / "fixtures", tally)
        expect = expected_inputs(inputs, max_tokens=120)
        inputs_digest = sha256_tree(sorted(p for p in inputs.iterdir() if p.name != "run.cfg"))

        spreads: dict = {}
        if trace:
            modes = measure_traced(runner, workload, config, expect, args.workload, tally)
            digests = modes["traced"]["check"]["digests"]
            raw = {mode: m["result"] for mode, m in modes.items()}
        else:
            measured = measure_end_to_end(runner, workload, config, expect, args.seconds, tally)
            digests = measured.get("digests", {})
            spreads = {name: summarize(values) for name, values in measured["samples"].items()}
            raw = {"samples": measured["samples"], "record_counters": measured.get("counters")}
        floor = summarize(runner.json_output(
            [str(HERE / "floor.py"), "--seed", str(args.seed)])["sentences_per_s"])
        if trace:
            metrics = per_layer_metrics(modes, floor)
        else:
            metrics = {name: (spreads[name]["median"], unit) for name, unit in END_TO_END.items()}
        _registry_check(args.workload, args.seed, f"{facts['src_digest']}:{inputs_digest}",
                        digests, len(expect[1]), tally)
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print("error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(emitted) ^ set(declared))}", file=sys.stderr)
        return 4
    failed = min(tally.failed, tally.attempted)
    correct = failed == 0 and not tally.problems
    results = {
        "workload": args.workload,
        "why": workload.why,
        "trace": trace,
        "seconds": args.seconds,
        "machine": facts,
        "inputs_digest": inputs_digest,
        "output_digests": digests,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_share": failed / tally.attempted if tally.attempted else 1.0,
        "problems": tally.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "spreads": spreads,
        "floor_probe": floor,
        "raw": raw,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / (f"{args.workload}-seed{args.seed}-trace{int(trace)}-"
                                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    results_path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    _print_report(args.workload, metrics, spreads, tally, floor, results_path)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed,
                      "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as a parent revision.

    python3 scripts/same_bytes.py PARENT_REV --seeds 5,N [--workloads NAME,...]
        [--format-changed FILE,...]

Extracts ``PARENT_REV`` with ``git archive`` into a temporary directory, so
the repository itself is not touched.  For each perfbench workload (all
three by default) and each seed, it generates the workload's inputs with
``perfbench/gen.py`` and writes the benchmark's config, then runs
``scoi build``, ``scoi select`` and a second, no-op ``scoi build`` once
with the parent's ``src`` and once with this checkout's.  The no-op build
must report both stages skipped and change no file.  Every cache,
selection and prompt file must be byte-identical, and so must the build
manifests of the cold and of the no-op build, apart from their wall-clock
``seconds`` fields and the out dir in their config snapshots, key order
included; the select manifest holds wall-clock fields and is not
compared.  A cache named in ``--format-changed`` (a change that bumps its
format version) is compared by decoded content instead: each side's own
``src`` reads it in a child process and prints one SHA-256 per record of
the record id, ``PolyColumns.polynomial(i).rows()`` as uint32 rows and
their int64 counts; the manifests' digests of those files and the version
inputs of the stages that write them are not compared.  Every other file
is still compared byte for byte.  Both sides run with
bytecode written to a fresh ``PYTHONPYCACHEPREFIX`` of their own, so
neither reads a ``__pycache__`` left in its checkout and both compile
their modules once.  Prints one line per workload and seed, with each
side's wall seconds and peak RSS (``ru_maxrss`` from ``os.wait4``) of the
cold build and of ``select``, and exits 1 at the first difference, naming
it.  One run per side is inside the host's noise: the seconds can show a
gross slowdown, not a small gain.  Both sides
run from out dirs whose paths have the same length, since the build's
peak RSS can step by a few MiB with that length.  The inputs are generated
in a child process: a command's ``ru_maxrss`` also counts the peak RSS of
the process that started it, so this one stays small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

from run import WORKLOADS, _write_config  # noqa: E402

CLI_ENTRY = "import sys; from scoi.cli import main; sys.exit(main())"
GEN_ENTRY = ("import sys; from pathlib import Path; from gen import generate; "
             "from run import WORKLOADS; "
             "generate(WORKLOADS[sys.argv[1]].corpus, int(sys.argv[2]), Path(sys.argv[3]))")
MANIFESTS = ("build-manifest.json", "select-manifest.json")
DECODE_ENTRY = """
import hashlib, sys
import numpy as np
from scoi.treepoly import read_polynomial_columns
_, columns = read_polynomial_columns(sys.argv[1])
for i, rid in enumerate(columns.ids.tolist()):
    rows, counts = columns.polynomial(i).rows()
    digest = hashlib.sha256(np.int64(rid).tobytes() + repr(rows.shape).encode())
    digest.update(np.ascontiguousarray(rows, np.uint32).tobytes())
    digest.update(np.ascontiguousarray(counts, np.int64).tobytes())
    print(rid, digest.hexdigest())
"""


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file() and p.name not in MANIFESTS
    }


def _cli(env: dict, command: str, config: Path, out_dir: Path) -> tuple[str, float, float]:
    """Run one scoi command; its standard output, its wall seconds and its
    peak RSS in MiB."""
    argv = [sys.executable, "-c", CLI_ENTRY, command, "--config", str(config),
            "--out-dir", str(out_dir)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode("utf-8"), err.read().decode("utf-8")
    if proc.returncode != 0:
        raise SystemExit(f"error: {command} with {env['PYTHONPATH']} exited with "
                         f"{proc.returncode}:\n{stderr}")
    return stdout, seconds, usage.ru_maxrss / 1024.0


def _decoded_path(out_dir: Path, file: str) -> Path:
    return out_dir.parent / f"{out_dir.name}-{file}.decoded"


def _decoded(env: dict, out_dir: Path, file: str) -> str:
    """Decode the polynomial cache ``file`` of ``out_dir`` with the package
    on ``env``'s PYTHONPATH into ``_decoded_path``, one ``record-id digest``
    line per record; the SHA-256 of those lines.  They go to a file, not
    into this process, whose peak RSS each command's ``ru_maxrss`` counts."""
    dest = _decoded_path(out_dir, file)
    with open(dest, "wb") as fh:
        subprocess.run([sys.executable, "-c", DECODE_ENTRY, str(out_dir / file)], env=env,
                       stdout=fh, check=True)
    digest = hashlib.sha256()
    with open(dest, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _first_decoded_difference(file: str, before: Path, after: Path) -> str:
    """Where the decoded lines of ``file`` under the out dirs ``before`` and
    ``after`` first differ."""
    with open(_decoded_path(before, file)) as a, open(_decoded_path(after, file)) as b:
        first = next((x.split()[0] for x, y in zip(a, b) if x != y), None)
    return (f" in decoded content, first at record {first}" if first
            else " in its decoded record count")


def _timeless_manifest(out_dir: Path, changed: set[str]) -> dict:
    """The build manifest without its wall-clock fields and its out dir, and
    without the output digests in ``changed`` and the cache version inputs of
    the stages that wrote them."""
    manifest = json.loads((out_dir / MANIFESTS[0]).read_text(encoding="utf-8"))
    manifest["config"]["out_dir"] = None
    for stage in manifest["stages"].values():
        stage["seconds"] = None
        outputs = stage["outputs"]
        if changed & set(outputs.values()):
            stage["outputs"] = {k: None if v in changed else v for k, v in outputs.items()}
            stage["inputs"] = {k: None if k.endswith("_cache_version") else v
                               for k, v in stage["inputs"].items()}
    return manifest


def _run(src: Path, config: Path, out_dir: Path, decoded: list[str]
         ) -> tuple[dict[str, str], dict[str, dict], list[tuple]]:
    """Build, select and build again with the package under ``src``; the
    digests of the outputs (of the decoded record lines for those in
    ``decoded``), the cold and the no-op build's timeless manifests by
    build, and the (wall seconds, peak RSS) of the cold build and of
    select."""
    env = dict(os.environ, PYTHONPATH=str(src),
               PYTHONPYCACHEPREFIX=str(out_dir.parent / f"pycache-{out_dir.name}"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    usage = [_cli(env, command, config, out_dir)[1:] for command in ("build", "select")]
    digests = _digests(out_dir)
    changed = {digests[file] for file in decoded}
    manifests = {"cold": _timeless_manifest(out_dir, changed)}
    stages = _cli(env, "build", config, out_dir)[0].splitlines()
    if stages != [f"{stage}: skipped (inputs unchanged)" for stage in ("corpus", "polynomials")]:
        raise SystemExit(f"error: the no-op build with {src} did not skip every stage:\n"
                         + "\n".join(stages))
    after = _digests(out_dir)
    for file in sorted(digests.keys() | after.keys()):
        if digests.get(file) != after.get(file):
            raise SystemExit(f"error: the no-op build with {src} changed {file}")
    manifests["no-op"] = _timeless_manifest(out_dir, changed)
    for file in decoded:
        digests[file] = _decoded(env, out_dir, file)
    return digests, manifests, usage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the git revision to compare against")
    parser.add_argument("--seeds", default="5", help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--format-changed", default="",
                        help="comma-separated polynomial caches to compare by decoded content")
    args = parser.parse_args()
    decoded = [name for name in args.format_changed.split(",") if name]
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    gen_env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for name in names:
            workload = WORKLOADS[name]
            for seed in seeds:
                inputs = tmp / f"{name}-{seed}"
                subprocess.run([sys.executable, "-B", "-c", GEN_ENTRY, name, str(seed),
                                str(inputs)], env=gen_env, check=True)
                config = _write_config(inputs, workload)
                before, before_manifests, before_usage = _run(parent / "src", config,
                                                              inputs / "out-parent", decoded)
                after, after_manifests, after_usage = _run(ROOT / "src", config,
                                                           inputs / "out-change", decoded)
                for file in sorted(before.keys() | after.keys()):
                    if before.get(file) != after.get(file):
                        where = ""
                        if file in decoded:
                            where = _first_decoded_difference(file, inputs / "out-parent",
                                                              inputs / "out-change")
                        print(f"{name} seed {seed}: {file} differs from {args.parent}{where}")
                        return 1
                for build, manifest in before_manifests.items():
                    if json.dumps(manifest) != json.dumps(after_manifests[build]):
                        print(f"{name} seed {seed}: the {build} build's {MANIFESTS[0]} "
                              f"differs from {args.parent}")
                        return 1
                usage = "; ".join(
                    f"{command} {a[0]:.2f} -> {b[0]:.2f} s, {a[1]:.1f} -> {b[1]:.1f} MiB"
                    for command, a, b in zip(("build", "select"), before_usage, after_usage))
                same = f"{len(after) - len(decoded)} files byte-identical"
                if decoded:
                    same += f", {', '.join(decoded)} identical decoded"
                print(f"{name} seed {seed}: {same}, cold and no-op build manifests identical, "
                      f"no-op rebuild skipped both stages; {usage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

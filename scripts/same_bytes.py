#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as a parent revision.

    python3 scripts/same_bytes.py PARENT_REV --seeds 5,N [--workloads NAME,...]

Extracts ``PARENT_REV`` with ``git archive`` into a temporary directory, so
the repository itself is not touched.  For each perfbench workload (all
three by default) and each seed, it generates the workload's inputs with
``perfbench/gen.py`` and writes the benchmark's config, then runs
``scoi build``, ``scoi select`` and a second, no-op ``scoi build`` once
with the parent's ``src`` and once with this checkout's.  The no-op build
must report both stages skipped and change no file.  Every cache,
selection and prompt file must be byte-identical, and so must the no-op
build's manifest apart from its wall-clock ``seconds`` fields and the out
dir in its config snapshot; the select manifest holds wall-clock fields
and is not compared.  Prints one line per workload and seed, and exits 1
at the first difference, naming it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

from gen import generate  # noqa: E402
from run import WORKLOADS, _write_config  # noqa: E402

CLI_ENTRY = "import sys; from scoi.cli import main; sys.exit(main())"
MANIFESTS = ("build-manifest.json", "select-manifest.json")


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file() and p.name not in MANIFESTS
    }


def _cli(env: dict, command: str, config: Path, out_dir: Path) -> str:
    """Run one scoi command; its standard output."""
    argv = [sys.executable, "-c", CLI_ENTRY, command, "--config", str(config),
            "--out-dir", str(out_dir)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {command} with {env['PYTHONPATH']} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def _timeless_manifest(out_dir: Path) -> dict:
    """The build manifest without its wall-clock fields and its out dir."""
    manifest = json.loads((out_dir / MANIFESTS[0]).read_text(encoding="utf-8"))
    manifest["config"]["out_dir"] = None
    for stage in manifest["stages"].values():
        stage["seconds"] = None
    return manifest


def _run(src: Path, config: Path, out_dir: Path) -> tuple[dict[str, str], dict]:
    """Build, select and build again with the package under ``src``; the
    digests of the outputs and the no-op build's timeless manifest."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in ("build", "select"):
        _cli(env, command, config, out_dir)
    digests = _digests(out_dir)
    stages = _cli(env, "build", config, out_dir).splitlines()
    if stages != [f"{stage}: skipped (inputs unchanged)" for stage in ("corpus", "polynomials")]:
        raise SystemExit(f"error: the no-op build with {src} did not skip every stage:\n"
                         + "\n".join(stages))
    after = _digests(out_dir)
    for file in sorted(digests.keys() | after.keys()):
        if digests.get(file) != after.get(file):
            raise SystemExit(f"error: the no-op build with {src} changed {file}")
    return digests, _timeless_manifest(out_dir)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the git revision to compare against")
    parser.add_argument("--seeds", default="5", help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

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
                generate(workload.corpus, seed, inputs)
                config = _write_config(inputs, workload)
                before, before_manifest = _run(parent / "src", config, inputs / "parent-out")
                after, after_manifest = _run(ROOT / "src", config, inputs / "out")
                for file in sorted(before.keys() | after.keys()):
                    if before.get(file) != after.get(file):
                        print(f"{name} seed {seed}: {file} differs from {args.parent}")
                        return 1
                if before_manifest != after_manifest:
                    print(f"{name} seed {seed}: the no-op build's {MANIFESTS[0]} differs "
                          f"from {args.parent}")
                    return 1
                print(f"{name} seed {seed}: {len(after)} files byte-identical, "
                      "no-op rebuild skipped both stages")
    return 0


if __name__ == "__main__":
    sys.exit(main())

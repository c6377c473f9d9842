"""Run manifests: config snapshot, input/output digests, stage timings.

Every pipeline run writes one; a rerun whose stage inputs digest the same
may skip the stage and keep the recorded outputs.  Wall-clock fields are
the only part allowed to differ between identical runs.

Also holds the compact JSON line format of the cache headers and the
selection files, and the crash-safe write that every output goes through.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

MANIFEST_FORMAT = "scoi-manifest"
MANIFEST_VERSION = 1
# The format versions of the corpus caches and the polynomial caches.  A
# build stage's inputs name its cache version, so a bump reruns that stage;
# they live here so that the skip check needs no numeric module.
CORPUS_CACHE_VERSION = 2
POLY_CACHE_VERSION = 3
# The temp file of an ``atomic_write`` of <name> by process <pid>.
_TEMP_NAME = re.compile(r"\.(.+)\.([1-9][0-9]{0,8})\.tmp")


def compact_json(obj) -> str:
    """One-line JSON without spaces, non-ASCII kept: the caches' line format."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _naming(path: Path, write):
    """``write`` with each ``OSError`` it raises re-raised naming ``path``."""

    def named_write(data):
        try:
            return write(data)
        except OSError as exc:
            exc.filename, exc.filename2 = str(path), None
            raise

    return named_write


@contextmanager
def atomic_write(path: Path | str, mode: str = "w"):
    """Write ``path`` through a temp file beside it, moved into place on success.

    Yields the open temp file (text mode is UTF-8).  ``os.replace`` renames
    it onto ``path`` once it is complete and closed, so a reader of ``path``
    sees the old file or the whole new one, never part of one.  On an
    exception the temp file is deleted and ``path`` keeps what it held.
    A killed process can leave ``.<name>.<pid>.tmp`` behind, but never a
    partial ``path``.  An ``OSError`` from the handle's ``write``, or one
    that names the temp file or no file, is re-raised naming ``path``; the
    handle's own errors are named first, so nested writes each report
    against their own file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            fh.write = _naming(path, fh.write)
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (None, str(tmp)):
            exc.filename = str(path)
            exc.filename2 = None
        raise


def remove_stale_temps(directory: Path, names: set[str]) -> None:
    """Delete the temp files ``atomic_write`` left in ``directory`` for any
    of ``names`` when killed: ``.<name>.<pid>.tmp`` where no process ``pid``
    runs.  A file whose writer may still be alive is kept."""
    for entry in directory.iterdir():
        match = _TEMP_NAME.fullmatch(entry.name)
        if match is None or match[1] not in names:
            continue
        try:
            os.kill(int(match[2]), 0)
        except ProcessLookupError:
            entry.unlink(missing_ok=True)
        except PermissionError:  # the process exists but is not ours to signal
            pass


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Mutable builder for one run's manifest, with skip-check helpers."""

    def __init__(self, config_snapshot: dict, toolkit_version: str):
        self.data = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "toolkit_version": toolkit_version,
            "config": config_snapshot,
            "stages": {},
        }

    def record_stage(
        self,
        name: str,
        inputs: dict[str, str],
        outputs: dict[str, str],
        seconds: float,
        skipped: bool = False,
    ) -> None:
        self.data["stages"][name] = {
            "inputs": inputs,
            "outputs": outputs,
            "seconds": seconds,
            "skipped": skipped,
        }

    def save(self, path: Path | str) -> None:
        with atomic_write(path) as fh:
            json.dump(self.data, fh, ensure_ascii=False, indent=2)
            fh.write("\n")


def read_manifest(path: Path | str) -> dict | None:
    path = Path(path)
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):  # not JSON, or not UTF-8
        return None
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        return None
    stages = data.get("stages")
    if not isinstance(stages, dict) or not all(
        isinstance(stage, dict) and isinstance(stage.get("outputs", {}), dict)
        for stage in stages.values()
    ):
        return None
    return data


def stage_is_current(
    previous: dict | None, name: str, inputs: dict[str, str], output_paths: dict[str, Path]
) -> bool:
    """True when a prior manifest proves this stage's outputs are reusable."""
    if previous is None:
        return False
    stage = previous.get("stages", {}).get(name)
    if stage is None or stage.get("inputs") != inputs:
        return False
    recorded = stage.get("outputs", {})
    if set(recorded) != set(map(str, output_paths)):
        return False
    for key, path in output_paths.items():
        path = Path(path)
        if not path.is_file() or sha256_file(path) != recorded.get(str(key)):
            return False
    return True

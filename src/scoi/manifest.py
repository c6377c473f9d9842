"""Run manifests: config snapshot, input/output digests, stage timings.

Every pipeline run writes one; a rerun whose stage inputs digest the same
may skip the stage and keep the recorded outputs.  Wall-clock fields are
the only part allowed to differ between identical runs.

Also holds the compact JSON line format of the cache headers and the
selection files, the crash-safe write that every output goes through, and
the SHA-256 digests of the bytes a command reads or writes; whole files
are hashed on two threads, the caller's and one joined before
``hash_files`` returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from collections import deque
from collections.abc import Iterable, Mapping
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


class _Writer:
    """What ``atomic_write`` yields: ``write`` takes bytes, or a str in text
    mode, written as UTF-8, and adds them to ``digest``.  An ``OSError`` it
    raises names ``path``."""

    def __init__(self, fh, path: Path, text: bool):
        self._fh, self._path, self._text = fh, path, text
        self.digest = Digest(path)

    def write(self, data) -> None:
        if self._text:
            data = data.encode("utf-8")
        try:
            self._fh.write(data)
        except OSError as exc:
            exc.filename, exc.filename2 = str(self._path), None
            raise
        self.digest.update(data)


class DigestReader:
    """The binary file ``fh`` read through ``read``, ``readline`` and
    ``readinto``: every byte they return is added to ``digest``, in order."""

    def __init__(self, fh, digest: Digest):
        self._fh, self._digest = fh, digest

    def read(self, size: int = -1) -> bytes:
        data = self._fh.read(size)
        self._digest.update(data)
        return data

    def readline(self) -> bytes:
        data = self._fh.readline()
        self._digest.update(data)
        return data

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n


@contextmanager
def atomic_write(path: Path | str, mode: str = "w"):
    """Write ``path`` through a temp file beside it, moved into place on success.

    Yields a handle whose ``write`` takes str in mode ``"w"`` (written as
    UTF-8, newlines as given) and bytes-like objects in mode ``"wb"``.  Its
    ``digest`` is the ``Digest`` of the bytes written, so a command records
    what it wrote, not what a later reader of ``path`` finds.
    ``os.replace`` renames the temp file onto ``path`` once it is complete
    and closed, so a reader of ``path`` sees the old file or the whole new
    one, never part of one.  On an exception the temp file is deleted and
    ``path`` keeps what it held.  A killed process can leave
    ``.<name>.<pid>.tmp`` behind, but never a partial ``path``.  An
    ``OSError`` from the handle's ``write``, or one that names the temp file
    or no file, is re-raised naming ``path``; the handle's own errors are
    named first, so nested writes each report against their own file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield _Writer(fh, path, "b" not in mode)
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


# --- digests -----------------------------------------------------------------
#
# Hashing whole files is the one part of a run that gains from a second
# thread: hashlib drops the GIL for buffers of 2 KiB and more.  ``hash_files``
# reads its files on the calling thread and on one helper thread, joined
# before it returns.  The helper calls nothing that perfbench/traced.py
# wraps, because its tracer keeps one span stack.

_CHUNK = 1 << 16  # read size of a whole-file digest


def _hash_file(path: Path | str, sha) -> None:
    """Add the bytes of the file at ``path`` to ``sha``, read into one reused buffer."""
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            sha.update(view[:n])


def sha256_file(path: Path | str) -> str:
    sha = hashlib.sha256()
    _hash_file(path, sha)
    return sha.hexdigest()


class Digest:
    """The SHA-256 of one file's bytes.

    A digest from ``hash_files`` holds its whole file's; if reading the
    file raised, ``hexdigest`` raises that, as a future's result would, so
    a command reports it where it first needs the digest; an ``OSError``
    names the file.  Any other digest is fed the bytes a command parsed or
    wrote, in file order, through ``update``.
    """

    def __init__(self, path: Path | str):
        self.path = str(path)
        self._sha = hashlib.sha256()
        self._error: Exception | None = None

    def update(self, data) -> None:
        self._sha.update(data)

    def hexdigest(self) -> str:
        if self._error is not None:
            raise self._error
        return self._sha.hexdigest()


def hash_files(paths: Iterable[Path | str]) -> dict[str, Digest]:
    """Whole-file digests of ``paths``, by path string.

    This thread and, for two files or more, one helper thread take the
    files from one queue, largest first; the helper is joined before this
    returns, even when this thread raises.  What a read raises is kept by
    its digest.
    """

    def size(path: str) -> int:
        try:
            return os.stat(path).st_size
        except OSError:  # hashing raises it, naming the file
            return -1

    ordered = sorted(dict.fromkeys(map(str, paths)), key=size, reverse=True)
    digests = {path: Digest(path) for path in ordered}
    queue = deque(digests.values())

    def work() -> None:
        while True:
            try:
                digest = queue.popleft()
            except IndexError:
                return
            try:
                _hash_file(digest.path, digest._sha)
            except Exception as exc:  # raised by ``hexdigest``
                if isinstance(exc, OSError) and exc.filename is None:
                    exc.filename = digest.path
                digest._error = exc

    if len(queue) < 2:
        work()
        return digests
    thread = threading.Thread(target=work, name="scoi-digests")
    thread.start()
    try:
        work()
    finally:
        queue.clear()  # an interrupted caller leaves the helper no more files
        thread.join()
    return digests


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
            fh.write(json.dumps(self.data, ensure_ascii=False, indent=2) + "\n")


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
    previous: dict | None, name: str, inputs: dict[str, str], output_paths: dict[str, Path],
    digests: Mapping[str, Digest],
) -> bool:
    """True when a prior manifest proves this stage's outputs are reusable.
    ``digests`` holds ``hash_files`` digests by path; the outputs it lacks
    are hashed once the inputs match."""
    if previous is None:
        return False
    stage = previous.get("stages", {}).get(name)
    if stage is None or stage.get("inputs") != inputs:
        return False
    recorded = stage.get("outputs", {})
    if set(recorded) != set(map(str, output_paths)):
        return False
    paths = [str(path) for path in output_paths.values()]
    digests = {**hash_files(path for path in paths if path not in digests), **digests}
    for key, path in zip(output_paths, paths):
        if not Path(path).is_file() or digests[path].hexdigest() != recorded.get(str(key)):
            return False
    return True

"""Column storage shared by every cache: the cache-file container, offsets
over concatenated entries, and a 64-bit hash of rows of uint64 words.

A cache file is one compact JSON header line, then each array as ``np.save``
writes it (``.npy`` version 1.0): ``write_cache`` writes one through
``atomic_write`` and ``read_cache`` reads one back, checking the header and
every segment's bounds.  A column of records is a flat array of entries and
int64 offsets: item i owns entries ``offsets[i]:offsets[i+1]``.
``row_hashes`` is splitmix64's finalizer folded over a row's words; it is
not linear, so a different seed gives an independent hash, and a caller
that finds two different rows with one hash can retry under the next seed.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .manifest import Digest, DigestReader, atomic_write, compact_json


def write_cache(path, header: dict, segments: Iterable[np.ndarray]) -> Digest:
    """Write a cache file through ``atomic_write``: ``header`` as one compact
    JSON line, then each array as ``np.save`` writes it in C order (``.npy``
    version 1.0), from its own buffer, with no joined copy.  Returns the
    ``Digest`` of the bytes written."""
    with atomic_write(path, "wb") as fh:
        fh.write(compact_json(header).encode("utf-8") + b"\n")
        for segment in segments:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": segment.dtype.str, "fortran_order": False, "shape": segment.shape})
            fh.write(np.ascontiguousarray(segment).reshape(-1).view(np.uint8))
    return fh.digest


def read_cache(
    path, fmt: str, version: int, what: str, lists: tuple[str, ...], names: Iterable[str],
    digest: Digest | None = None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the read-only segments, one per name in order, of a
    ``write_cache`` file.  The file is read once; every byte of it goes to
    ``digest`` if one is given, the bytes parsed as they are read.

    A header line that is not a JSON object with ``format`` ``fmt``, ``version``
    ``version`` and a list under each key of ``lists`` is a ``DataError`` naming
    ``path`` as a ``what``.  So is a segment whose header does not parse as a
    ``.npy`` version 1.0 header, or claims objects, sub-arrays, Fortran order
    or more bytes than the file has left; that message names the segment.
    """
    with open(path, "rb") as fh:
        reader = fh if digest is None else DigestReader(fh, digest)
        try:
            header = json.loads(reader.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != fmt:
            raise DataError(f"{path}: not a {what}")
        if header.get("version") != version:
            raise DataError(f"{path}: unsupported {what} version {header.get('version')}")
        for key in lists:
            if not isinstance(header.get(key), list):
                raise DataError(f"{path}: header has no {key} list")
        size = os.fstat(fh.fileno()).st_size
        segments = {}
        for name in names:
            where = f"{path}: corrupt array segment ({name}: "
            try:
                with warnings.catch_warnings():
                    # numpy warns when it reads a header only after repairing it.
                    warnings.simplefilter("error")
                    if np.lib.format.read_magic(reader) != (1, 0):
                        raise ValueError("not a version 1.0 .npy header")
                    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(reader)
            # numpy's header parser fails in more ways than ValueError: a corrupt
            # header dict can reach its tokenizer, which raises TokenError.
            except Exception as exc:
                raise DataError(f"{where}{exc})") from None
            count, left = math.prod(shape), size - fh.tell()
            if fortran_order or dtype.hasobject or dtype.shape or min(shape, default=0) < 0 or (
                count * dtype.itemsize > left
            ):
                order = " in Fortran order" if fortran_order else ""
                raise DataError(f"{where}{dtype} of shape {shape}{order}, {left} bytes left)")
            segments[name] = segment = np.empty(shape, dtype)
            got = reader.readinto(segment.reshape(-1).view(np.uint8))
            if got != segment.nbytes:  # the file shrank while it was read
                raise DataError(f"{where}{dtype} of shape {shape}, {got} bytes read)")
            segment.flags.writeable = False
        if digest is not None:  # bytes after the last segment count towards the digest
            reader.read()
    return header, segments


def offsets_fit(offsets: np.ndarray, n: int, size: int) -> bool:
    """Whether ``offsets`` can split ``size`` entries among ``n`` records:
    int64, ``n + 1`` long, from 0 to ``size``, nondecreasing."""
    return (offsets.dtype == np.int64 and offsets.shape == (n + 1,) and offsets[0] == 0
            and offsets[-1] == size and not (np.diff(offsets) < 0).any())


def record_of(ids: np.ndarray, offsets: np.ndarray, entry) -> int:
    """The id of the record owning ``entry``: ``ids[i]`` owns ``offsets[i]:offsets[i+1]``."""
    return int(ids[int(offsets.searchsorted(entry, "right")) - 1])


def offsets_from_sizes(sizes) -> np.ndarray:
    """int64 offsets: item i owns entries ``offsets[i]:offsets[i+1]``."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def take_offsets(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries that items ``rows`` own under ``offsets``, in that order,
    and the offsets over them: item ``rows[j]`` becomes item j."""
    rows = np.asarray(rows, dtype=np.int64)
    sizes = offsets[rows + 1] - offsets[rows]
    taken = offsets_from_sizes(sizes)
    return np.repeat(offsets[rows] - taken[:-1], sizes) + np.arange(taken[-1]), taken


def pad_to(mat: np.ndarray, width: int) -> np.ndarray:
    """``mat`` with zero columns appended up to ``width``."""
    if mat.shape[1] == width:
        return mat
    return np.pad(mat, ((0, 0), (0, width - mat.shape[1])))


# splitmix64's finalizer multipliers.
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def row_hashes(columns: Sequence[np.ndarray], seed: int) -> np.ndarray:
    """One uint64 per row of the equal-length uint64 ``columns``, a row being
    one word of each, equal for equal rows: each word is xored in and mixed
    by xor-shift-multiply steps."""
    hashes = np.full(len(columns[0]), np.uint64(seed))
    for word in columns:
        hashes ^= word
        for shift, mix in zip((30, 27), _MIX):
            hashes ^= hashes >> np.uint64(shift)
            hashes *= mix
        hashes ^= hashes >> np.uint64(31)
    return hashes

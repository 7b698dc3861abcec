"""Binary file format for recorded LLC streams.

Mirrors ``repro.trace.io``'s layout with its own magic so the two artifact
kinds cannot be confused:

    magic    4 bytes  b"RLLC"
    version  u32      currently 2
    count    u64      number of accesses
    ncores   u32      number of cores (informational)
    namelen  u32      UTF-8 name length
    name     bytes
    columns  cores as i8[count], pcs as i64[count],
             blocks as i64[count], writes as i8[count]
    crc32    u32      CRC-32 of the four column byte blobs (version >= 2)

Paths ending in ``.gz`` are gzip-compressed at level 1
(:func:`repro.trace.io.open_artifact`). Recording a stream costs a
full hierarchy pass; persisting it lets sweeps and reruns skip straight to
replay. The trailing checksum is the integrity backbone of the persistent
experiment cache (:mod:`repro.sim.experiment`): a corrupted or truncated
artifact raises :class:`TraceError` instead of silently perturbing results.
Version-1 files (no checksum) still load.

Both plain and gzip paths load through one streamed reader
(``array.frombytes`` per column), so every loaded stream carries the same
``array.array`` columns as a freshly recorded one.
"""

import struct
import zlib
from array import array
from pathlib import Path
from typing import Union

from repro.cache.stream import LlcStream
from repro.common.errors import TraceError
from repro.trace.io import open_artifact

_MAGIC = b"RLLC"
_VERSION = 2
_HEADER = struct.Struct("<4sIQII")
_FOOTER = struct.Struct("<I")

STREAM_FORMAT_VERSION = _VERSION
"""Public format version; part of the persistent experiment-cache key."""


def write_llc_stream(stream: LlcStream, path: Union[str, Path]) -> None:
    """Serialise ``stream`` to ``path`` (gzip when the name ends in .gz)."""
    path = Path(path)
    name_bytes = stream.name.encode("utf-8")
    cores, pcs, blocks, writes = stream.columns()
    checksum = 0
    with open_artifact(path, "wb") as handle:
        handle.write(_HEADER.pack(
            _MAGIC, _VERSION, len(stream), stream.num_cores, len(name_bytes)
        ))
        handle.write(name_bytes)
        for column in (cores, pcs, blocks, writes):
            blob = column.tobytes()
            checksum = zlib.crc32(blob, checksum)
            handle.write(blob)
        handle.write(_FOOTER.pack(checksum))


def read_llc_stream(path: Union[str, Path]) -> LlcStream:
    """Load a stream written by :func:`write_llc_stream`.

    Raises:
        TraceError: on a bad magic number, unsupported version, a
            truncated file, or a column checksum mismatch.
    """
    path = Path(path)
    with open_artifact(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceError(f"{path}: truncated header")
        magic, version, count, __, namelen = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceError(f"{path}: bad magic {magic!r} (not an LLC stream)")
        if version not in (1, 2):
            raise TraceError(f"{path}: unsupported version {version}")
        name = handle.read(namelen).decode("utf-8")

        checksum = 0

        def load(typecode: str, item_size: int) -> array:
            nonlocal checksum
            column = array(typecode)
            blob = handle.read(count * item_size)
            if len(blob) != count * item_size:
                raise TraceError(f"{path}: truncated column ({typecode})")
            checksum = zlib.crc32(blob, checksum)
            column.frombytes(blob)
            return column

        cores = load("b", 1)
        pcs = load("q", 8)
        blocks = load("q", 8)
        writes = load("b", 1)

        if version >= 2:
            footer = handle.read(_FOOTER.size)
            if len(footer) != _FOOTER.size:
                raise TraceError(f"{path}: truncated checksum footer")
            (expected,) = _FOOTER.unpack(footer)
            if expected != checksum:
                raise TraceError(
                    f"{path}: checksum mismatch "
                    f"(stored {expected:#010x}, computed {checksum:#010x})"
                )
    return LlcStream(cores, pcs, blocks, writes, name=name)

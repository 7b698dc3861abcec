"""Binary trace file format.

Layout (little-endian):

    magic    4 bytes  b"RTRC"
    version  u32      currently 1
    count    u64      number of accesses
    nthreads u32      number of threads (informational)
    namelen  u32      length of the UTF-8 trace name
    name     bytes
    columns  tids as i16[count], pcs as i64[count],
             addrs as i64[count], writes as i8[count]

Files whose path ends in ``.gz`` are transparently gzip-compressed, at
level 1 (:func:`open_artifact`). Columns are stored column-major so readers
can bulk-load each with one ``frombytes``.
"""

import gzip
import struct
from array import array
from pathlib import Path
from typing import Union

from repro.common.errors import TraceError
from repro.trace.trace import Trace

_MAGIC = b"RTRC"
_VERSION = 1
_HEADER = struct.Struct("<4sIQII")


GZIP_LEVEL = 1
"""Compression level of every ``.gz`` artifact this package writes.

On recorded LLC streams level 1 is ~10% larger than level 9 and ~60x
cheaper to write; reading costs about the same.
"""


def open_artifact(path: Path, mode: str):
    """Open a trace or LLC-stream file, gzip when the name ends in .gz."""
    if path.suffix == ".gz":
        return gzip.open(path, mode, compresslevel=GZIP_LEVEL)
    return open(path, mode)


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Serialise ``trace`` to ``path`` (gzip if the name ends in .gz)."""
    path = Path(path)
    name_bytes = trace.name.encode("utf-8")
    tids, pcs, addrs, writes = trace.columns()
    with open_artifact(path, "wb") as handle:
        handle.write(
            _HEADER.pack(_MAGIC, _VERSION, len(trace), trace.num_threads, len(name_bytes))
        )
        handle.write(name_bytes)
        handle.write(tids.tobytes())
        handle.write(pcs.tobytes())
        handle.write(addrs.tobytes())
        handle.write(writes.tobytes())


def read_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`write_trace`.

    Raises:
        TraceError: on a bad magic number, unsupported version, or a
            truncated file.
    """
    path = Path(path)
    with open_artifact(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceError(f"{path}: truncated header")
        magic, version, count, __, namelen = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceError(f"{path}: unsupported version {version}")
        name = handle.read(namelen).decode("utf-8")

        def load(typecode: str, item_size: int) -> array:
            column = array(typecode)
            blob = handle.read(count * item_size)
            if len(blob) != count * item_size:
                raise TraceError(f"{path}: truncated column ({typecode})")
            column.frombytes(blob)
            return column

        tids = load("h", 2)
        pcs = load("q", 8)
        addrs = load("q", 8)
        writes = load("b", 1)
    return Trace(tids, pcs, addrs, writes, name=name)

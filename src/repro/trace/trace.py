"""In-memory trace container backed by parallel arrays.

Traces routinely hold millions of accesses; storing them as four parallel
``array`` columns keeps memory roughly 10x below a list of objects and lets
the simulator iterate with plain integer indexing.
"""

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import TraceError
from repro.trace.record import Access


class Trace:
    """An ordered, immutable sequence of memory accesses.

    Built via :class:`TraceBuilder` or :func:`Trace.from_accesses`. Columns
    are exposed read-only for bulk consumers (the simulator, numpy-based
    analysis); item access materialises :class:`Access` records.
    """

    def __init__(
        self,
        tids: array,
        pcs: array,
        addrs: array,
        writes: array,
        name: str = "trace",
    ):
        lengths = {len(tids), len(pcs), len(addrs), len(writes)}
        if len(lengths) != 1:
            raise TraceError(f"column lengths disagree: {sorted(lengths)}")
        self._tids = tids
        self._pcs = pcs
        self._addrs = addrs
        self._writes = writes
        self.name = name

    @classmethod
    def from_accesses(cls, accesses: Iterable[Access], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of :class:`Access` records."""
        builder = TraceBuilder(name=name)
        for access in accesses:
            builder.append(access.tid, access.pc, access.addr, access.is_write)
        return builder.build()

    @property
    def tids(self) -> array:
        """Thread-id column."""
        return self._tids

    @property
    def pcs(self) -> array:
        """Program-counter column."""
        return self._pcs

    @property
    def addrs(self) -> array:
        """Byte-address column."""
        return self._addrs

    @property
    def writes(self) -> array:
        """Is-write column (0/1)."""
        return self._writes

    @property
    def num_threads(self) -> int:
        """1 + the maximum thread id appearing in the trace (0 if empty)."""
        if not self._tids:
            return 0
        return max(self._tids) + 1

    def __len__(self) -> int:
        return len(self._tids)

    def __getitem__(self, index: int) -> Access:
        return Access(
            self._tids[index],
            self._pcs[index],
            self._addrs[index],
            bool(self._writes[index]),
        )

    def __iter__(self) -> Iterator[Access]:
        for i in range(len(self._tids)):
            yield Access(
                self._tids[i], self._pcs[i], self._addrs[i], bool(self._writes[i])
            )

    def columns(self) -> Tuple[array, array, array, array]:
        """The four parallel columns ``(tids, pcs, addrs, writes)``.

        This is the form the simulator's hot loop consumes.
        """
        return self._tids, self._pcs, self._addrs, self._writes

    def numpy_columns(self) -> Tuple:
        """``(tids, pcs, addrs, writes)`` as read-only zero-copy numpy views.

        """
        import numpy as np

        from repro.common.npsupport import frozen_view

        return (
            frozen_view(self._tids, np.int16),
            frozen_view(self._pcs, np.int64),
            frozen_view(self._addrs, np.int64),
            frozen_view(self._writes, np.int8),
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """A new trace covering ``[start, stop)`` of this one."""
        return Trace(
            self._tids[start:stop],
            self._pcs[start:stop],
            self._addrs[start:stop],
            self._writes[start:stop],
            name=f"{self.name}[{start}:{stop if stop is not None else ''}]",
        )

    def filter_thread(self, tid: int) -> "Trace":
        """A new trace holding only accesses of thread ``tid``."""
        builder = TraceBuilder(name=f"{self.name}/tid{tid}")
        tids, pcs, addrs, writes = self.columns()
        for i in range(len(tids)):
            if tids[i] == tid:
                builder.append(tids[i], pcs[i], addrs[i], bool(writes[i]))
        return builder.build()

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, len={len(self)}, threads={self.num_threads})"


class TraceBuilder:
    """Incremental trace constructor.

    Appends are cheap column pushes; :meth:`build` freezes the columns into a
    :class:`Trace` without copying.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._tids = array("h")
        self._pcs = array("q")
        self._addrs = array("q")
        self._writes = array("b")

    def append(self, tid: int, pc: int, addr: int, is_write: bool) -> None:
        """Append one access."""
        if tid < 0:
            raise TraceError(f"negative thread id {tid}")
        if addr < 0 or pc < 0:
            raise TraceError(f"negative address/pc ({addr}, {pc})")
        self._tids.append(tid)
        self._pcs.append(pc)
        self._addrs.append(addr)
        self._writes.append(1 if is_write else 0)

    def append_access(self, access: Access) -> None:
        """Append one :class:`Access` record."""
        self.append(access.tid, access.pc, access.addr, access.is_write)

    def extend(self, accesses: Iterable[Access]) -> None:
        """Append many :class:`Access` records."""
        for access in accesses:
            self.append_access(access)

    def __len__(self) -> int:
        return len(self._tids)

    def build(self) -> Trace:
        """Freeze into a :class:`Trace` (the builder should be discarded)."""
        return Trace(self._tids, self._pcs, self._addrs, self._writes, name=self.name)


def concatenate(traces: List[Trace], name: str = "concat") -> Trace:
    """Concatenate traces end-to-end preserving order."""
    builder = TraceBuilder(name=name)
    for trace in traces:
        tids, pcs, addrs, writes = trace.columns()
        builder._tids.extend(tids)
        builder._pcs.extend(pcs)
        builder._addrs.extend(addrs)
        builder._writes.extend(writes)
    return builder.build()

"""Fill-ordinal-indexed sharing annotation log.

Records, for every fill of a run, the residency's *cross-core use budget*:
how many demand hits cores other than the filler issued to the block before
it left the LLC. A budget of zero means the residency was private (or the
sharing never produced an LLC hit); a positive budget both flags the fill
as will-be-shared and tells the oracle wrapper how long protection is worth
holding. Fill ordinals are the LLC's access ordinal at fill time, identical
across replays of one stream — the property that lets a log from pass *k*
annotate the fills of pass *k+1*.
"""

from array import array

import numpy as np

from repro.cache.residency import ResidencyObserver


class FillSharingLog(ResidencyObserver):
    """Observer building the ``fill ordinal -> cross-core uses`` array."""

    def __init__(self, stream_length: int):
        # Ordinals are 1-based (the LLC pre-increments), hence +1.
        self.budgets = array("i", bytes(4 * (stream_length + 1)))
        self.shared_fills = 0
        self.total_fills = 0

    def consume(self, table) -> None:
        self.total_fills += len(table)
        np.frombuffer(self.budgets, dtype=np.int32)[table.fill] = table.other_hits
        self.shared_fills += int(table.shared().sum())

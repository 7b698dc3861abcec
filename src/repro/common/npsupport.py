"""numpy helpers shared by the vectorized kernels.

numpy is a hard dependency, and each vectorized step (next-use
computation, annotation scans, stream partitions, residency-metadata
reconstruction) has exactly one implementation. The object model and the
two named pure-Python reference scans (next-use and annotation) are what
the equivalence tests compare the kernels against; design decision #4
(deterministic everything) holds because those comparisons are
bit-identical.
"""

import numpy


def frozen_view(column, dtype):
    """Zero-copy read-only numpy view over one ``array.array`` column."""
    if len(column) == 0:
        return numpy.empty(0, dtype=dtype)
    view = numpy.frombuffer(column, dtype=dtype)
    view.flags.writeable = False
    return view

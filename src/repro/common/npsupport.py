"""numpy helpers shared by the vectorized kernels.

numpy is a hard dependency. Vectorized kernels (next-use computation,
annotation scans, column views) keep pure-Python twins all the same: they
are the reference implementations the equivalence tests compare against,
and they win below each kernel's size threshold, where numpy's per-call
overhead does not pay. Design decision #4 (deterministic everything)
holds because both paths are equivalence-tested to produce bit-identical
outputs, so which one runs never changes a result.
"""

import numpy


def frozen_view(column, dtype):
    """Zero-copy read-only numpy view over one ``array.array`` column."""
    if len(column) == 0:
        return numpy.empty(0, dtype=dtype)
    view = numpy.frombuffer(column, dtype=dtype)
    view.flags.writeable = False
    return view


def should_vectorize(use_numpy, length: int, threshold: int) -> bool:
    """Resolve the three-state ``use_numpy`` flag for one kernel call.

    ``None`` means auto: vectorize when the input is big enough for the
    numpy call overhead to pay for itself. ``True`` forces numpy;
    ``False`` forces the Python twin.
    """
    if use_numpy is None:
        return length >= threshold
    return bool(use_numpy)

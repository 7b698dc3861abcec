"""Tests for recorded LLC streams (repro.cache.stream)."""

from array import array

import numpy as np
import pytest

from repro.cache.stream import LlcAccess, LlcStream, LlcStreamBuilder
from repro.common.errors import TraceError


class TestLlcStreamBuilder:
    def test_build_and_length(self):
        builder = LlcStreamBuilder()
        builder.append(0, 0x1, 10, False)
        builder.append(1, 0x2, 11, True)
        assert len(builder) == 2
        stream = builder.build()
        assert len(stream) == 2

    def test_name_propagates(self):
        assert LlcStreamBuilder(name="s").build().name == "s"


class TestLlcStream:
    def make(self):
        builder = LlcStreamBuilder()
        builder.append(0, 0x1, 10, False)
        builder.append(3, 0x2, 11, True)
        return builder.build()

    def test_getitem(self):
        stream = self.make()
        assert stream[1] == LlcAccess(3, 0x2, 11, True)
        assert isinstance(stream[1].is_write, bool)

    def test_iteration(self):
        stream = self.make()
        assert list(stream) == [stream[0], stream[1]]

    def test_num_cores(self):
        assert self.make().num_cores == 4
        assert LlcStreamBuilder().build().num_cores == 0

    def test_columns(self):
        cores, pcs, blocks, writes = self.make().columns()
        assert list(cores) == [0, 3]
        assert list(blocks) == [10, 11]
        assert list(writes) == [0, 1]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            LlcStream(array("b", [0]), array("q"), array("q"), array("b"))

    @pytest.mark.parametrize("form", ("numpy", "list", "typecode"))
    def test_non_array_columns_rejected(self, form):
        # One column representation: numpy views or lists would leak
        # non-int scalars into core masks (1 << np.int8(7) == -128).
        columns = [array("b", [7]), array("q", [0x40]), array("q", [3]),
                   array("b", [1])]
        if form == "numpy":
            columns[0] = np.array([7], dtype=np.int8)
        elif form == "list":
            columns[2] = [3]
        else:
            columns[1] = array("l", [0x40])
        with pytest.raises(TraceError, match="array.array"):
            LlcStream(*columns)

    def test_repr(self):
        assert "len=2" in repr(self.make())

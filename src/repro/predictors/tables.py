"""History-table sharing predictors: address-indexed, PC-indexed, hybrid.

Both single-feature designs are direct-mapped tables of saturating
counters. The address predictor bets that a block's next residency repeats
its previous residencies' behaviour; the PC predictor bets that all fills
from one instruction behave alike. ``tag_bits`` optionally adds partial
tags: on a tag mismatch the entry is not trusted (the default prediction is
returned) and training reallocates the entry — isolating the accuracy loss
caused by aliasing from the loss inherent to the feature, which the A2
ablation quantifies.
"""

from repro.common.errors import ConfigError
from repro.predictors.base import SharingPredictor


def _mix(value: int) -> int:
    """Cheap integer hash to spread low-entropy keys across the table."""
    value = (value ^ (value >> 16)) * 0x45D9F3B
    value = (value ^ (value >> 13)) * 0x45D9F3B
    return value ^ (value >> 16)


class _CounterTablePredictor(SharingPredictor):
    """Shared machinery of the address and PC predictors."""

    def __init__(self, index_bits: int = 14, counter_bits: int = 2,
                 tag_bits: int = 0, default_shared: bool = False):
        if index_bits <= 0 or counter_bits <= 0 or tag_bits < 0:
            raise ConfigError("index_bits/counter_bits must be positive, tag_bits >= 0")
        self.index_bits = index_bits
        self.size = 1 << index_bits
        self._index_mask = self.size - 1
        self.counter_max = (1 << counter_bits) - 1
        self.threshold = (self.counter_max + 1) // 2
        self.tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self.default_shared = default_shared
        self._counters = [self.threshold - 1 if self.threshold > 0 else 0] * self.size
        self._tags = [0] * self.size if tag_bits else None
        self._counter_bits = counter_bits
        self._slots = {}  # key -> (index, tag); the hash is pure

    def _key(self, block: int, pc: int, core: int) -> int:
        raise NotImplementedError

    def _slot(self, key: int):
        slot = self._slots.get(key)
        if slot is None:
            hashed = _mix(key)
            slot = (hashed & self._index_mask,
                    (hashed >> self.index_bits) & self._tag_mask)
            self._slots[key] = slot
        return slot

    def predict(self, block: int, pc: int, core: int) -> bool:
        index, tag = self._slot(self._key(block, pc, core))
        if self._tags is not None and self._tags[index] != tag:
            return self.default_shared
        return self._counters[index] >= self.threshold

    def train(self, block: int, pc: int, core: int, was_shared: bool) -> None:
        index, tag = self._slot(self._key(block, pc, core))
        if self._tags is not None and self._tags[index] != tag:
            # Reallocate: fresh entry biased toward the observed outcome.
            self._tags[index] = tag
            self._counters[index] = self.threshold if was_shared else self.threshold - 1
            return
        if was_shared:
            if self._counters[index] < self.counter_max:
                self._counters[index] += 1
        elif self._counters[index] > 0:
            self._counters[index] -= 1

    def reset(self) -> None:
        initial = self.threshold - 1 if self.threshold > 0 else 0
        for i in range(self.size):
            self._counters[i] = initial
        if self._tags is not None:
            for i in range(self.size):
                self._tags[i] = 0

    def storage_bits(self) -> int:
        return self.size * (self._counter_bits + self.tag_bits)


class AddressSharingPredictor(_CounterTablePredictor):
    """History table indexed by the filled block's address."""

    name = "address"

    def _key(self, block: int, pc: int, core: int) -> int:
        return block


class PcSharingPredictor(_CounterTablePredictor):
    """History table indexed by the PC of the fill-triggering instruction."""

    name = "pc"

    def _key(self, block: int, pc: int, core: int) -> int:
        return pc


class HybridSharingPredictor(SharingPredictor):
    """Tournament hybrid of the address and PC predictors.

    A chooser table (indexed by PC) tracks which component has been more
    accurate for fills from each instruction and forwards that component's
    prediction — the standard two-level tournament arrangement. Both
    components train on every outcome; the chooser trains only when the
    components disagree.
    """

    name = "hybrid"

    def __init__(self, index_bits: int = 14, counter_bits: int = 2,
                 chooser_bits: int = 12):
        if chooser_bits <= 0:
            raise ConfigError(f"chooser_bits must be positive, got {chooser_bits}")
        self.address = AddressSharingPredictor(index_bits, counter_bits)
        self.pc = PcSharingPredictor(index_bits, counter_bits)
        self.chooser_size = 1 << chooser_bits
        self._chooser_mask = self.chooser_size - 1
        self._chooser = [1] * self.chooser_size  # 2-bit: >=2 prefers address
        self._chooser_bits = chooser_bits

    def _chooser_index(self, pc: int) -> int:
        return _mix(pc) & self._chooser_mask

    def predict(self, block: int, pc: int, core: int) -> bool:
        if self._chooser[self._chooser_index(pc)] >= 2:
            return self.address.predict(block, pc, core)
        return self.pc.predict(block, pc, core)

    def train(self, block: int, pc: int, core: int, was_shared: bool) -> None:
        addr_prediction = self.address.predict(block, pc, core)
        pc_prediction = self.pc.predict(block, pc, core)
        if addr_prediction != pc_prediction:
            index = self._chooser_index(pc)
            if addr_prediction == was_shared:
                if self._chooser[index] < 3:
                    self._chooser[index] += 1
            elif self._chooser[index] > 0:
                self._chooser[index] -= 1
        self.address.train(block, pc, core, was_shared)
        self.pc.train(block, pc, core, was_shared)

    def reset(self) -> None:
        self.address.reset()
        self.pc.reset()
        for i in range(self.chooser_size):
            self._chooser[i] = 1

    def storage_bits(self) -> int:
        return (
            self.address.storage_bits()
            + self.pc.storage_bits()
            + self.chooser_size * 2
        )

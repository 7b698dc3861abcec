"""Online predictor evaluation harness.

:class:`PredictorHarness` is a residency observer. It walks a replay's
fill and end events in replay order: at each fill it predicts with the
tables *as of that moment*; when the residency ends it trains the
predictor on the ground truth. The fill-time predictions are then scored
against that truth — exactly the information flow available to a real
fill-time predictor (truth only materialises at eviction).

The same harness doubles as the glue for predictor-*driven* replacement:
:func:`predictor_hint_source` routes the harness's fill-time predictions
into a :class:`repro.oracle.SharingAwareWrapper`, so the F8 experiment
("how much of the oracle's gain does a realistic predictor capture?") uses
the identical protection mechanism as the oracle — only the hint differs.
"""

import numpy as np

from repro.cache.residency import ResidencyObserver
from repro.predictors.base import SharingPredictor
from repro.predictors.metrics import ConfusionMatrix


class PredictorHarness(ResidencyObserver):
    """Scores and trains one predictor online during an LLC run."""

    def __init__(self, predictor: SharingPredictor, warmup_fills: int = 0):
        self.predictor = predictor
        self.warmup_fills = warmup_fills
        self.matrix = ConfusionMatrix()
        self._fills_seen = 0
        self._driving = None  # the hint source logging a live replay's fills

    def live_hook(self, policy):
        """Train live when ``policy`` takes hints from this predictor.

        A wrapper driven by :func:`predictor_hint_source` over the
        harness's own predictor reads it at every fill, so training must
        happen as each residency ends. The wrapper's hint for a fill is
        then exactly the harness's fill-time prediction (same predictor,
        same state, same arguments), so the hint source logs those
        instead of the harness predicting twice.
        """
        source = getattr(policy, "hint_source", None)
        if type(source) is not PredictorHintSource or (
            source.predictor is not self.predictor
        ):
            return None
        source.log = []
        self._driving = source
        return self._train_live

    def _train_live(self, block, fill_pc, fill_core, core_mask) -> None:
        self.predictor.train(block, fill_pc, fill_core,
                             core_mask & (core_mask - 1) != 0)

    def consume(self, table) -> None:
        shared = table.shared()
        rank = np.argsort(np.argsort(table.fill))  # each row's fill number
        if self._driving is not None:
            predicted = np.array(self._driving.log, dtype=bool)[rank]
            self._driving.log = None
            self._driving = None
        else:
            predicted = self._replay(table, shared)
        scored = self._fills_seen + rank + 1 > self.warmup_fills
        self._fills_seen += len(table)
        self.matrix.update_many(predicted[scored], shared[scored])

    def _replay(self, table, shared) -> np.ndarray:
        """Predict at every fill and train at every end, in replay order.

        An eviction at ordinal ``e`` precedes the fill at ``e``, and the
        flushed residencies end after the last fill, in table order.
        """
        count = len(table)
        end_keys = np.where(
            table.forced == 1,
            2 * table.end + 2 + 2 * np.arange(count, dtype=np.int64),
            2 * table.end,
        )
        events = np.argsort(np.concatenate((end_keys, 2 * table.fill + 1)))
        blocks = table.block.tolist()
        pcs = table.fill_pc.tolist()
        cores = table.fill_core.tolist()
        truth = shared.tolist()
        predicted = [False] * count
        predict = self.predictor.predict
        train = self.predictor.train
        for event in events.tolist():
            if event < count:
                train(blocks[event], pcs[event], cores[event], truth[event])
            else:
                row = event - count
                predicted[row] = predict(blocks[row], pcs[row], cores[row])
        return np.array(predicted, dtype=bool)


class PredictorHintSource:
    """Wrapper hint source answering from a live predictor.

    Returns a cross-core-use budget of 1 for a predicted-shared fill —
    protect until the first cross-core hit — since a boolean predictor
    cannot say how much sharing to expect. ``log``, when a list, receives
    every prediction in fill order (set by :meth:`PredictorHarness.live_hook`).
    """

    __slots__ = ("predictor", "log")

    def __init__(self, predictor: SharingPredictor):
        self.predictor = predictor
        self.log = None

    def __call__(self, llc, block: int, pc: int, core: int) -> int:
        shared = self.predictor.predict(block, pc, core)
        if self.log is not None:
            self.log.append(shared)
        return 1 if shared else 0


def predictor_hint_source(predictor: SharingPredictor) -> PredictorHintSource:
    """Hint source for :class:`SharingAwareWrapper` backed by ``predictor``.

    Attach a :class:`PredictorHarness` over the *same* predictor instance
    to the replay so training happens; the wrapper only consumes
    predictions.
    """
    return PredictorHintSource(predictor)

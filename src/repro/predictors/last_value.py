"""The last-value predictor (Lipasti et al., via the paper's Section 2.1).

Each entry holds the destination value the instruction produced most
recently; the prediction is simply that value again — a stride held at
0, which is how the kernels of :mod:`repro.predictors.stride` play it.
"""

from __future__ import annotations

from typing import Optional

from .base import AccessResult, Number, ValuePredictor
from .table import EvictionCallback, PredictionTable


class LastValueEntry:
    """Table entry: the most recent destination value."""

    __slots__ = ("last_value",)

    #: A stride held at 0, read by the stride kernels (``learns=False``).
    stride = 0

    def __init__(self, last_value: Number) -> None:
        self.last_value = last_value

    def predict(self) -> Number:
        return self.last_value

    def update(self, value: Number) -> None:
        self.last_value = value


class LastValuePredictor(ValuePredictor):
    """Predicts that an instruction repeats its previously seen value.

    Args:
        entries: table capacity (``None`` = unbounded).
        ways: set associativity.
    """

    def __init__(self, entries: Optional[int] = None, ways: int = 2) -> None:
        self.table: PredictionTable[LastValueEntry] = PredictionTable(entries, ways)

    def access(
        self,
        address: int,
        value: Number,
        allocate: bool = True,
        on_evict: Optional[EvictionCallback] = None,
    ) -> AccessResult:
        entry = self.table.lookup(address)
        if entry is not None:
            predicted = entry.predict()
            correct = predicted == value
            entry.update(value)
            return AccessResult(
                hit=True,
                predicted_value=predicted,
                correct=correct,
                nonzero_stride=False,
            )
        if not allocate:
            return AccessResult(
                hit=False, predicted_value=None, correct=False, nonzero_stride=False
            )
        evicted = self.table.insert(address, LastValueEntry(value), on_evict)
        return AccessResult(
            hit=False,
            predicted_value=None,
            correct=False,
            nonzero_stride=False,
            allocated=True,
            evicted_address=evicted,
        )

    def lookup_prediction(self, address: int) -> Optional[Number]:
        entry = self.table.peek(address)
        return None if entry is None else entry.predict()

    def clear(self) -> None:
        self.table.clear()

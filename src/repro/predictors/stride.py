"""The stride predictor (Gabbay & Mendelson, via the paper's Section 2.1).

Each entry holds the last value and a stride — "always determined upon the
subtraction of two recent consecutive destination values".  The prediction
is ``last value + stride``.  A freshly allocated entry starts with a zero
stride, so its first prediction degenerates to last-value.

The module also holds the batch kernels, :func:`walk_unbounded` and
:func:`walk_set_associative`: the inlined table walks that phase-2
profiling and the classified simulation (and, through it, the ILP model)
run for the predictors of :data:`KERNEL_PREDICTORS`.  They sit here,
below both, because ``repro.core`` imports ``repro.profiling``.  Each
plays the predictor's ``access`` over a batch's candidate ``(address,
value)`` pairs and counts into ``acc``, a dict of address-keyed slots
``[executions, attempts, would_correct, taken, taken_correct,
allocations, nonzero_stride_correct]``.  Every candidate looks the table
up and every hit is an attempt, so the table's lookup and hit meters are
the sums of slots 0 and 1.  Last-value is stride with the stride held
at 0: with ``learns=False`` the kernels allocate :class:`LastValueEntry`
objects and never write a stride, so slot 6 stays 0.

A policy argument of ``None`` is the unconditional choice: allocate on
every miss, take every hit.  ``alloc_members`` and ``take_members``
restrict allocation and taking to member addresses.  ``fsm`` is the
:class:`~repro.predictors.FsmClassifier` rule instead, as ``(states,
initial, threshold, maximum)``: one int per address in ``states``
(``initial`` when absent), a hit is taken when its state is at least
``threshold``, then steps up on a correct and down on a wrong
prediction within ``[0, maximum]``; an evicted address loses its state.
``outcomes``, when given, receives one code per taken pair: 1 correct,
2 wrong.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .base import AccessResult, Number, ValuePredictor
from .last_value import LastValueEntry, LastValuePredictor
from .table import EvictionCallback, PredictionTable


class StrideEntry:
    """Table entry: last value plus the most recent first difference."""

    __slots__ = ("last_value", "stride")

    def __init__(self, last_value: Number, stride: Number = 0) -> None:
        self.last_value = last_value
        self.stride = stride

    def predict(self) -> Number:
        return self.last_value + self.stride

    def update(self, value: Number) -> None:
        self.stride = value - self.last_value
        self.last_value = value


class StridePredictor(ValuePredictor):
    """Predicts ``last value + stride``.

    Args:
        entries: table capacity (``None`` = unbounded).
        ways: set associativity.
    """

    def __init__(self, entries: Optional[int] = None, ways: int = 2) -> None:
        self.table: PredictionTable[StrideEntry] = PredictionTable(entries, ways)

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
            nonzero = correct and entry.stride != 0
            entry.update(value)
            return AccessResult(
                hit=True,
                predicted_value=predicted,
                correct=correct,
                nonzero_stride=nonzero,
            )
        if not allocate:
            return AccessResult(
                hit=False, predicted_value=None, correct=False, nonzero_stride=False
            )
        evicted = self.table.insert(address, StrideEntry(value), on_evict)
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


#: Predictor types the kernels play, each with its "stride learns" flag.
KERNEL_PREDICTORS = {StridePredictor: True, LastValuePredictor: False}


def walk_unbounded(
    entries, acc, pairs, outcomes=None,
    alloc_members=None, take_members=None, fsm=None, learns=True,
) -> None:
    """Walk ``pairs`` over the one set of an unbounded table.

    ``entries`` is that set.  Its LRU order is not refreshed on hits, which
    no observer can see in a table that never evicts.
    """
    new_entry = StrideEntry if learns else LastValueEntry
    if fsm is not None:
        states, initial, threshold, maximum = fsm
        get_state = states.get
    get_entry = entries.get
    get_slot = acc.get
    for position, (address, value) in enumerate(pairs):
        slot = get_slot(address)
        if slot is None:
            slot = acc[address] = [0, 0, 0, 0, 0, 0, 0]
        slot[0] += 1
        entry = get_entry(address)
        if entry is None:
            if alloc_members is None or address in alloc_members:
                entries[address] = new_entry(value)
                slot[5] += 1
            continue
        last = entry.last_value
        stride = entry.stride
        correct = last + stride == value
        if learns:
            entry.stride = value - last
        entry.last_value = value
        slot[1] += 1
        if correct:
            slot[2] += 1
            if stride != 0:
                slot[6] += 1
        if fsm is not None:
            state = get_state(address, initial)
            took = state >= threshold
            states[address] = (
                state + (state < maximum) if correct else state - (state > 0)
            )
        elif take_members is None:
            took = True
        else:
            took = address in take_members
        if took:
            slot[3] += 1
            if correct:
                slot[4] += 1
            if outcomes is not None:
                outcomes[position] = 1 if correct else 2


def walk_set_associative(
    table, acc, pairs, outcomes=None,
    alloc_members=None, take_members=None, fsm=None, learns=True,
) -> int:
    """Walk ``pairs`` over a finite LRU ``table``; return the evictions.

    Hits refresh LRU order and allocations displace the least recently
    used entry of a full set, in the order ``PredictionTable.lookup``/
    ``insert`` would.
    """
    new_entry = StrideEntry if learns else LastValueEntry
    if fsm is not None:
        states, initial, threshold, maximum = fsm
        get_state = states.get
    num_sets = table.num_sets
    ways = table.ways
    sets = table._sets
    evictions = 0
    get_slot = acc.get
    for position, (address, value) in enumerate(pairs):
        slot = get_slot(address)
        if slot is None:
            slot = acc[address] = [0, 0, 0, 0, 0, 0, 0]
        slot[0] += 1
        index = address % num_sets
        table_set = sets.get(index)
        if table_set is None:
            table_set = sets[index] = OrderedDict()
            entry = None
        else:
            entry = table_set.get(address)
        if entry is None:
            if alloc_members is None or address in alloc_members:
                if len(table_set) >= ways:
                    evicted, _ = table_set.popitem(last=False)
                    evictions += 1
                    if fsm is not None:
                        states.pop(evicted, None)
                table_set[address] = new_entry(value)
                slot[5] += 1
            continue
        table_set.move_to_end(address)
        last = entry.last_value
        stride = entry.stride
        correct = last + stride == value
        if learns:
            entry.stride = value - last
        entry.last_value = value
        slot[1] += 1
        if correct:
            slot[2] += 1
            if stride != 0:
                slot[6] += 1
        if fsm is not None:
            state = get_state(address, initial)
            took = state >= threshold
            states[address] = (
                state + (state < maximum) if correct else state - (state > 0)
            )
        elif take_members is None:
            took = True
        else:
            took = address in take_members
        if took:
            slot[3] += 1
            if correct:
                slot[4] += 1
            if outcomes is not None:
                outcomes[position] = 1 if correct else 2
    return evictions

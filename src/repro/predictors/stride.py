"""The stride predictor (Gabbay & Mendelson, via the paper's Section 2.1).

Each entry holds the last value and a stride — "always determined upon the
subtraction of two recent consecutive destination values".  The prediction
is ``last value + stride``.  A freshly allocated entry starts with a zero
stride, so its first prediction degenerates to last-value.

The module also holds the batch kernels: the inlined table walks that
phase-2 profiling and the classified simulation (and, through it, the
ILP model) run for the predictors of :data:`KERNEL_PREDICTORS`.  They sit
here, below both, because ``repro.core`` imports ``repro.profiling``.
Each plays the predictor's ``access`` over ``pairs``, any re-iterable of
a batch's candidate ``(address, value)`` pairs (such as the view
:meth:`~repro.machine.TraceBatch.candidates` returns).

A walk keeps one *row* per address, a list in one dict ``rows``::

    [last, stride, misses, attempts, correct, nonzero_stride_correct,
     held, taken, taken_correct, allocations, set, state]

``last`` and ``stride`` are the entry (:data:`NO_ENTRY` in ``last`` when
the address holds none); the eight counters follow, so a pair costs one
dict lookup.  Every candidate is a miss or a hit, and every hit is an
attempt: executions are ``misses + attempts``, and a table's lookup and
hit meters are their sums.  ``set`` is the LRU set that holds the row
during a :func:`walk_set_associative` walk, ``state`` an FSM counter
(``None``: none yet).
:func:`table_rows` seeds rows from a table's entries and
:func:`write_back` hands rows back when the walk is over; they become
:class:`StrideEntry` or :class:`LastValueEntry` objects only when the
table is next read
(:meth:`~repro.predictors.table.PredictionTable.defer`), so no entry
object is touched per pair.  Last-value is stride with the stride held
at 0 (``learns=False``), so its ``nonzero_stride_correct`` stays 0.

Two bodies walk the rows:

* :func:`walk_take_all` — phase-2 profiling over a table that starts
  empty: allocate on every miss, take every hit, no codes.  It counts
  ``misses``, ``attempts``, ``correct`` and ``nonzero_stride_correct``,
  and with ``held=True`` also ``held``: the hits whose value equals the
  entry's last value, exactly the correct predictions of an unbounded
  last-value table over the same stream, which profiling folds its
  last-value image from.
* :func:`walk_set_associative` — the classified simulation: an LRU
  table, finite or unbounded (one set with no way limit), that
  allocates every miss or only ``alloc_members`` and takes every hit,
  the hits of ``take_members``, or by ``fsm``, the
  :class:`~repro.predictors.FsmClassifier` rule ``(initial, threshold,
  maximum)``: a hit is taken when its state (``initial`` when absent) is
  at least ``threshold``, then steps up on a correct and down on a wrong
  prediction within ``[0, maximum]``.  An evicted address loses its
  entry and its FSM state.  ``hits``, when given, receives one code per
  hit whether taken or not (1 correct, 2 wrong), from which the ILP
  model masks the outcomes of engines that share the walk.

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

#: The ``last`` of a row whose address holds no entry.
NO_ENTRY = object()

#: Row slot indexes (see the module docstring).
LAST, STRIDE, MISSES, ATTEMPTS, CORRECT, NONZERO, HELD = range(7)
TAKEN, TAKEN_CORRECT, ALLOCATIONS, SET, STATE = range(7, 12)

#: The counters of a row, from ``MISSES`` to ``ALLOCATIONS``.
ZERO_COUNTS = (0,) * 8


def table_rows(table, states=None):
    """Rows seeded from ``table``'s entries, with their FSM ``states``."""
    states = states or {}
    return {
        address: [entry.last_value, entry.stride, *ZERO_COUNTS, None,
                  states.get(address)]
        for address, entry in table
    }


def write_back(table, rows, learns, sets=None) -> None:
    """Make the ``rows``' entries ``table``'s, built when it is next read.

    ``sets``, the LRU sets of a :func:`walk_set_associative` walk, give
    each set's order, and the sets come in the order the rows first
    touched them, as ``PredictionTable`` creates them; otherwise each set
    keeps the rows' first-allocation order.  The rows must not change
    afterwards.
    """
    make = (lambda row: StrideEntry(row[0], row[1])) if learns else (
        lambda row: LastValueEntry(row[0])
    )
    num_sets = table.num_sets  # read here: ``build`` must not hold the table

    def build():
        if sets is not None:
            return {
                index: OrderedDict(
                    (address, make(row)) for address, row in sets[index].items()
                )
                for index in dict.fromkeys(address % num_sets for address in rows)
                if sets[index]
            }
        built = {}
        for address, row in rows.items():
            if row[0] is not NO_ENTRY:
                index = address % num_sets
                table_set = built.get(index)
                if table_set is None:
                    table_set = built[index] = OrderedDict()
                table_set[address] = make(row)
        return built

    table.defer(build)


def take_all_update(key: str, learns: bool = True, held: bool = False) -> str:
    """Source of one step of the take-all walk: ``value`` updates ``row``.

    ``row`` is the row of ``rows[key]``, ``None`` when the address has
    none yet: the step then enters a new row there and binds it to
    ``row``.  A hit counts an attempt, its correct and nonzero-stride
    predictions and, with ``held``, a value equal to the last one; the
    stride learns the new difference when ``learns``.  The one body of
    :func:`walk_take_all` and of the profile-mode closures of
    :mod:`repro.machine.closures`, which hold their own row.
    """
    new = ["0"] * 12
    new[LAST] = "value"
    new[MISSES] = new[ALLOCATIONS] = "1"
    new[SET] = new[STATE] = "None"
    lines = [
        "if row is None:",
        f"    row = rows[{key}] = [{', '.join(new)}]",
        "else:",
        f"    last = row[{LAST}]",
        f"    stride = row[{STRIDE}]",
        f"    row[{ATTEMPTS}] += 1",
        "    if last + stride == value:",
        f"        row[{CORRECT}] += 1",
        "        if stride != 0:",
        f"            row[{NONZERO}] += 1",
    ]
    if held:
        lines += ["    if value == last:", f"        row[{HELD}] += 1"]
    if learns:
        lines.append(f"    row[{STRIDE}] = value - last")
    lines.append(f"    row[{LAST}] = value")
    return "\n".join(lines)


#: The take-all walks compiled so far, by ``(learns, held)``.
_TAKE_ALL_WALKS = {}


def walk_take_all(rows, pairs, learns=True, held=False) -> None:
    """Profile ``pairs`` over an unbounded table that started empty."""
    walk = _TAKE_ALL_WALKS.get((learns, held))
    if walk is None:
        step = take_all_update("address", learns, held)
        source = "\n".join([
            "def walk(rows, pairs):",
            "    get = rows.get",
            "    for address, value in pairs:",
            "        row = get(address)",
            *("        " + line for line in step.splitlines()),
        ])
        namespace = {}
        exec(source, namespace)
        walk = _TAKE_ALL_WALKS[(learns, held)] = namespace["walk"]
    walk(rows, pairs)


def walk_set_associative(
    sets, ways, rows, pairs, outcomes=None, hits=None,
    alloc_members=None, take_members=None, fsm=None, learns=True,
) -> int:
    """Walk ``pairs`` over an LRU table; return the evictions.

    ``sets`` holds one ordered dict of rows per set index, every index
    present; an unbounded table is one set with ``ways`` ``math.inf``.
    Hits refresh LRU order and allocations displace the least recently
    used row of a full set, in the order
    ``PredictionTable.lookup``/``insert`` would.
    """
    if fsm is not None:
        initial, threshold, maximum = fsm
    num_sets = len(sets)
    evictions = 0
    get = rows.get
    for position, (address, value) in enumerate(pairs):
        row = get(address)
        if row is None:
            row = rows[address] = [NO_ENTRY, 0, 0, 0, 0, 0, 0, 0, 0, 0, None, None]
        last = row[0]
        if last is NO_ENTRY:
            row[2] += 1
            if alloc_members is None or address in alloc_members:
                table_set = sets[address % num_sets]
                if len(table_set) >= ways:
                    _, evicted = table_set.popitem(last=False)
                    evicted[0] = NO_ENTRY
                    evicted[10] = evicted[11] = None
                    evictions += 1
                table_set[address] = row
                row[0] = value
                row[1] = 0
                row[9] += 1
                row[10] = table_set
            continue
        row[10].move_to_end(address)
        correct = last + row[1] == value
        if learns:
            row[1] = value - last
        row[0] = value
        row[3] += 1
        if correct:
            row[4] += 1
        if hits is not None:
            hits[position] = 1 if correct else 2
        if fsm is not None:
            state = row[11]
            if state is None:
                state = initial
            row[11] = state + (state < maximum) if correct else state - (state > 0)
            if state < threshold:
                continue
        elif take_members is not None and address not in take_members:
            continue
        row[7] += 1
        if correct:
            row[8] += 1
        if outcomes is not None:
            outcomes[position] = 1 if correct else 2
    return evictions

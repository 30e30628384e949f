"""Columnar trace batches.

A :class:`TraceBatch` holds a fixed-size chunk of the dynamic trace as
parallel columns instead of one :class:`~repro.machine.trace.TraceRecord`
object per retired instruction:

``addresses``
    an array of static instruction addresses, one per record, in the
    narrowest unsigned typecode for the program's size (``'B'``,
    ``'H'``, else ``'I'``); a replayed batch gets the captured array;
``values``
    the values the batch's prediction candidates produced, in trace
    order: the interpreter's list in a live batch, the stored
    ``array('i')``/``array('q')``/``array('d')`` (or decoded list) in a
    replayed one;
``others``
    the values of the other producers — ``call``, ``in`` and ``fin``,
    which are not candidates — in trace order;
``phase_runs``
    run-length encoded phases: ``(start_offset, phase)`` pairs, the
    first always at offset 0;
``mems``
    effective addresses of the loads/stores in the batch, in trace
    order: a list in a live batch, the stored ``array('I')`` (else
    ``array('q')``, or a decoded list) in a replayed one.

Which records have an entry in ``values``, ``others`` and ``mems`` is
static per program: the batch carries the program's
:class:`~repro.machine.executor.MachineTables` bitmaps
``candidate_flags``, ``value_flags`` (every producer) and ``mem_flags``,
indexed by static address, so no column stores a per-record ``None``.

Value-prediction consumers — profiling, the classified simulation and
the ILP model — read a batch through :meth:`TraceBatch.candidates`, the
one candidate walk: the ``(address, value)`` pairs of the batch's
prediction candidates in trace order, their phase runs, and the sampled
profiles' global-position rule.  :meth:`TraceBatch.records` is the
per-record adapter the reference paths use.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..isa import Number
from .trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from .executor import MachineTables

#: Default number of records per batch emitted by ``Executor.run_batches``.
DEFAULT_CHUNK = 16_384


class CandidatePairs:
    """A batch's candidate ``(address, value)`` pairs, as a view.

    Iterating zips two equal-length columns, so the view stores no tuple
    per candidate.  It can be iterated more than once, has a length, and
    a slice of it is another view.
    """

    __slots__ = ("addresses", "values")

    def __init__(self, addresses: Sequence[int], values: Sequence[Number]) -> None:
        self.addresses = addresses
        self.values = values

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[Tuple[int, Number]]:
        return zip(self.addresses, self.values)

    def __getitem__(self, index: slice) -> "CandidatePairs":
        return CandidatePairs(self.addresses[index], self.values[index])


class TraceBatch:
    """One columnar chunk of a dynamic trace."""

    __slots__ = (
        "addresses",
        "values",
        "others",
        "phase_runs",
        "mems",
        "candidate_flags",
        "value_flags",
        "mem_flags",
    )

    def __init__(
        self,
        addresses: array,
        values: Sequence[Number],
        others: Sequence[Number],
        phase_runs: List[Tuple[int, int]],
        mems: Sequence[int],
        tables: "MachineTables",
    ) -> None:
        self.addresses = addresses
        self.values = values
        self.others = others
        self.phase_runs = phase_runs
        self.mems = mems
        self.candidate_flags = tables.candidate_flags
        self.value_flags = tables.value_flags
        self.mem_flags = tables.mem_flags

    def __len__(self) -> int:
        return len(self.addresses)

    def phase_segments(self) -> Iterator[Tuple[int, int, int]]:
        """``(start, end, phase)`` half-open segments covering the batch."""
        runs = self.phase_runs
        n = len(self.addresses)
        for index, (start, phase) in enumerate(runs):
            end = runs[index + 1][0] if index + 1 < len(runs) else n
            if start < end:
                yield start, end, phase

    def candidates(
        self,
        sample_every: int = 1,
        offset: int = 0,
        addresses: Optional[List[int]] = None,
    ) -> Tuple[CandidatePairs, List[Tuple[int, int]]]:
        """The batch's candidate ``(address, value)`` pairs, with phases.

        Returns ``(pairs, runs)``.  ``pairs`` holds, in trace order, every
        prediction candidate whose 0-based position in the whole run —
        ``offset`` is the position of this batch's first record — is a
        multiple of ``sample_every``.  ``runs`` holds ``(pair index,
        phase)`` starts in the shape of :attr:`phase_runs`: the first at
        0, consecutive phases distinct, and no run without a pair (so
        ``runs`` is empty when ``pairs`` is).  A caller that already
        holds :attr:`addresses` as a list passes it as ``addresses``,
        which is then walked instead of a second conversion.
        """
        # Unpacked once, so the gather and the compress share its ints.
        if addresses is None:
            addresses = self.addresses.tolist()
        values = self.values
        # One candidate flag per record, gathered in C; a 1-tuple for a
        # single record, where itemgetter would return the bare flag.
        if len(addresses) > 1:
            flags = itemgetter(*addresses)(self.candidate_flags)
        else:
            flags = tuple(self.candidate_flags[a] for a in addresses)
        segments = list(self.phase_segments())
        if sample_every == 1:
            pairs = CandidatePairs(list(compress(addresses, flags)), values)
            ends = list(
                accumulate(sum(flags[start:end]) for start, end, _ in segments[:-1])
            )
            ends.append(len(pairs))
        else:
            # Candidates before each position: a sampled record's index
            # into the value column.
            ranks = list(accumulate(flags, initial=0))
            found: List[int] = []
            sampled: List[Number] = []
            ends = []
            for start, end, _phase in segments:
                first = start + (-(offset + start) % sample_every)
                for position in range(first, end, sample_every):
                    if flags[position]:
                        found.append(addresses[position])
                        sampled.append(values[ranks[position]])
                ends.append(len(found))
            pairs = CandidatePairs(found, sampled)
        runs: List[Tuple[int, int]] = []
        mark = 0
        for end_mark, (_start, _end, phase) in zip(ends, segments):
            if end_mark > mark and (not runs or runs[-1][1] != phase):
                runs.append((mark, phase))
            mark = end_mark
        return pairs, runs

    def records(self) -> Iterator[TraceRecord]:
        """Per-record adapter: rebuild one ``TraceRecord`` per entry."""
        addresses = self.addresses
        cflags = self.candidate_flags
        vflags = self.value_flags
        mflags = self.mem_flags
        values = iter(self.values)
        others = iter(self.others)
        mems = iter(self.mems)
        for start, end, phase in self.phase_segments():
            for address in addresses[start:end]:
                if cflags[address]:
                    value = next(values)
                elif vflags[address]:
                    value = next(others)
                else:
                    value = None
                mem_address = next(mems) if mflags[address] else None
                yield TraceRecord(address, value, phase, mem_address)

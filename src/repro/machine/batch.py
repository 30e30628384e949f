"""Columnar trace batches.

A :class:`TraceBatch` holds a fixed-size chunk of the dynamic trace as
parallel columns instead of one :class:`~repro.machine.trace.TraceRecord`
object per retired instruction:

``addresses``
    an ``array('q')`` of static instruction addresses, one per record;
``values``
    a :class:`~repro.machine.columns.ValueColumn` of *produced* values —
    a packed ``array('q')`` plus an escape map for floats/bigints.
    Which records produce a value is static per program
    (``value_flags`` indexed by static address), so the column stores
    no per-record ``None`` slot for non-writers, exactly as ``mems``
    never stored per-record ``None`` memory addresses;
``phase_runs``
    run-length encoded phases: ``(start_offset, phase)`` pairs, the
    first always at offset 0;
``mems``
    effective addresses of the loads/stores in the batch, in trace
    order, against the static ``mem_flags`` bitmap.

Value-prediction consumers — profiling, the classified simulation and
the ILP model — read a batch through :meth:`TraceBatch.candidates`, the
one candidate walk: the ``(address, value)`` pairs of the batch's
prediction candidates in trace order, their phase runs, and the sampled
profiles' global-position rule.  :meth:`TraceBatch.records` is the
per-record adapter the reference paths use.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

from ..isa import Number
from .columns import ValueColumn
from .trace import TraceRecord

#: Default number of records per batch emitted by ``Executor.run_batches``.
DEFAULT_CHUNK = 16_384


class TraceBatch:
    """One columnar chunk of a dynamic trace."""

    __slots__ = (
        "addresses",
        "values",
        "value_flags",
        "phase_runs",
        "mems",
        "mem_flags",
    )

    def __init__(
        self,
        addresses: array,
        values: ValueColumn,
        value_flags: Sequence[bool],
        phase_runs: List[Tuple[int, int]],
        mems: List[int],
        mem_flags: Sequence[bool],
    ) -> None:
        self.addresses = addresses
        self.values = values
        self.value_flags = value_flags
        self.phase_runs = phase_runs
        self.mems = mems
        self.mem_flags = mem_flags

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
        self, is_candidate: Sequence[bool], sample_every: int = 1, offset: int = 0
    ) -> Tuple[List[Tuple[int, Number]], List[Tuple[int, int]]]:
        """The batch's candidate ``(address, value)`` pairs, with phases.

        Returns ``(pairs, runs)``.  ``pairs`` lists, in trace order, every
        record whose address is flagged in ``is_candidate`` and whose
        0-based position in the whole run — ``offset`` is the position of
        this batch's first record — is a multiple of ``sample_every``.
        ``runs`` holds ``(pair index, phase)`` starts in the shape of
        :attr:`phase_runs`: the first at 0, consecutive phases distinct,
        and no run without a pair (so ``runs`` is empty when ``pairs``
        is).  Candidates always produce a value, so a cursor over the
        packed value column recovers each one's value.
        """
        addresses = self.addresses
        flags = self.value_flags
        column = self.values
        produced = column.ints if column.is_pure_int else column.tolist()
        pairs: List[Tuple[int, Number]] = []
        runs: List[Tuple[int, int]] = []
        append = pairs.append
        if sample_every > 1:
            # Producers before each position: a sampled record's index
            # into the value column.
            ranks = list(accumulate((flags[a] for a in addresses), initial=0))
        cursor = 0
        for start, end, phase in self.phase_segments():
            mark = len(pairs)
            if sample_every == 1:
                for address in addresses[start:end]:
                    if flags[address]:
                        if is_candidate[address]:
                            append((address, produced[cursor]))
                        cursor += 1
            else:
                first = start + (-(offset + start) % sample_every)
                for position in range(first, end, sample_every):
                    address = addresses[position]
                    if is_candidate[address]:
                        append((address, produced[ranks[position]]))
            if len(pairs) > mark and (not runs or runs[-1][1] != phase):
                runs.append((mark, phase))
        return pairs, runs

    def records(self) -> Iterator[TraceRecord]:
        """Per-record adapter: rebuild one ``TraceRecord`` per entry."""
        addresses = self.addresses
        values = self.values
        vflags = self.value_flags
        mems = self.mems
        flags = self.mem_flags
        cursor = 0
        vcursor = 0
        for start, end, phase in self.phase_segments():
            for index in range(start, end):
                address = addresses[index]
                if flags[address]:
                    mem_address = mems[cursor]
                    cursor += 1
                else:
                    mem_address = None
                if vflags[address]:
                    value = values[vcursor]
                    vcursor += 1
                else:
                    value = None
                yield TraceRecord(address, value, phase, mem_address)

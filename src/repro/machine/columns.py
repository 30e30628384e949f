"""Packed value columns for :class:`~repro.machine.batch.TraceBatch`.

The value column of a trace batch used to be a plain Python list with
one slot per retired instruction — ``None`` for the ~40% of records
whose opcode produces no destination value.  :class:`ValueColumn`
replaces that with a *packed int-values sidecar*:

``ints``
    an ``array('q')`` with one slot per *produced* value.  In the hot
    all-small-int case this is the entire column: capture appends C
    int64s, replay wraps the stored buffer without creating a single
    Python object, and consumers such as the simulator's candidate walk
    index it directly instead of materialising a list.
``escapes``
    a position → value mapping for the rare values ``array('q')`` cannot
    hold — floats (kept as the exact float object, so ``3.0`` never
    collapses into ``3``) and integers beyond int64.  Escaped positions
    hold ``0`` in ``ints``.

Which records produce a value at all is a static property of the
program (:func:`~repro.machine.executor.value_flags`), mirroring how the
``mems`` column has always worked — batches carry no per-record ``None``
slot.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Sequence

from ..isa import Number

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Shared zero-length int column for batches with no produced values.
_EMPTY_INTS = array("q")


class ValueColumn:
    """The produced values of one trace batch, packed."""

    __slots__ = ("ints", "escapes")

    def __init__(self, ints: array, escapes: Dict[int, Number]) -> None:
        self.ints = ints
        self.escapes = escapes

    @classmethod
    def from_values(cls, produced: Sequence[Number]) -> "ValueColumn":
        """Pack a dense sequence of produced values (capture time).

        The fast path is a single C-level ``array('q', produced)``
        construction; only a batch containing a float or a bigint pays
        the per-value scan that builds the escape map.
        """
        if not produced:
            return cls(_EMPTY_INTS, {})
        try:
            return cls(array("q", produced), {})
        except (OverflowError, TypeError):
            pass
        ints = array("q", bytes(8 * len(produced)))
        escapes: Dict[int, Number] = {}
        for position, value in enumerate(produced):
            if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                ints[position] = value
            else:
                escapes[position] = value
        return cls(ints, escapes)

    @property
    def is_pure_int(self) -> bool:
        """No escapes: the whole column lives in the int64 array."""
        return not self.escapes

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, position: int) -> Number:
        if position < 0:
            position += len(self.ints)
        escaped = self.escapes.get(position)
        if escaped is not None:
            return escaped
        return self.ints[position]

    def __iter__(self) -> Iterator[Number]:
        escapes = self.escapes
        if not escapes:
            return iter(self.ints)
        get = escapes.get
        return (
            value if (value := get(position)) is not None else raw
            for position, raw in enumerate(self.ints)
        )

    def tolist(self) -> List[Number]:
        """The produced values as a plain list (escapes substituted)."""
        if not self.escapes:
            return self.ints.tolist()
        values = self.ints.tolist()
        for position, value in self.escapes.items():
            values[position] = value
        return values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ValueColumn({len(self.ints)} values, "
            f"{len(self.escapes)} escapes)"
        )


__all__ = ["ValueColumn"]

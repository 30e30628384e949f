"""Set-associative prediction tables with LRU replacement.

The paper's predictors are organized "as a table (e.g., cache table)";
its finite-table experiments use a 512-entry, 2-way set-associative stride
table.  :class:`PredictionTable` implements that geometry and also the
*infinite* variant used to isolate classification effects (Section 5.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

Entry = TypeVar("Entry")

#: Callback invoked as ``on_evict(address)`` when an entry is displaced.
EvictionCallback = Callable[[int], None]


class PredictionTable(Generic[Entry]):
    """Maps instruction addresses to predictor entries.

    Args:
        entries: total entry count, or ``None`` for an unbounded table.
        ways: set associativity (ignored for unbounded tables).

    Entries are arbitrary predictor-state objects; the table only manages
    placement and LRU replacement.
    """

    def __init__(self, entries: Optional[int] = None, ways: int = 2) -> None:
        if entries is not None:
            if ways <= 0 or entries <= 0 or entries % ways:
                raise ValueError(
                    f"bad geometry: {entries} entries, {ways} ways "
                    "(entries must be a positive multiple of ways)"
                )
        self.capacity = entries
        self.ways = ways
        self.num_sets = (entries // ways) if entries is not None else 1
        self._sets: Dict[int, OrderedDict[int, Entry]] = {}
        self.lookups = 0
        self.hits = 0
        self.evictions = 0

    @property
    def is_infinite(self) -> bool:
        return self.capacity is None

    def _set_for(self, address: int) -> OrderedDict[int, Entry]:
        index = 0 if self.is_infinite else address % self.num_sets
        table_set = self._sets.get(index)
        if table_set is None:
            table_set = OrderedDict()
            self._sets[index] = table_set
        return table_set

    def lookup(self, address: int) -> Optional[Entry]:
        """Return the entry for ``address``, refreshing its LRU position."""
        self.lookups += 1
        table_set = self._set_for(address)
        entry = table_set.get(address)
        if entry is None:
            return None
        self.hits += 1
        table_set.move_to_end(address)
        return entry

    def peek(self, address: int) -> Optional[Entry]:
        """Return the entry for ``address`` without touching LRU state."""
        return self._set_for(address).get(address)

    def insert(
        self,
        address: int,
        entry: Entry,
        on_evict: Optional[EvictionCallback] = None,
    ) -> Optional[int]:
        """Install ``entry`` for ``address``; return the evicted address.

        If the set is full, the least-recently-used entry is displaced and
        ``on_evict`` (if given) is called with its address.
        """
        table_set = self._set_for(address)
        evicted: Optional[int] = None
        if address not in table_set and not self.is_infinite:
            if len(table_set) >= self.ways:
                evicted, _ = table_set.popitem(last=False)
                self.evictions += 1
                if on_evict is not None:
                    on_evict(evicted)
        table_set[address] = entry
        table_set.move_to_end(address)
        return evicted

    def __contains__(self, address: int) -> bool:
        return address in self._set_for(address)

    def __len__(self) -> int:
        return sum(len(table_set) for table_set in self._sets.values())

    def __iter__(self) -> Iterator[Tuple[int, Entry]]:
        for table_set in self._sets.values():
            yield from table_set.items()

    def defer(self, build: Callable[[], Dict[int, "OrderedDict[int, Entry]"]]) -> None:
        """Replace the table's entries with the sets ``build()`` returns,
        built the first time anything reads the table.

        The stride kernels keep their state in rows of their own and hand
        it back this way, so a table nobody reads again costs no entry
        objects.
        """
        self._build = build
        self.__dict__.pop("_sets", None)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: ``_sets`` while deferred.
        if name == "_sets" and "_build" in self.__dict__:
            self._sets = self.__dict__.pop("_build")()
            return self._sets
        raise AttributeError(name)

    def clear(self) -> None:
        self._sets.clear()
        self.lookups = 0
        self.hits = 0
        self.evictions = 0

"""Shared state for the experiment harness, and its one artifact cache.

Most experiments need the same expensive artifacts — compiled binaries,
the five training-run profile images per benchmark, merged profiles,
annotated binaries per threshold and the simulation/ILP grids built on
them.  :class:`ExperimentContext` owns every such *cell*.  A cell is
named by one tuple, ``(kind, name, *params)``, and its kind's entry in
the cell-kind table (:data:`repro.experiments.cells.KINDS`) says how it
is computed, held, keyed and encoded.  :meth:`ExperimentContext.cell`
serves each one in the same order:

1. memory, by the kind's tier (grids live in ``memo``; profiles and
   binaries survive ``memo.clear()``; compiles and finished tables are
   not held);
2. the content-addressed :class:`~repro.runner.cache.ArtifactCache`
   under ``cache_dir``, decoded by the kind's codec (a corrupt entry is
   discarded, counted in ``runner.cache.corrupt`` and recomputed);
3. the kind's compute, stored on disk exactly once.

The disk is probed at most once per cell: a miss is remembered until
the computed value is stored, so the parallel engine
(:mod:`repro.runner`) can ask :meth:`~ExperimentContext.from_disk`
before launching a job without the job probing again.  Disk keys are
derived here alone (:meth:`~ExperimentContext.key`), and only when a
``cache_dir`` is set.  They digest the program text, the exact input
streams and the relevant configuration, so a changed workload source,
input generator or ``scale`` misses cleanly.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..annotate import AnnotationPolicy
from ..isa import Number, Program
from ..machine import TraceStore
from ..profiling import ProfileImage
from ..runner import keys
from ..runner.cache import ArtifactCache, PayloadError
from ..telemetry import get_registry
from ..workloads import TRAINING_RUNS, get_workload
from .cells import KINDS, MEMO, SESSION, TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS, CellKind

__all__ = ["ExperimentContext", "TABLE_ENTRIES", "TABLE_WAYS", "THRESHOLDS"]

#: A cell's identity: ``(kind, name, *params)``.
Cell = Tuple


@dataclasses.dataclass
class ExperimentContext:
    """Configuration + memoized artifacts for one experiment session.

    Args:
        scale: workload input scale; 1.0 is experiment grade
            (~200-500k dynamic instructions per run), smaller values
            shrink runs proportionally for quick checks and benchmarks.
        training_runs: how many training input sets to profile (paper: 5).
        cache_dir: optional root of the on-disk content-addressed
            artifact cache (profile images, merged profiles, simulation
            cells, finished tables).
        stride_threshold: stride-efficiency split for directive type.

    Attributes:
        memo: the simulation/ILP grids, keyed by their cell tuple.
            Clearing it forces the grids to be rebuilt while profiles
            and annotated binaries stay warm.
        artifacts: the :class:`ArtifactCache` under ``cache_dir``, or
            ``None`` when no disk cache was requested.
        traces: the session's :class:`~repro.machine.TraceStore`, for
            the studies that walk one run several times (the ablations,
            characterization and the corpus studies): each distinct
            (program, inputs, budget) execution they replay is
            interpreted once per session (once per machine with a
            ``cache_dir``).  The paper tables' cells run their test runs
            live and keep no trace.
    """

    scale: float = 1.0
    training_runs: int = TRAINING_RUNS
    cache_dir: Optional[Path] = None
    stride_threshold: float = 50.0

    def __post_init__(self) -> None:
        self.artifacts: Optional[ArtifactCache] = None
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.artifacts = ArtifactCache(self.cache_dir)
        self.traces = TraceStore(
            (self.cache_dir / "traces") if self.cache_dir is not None else None
        )
        self.memo: Dict[Hashable, Any] = {}
        self._cells: Dict[Cell, Any] = {}
        #: Cells whose disk entry was probed and missing, until stored.
        self._missed: Set[Cell] = set()
        #: Readers still to read a cell whose kind names its readers.
        self._unread: Dict[Cell, Set[str]] = {}

    # -- basic artifacts -----------------------------------------------------

    def program(self, name: str) -> Program:
        return get_workload(name).compile()

    def test_inputs(self, name: str) -> List[Number]:
        return get_workload(name).test_inputs(scale=self.scale)

    # -- the cell cache ------------------------------------------------------

    def cell(self, cell: Cell) -> Any:
        """The value of ``cell``: memory, then disk, then its compute."""
        kind = KINDS[cell[0]]
        held = self._held(kind)
        value = held.get(cell)
        if value is None:
            value = self.from_disk(cell)
        if value is None:
            value = kind.compute(self, *cell[1:])
            held[cell] = value
            key = self.key(cell)
            if key is not None:
                self.artifacts.store(
                    cell[0], key, kind.codec.encode(value), kind.codec.extension
                )
                self._missed.discard(cell)
        return value

    def read(self, cell: Cell, reader: str) -> Any:
        """:meth:`cell` for the experiment ``reader``, one of the cell
        kind's ``readers``; the cell leaves memory once each has read it
        (a later read computes it again)."""
        value = self.cell(cell)
        unread = self._unread.get(cell)
        if unread is None:
            unread = set(KINDS[cell[0]].readers(*cell[1:]))
        unread.discard(reader)
        if unread:
            self._unread[cell] = unread
        else:
            self._unread.pop(cell, None)
            self._held(KINDS[cell[0]]).pop(cell, None)
        return value

    def from_disk(self, cell: Cell) -> Any:
        """``cell`` decoded from the disk cache, or ``None``.

        Returns ``None`` without probing when memory already holds the
        cell, when its kind is never cached on disk (compile, annotate),
        and when an earlier probe missed.
        """
        kind = cell[0]
        if cell in self._held(KINDS[kind]) or cell in self._missed:
            return None
        key = self.key(cell)
        if key is None:
            return None
        extension = KINDS[kind].codec.extension
        payload = self.artifacts.load(kind, key, extension)
        if payload is not None:
            try:
                return self.prime(cell, payload)
            except PayloadError:
                self.artifacts.discard(kind, key, extension)
                registry = get_registry()
                registry.counter("runner.cache.corrupt").add(1)
                registry.emit("runner.cache.corrupt", kind=kind, key=key)
        self._missed.add(cell)
        return None

    def prime(self, cell: Cell, payload: str) -> Any:
        """Install an encoded artifact unless memory holds it; its value.

        Raises :class:`~repro.runner.cache.PayloadError` when the
        payload does not decode.
        """
        kind = KINDS[cell[0]]
        held = self._held(kind)
        value = held.get(cell)
        if value is None:
            try:
                value = kind.codec.decode(payload)
            except Exception as error:
                raise PayloadError(
                    f"cannot decode {cell[0]} payload: {error}"
                ) from error
            held[cell] = value
        return value

    def encode(self, cell: Cell, value: Any) -> str:
        """``value`` of ``cell`` in its transport/cache text form."""
        return KINDS[cell[0]].codec.encode(value)

    def missed(self, cell: Cell) -> None:
        """Record that ``cell`` is not on disk (a coordinator probed it)."""
        self._missed.add(cell)

    def key(self, cell: Cell) -> Optional[str]:
        """The content address of ``cell``; ``None`` when it is not cached."""
        key_parts = KINDS[cell[0]].key
        if self.artifacts is None or key_parts is None:
            return None
        return keys.cell_key(cell[0], key_parts(self, *cell[1:]))

    def _held(self, kind: CellKind) -> Dict[Cell, Any]:
        if kind.tier == MEMO:
            return self.memo
        if kind.tier == SESSION:
            return self._cells
        return {}

    # -- profiles ------------------------------------------------------------

    def training_profile(self, name: str, run_index: int) -> ProfileImage:
        """Profile image of one training run (unbounded stride predictor)."""
        return self.cell(("profile", name, run_index))

    def training_profiles(self, name: str) -> List[ProfileImage]:
        return [
            self.training_profile(name, run_index)
            for run_index in range(self.training_runs)
        ]

    def merged_profile(self, name: str) -> ProfileImage:
        """All training runs merged into one profile image."""
        return self.cell(("merged", name))

    # -- annotated binaries --------------------------------------------------

    def policy(self, threshold: float) -> AnnotationPolicy:
        return AnnotationPolicy(
            accuracy_threshold=threshold, stride_threshold=self.stride_threshold
        )

    def annotated(self, name: str, threshold: float) -> Program:
        """The phase-3 binary for one benchmark at one threshold."""
        return self.cell(("annotate", name, threshold))

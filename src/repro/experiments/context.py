"""Shared state for the experiment harness, and its one artifact cache.

Most experiments need the same expensive artifacts — compiled binaries,
the five training-run profile images per benchmark, merged profiles,
annotated binaries per threshold and the simulation/ILP grids built on
them.  :class:`ExperimentContext` owns every such *cell*.  A cell is
named by one tuple, ``(kind, name, *params)`` — ``("profile", name,
run)``, ``("merged", name)``, ``("annotate", name, threshold)``,
``("classify", name)``, ``("finite", name, entries, ways)``, ``("ilp",
name, entries, ways[, config])`` or ``("experiment", id)`` — and
:meth:`ExperimentContext.cell` serves each one in the same order:

1. memory (grids live in ``memo``; profiles and binaries survive
   ``memo.clear()``; finished tables are never held);
2. the content-addressed :class:`~repro.runner.cache.ArtifactCache`
   under ``cache_dir``, decoded through :mod:`repro.runner.serialize`
   (a corrupt entry is discarded, counted in ``runner.cache.corrupt``
   and recomputed);
3. computation, stored on disk exactly once.

The disk is probed at most once per cell: a miss is remembered until
the computed value is stored, so the parallel engine
(:mod:`repro.runner`) can ask :meth:`~ExperimentContext.from_disk`
before launching a job without the job probing again.  Disk keys are
derived here alone, through :mod:`repro.runner.keys`, and only when a
``cache_dir`` is set.  They digest the program text, the exact input
streams and the relevant configuration, so a changed workload source,
input generator or ``scale`` misses cleanly.
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from ..annotate import AnnotationPolicy, annotate_program
from ..isa import Number, Program
from ..machine import TraceStore
from ..profiling import ProfileImage, collect_profile, merge_profiles
from ..runner import keys, serialize
from ..runner.cache import ArtifactCache
from ..telemetry import get_registry
from ..workloads import REGISTRY, TRAINING_RUNS, Workload, get_workload

#: The five classification thresholds swept in Section 5.
THRESHOLDS = (90.0, 80.0, 70.0, 60.0, 50.0)

#: The finite prediction-table geometry of Sections 5.2-5.3.
TABLE_ENTRIES = 512
TABLE_WAYS = 2

#: A cell's identity: ``(kind, name, *params)``.
Cell = Tuple

#: Cell kinds held in ``memo``; those in ``_SESSION_KINDS`` outlive it.
_GRID_KINDS = ("classify", "finite", "ilp")
_SESSION_KINDS = ("profile", "merged", "annotate")


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
        memo: the simulation/ILP grids of
            :mod:`repro.experiments.shared`, keyed by their cell tuple.
            Clearing it forces the grids to be rebuilt while profiles
            and annotated binaries stay warm.
        artifacts: the :class:`ArtifactCache` under ``cache_dir``, or
            ``None`` when no disk cache was requested.
        traces: the session's :class:`~repro.machine.TraceStore` — every
            profiling/simulation pass captures or replays through it, so
            each distinct (program, inputs, budget) execution is
            interpreted once per session (once per machine with a
            ``cache_dir``) no matter how many analyses consume it.
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

    # -- basic artifacts -----------------------------------------------------

    def workload(self, name: str) -> Workload:
        return get_workload(name)

    def program(self, name: str) -> Program:
        return get_workload(name).compile()

    def training_inputs(self, name: str) -> List[List[Number]]:
        return get_workload(name).training_inputs(
            count=self.training_runs, scale=self.scale
        )

    def test_inputs(self, name: str) -> List[Number]:
        return get_workload(name).test_inputs(scale=self.scale)

    # -- the cell cache ------------------------------------------------------

    def cell(self, cell: Cell, compute: Callable[[], Any]) -> Any:
        """The value of ``cell``: memory, then disk, then ``compute()``."""
        value = self._held(cell).get(cell)
        if value is None:
            value = self.from_disk(cell)
        if value is None:
            value = compute()
            self._held(cell)[cell] = value
            key = self._disk_key(cell)
            if key is not None:
                kind = cell[0]
                self.artifacts.store(
                    kind, key, serialize.encode(kind, value), serialize.EXTENSIONS[kind]
                )
                self._missed.discard(cell)
        return value

    def from_disk(self, cell: Cell) -> Any:
        """``cell`` decoded from the disk cache, or ``None``.

        Returns ``None`` without probing when memory already holds the
        cell, when the cell is never cached on disk (compile, annotate),
        and when an earlier probe missed.
        """
        if cell in self._held(cell) or cell in self._missed:
            return None
        key = self._disk_key(cell)
        if key is None:
            return None
        kind = cell[0]
        extension = serialize.EXTENSIONS[kind]
        payload = self.artifacts.load(kind, key, extension)
        if payload is not None:
            try:
                return self.prime(cell, payload)
            except serialize.PayloadError:
                self.artifacts.discard(kind, key, extension)
                registry = get_registry()
                registry.counter("runner.cache.corrupt").add(1)
                registry.emit("runner.cache.corrupt", kind=kind, key=key)
        self._missed.add(cell)
        return None

    def prime(self, cell: Cell, payload: str) -> Any:
        """Install an encoded artifact unless memory holds it; its value.

        Raises :class:`~repro.runner.serialize.PayloadError` when the
        payload does not decode.
        """
        held = self._held(cell)
        value = held.get(cell)
        if value is None:
            value = serialize.decode(cell[0], payload)
            held[cell] = value
        return value

    def missed(self, cell: Cell) -> None:
        """Record that ``cell`` is not on disk (a coordinator probed it)."""
        self._missed.add(cell)

    def _held(self, cell: Cell) -> Dict[Cell, Any]:
        if cell[0] in _GRID_KINDS:
            return self.memo
        if cell[0] in _SESSION_KINDS:
            return self._cells
        return {}  # compile is memoized per workload; tables are not held

    def _disk_key(self, cell: Cell) -> Optional[str]:
        """The content address of ``cell``; ``None`` when it is not cached."""
        if self.artifacts is None:
            return None
        kind, name, *params = cell
        if kind == "profile":
            return keys.profile_key(name, params[0], self.scale)
        if kind == "merged":
            return keys.merged_key(name, self.scale, self.training_runs)
        annotation = (
            name, self.scale, self.training_runs, THRESHOLDS, self.stride_threshold
        )
        if kind == "classify":
            return keys.classify_key(*annotation)
        if kind == "finite":
            return keys.finite_key(*annotation, *params)
        if kind == "ilp":
            return keys.ilp_key(*annotation, *params)
        if kind == "experiment":
            from .runner import MODULES

            return keys.experiment_key(
                name,
                inspect.getsource(MODULES[name]),
                self.scale,
                self.training_runs,
                self.stride_threshold,
                REGISTRY.names(),
            )
        return None  # compile and annotate are cheap derivations

    # -- profiles ------------------------------------------------------------

    def training_profile(self, name: str, run_index: int) -> ProfileImage:
        """Profile image of one training run (unbounded stride predictor)."""
        workload = get_workload(name)
        return self.cell(
            ("profile", name, run_index),
            lambda: collect_profile(
                workload.compile(),
                workload.input_set(run_index, scale=self.scale),
                run_label=f"train-{run_index}",
            ),
        )

    def training_profiles(self, name: str) -> List[ProfileImage]:
        return [
            self.training_profile(name, run_index)
            for run_index in range(self.training_runs)
        ]

    def merged_profile(self, name: str) -> ProfileImage:
        """All training runs merged into one profile image."""
        return self.cell(
            ("merged", name),
            lambda: merge_profiles(self.training_profiles(name), program_name=name),
        )

    # -- annotated binaries --------------------------------------------------

    def policy(self, threshold: float) -> AnnotationPolicy:
        return AnnotationPolicy(
            accuracy_threshold=threshold, stride_threshold=self.stride_threshold
        )

    def annotated(self, name: str, threshold: float) -> Program:
        """The phase-3 binary for one benchmark at one threshold."""
        return self.cell(
            ("annotate", name, threshold),
            lambda: annotate_program(
                self.program(name), self.merged_profile(name), self.policy(threshold)
            ),
        )

"""Streaming fusion of profile images in bounded memory.

Batch :func:`~repro.profiling.merge.merge_profiles` materializes every
input image before summing — fine for the paper's five training runs,
impossible for the fleet-scale case the ROADMAP targets (thousands of
edge-run profiles).  :class:`MergeAccumulator` folds images one at a
time: memory is bounded by the size of the *merged* table (and, under
``require_common``, by the first image — the running intersection only
shrinks), never by the number of inputs.

The merge algebra verified in the PR 5 oracle (associative, commutative,
commutes with serialization) is the license for this: any fold order
over any transport — in-memory image, open text stream, or a
:class:`~repro.profiling.sketch.ProfileSketch` — produces the same
merged image as the batch path.  That equivalence is not assumed; the
``fuse-stream-vs-batch`` oracle pair (:mod:`repro.check.oracle`)
differentially tests this module against the independently implemented
batch merge on seeded random programs, and a hypothesis property does
the same over random images.

The ``require_common`` intersection is maintained incrementally: each
fold first drops accumulated addresses missing from the incoming image
(they can never rejoin — intersection is monotone), then adds the
incoming counts for the survivors.  Group accounting is pruned with the
same keep-set, matching the batch semantics exactly.
"""

from __future__ import annotations

import io
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from ..isa import Category
from ..telemetry import get_registry
from .collector import InstructionProfile, ProfileImage
from .image_io import ProfileFormatError, load_profile
from .sketch import SKETCH_MAGIC, ProfileSketch, loads_sketch

#: Anything `MergeAccumulator.fold` accepts.
FusionSource = Union[ProfileImage, ProfileSketch, object]


def _as_image(source: FusionSource) -> ProfileImage:
    if isinstance(source, ProfileImage):
        return source
    if isinstance(source, ProfileSketch):
        return source.to_image()
    if hasattr(source, "read"):
        return load_profile(source)
    raise TypeError(
        f"cannot fold {type(source).__name__}: expected a ProfileImage, "
        "a ProfileSketch, or an open text stream"
    )


class MergeAccumulator:
    """Fold profile images one at a time into a single merged image.

    Equivalent to ``merge_profiles(images, ...)`` for any fold order,
    but holds only the running merge in memory.  Sources may be
    :class:`ProfileImage` objects, :class:`ProfileSketch` objects, or
    open text streams in the v1 format (auto-``load_profile``).

    >>> accumulator = MergeAccumulator(require_common=True)
    >>> for image in images:          # doctest: +SKIP
    ...     accumulator.fold(image)
    >>> merged = accumulator.result() # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        program_name: str = "",
        run_label: str = "merged",
        require_common: bool = False,
    ) -> None:
        self._program_name = program_name
        self._run_label = run_label
        self._require_common = require_common
        self._first_program_name = ""
        self._folded = 0
        #: address -> [executions, attempts, correct, nonzero_stride_correct]
        self._instructions: Dict[int, List[int]] = {}
        #: (category, phase) -> address -> [executions, attempts, correct]
        self._groups: Dict[Tuple[Category, int], Dict[int, List[int]]] = {}

    @property
    def images_folded(self) -> int:
        """How many sources have been folded so far."""
        return self._folded

    @property
    def live_addresses(self) -> int:
        """Instruction addresses currently resident in the accumulator.

        Under ``require_common`` this is monotone non-increasing after
        the first fold — the bounded-memory guarantee the tests assert.
        """
        return len(self._instructions)

    def fold(self, source: FusionSource) -> "MergeAccumulator":
        """Fold one more source into the running merge."""
        image = _as_image(source)
        started = time.perf_counter()
        if self._folded == 0:
            self._first_program_name = image.program_name
        if self._require_common and self._folded > 0:
            self._shrink_to(image.instructions)
        restrict = self._require_common and self._folded > 0
        instructions = self._instructions
        for address, profile in image.instructions.items():
            into = instructions.get(address)
            if into is None:
                if restrict:
                    continue
                instructions[address] = [
                    profile.executions,
                    profile.attempts,
                    profile.correct,
                    profile.nonzero_stride_correct,
                ]
            else:
                into[0] += profile.executions
                into[1] += profile.attempts
                into[2] += profile.correct
                into[3] += profile.nonzero_stride_correct
        for key, members in image.group_detail.items():
            into_members = self._groups.get(key)
            for address, counts in members.items():
                if self._require_common and address not in instructions:
                    continue
                if into_members is None:
                    into_members = self._groups.setdefault(key, {})
                slot = into_members.get(address)
                if slot is None:
                    into_members[address] = list(counts)
                else:
                    slot[0] += counts[0]
                    slot[1] += counts[1]
                    slot[2] += counts[2]
        self._folded += 1
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.counter("fusion.images").add(1)
            telemetry.timer("fusion.fold").add(time.perf_counter() - started)
        return self

    def _shrink_to(self, incoming: Dict[int, InstructionProfile]) -> None:
        """Drop accumulated addresses absent from ``incoming``.

        The intersection is monotone — a dropped address can never
        rejoin — so pruning eagerly is what bounds the memory.
        """
        stale = [
            address for address in self._instructions if address not in incoming
        ]
        if not stale:
            return
        for address in stale:
            del self._instructions[address]
        empty_keys = []
        for key, members in self._groups.items():
            dead = [
                address for address in members
                if address not in self._instructions
            ]
            for address in dead:
                del members[address]
            if not members:
                empty_keys.append(key)
        for key in empty_keys:
            del self._groups[key]

    def update(self, sources: Iterable[FusionSource]) -> "MergeAccumulator":
        """Fold every source from an iterable (consumed lazily)."""
        for source in sources:
            self.fold(source)
        return self

    def result(self) -> ProfileImage:
        """Build the merged image from the accumulated counts.

        Raises :class:`ValueError` when nothing has been folded,
        matching ``merge_profiles([])``.  The accumulator stays usable
        — further folds refine a later ``result()``.
        """
        if self._folded == 0:
            raise ValueError("cannot merge zero profile images")
        merged = ProfileImage(
            self._program_name or self._first_program_name,
            run_label=self._run_label,
        )
        for address, counts in self._instructions.items():
            merged.instructions[address] = InstructionProfile(
                address=address,
                executions=counts[0],
                attempts=counts[1],
                correct=counts[2],
                nonzero_stride_correct=counts[3],
            )
        for key, members in self._groups.items():
            merged.group_detail[key] = {
                address: list(slot) for address, slot in members.items()
            }
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.counter("fusion.runs").add(1)
        return merged


def fuse_images(
    sources: Iterable[FusionSource],
    *,
    program_name: str = "",
    run_label: str = "merged",
    require_common: bool = False,
) -> ProfileImage:
    """One-shot streaming fuse of an iterable of sources."""
    accumulator = MergeAccumulator(
        program_name=program_name,
        run_label=run_label,
        require_common=require_common,
    )
    return accumulator.update(sources).result()


def loads_any_profile(data: bytes, name: str = "") -> ProfileImage:
    """Parse ``data`` as a profile image, sniffing text image vs sketch.

    Any malformed content — truncated files, a mangled magic line,
    corrupt deflate bodies, binary garbage — raises a typed
    :class:`~repro.profiling.image_io.ProfileFormatError` (or its
    :class:`~repro.profiling.sketch.SketchFormatError` subclass), never
    a bare ``zlib.error``/``UnicodeDecodeError``.  ``name`` labels the
    error message.
    """
    if data.startswith(SKETCH_MAGIC):
        return loads_sketch(data).to_image()
    try:
        return load_profile(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as error:
        raise ProfileFormatError(
            f"{name}: not a text profile image (undecodable bytes: {error})"
        ) from error


def read_any_profile(path: Union[str, Path]) -> ProfileImage:
    """Load ``path`` as a profile image (see :func:`loads_any_profile`)."""
    return loads_any_profile(Path(path).read_bytes(), str(path))


__all__ = [
    "FusionSource",
    "MergeAccumulator",
    "fuse_images",
    "loads_any_profile",
    "read_any_profile",
]

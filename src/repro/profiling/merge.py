"""Combining profile images from multiple training runs.

The paper's phase 2 may run the program "either single or multiple times,
where in each run the program is driven by different input parameters and
files".  Merging sums the underlying counts, which weights each run by its
dynamic instruction count — an instruction that executes a million times
in one training run and ten in another is dominated by the former, exactly
as a single concatenated profiling session would be.

:func:`merge_profiles` is the one merge: a lazy fold that takes one source
at a time and holds only the running totals, so a thousand-image fleet
costs the memory of the merged table (and, under ``require_common``, of
the first image — the running intersection only shrinks), never that of
the inputs.  The ``profile-io-merge`` oracle pair (:mod:`repro.check.oracle`)
differences it against an independent reference model.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Set, Union

from ..telemetry import get_registry
from .collector import ProfileImage
from .image_io import load_profile

#: ``merge_profiles`` accepts images or open v1 text streams.
MergeSource = Union[ProfileImage, object]


def _as_image(source: MergeSource) -> ProfileImage:
    if isinstance(source, ProfileImage):
        return source
    if hasattr(source, "read"):
        return load_profile(source)
    raise TypeError(
        f"cannot merge {type(source).__name__}: expected a ProfileImage "
        "or an open text stream"
    )


def common_addresses(images: Iterable[ProfileImage]) -> List[int]:
    """Addresses profiled in *every* image.

    The paper: "we only consider the instructions that appear in all the
    different runs of the program" (instructions appearing in only some
    runs are omitted; their number is relatively small).

    Intersects incrementally — memory is bounded by the first image, the
    running set only shrinks, and an empty intersection stops consuming
    the input (at thousands of images most of the work is skipped).
    """
    addresses: Optional[Set[int]] = None
    for image in images:
        if addresses is None:
            addresses = set(image.instructions)
        else:
            addresses.intersection_update(image.instructions)
        if not addresses:
            break
    return sorted(addresses) if addresses else []


def merge_profiles(
    sources: Iterable[MergeSource],
    *,
    program_name: str = "",
    run_label: str = "merged",
    require_common: bool = False,
) -> ProfileImage:
    """Merge several training-run images into one by summing counts.

    Args:
        sources: the per-run profile images, or open text streams in the
            v1 format (each is passed through
            :func:`~repro.profiling.image_io.load_profile`); consumed
            lazily, one at a time.
        program_name: name for the merged image (defaults to the first
            image's).
        run_label: label for the merged image.
        require_common: keep only instructions present in every run
            (matching the vector analysis of Section 4); otherwise keep
            the union.  The filter applies to the per-instruction table
            *and* to the (category, phase) group accounting — an
            instruction dropped from the merged table contributes
            nothing to the merged group aggregates either.

    Under ``require_common`` each fold first drops the accumulated
    addresses the incoming image lacks (they can never rejoin: the
    intersection is monotone), then adds the incoming counts for the
    survivors.  Group rows are pruned with the same addresses.  An
    address homed in the same group in every image it ran in stays homed
    (:class:`~repro.profiling.collector.ProfileImage`); any other gets
    explicit group slots.
    """
    telemetry = get_registry()
    merged: Optional[ProfileImage] = None
    for source in sources:
        image = _as_image(source)
        started = time.perf_counter()
        restrict = require_common and merged is not None
        if merged is None:
            merged = ProfileImage(program_name or image.program_name, run_label=run_label)
        elif restrict:
            stale = [
                address for address in merged.instructions
                if address not in image.instructions
            ]
            for address in stale:
                merged.discard(address)
        homes = image.homes
        for address, profile in image.instructions.items():
            if restrict and address not in merged.instructions:
                continue
            merged.add_counts(
                address,
                homes.get(address),
                profile.executions,
                profile.attempts,
                profile.correct,
                profile.nonzero_stride_correct,
            )
        for address, slots in image.splits.items():
            if require_common and address not in merged.instructions:
                continue
            for (category, phase), counts in slots.items():
                slot = merged.group_slot(category, phase, address)
                slot[0] += counts[0]
                slot[1] += counts[1]
                slot[2] += counts[2]
        if telemetry.enabled:
            telemetry.counter("fusion.images").add(1)
            telemetry.timer("fusion.fold").add(time.perf_counter() - started)
    if merged is None:
        raise ValueError("cannot merge zero profile images")
    if telemetry.enabled:
        telemetry.counter("fusion.runs").add(1)
    return merged

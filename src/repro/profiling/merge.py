"""Combining profile images from multiple training runs.

The paper's phase 2 may run the program "either single or multiple times,
where in each run the program is driven by different input parameters and
files".  Merging sums the underlying counts, which weights each run by its
dynamic instruction count — an instruction that executes a million times
in one training run and ten in another is dominated by the former, exactly
as a single concatenated profiling session would be.

This is the *batch* path: it materializes every input image before
summing, which is the right call for the paper's five training runs and
is kept as an independent implementation so the streaming path
(:mod:`~repro.profiling.fusion`) has a genuine differential reference.
For fleet-scale inputs use :class:`~repro.profiling.fusion.MergeAccumulator`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Union

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
    images: Iterable[MergeSource],
    *,
    program_name: str = "",
    run_label: str = "merged",
    require_common: bool = False,
) -> ProfileImage:
    """Merge several training-run images into one by summing counts.

    Args:
        images: the per-run profile images, or open text streams in the
            v1 format (each is passed through
            :func:`~repro.profiling.image_io.load_profile`).
        program_name: name for the merged image (defaults to the first
            image's).
        run_label: label for the merged image.
        require_common: keep only instructions present in every run
            (matching the vector analysis of Section 4); otherwise keep
            the union.  The filter applies to the per-instruction table
            *and* to the (category, phase) group accounting — an
            instruction dropped from the merged table contributes
            nothing to the merged group aggregates either.
    """
    image_list = [_as_image(source) for source in images]
    if not image_list:
        raise ValueError("cannot merge zero profile images")
    keep = set(common_addresses(image_list)) if require_common else None
    merged = ProfileImage(
        program_name or image_list[0].program_name, run_label=run_label
    )
    for image in image_list:
        for address, profile in image.instructions.items():
            if keep is not None and address not in keep:
                continue
            into = merged.profile_for(address)
            into.executions += profile.executions
            into.attempts += profile.attempts
            into.correct += profile.correct
            into.nonzero_stride_correct += profile.nonzero_stride_correct
        for (category, phase), members in image.group_detail.items():
            for address, counts in members.items():
                if keep is not None and address not in keep:
                    continue
                slot = merged.group_slot(category, phase, address)
                slot[0] += counts[0]
                slot[1] += counts[1]
                slot[2] += counts[2]
    return merged


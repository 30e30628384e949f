"""Phase-split profiling.

Figure 2.2 of the paper shows each floating-point benchmark twice —
initialization phase (#1) and computation phase (#2) — because the two
phases have very different value behaviour (input-dependent loads vs
regular compute).  :func:`collect_phase_profiles` produces one
:class:`~repro.profiling.collector.ProfileImage` per execution phase from
a single run, with predictor state carried *across* phase boundaries
(the hardware doesn't reset at a phase mark; only the accounting splits).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..isa import Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import StridePredictor, ValuePredictor
from .collector import ProfileImage


def collect_phase_profiles(
    program: Program,
    inputs: Iterable[Number] = (),
    predictor: Optional[ValuePredictor] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    sample_every: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[int, ProfileImage]:
    """Profile one run, splitting the accounting by execution phase.

    Returns phase -> image.  Programs that never execute a ``phase``
    instruction yield a single image under phase 0.

    ``sample_every=k`` keeps only every ``k``-th record of the dynamic
    stream, under the same global-position rule as
    :func:`~repro.profiling.collector.collect_profiles`.  ``store``
    replays the run from a :class:`~repro.machine.TraceStore` (capturing
    it on a miss) instead of executing it.
    """
    if (
        isinstance(sample_every, bool)
        or not isinstance(sample_every, int)
        or sample_every < 1
    ):
        raise ValueError(f"sample_every must be an int >= 1, got {sample_every!r}")
    predictor = predictor or StridePredictor()
    access = predictor.access
    images: Dict[int, ProfileImage] = {}
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]
    categories = [instruction.category for instruction in program.instructions]

    batches = replay_or_run(program, inputs, max_instructions, store)
    offset = 0  # global position of the batch's first record
    for batch in batches:
        addresses = batch.addresses
        values = batch.record_values()
        for start, end, phase in batch.phase_segments():
            # First kept record of the segment: global position = 0 (mod k).
            start += -(offset + start) % sample_every
            image = images.get(phase)
            for index in range(start, end, sample_every):
                address = addresses[index]
                if not is_candidate[address]:
                    continue
                if image is None:
                    image = images[phase] = ProfileImage(
                        program.name, run_label=f"{run_label}#{phase}"
                    )
                result = access(address, values[index])
                profile = image.profile_for(address)
                profile.executions += 1
                group = image.group_slot(categories[address], phase, address)
                group[0] += 1
                if result.hit:
                    profile.attempts += 1
                    group[1] += 1
                    if result.correct:
                        profile.correct += 1
                        group[2] += 1
                        if result.nonzero_stride:
                            profile.nonzero_stride_correct += 1
        offset += len(addresses)
    return images

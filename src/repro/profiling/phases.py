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
from .collector import ProfileImage, _check_sample_every, _profile_run


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

    Returns phase -> image (labelled ``f"{run_label}#{phase}"``), in the
    order the phases are first observed.  Programs that never execute a
    ``phase`` instruction yield a single image under phase 0.

    The run goes through the same batch consumers and fold as
    :func:`~repro.profiling.collector.collect_profiles`, including its
    global-position ``sample_every`` rule; ``store`` replays the run
    from a :class:`~repro.machine.TraceStore` (capturing it on a miss)
    instead of executing it.
    """
    _check_sample_every(sample_every)
    images: Dict[int, ProfileImage] = {}

    def image_for(_name: str, phase: int) -> ProfileImage:
        image = images.get(phase)
        if image is None:
            image = images[phase] = ProfileImage(
                program.name, run_label=f"{run_label}#{phase}"
            )
        return image

    _profile_run(
        program,
        replay_or_run(program, inputs, max_instructions, store),
        {"default": predictor or StridePredictor()},
        image_for,
        [instruction.is_prediction_candidate for instruction in program.instructions],
        sample_every,
    )
    return images

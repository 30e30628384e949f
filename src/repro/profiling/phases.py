"""Phase-split profiling.

Figure 2.2 of the paper shows each floating-point benchmark twice —
initialization phase (#1) and computation phase (#2) — because the two
phases have very different value behaviour (input-dependent loads vs
regular compute).  :func:`collect_phase_profiles` produces one
:class:`~repro.profiling.collector.ProfileImage` per execution phase from
a single run, with predictor state carried *across* phase boundaries
(the hardware doesn't reset at a phase mark; only the accounting splits).
:func:`collect_phase_images` does the same for several predictors in one
walk, which is how the experiments profile each test run once for both
Table 2.1 and Figure 2.2.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional

from ..isa import Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import StridePredictor, ValuePredictor
from .collector import ProfileImage, _check_sample_every, _profile_run, _publish_run


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
    instead of executing it.  It is not counted as a profiling run.
    """
    _check_sample_every(sample_every)
    images = _split_by_phase(
        program,
        replay_or_run(program, inputs, max_instructions, store),
        {"default": predictor or StridePredictor()},
        run_label,
        sample_every,
    )
    return images["default"]


def collect_phase_images(
    program: Program,
    inputs: Iterable[Number],
    predictors: Mapping[str, ValuePredictor],
    run_label: str = "",
    max_instructions: Optional[int] = None,
    sample_every: int = 1,
    store: Optional[TraceStore] = None,
) -> Dict[str, Dict[int, ProfileImage]]:
    """Profile one run under several predictors, split by phase.

    Returns name -> phase -> image, each name's images as
    :func:`collect_phase_profiles` gives them for that predictor alone,
    from one walk of the run.  Summing a name's images over its phases
    gives what :func:`~repro.profiling.collector.collect_profiles`
    reports for the whole run, and the run is counted under
    ``profiling.*`` as that function counts it.
    """
    _check_sample_every(sample_every)
    started = time.perf_counter()
    images = _split_by_phase(
        program,
        replay_or_run(program, inputs, max_instructions, store),
        predictors,
        run_label,
        sample_every,
    )
    _publish_run(next(iter(images.values())).values(), started, sample_every)
    return images


def _split_by_phase(program, batches, predictors, run_label, sample_every):
    """name -> phase -> image of one run's ``batches``."""
    images: Dict[str, Dict[int, ProfileImage]] = {name: {} for name in predictors}

    def image_for(name: str, phase: int) -> ProfileImage:
        split = images[name]
        image = split.get(phase)
        if image is None:
            image = split[phase] = ProfileImage(
                program.name, run_label=f"{run_label}#{phase}"
            )
        return image

    _profile_run(program, batches, predictors, image_for, sample_every)
    return images

"""Program profiling for value prediction (paper Sections 3-4).

* :func:`collect_profile` / :func:`collect_profiles` — phase 2: trace a
  run under an emulated predictor and build a :class:`ProfileImage`.
* :mod:`~repro.profiling.image_io` — the profile-image file format
  (stream-level :func:`dump_profile`/:func:`load_profile`, path-level
  :func:`save_profile`/:func:`read_profile` with atomic publishes).
* :func:`merge_profiles` — batch-combine multiple training runs
  (accepts images or open text streams).
* :mod:`~repro.profiling.fusion` — :class:`MergeAccumulator`, the
  streaming merge that folds images/sketches one at a time in bounded
  memory (fleet-scale fusion; ``repro fuse``).
* :mod:`~repro.profiling.sketch` — :class:`ProfileSketch`, the compact
  varint+delta wire format with optional count quantization and a
  size/fidelity report.
* :mod:`~repro.profiling.metrics` — M(V)max / M(V)average / M(S)average
  similarity metrics and the interval histograms of Figures 4.1-4.3.
"""

from .collector import (
    GroupStats,
    InstructionProfile,
    ProfileImage,
    collect_profile,
    collect_profiles,
)
from .image_io import (
    ProfileFormatError,
    dump_profile,
    dumps_profile,
    load_profile,
    loads_profile,
    read_profile,
    save_profile,
)
from .merge import common_addresses, merge_profiles
from .fusion import (
    FusionSource,
    MergeAccumulator,
    fuse_images,
    loads_any_profile,
    read_any_profile,
)
from .sketch import (
    DEFAULT_FIDELITY_LEVELS,
    ProfileSketch,
    SketchFormatError,
    dump_sketch,
    dumps_sketch,
    fidelity_report,
    load_sketch,
    loads_sketch,
    read_sketch,
    save_sketch,
)
from .phases import collect_phase_profiles
from .metrics import (
    HISTOGRAM_EDGES,
    HISTOGRAM_LABELS,
    accuracy_vectors,
    average_distance_metric,
    interval_histogram,
    interval_percentages,
    max_distance_metric,
    stride_efficiency_vectors,
)

__all__ = [
    "DEFAULT_FIDELITY_LEVELS",
    "FusionSource",
    "GroupStats",
    "HISTOGRAM_EDGES",
    "HISTOGRAM_LABELS",
    "InstructionProfile",
    "MergeAccumulator",
    "ProfileFormatError",
    "ProfileImage",
    "ProfileSketch",
    "SketchFormatError",
    "accuracy_vectors",
    "average_distance_metric",
    "collect_phase_profiles",
    "collect_profile",
    "collect_profiles",
    "common_addresses",
    "dump_profile",
    "dump_sketch",
    "dumps_profile",
    "dumps_sketch",
    "fidelity_report",
    "fuse_images",
    "interval_histogram",
    "interval_percentages",
    "load_profile",
    "load_sketch",
    "loads_any_profile",
    "loads_profile",
    "loads_sketch",
    "max_distance_metric",
    "merge_profiles",
    "read_any_profile",
    "read_profile",
    "read_sketch",
    "save_profile",
    "save_sketch",
    "stride_efficiency_vectors",
]

"""Program profiling for value prediction (paper Sections 3-4).

* :func:`collect_profile` / :func:`collect_profiles` — phase 2: trace a
  run under an emulated predictor and build a :class:`ProfileImage`.
* :mod:`~repro.profiling.image_io` — the profile-image file format
  (stream-level :func:`dump_profile`/:func:`load_profile`, path-level
  :func:`save_profile`/:func:`read_profile` with atomic publishes).
* :func:`merge_profiles` — combine multiple training runs by summing
  counts: a lazy fold over images or open text streams that holds only
  the running totals (``repro fuse``).
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
    "GroupStats",
    "HISTOGRAM_EDGES",
    "HISTOGRAM_LABELS",
    "InstructionProfile",
    "ProfileFormatError",
    "ProfileImage",
    "accuracy_vectors",
    "average_distance_metric",
    "collect_phase_profiles",
    "collect_profile",
    "collect_profiles",
    "common_addresses",
    "dump_profile",
    "dumps_profile",
    "interval_histogram",
    "interval_percentages",
    "load_profile",
    "loads_profile",
    "max_distance_metric",
    "merge_profiles",
    "read_profile",
    "save_profile",
    "stride_efficiency_vectors",
]

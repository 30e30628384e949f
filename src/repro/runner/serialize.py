"""Payload codecs for the experiment engine.

Every job result travels as UTF-8 text — between pool processes, and
into/out of the :class:`~repro.runner.cache.ArtifactCache`.  Each job
kind reuses the artifact's native on-disk format where one exists:

==========  ===========================================  =========
kind        payload                                      extension
==========  ===========================================  =========
compile     canonical program disassembly                ``asm``
profile     profile image (v1 text format)               ``profile``
merged      merged profile image (v1 text format)        ``profile``
annotate    annotated program disassembly                ``asm``
classify    ``{label: PredictionStats.to_dict()}`` JSON  ``json``
ilp         ``{label: IlpResult.to_dict()}`` JSON        ``json``
experiment  :meth:`ExperimentTable.to_tsv`               ``tsv``
==========  ===========================================  =========

All encodings are exact (integer counters, repr'd floats), which is what
makes ``--jobs N`` byte-identical to a serial run.  :func:`decode` wraps
any parse failure in :class:`PayloadError` so cache readers can treat a
corrupt entry as a miss.
"""

from __future__ import annotations

import json

from ..core import PredictionStats
from ..ilp import IlpResult
from ..isa import assemble, disassemble
from ..profiling import dumps_profile, loads_profile

#: File extension per job kind (also the cache entry extension).
EXTENSIONS = {
    "compile": "asm",
    "profile": "profile",
    "merged": "profile",
    "annotate": "asm",
    "classify": "json",
    "ilp": "json",
    "experiment": "tsv",
}


class PayloadError(ValueError):
    """A payload failed to decode (corrupt cache entry, version skew)."""


def encode(kind: str, value) -> str:
    """Serialize a job result to its transport/cache text form."""
    if kind == "compile" or kind == "annotate":
        return disassemble(value)
    if kind == "profile" or kind == "merged":
        return dumps_profile(value)
    if kind == "classify":
        return json.dumps(
            {label: stats.to_dict() for label, stats in value.items()},
            sort_keys=True,
        )
    if kind == "ilp":
        return json.dumps(
            {label: result.to_dict() for label, result in value.items()},
            sort_keys=True,
        )
    if kind == "experiment":
        return value.to_tsv()
    raise ValueError(f"unknown payload kind {kind!r}")


def decode(kind: str, payload: str):
    """Inverse of :func:`encode`; raises :class:`PayloadError` on failure."""
    try:
        if kind == "compile" or kind == "annotate":
            return assemble(payload)
        if kind == "profile" or kind == "merged":
            return loads_profile(payload)
        if kind == "classify":
            return {
                label: PredictionStats.from_dict(stats)
                for label, stats in json.loads(payload).items()
            }
        if kind == "ilp":
            return {
                label: IlpResult.from_dict(result)
                for label, result in json.loads(payload).items()
            }
        if kind == "experiment":
            from ..experiments.tables import ExperimentTable

            table = ExperimentTable.from_tsv(payload)
            # from_tsv is lenient; a payload we wrote always names its
            # experiment, so a blank id means the entry is corrupt.
            if not table.experiment_id:
                raise PayloadError("experiment payload has no id header")
            return table
    except PayloadError:
        raise
    except Exception as error:
        raise PayloadError(f"cannot decode {kind} payload: {error}") from error
    raise ValueError(f"unknown payload kind {kind!r}")


__all__ = [
    "EXTENSIONS",
    "PayloadError",
    "decode",
    "encode",
]

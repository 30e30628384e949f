"""Cache keys: SHA-256 fingerprints of program text + inputs + config.

An artifact's key digests *everything the artifact is a function of*:

* the workload's **program text** (its canonical disassembly — so an
  edited mini-C source or a compiler change produces new keys),
* the exact **input streams** consumed (so a new input generator or a
  different ``--scale`` produces new keys),
* the relevant **configuration** (thresholds, table geometry, ILP
  machine parameters, training-run count),
* a format **version** plus the package version, bumped to invalidate
  globally when payload encodings change.

Experiment-table keys additionally digest the experiment module's own
source code, so editing an experiment re-runs it while its cached cell
inputs stay warm.

All functions take plain values rather than an ``ExperimentContext`` so
this module stays importable from the context itself without a cycle.
Program texts and input digests are memoized per process — key
computation must stay negligible next to the work it gates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .. import __version__
from ..isa import disassemble
from ..workloads import get_workload

#: Bump to invalidate every cache entry (payload format changes).
FORMAT_VERSION = "1"

_SEPARATOR = "\x1e"

_program_texts: Dict[str, str] = {}
_input_digests: Dict[Tuple[str, int, float], str] = {}


def _digest(parts: Iterable[str]) -> str:
    return hashlib.sha256(_SEPARATOR.join(parts).encode("utf-8")).hexdigest()


def _prefix(kind: str) -> Tuple[str, ...]:
    return ("repro", __version__, FORMAT_VERSION, kind)


def program_text(name: str) -> str:
    """Canonical (disassembled) program text of a workload, memoized."""
    text = _program_texts.get(name)
    if text is None:
        text = disassemble(get_workload(name).compile())
        _program_texts[name] = text
    return text


def input_digest(name: str, index: int, scale: float) -> str:
    """Digest of one deterministic input stream, memoized."""
    key = (name, index, scale)
    digest = _input_digests.get(key)
    if digest is None:
        stream = get_workload(name).input_set(index, scale=scale)
        digest = _digest(repr(value) for value in stream)
        _input_digests[key] = digest
    return digest


def _training_digests(name: str, scale: float, training_runs: int) -> Tuple[str, ...]:
    return tuple(input_digest(name, index, scale) for index in range(training_runs))


def _test_digest(name: str, scale: float) -> str:
    from ..workloads import TEST_INDEX

    return input_digest(name, TEST_INDEX, scale)


def workload_fingerprint(name: str, scale: float, training_runs: int) -> str:
    """One digest covering a workload's program text and every input set."""
    return _digest(
        _prefix("workload")
        + (program_text(name),)
        + _training_digests(name, scale, training_runs)
        + (_test_digest(name, scale),)
    )


# -- per-cell keys -----------------------------------------------------------


def profile_key(name: str, run_index: int, scale: float) -> str:
    """Key of one training-run profile image."""
    return _digest(
        _prefix("profile")
        + (program_text(name), str(run_index), input_digest(name, run_index, scale))
    )


def merged_key(name: str, scale: float, training_runs: int) -> str:
    """Key of the merged multi-run profile image."""
    return _digest(
        _prefix("merged")
        + (program_text(name),)
        + _training_digests(name, scale, training_runs)
    )


def _annotation_parts(
    name: str,
    scale: float,
    training_runs: int,
    thresholds: Sequence[float],
    stride_threshold: float,
) -> Tuple[str, ...]:
    return (
        (program_text(name),)
        + _training_digests(name, scale, training_runs)
        + tuple(repr(threshold) for threshold in thresholds)
        + (repr(stride_threshold),)
    )


def classify_key(
    name: str,
    scale: float,
    training_runs: int,
    thresholds: Sequence[float],
    stride_threshold: float,
) -> str:
    """Key of the infinite-table classification grid (Figs 5.1/5.2)."""
    return _digest(
        _prefix("classify")
        + _annotation_parts(name, scale, training_runs, thresholds, stride_threshold)
        + (_test_digest(name, scale),)
    )


def ilp_key(
    name: str,
    scale: float,
    training_runs: int,
    thresholds: Sequence[float],
    stride_threshold: float,
    entries: int,
    ways: int,
    config: Optional[object] = None,
) -> str:
    """Key of the abstract-machine ILP grid (Figs 5.3/5.4, Table 5.2).

    ``config`` is an :class:`~repro.ilp.IlpConfig` (or ``None`` for the
    paper's default machine); it is digested field-by-field so any two
    equal configs — including an explicit default — share a key.
    """
    if config is None:
        from ..ilp import IlpConfig

        config = IlpConfig()
    config_parts = tuple(
        f"{field}={value!r}"
        for field, value in sorted(dataclasses.asdict(config).items())
    )
    return _digest(
        _prefix("ilp")
        + _annotation_parts(name, scale, training_runs, thresholds, stride_threshold)
        + (_test_digest(name, scale), str(entries), str(ways))
        + config_parts
    )


def experiment_key(
    experiment_id: str,
    module_source: str,
    scale: float,
    training_runs: int,
    stride_threshold: float,
    workload_names: Sequence[str],
) -> str:
    """Key of a finished experiment table.

    Digests the experiment module's own source (editing an experiment
    invalidates only that experiment) plus the fingerprint of every
    registered workload it could touch.
    """
    return _digest(
        _prefix("table")
        + (
            experiment_id,
            module_source,
            repr(scale),
            str(training_runs),
            repr(stride_threshold),
        )
        + tuple(
            workload_fingerprint(name, scale, training_runs)
            for name in workload_names
        )
    )

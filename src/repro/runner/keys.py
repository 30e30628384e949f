"""Cache keys: SHA-256 fingerprints of program text + inputs + config.

An artifact's key digests *everything the artifact is a function of*:

* the workload's **program text** (its canonical disassembly — so an
  edited mini-C source or a compiler change produces new keys),
* the exact **input streams** consumed (so a new input generator or a
  different ``--scale`` produces new keys),
* the relevant **configuration** (thresholds, training-run count),
* a format **version** plus the package version, bumped to invalidate
  globally when payload encodings change.

Which parts a kind digests is declared once, in the cell-kind table
(:data:`repro.experiments.cells.KINDS`); this module holds only the
generic digests.  Program texts and input digests are memoized per
process — key computation must stay negligible next to the work it
gates.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

from .. import __version__
from ..isa import disassemble
from ..workloads import TEST_INDEX, get_workload

#: Bump to invalidate every cache entry (payload format changes).
FORMAT_VERSION = "1"

_SEPARATOR = "\x1e"

_program_texts: Dict[str, str] = {}
_input_digests: Dict[Tuple[str, int, float], str] = {}


def _digest(parts: Iterable[str]) -> str:
    return hashlib.sha256(_SEPARATOR.join(parts).encode("utf-8")).hexdigest()


def cell_key(kind: str, parts: Iterable[str]) -> str:
    """The content address of a ``kind`` artifact with key ``parts``."""
    return _digest(("repro", __version__, FORMAT_VERSION, kind, *parts))


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


def training_digests(name: str, scale: float, training_runs: int) -> Tuple[str, ...]:
    """Digests of a workload's first ``training_runs`` input streams."""
    return tuple(input_digest(name, index, scale) for index in range(training_runs))


def workload_fingerprint(name: str, scale: float, training_runs: int) -> str:
    """One digest covering a workload's program text and every input set."""
    return cell_key(
        "workload",
        (program_text(name),)
        + training_digests(name, scale, training_runs)
        + (input_digest(name, TEST_INDEX, scale),),
    )

"""Compact profile sketches: the wire format for fleet-scale fusion.

A :class:`ProfileSketch` is a profile image compressed for shipping from
"edge" profiling runs to a central fusion point (ROADMAP: fleet-scale
profile fusion; cf. *Hardware Counted Profile-Guided Optimization* —
cheap collection only pays off if the upload is cheap too).  The bulk of
a v1 text image is per-address counter rows, so the sketch encodes
exactly those, three ways smaller:

1. **varint** — counters are magnitude-skewed (most instructions execute
   far fewer times than the hottest one), so LEB128 variable-length
   integers beat fixed-width fields;
2. **delta** — addresses are encoded sorted as successive differences,
   and within a row the counter chain ``executions >= attempts >=
   correct >= nonzero_stride_correct`` is stored as its non-negative
   differences, which are small when accuracy is high (the common case
   the paper banks on);
3. **zlib** — the varint body is deflate-compressed, which collapses the
   heavy cross-row redundancy of profile tables.

Optionally the counters are **quantized**: level ``q`` floor-truncates
the low ``q`` bits of every counter (``count >> q << q``).  Truncation
preserves the ordering invariants the loader enforces, degrades counts
by at most ``2**q - 1`` each, and its absolute error is monotone
non-decreasing in ``q`` — :func:`fidelity_report` measures the actual
classification-fidelity loss on a corpus so the trade is chosen from
data, not hope.

Level 0 is lossless: ``loads_sketch(dumps_sketch(s)).to_image()``
round-trips the image exactly, so a sketch is a drop-in transport for
the merge algebra verified in the PR 5 oracle.

Binary layout::

    # repro-profile-sketch v1\n      (magic, bytes)
    zlib(body)                       (to end of stream)

where ``body`` is a varint stream: program/run labels (length-prefixed
UTF-8), the quantization level, the instruction-row count and rows
(zigzag address delta, then the quantized counter-chain deltas), then
the group count and per-(category, phase) member rows in the same shape.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..isa import Category
from ..telemetry import get_registry
from .collector import InstructionProfile, ProfileImage
from .image_io import (
    ProfileFormatError,
    _publish_atomic,
    dumps_profile,
)

SKETCH_MAGIC = b"# repro-profile-sketch v1\n"

_CATEGORY_BY_VALUE = {category.value: category for category in Category}

#: Quantization levels measured by default in :func:`fidelity_report`.
DEFAULT_FIDELITY_LEVELS: Tuple[int, ...] = (0, 1, 2, 4, 8)


class SketchFormatError(ProfileFormatError):
    """Raised when a profile-sketch payload is malformed."""


def _quantize(count: int, level: int) -> int:
    return (count >> level) << level


@dataclass(frozen=True)
class ProfileSketch:
    """A profile image plus the quantization level it was encoded at.

    ``image`` already carries the quantized (floor-truncated) counts, so
    :meth:`to_image` is free and a sketch round-trips bit-for-bit through
    :func:`dumps_sketch` / :func:`loads_sketch` at any level.
    """

    image: ProfileImage
    quantize: int = 0

    @classmethod
    def from_image(cls, image: ProfileImage, quantize: int = 0) -> "ProfileSketch":
        """Sketch ``image`` at ``quantize`` (level 0 is lossless)."""
        if quantize < 0:
            raise ValueError(f"quantization level must be >= 0, got {quantize}")
        sketched = ProfileImage(image.program_name, run_label=image.run_label)
        for address in image.addresses:
            profile = image.instructions[address]
            sketched.instructions[address] = InstructionProfile(
                address=address,
                executions=_quantize(profile.executions, quantize),
                attempts=_quantize(profile.attempts, quantize),
                correct=_quantize(profile.correct, quantize),
                nonzero_stride_correct=_quantize(
                    profile.nonzero_stride_correct, quantize
                ),
            )
        for key, members in image.group_detail.items():
            sketched.group_detail[key] = {
                address: [_quantize(count, quantize) for count in members[address]]
                for address in sorted(members)
            }
        return cls(image=sketched, quantize=quantize)

    def to_image(self) -> ProfileImage:
        """The (de)quantized profile image this sketch represents."""
        return self.image


# --------------------------------------------------------------------------
# varint primitives


def _put_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SketchFormatError(f"cannot encode negative varint {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _get_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SketchFormatError("truncated varint in sketch body")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _put_svarint(out: bytearray, value: int) -> None:
    """Zigzag-encoded signed varint (used for first-address and phase)."""
    _put_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)


def _get_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _get_uvarint(data, pos)
    return (raw // 2 if raw % 2 == 0 else -(raw + 1) // 2), pos


def _put_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _put_uvarint(out, len(raw))
    out.extend(raw)


def _get_text(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _get_uvarint(data, pos)
    if pos + length > len(data):
        raise SketchFormatError("truncated string in sketch body")
    try:
        text = data[pos : pos + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SketchFormatError(f"invalid UTF-8 in sketch body: {exc}") from None
    return text, pos + length


# --------------------------------------------------------------------------
# encode / decode


def dumps_sketch(sketch: ProfileSketch) -> bytes:
    """Serialize ``sketch`` to its binary wire format."""
    started = time.perf_counter()
    image = sketch.image
    body = bytearray()
    _put_text(body, image.program_name)
    _put_text(body, image.run_label)
    _put_uvarint(body, sketch.quantize)

    addresses = image.addresses
    _put_uvarint(body, len(addresses))
    previous = 0
    for address in addresses:
        profile = image.instructions[address]
        _put_svarint(body, address - previous)
        previous = address
        executions = profile.executions
        attempts = profile.attempts
        correct = profile.correct
        nonzero = profile.nonzero_stride_correct
        if not 0 <= nonzero <= correct <= attempts <= executions:
            raise SketchFormatError(
                f"inconsistent counts for address {address}"
            )
        _put_uvarint(body, executions)
        _put_uvarint(body, executions - attempts)
        _put_uvarint(body, attempts - correct)
        _put_uvarint(body, correct - nonzero)

    group_keys = sorted(
        image.group_detail, key=lambda key: (key[0].value, key[1])
    )
    _put_uvarint(body, len(group_keys))
    for category, phase in group_keys:
        members = image.group_detail[(category, phase)]
        _put_text(body, category.value)
        _put_svarint(body, phase)
        _put_uvarint(body, len(members))
        previous = 0
        for address in sorted(members):
            executions, attempts, correct = members[address]
            if not 0 <= correct <= attempts <= executions:
                raise SketchFormatError(
                    f"inconsistent group counts for address {address}"
                )
            _put_svarint(body, address - previous)
            previous = address
            _put_uvarint(body, executions)
            _put_uvarint(body, executions - attempts)
            _put_uvarint(body, attempts - correct)

    payload = SKETCH_MAGIC + zlib.compress(bytes(body), 9)
    telemetry = get_registry()
    if telemetry.enabled:
        telemetry.counter("fusion.sketch_bytes").add(len(payload))
        telemetry.timer("fusion.encode").add(time.perf_counter() - started)
    return payload


def loads_sketch(data: bytes) -> ProfileSketch:
    """Parse a binary sketch payload.

    Raises:
        SketchFormatError: on a bad magic, a corrupt deflate stream,
            truncated or trailing bytes, unsorted/duplicate rows, or an
            unknown group category.
    """
    started = time.perf_counter()
    if not data.startswith(SKETCH_MAGIC):
        raise SketchFormatError(
            f"not a profile sketch (header {bytes(data[:16])!r})"
        )
    try:
        decompressor = zlib.decompressobj()
        body = decompressor.decompress(data[len(SKETCH_MAGIC):])
        body += decompressor.flush()
    except zlib.error as exc:
        raise SketchFormatError(f"corrupt sketch body: {exc}") from None
    if not decompressor.eof:
        raise SketchFormatError("truncated deflate stream in sketch")
    if decompressor.unused_data:
        raise SketchFormatError(
            f"{len(decompressor.unused_data)} trailing bytes after "
            "sketch deflate stream"
        )

    pos = 0
    program_name, pos = _get_text(body, pos)
    run_label, pos = _get_text(body, pos)
    quantize, pos = _get_uvarint(body, pos)
    image = ProfileImage(program_name, run_label=run_label)

    row_count, pos = _get_uvarint(body, pos)
    previous: Optional[int] = None
    for _ in range(row_count):
        delta, pos = _get_svarint(body, pos)
        address = delta if previous is None else previous + delta
        if previous is not None and delta <= 0:
            raise SketchFormatError(
                f"unsorted or duplicate instruction row at address {address}"
            )
        previous = address
        executions, pos = _get_uvarint(body, pos)
        gap_attempts, pos = _get_uvarint(body, pos)
        gap_correct, pos = _get_uvarint(body, pos)
        gap_nonzero, pos = _get_uvarint(body, pos)
        attempts = executions - gap_attempts
        correct = attempts - gap_correct
        nonzero = correct - gap_nonzero
        if nonzero < 0:
            raise SketchFormatError(
                f"inconsistent counts for address {address}"
            )
        image.instructions[address] = InstructionProfile(
            address=address,
            executions=executions,
            attempts=attempts,
            correct=correct,
            nonzero_stride_correct=nonzero,
        )

    group_count, pos = _get_uvarint(body, pos)
    for _ in range(group_count):
        category_value, pos = _get_text(body, pos)
        category = _CATEGORY_BY_VALUE.get(category_value)
        if category is None:
            raise SketchFormatError(f"unknown group category {category_value!r}")
        phase, pos = _get_svarint(body, pos)
        key = (category, phase)
        if key in image.group_detail:
            raise SketchFormatError(
                f"duplicate group {category_value!r} phase {phase}"
            )
        members: Dict[int, List[int]] = {}
        member_count, pos = _get_uvarint(body, pos)
        previous = None
        for _ in range(member_count):
            delta, pos = _get_svarint(body, pos)
            address = delta if previous is None else previous + delta
            if previous is not None and delta <= 0:
                raise SketchFormatError(
                    f"unsorted or duplicate group row at address {address}"
                )
            previous = address
            executions, pos = _get_uvarint(body, pos)
            gap_attempts, pos = _get_uvarint(body, pos)
            gap_correct, pos = _get_uvarint(body, pos)
            attempts = executions - gap_attempts
            correct = attempts - gap_correct
            if correct < 0:
                raise SketchFormatError(
                    f"inconsistent group counts for address {address}"
                )
            members[address] = [executions, attempts, correct]
        image.group_detail[key] = members

    if pos != len(body):
        raise SketchFormatError(
            f"{len(body) - pos} trailing bytes after sketch body"
        )
    telemetry = get_registry()
    if telemetry.enabled:
        telemetry.timer("fusion.decode").add(time.perf_counter() - started)
    return ProfileSketch(image=image, quantize=quantize)


def dump_sketch(sketch: ProfileSketch, stream: BinaryIO) -> None:
    """Write ``sketch`` to a binary ``stream``."""
    stream.write(dumps_sketch(sketch))


def load_sketch(stream: BinaryIO) -> ProfileSketch:
    """Read a sketch from a binary ``stream``."""
    return loads_sketch(stream.read())


def save_sketch(sketch: ProfileSketch, path: Union[str, Path]) -> None:
    """Write ``sketch`` to ``path`` atomically (temp file + rename)."""
    _publish_atomic(Path(path), dumps_sketch(sketch))


def read_sketch(path: Union[str, Path]) -> ProfileSketch:
    """Load a sketch from ``path``."""
    with open(path, "rb") as stream:
        return load_sketch(stream)


# --------------------------------------------------------------------------
# size / fidelity report


def fidelity_report(
    images: Iterable[ProfileImage],
    levels: Sequence[int] = DEFAULT_FIDELITY_LEVELS,
    accuracy_threshold: float = 90.0,
) -> Dict[str, object]:
    """Measure sketch size and classification fidelity over a corpus.

    Streams over ``images`` one at a time (O(1) image-resident memory).
    For each quantization level, reports total sketch bytes, the
    compression ratio against the v1 text dump, the mean absolute
    per-counter error, and the fraction of instructions whose
    predictable/unpredictable classification at ``accuracy_threshold``
    (the paper's phase-3 admission test) is unchanged by quantization.

    The mean absolute error is provably monotone non-decreasing in the
    level — flooring to a coarser power-of-two grid never moves a count
    closer to its true value — which the test suite asserts.
    """
    level_list = list(levels)
    totals = {
        level: {"sketch_bytes": 0, "abs_error": 0, "agreements": 0}
        for level in level_list
    }
    image_count = 0
    row_count = 0
    text_bytes = 0
    for image in images:
        image_count += 1
        row_count += len(image.instructions)
        text_bytes += len(dumps_profile(image).encode("utf-8"))
        for level in level_list:
            sketch = ProfileSketch.from_image(image, quantize=level)
            bucket = totals[level]
            bucket["sketch_bytes"] += len(dumps_sketch(sketch))
            approx = sketch.to_image()
            for address, profile in image.instructions.items():
                coarse = approx.instructions[address]
                bucket["abs_error"] += (
                    (profile.executions - coarse.executions)
                    + (profile.attempts - coarse.attempts)
                    + (profile.correct - coarse.correct)
                    + (
                        profile.nonzero_stride_correct
                        - coarse.nonzero_stride_correct
                    )
                )
                if (profile.accuracy >= accuracy_threshold) == (
                    coarse.accuracy >= accuracy_threshold
                ):
                    bucket["agreements"] += 1
    report_levels = []
    for level in level_list:
        bucket = totals[level]
        sketch_bytes = bucket["sketch_bytes"]
        report_levels.append(
            {
                "quantize": level,
                "sketch_bytes": sketch_bytes,
                "bytes_per_image": (
                    sketch_bytes / image_count if image_count else 0.0
                ),
                "compression_ratio": (
                    text_bytes / sketch_bytes if sketch_bytes else 0.0
                ),
                "mean_abs_count_error": (
                    bucket["abs_error"] / (4 * row_count) if row_count else 0.0
                ),
                "classification_agreement": (
                    bucket["agreements"] / row_count if row_count else 1.0
                ),
            }
        )
    return {
        "images": image_count,
        "instructions": row_count,
        "text_bytes": text_bytes,
        "accuracy_threshold": accuracy_threshold,
        "levels": report_levels,
    }


__all__ = [
    "DEFAULT_FIDELITY_LEVELS",
    "ProfileSketch",
    "SKETCH_MAGIC",
    "SketchFormatError",
    "dump_sketch",
    "dumps_sketch",
    "fidelity_report",
    "load_sketch",
    "loads_sketch",
    "read_sketch",
    "save_sketch",
]

"""Profile-image file format.

The paper describes the profile output as "a file that is organized as a
table.  Each entry is associated with an individual instruction and
consists of three fields: the instruction's address, its prediction
accuracy and its stride efficiency ratio."  We persist the underlying
*counts* instead of the two ratios so that images from multiple training
runs can be merged exactly; the ratios are recomputed on load.

Format (text, line-oriented)::

    # repro-profile-image v1
    # program: 126.gcc
    # run: train-0
    # columns: address executions attempts correct nonzero_stride_correct
    3 1000 999 995 995
    ...
    # group: int_alu 2 3 1000 999 995

v1 extension — group rows.  The per-address (category, phase) group
accounting (:attr:`~repro.profiling.collector.ProfileImage.group_detail`,
behind Table 2.1) is persisted as ``# group: <category> <phase>
<address> <executions> <attempts> <correct>`` comment rows, one per
member address.  Writing them as comments keeps the extension backward
compatible: v1 readers that predate it skip every ``#`` line and still
load the instruction table.  The loader validates group rows exactly
like instruction rows — integer fields, ``0 <= correct <= attempts <=
executions`` — and rejects duplicate rows, so a save→load→merge
pipeline is bit-for-bit identical to merging the in-memory images.

An image stores most group counts only once (an address homed in its
one group reuses its instruction counts), but the file does not show
it: every member address still gets its own row, written from the
derived ``group_detail`` view.  The loader homes each address whose
only group row equals its instruction row and keeps explicit slots for
the rest, so every file it accepts writes back the same bytes.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path
from typing import TextIO, Union

from ..isa import Category
from .collector import InstructionProfile, ProfileImage

_MAGIC = "# repro-profile-image v1"

_CATEGORY_BY_VALUE = {category.value: category for category in Category}


class ProfileFormatError(ValueError):
    """Raised when a profile-image file is malformed."""


def dump_profile(image: ProfileImage, stream: TextIO) -> None:
    """Write ``image`` to ``stream`` in the v1 text format."""
    stream.write(f"{_MAGIC}\n")
    stream.write(f"# program: {image.program_name}\n")
    stream.write(f"# run: {image.run_label}\n")
    stream.write("# columns: address executions attempts correct "
                 "nonzero_stride_correct\n")
    for address in image.addresses:
        profile = image.instructions[address]
        stream.write(
            f"{address} {profile.executions} {profile.attempts} "
            f"{profile.correct} {profile.nonzero_stride_correct}\n"
        )
    for (category, phase), members in sorted(
        image.group_detail.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        for address in sorted(members):
            executions, attempts, correct = members[address]
            stream.write(
                f"# group: {category.value} {phase} {address} "
                f"{executions} {attempts} {correct}\n"
            )


def dumps_profile(image: ProfileImage) -> str:
    """Serialize ``image`` to a string."""
    buffer = io.StringIO()
    dump_profile(image, buffer)
    return buffer.getvalue()


def _publish_atomic(path: Path, payload: Union[str, bytes]) -> None:
    """Publish ``payload`` at ``path`` via temp file + rename.

    Mirrors the TraceStore publish semantics: a reader either sees the
    previous complete file or the new complete file, never a torn write,
    and a failure mid-write leaves the original untouched.
    """
    parent = path.parent if str(path.parent) else Path(".")
    handle, tmp_name = tempfile.mkstemp(
        dir=str(parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        if isinstance(payload, bytes):
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
        else:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed or removed
            pass
        raise


def save_profile(image: ProfileImage, path: Union[str, Path]) -> None:
    """Write ``image`` to ``path`` atomically (temp file + rename).

    The image is serialized in full before the temp file is created, so
    a serialization failure leaves the filesystem untouched.
    """
    _publish_atomic(Path(path), dumps_profile(image))


def _parse_group_row(line_number: int, body: str) -> tuple:
    """Parse the payload of one ``# group:`` row."""
    fields = body.split()
    if len(fields) != 6:
        raise ProfileFormatError(
            f"line {line_number}: group row expects 6 fields, got {len(fields)}"
        )
    category = _CATEGORY_BY_VALUE.get(fields[0])
    if category is None:
        raise ProfileFormatError(
            f"line {line_number}: unknown group category {fields[0]!r}"
        )
    try:
        phase, address, executions, attempts, correct = (
            int(field) for field in fields[1:]
        )
    except ValueError:
        raise ProfileFormatError(
            f"line {line_number}: non-integer field in group row {body!r}"
        ) from None
    if not 0 <= correct <= attempts <= executions:
        raise ProfileFormatError(
            f"line {line_number}: inconsistent group counts for address {address}"
        )
    return category, phase, address, executions, attempts, correct


def load_profile(stream: TextIO) -> ProfileImage:
    """Parse a v1 profile image from ``stream``.

    Raises:
        ProfileFormatError: on a bad magic line, malformed rows, or a
            duplicate instruction/group row.
    """
    first = stream.readline().rstrip("\n")
    if first != _MAGIC:
        raise ProfileFormatError(f"not a profile image (header {first!r})")
    program_name = ""
    run_label = ""
    rows = []
    group_rows = []
    for line_number, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("program:"):
                program_name = body[len("program:"):].strip()
            elif body.startswith("run:"):
                run_label = body[len("run:"):].strip()
            elif body.startswith("group:"):
                group_rows.append(
                    (line_number, _parse_group_row(line_number, body[len("group:"):]))
                )
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ProfileFormatError(
                f"line {line_number}: expected 5 fields, got {len(fields)}"
            )
        try:
            rows.append((line_number,) + tuple(int(field) for field in fields))
        except ValueError:
            raise ProfileFormatError(
                f"line {line_number}: non-integer field in {line!r}"
            ) from None
    image = ProfileImage(program_name, run_label=run_label)
    for line_number, address, executions, attempts, correct, nonzero in rows:
        if not 0 <= correct <= attempts <= executions or nonzero > correct:
            raise ProfileFormatError(
                f"line {line_number}: inconsistent counts for address {address}"
            )
        if address in image.instructions:
            raise ProfileFormatError(
                f"line {line_number}: duplicate row for address {address}"
            )
        image.instructions[address] = InstructionProfile(
            address=address,
            executions=executions,
            attempts=attempts,
            correct=correct,
            nonzero_stride_correct=nonzero,
        )
    detail: dict = {}
    for line_number, (category, phase, address, executions, attempts, correct) in (
        group_rows
    ):
        members = detail.setdefault((category, phase), {})
        if address in members:
            raise ProfileFormatError(
                f"line {line_number}: duplicate group row for "
                f"{category.value} phase {phase} address {address}"
            )
        members[address] = [executions, attempts, correct]
    image.group_detail = detail
    return image


def loads_profile(text: str) -> ProfileImage:
    """Parse a v1 profile image from a string."""
    return load_profile(io.StringIO(text))


def read_profile(path: Union[str, Path]) -> ProfileImage:
    """Load a profile image from ``path``.

    Raises :class:`ProfileFormatError` for any malformed content —
    including binary garbage that is not valid UTF-8, which the text
    decoder would otherwise surface as a bare ``UnicodeDecodeError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return load_profile(stream)
    except UnicodeDecodeError as error:
        raise ProfileFormatError(
            f"{path}: not a text profile image (undecodable bytes: {error})"
        ) from error

"""Text trace export.

Every analysis layer replays traces from the packed
:class:`~repro.machine.TraceStore` (``repro trace --store`` captures
into one).  This module exports one run's trace as portable text for
tools outside the reproduction; nothing here reads it back.

Format (one record per line)::

    # repro-trace v1
    # program: 126.gcc
    <address> <value|-> <phase> <mem_address|->

Values serialize via ``repr`` so integers and floats are exact.  An
integer past Python's decimal conversion limit (4,300 digits) is
written in hex instead, sign kept (``0x…`` or ``-0x…``), as the packed
store writes it.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import os
import tempfile
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from ..isa import Number, Program
from .batch import TraceBatch
from .tracestore import replay_or_run

_MAGIC = "# repro-trace v1"


def _render_value(value: Optional[Number]) -> str:
    if value is None:
        return "-"
    try:
        return repr(value)
    except ValueError:  # an int past the decimal conversion limit
        return hex(value)


def write_trace(
    batches: Iterable[TraceBatch],
    stream: IO[str],
    program_name: str = "",
) -> int:
    """Write the records of ``batches`` to ``stream``; returns the count."""
    stream.write(f"{_MAGIC}\n")
    stream.write(f"# program: {program_name}\n")
    count = 0
    for batch in batches:
        for record in batch.records():
            stream.write(
                f"{record.address} {_render_value(record.value)} "
                f"{record.phase} {_render_value(record.mem_address)}\n"
            )
        count += len(batch)
    return count


@contextlib.contextmanager
def trace_output(path: Union[str, Path]) -> Iterator[IO[str]]:
    """A text stream that lands at ``path`` only if the block completes.

    A ``.gz`` suffix selects gzip compression.  The text streams into a
    temporary file beside ``path`` that is renamed into place when the
    block exits normally; if it raises instead, the temporary file is
    removed and ``path`` is left untouched.
    """
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    handle, tmp_name = tempfile.mkstemp(
        dir=str(parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as raw:
            binary = raw
            if path.suffix == ".gz":
                binary = gzip.GzipFile(
                    filename=path.name, mode="wb", fileobj=raw, mtime=0
                )
            with io.TextIOWrapper(binary, encoding="utf-8") as stream:
                yield stream
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed or removed
            pass
        raise


def save_trace(
    program: Program,
    path: Union[str, Path],
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = None,
) -> int:
    """Execute ``program`` once, writing its trace to ``path``.

    The file is written through :func:`trace_output`: a ``.gz`` suffix
    compresses, and a run that raises (an
    :class:`~repro.machine.ExecutionError`) leaves ``path`` untouched.
    Returns the number of records written.
    """
    with trace_output(path) as stream:
        return write_trace(
            replay_or_run(program, inputs, max_instructions), stream, program.name
        )

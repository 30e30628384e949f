"""Content-addressed on-disk artifact cache.

Every expensive artifact of the experiment pipeline — profile images,
merged profiles, serialized simulation/ILP grids, finished experiment
tables — is stored under a key that is the SHA-256 of everything the
artifact depends on (program text, input streams, configuration; see
:mod:`repro.runner.keys`).  Identical inputs therefore share one entry,
any change to the inputs produces a new key, and entries never need
invalidation logic beyond "the key changed".

Layout on disk::

    <cache-dir>/<kind>/<key[:2]>/<key>.<ext>

where ``kind`` is the artifact family (``profile``, ``merged``,
``classify``, ``ilp``, ``experiment``), the two-character fan-out keeps
directories small, and
``ext`` is the payload's native extension (``.profile``, ``.json``,
``.tsv``).  Payloads are UTF-8 text;
writes go through a temporary file and :func:`os.replace` so concurrent
writers (pool workers racing on a shared artifact) are safe — last
writer wins with identical content.

A corrupt entry (truncated write, stray file, version skew) is treated
as a miss: the one reader,
:meth:`~repro.experiments.context.ExperimentContext.from_disk`, deletes
an entry it fails to decode (:class:`PayloadError`) and recomputes.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..telemetry import get_registry

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class PayloadError(ValueError):
    """A payload failed to decode (corrupt cache entry, version skew)."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro`` (honouring XDG)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


class ArtifactCache:
    """A content-addressed text store rooted at ``root``.

    The cache is a dumb key/value store: keys are hex digests computed
    by the experiment context (see :mod:`repro.runner.keys`), values are
    text.  All
    decode validation lives in the caller; use :meth:`discard` when a
    payload fails to decode.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str, key: str, extension: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.{extension}"

    # -- store/load ----------------------------------------------------------

    def load(self, kind: str, key: str, extension: str = "json") -> Optional[str]:
        """The stored payload, or ``None`` on a miss or unreadable entry."""
        path = self._path(kind, key, extension)
        try:
            payload = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            get_registry().counter(f"cache.miss.{kind}").add(1)
            return None
        except (OSError, UnicodeDecodeError):
            self.discard(kind, key, extension)
            get_registry().counter(f"cache.miss.{kind}").add(1)
            return None
        get_registry().counter(f"cache.hit.{kind}").add(1)
        return payload

    def store(self, kind: str, key: str, payload: str, extension: str = "json") -> Path:
        """Atomically write ``payload`` under ``(kind, key)``."""
        get_registry().counter(f"cache.store.{kind}").add(1)
        path = self._path(kind, key, extension)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    def discard(self, kind: str, key: str, extension: str = "json") -> None:
        """Drop the entry (used when a payload fails to decode)."""
        registry = get_registry()
        registry.counter(f"cache.corrupt.{kind}").add(1)
        registry.emit("cache.discard", kind=kind, key=key)
        try:
            self._path(kind, key, extension).unlink()
        except OSError:
            pass

    # -- inspection ----------------------------------------------------------

    def __contains__(self, kind_key: Tuple[str, str]) -> bool:
        kind, key = kind_key
        fanout = self.root / kind / key[:2]
        return any(fanout.glob(f"{key}.*")) if fanout.is_dir() else False

    def entries(self) -> Iterator[Path]:
        """Every stored entry (for tests and cache statistics)."""
        for path in sorted(self.root.rglob("*")):
            if path.is_file() and not path.name.endswith(".tmp"):
                yield path

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArtifactCache({str(self.root)!r})"

"""Every name a package exports in ``__all__`` resolves.

Some names are lazy (module ``__getattr__`` maps), so a stale entry only
fails when someone touches it; this walks every export eagerly.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []

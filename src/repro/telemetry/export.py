"""Exporters for telemetry snapshots: JSON and an aligned text table."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from .registry import Telemetry


def _snapshot_of(source: Union[Telemetry, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(source, Telemetry):
        return source.snapshot()
    return source


def to_json(source: Union[Telemetry, Dict[str, Any]], indent: int = 2) -> str:
    """A registry (or snapshot) as deterministic, sorted JSON text."""
    return json.dumps(_snapshot_of(source), indent=indent, sort_keys=True)


def format_text(source: Union[Telemetry, Dict[str, Any]]) -> str:
    """A registry (or snapshot) as an aligned human-readable table."""
    snapshot = _snapshot_of(source)
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    timers = snapshot.get("timers", {})
    spans = snapshot.get("spans", {})
    width = max(
        (len(name) for name in (*counters, *gauges, *timers, *spans)), default=0
    )
    if counters:
        lines.append("counters:")
        lines.extend(
            f"  {name:<{width}}  {value:>14,}" for name, value in sorted(counters.items())
        )
    if gauges:
        lines.append("gauges:")
        lines.extend(
            f"  {name:<{width}}  {value:>14,.3f}" for name, value in sorted(gauges.items())
        )
    if timers:
        lines.append("timers:")
        lines.extend(
            f"  {name:<{width}}  {stats['seconds']:>11.3f}s  x{stats['count']}"
            for name, stats in sorted(timers.items())
        )
    if spans:
        lines.append("spans:")
        lines.extend(
            f"  {path:<{width}}  {stats['seconds']:>11.3f}s  x{stats['count']}"
            for path, stats in sorted(spans.items())
        )
    return "\n".join(lines) if lines else "(no telemetry recorded)"


"""Correctness tooling: the differential oracle and the invariant lint.

The repo's performance work keeps adding *fast paths* whose only excuse
for existing is bit-for-bit equivalence with a slower reference path —
the columnar batch executor vs the per-record adapter, trace replay vs
fresh capture, the parallel runner vs a serial walk, profile
save→load→merge vs merging in memory.  ``python -m repro check`` is the
net that keeps those equivalences honest:

* :mod:`repro.check.oracle` — a seeded random-program generator feeds
  every fast/reference pair through one equivalence harness; the first
  diverging record/field is reported together with a minimized
  reproducer program.
* :mod:`repro.check.lint` — an AST pass over ``src/`` that flags
  nondeterminism in deterministic modules, unordered-set iteration,
  undeclared telemetry metric names and unpicklable objects crossing
  the worker boundary, with an allowlist for grandfathered findings.

Both run in CI as ``repro check --smoke``.
"""

from .generator import CheckCase, generate_case
from .lint import Violation, run_lint
from .oracle import (
    Divergence,
    OraclePair,
    OracleReport,
    PairResult,
    all_pairs,
    first_divergence,
    profile_records,
    run_oracle,
)

__all__ = [
    "CheckCase",
    "Divergence",
    "OraclePair",
    "OracleReport",
    "PairResult",
    "Violation",
    "all_pairs",
    "first_divergence",
    "generate_case",
    "profile_records",
    "run_lint",
    "run_oracle",
]

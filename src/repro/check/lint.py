"""Static invariant lint over the source tree.

Four rules, each guarding an invariant the differential oracle can only
probe dynamically:

``nondet-call``
    No wall-clock, entropy or unseeded randomness in the deterministic
    core (``machine/``, ``core/``, ``predictors/``, ``profiling/``,
    ``ilp/``):
    ``time.time``, ``os.urandom``, ``uuid.uuid4`` and module-level
    ``random.*`` calls are flagged (``random.Random(seed)`` instances
    are fine — seeded RNGs are how the repo *does* randomness).
    ``time.perf_counter`` is deliberately exempt: it only feeds
    telemetry timers, never results.
``set-iteration``
    No iteration over unordered sets in the deterministic core — a
    ``for`` loop (or comprehension) directly over a set literal, set
    comprehension or ``set()``/``frozenset()`` call makes trace and
    profile output order depend on hash seeds.  Wrap in ``sorted``.
``metric-name``
    Every ``counter``/``gauge``/``timer`` name literal anywhere in
    ``src/`` must be declared in
    :mod:`repro.telemetry.metrics` — exactly, or via a registered
    dynamic-family prefix for f-string names.  Span names are scoped
    labels, not snapshot metrics, and are not checked.
``pickle-boundary``
    Nothing unpicklable may cross the worker boundary in ``runner/``:
    a ``lambda`` or a function defined inside another function, passed
    to a pool ``submit``, dies in the child with an opaque
    ``PicklingError``.

Findings are keyed ``"<rule> <path> <detail>"`` — stable across line
renumbering — so a committed allowlist can grandfather pre-existing
violations while new ones fail the build.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..telemetry.metrics import is_known_metric

#: Top-level packages under ``src/repro/`` whose behaviour must be a pure
#: function of (program, inputs, seed).
DETERMINISTIC_PACKAGES = ("machine", "core", "predictors", "profiling", "ilp")

_NONDET_CALLS = {
    ("time", "time"): "wall-clock time.time()",
    ("os", "urandom"): "os.urandom() entropy",
    ("uuid", "uuid4"): "uuid.uuid4() entropy",
}
_RANDOM_SAFE = {"Random"}  # seeded instances; everything else on the module is global state

_METRIC_METHODS = ("counter", "gauge", "timer")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    path: str
    line: int
    detail: str
    message: str

    @property
    def key(self) -> str:
        """Allowlist key: stable across line renumbering."""
        return f"{self.rule} {self.path} {self.detail}"

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as a name tuple, or ``None`` for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str, deterministic: bool, in_runner: bool) -> None:
        self.rel_path = rel_path
        self.deterministic = deterministic
        self.in_runner = in_runner
        self.violations: List[Violation] = []
        self._function_stack: List[ast.AST] = []
        self._nested_defs: set = set()

    def _flag(self, rule: str, node: ast.AST, detail: str, message: str) -> None:
        self.violations.append(
            Violation(rule, self.rel_path, getattr(node, "lineno", 0), detail, message)
        )

    # -- nondet-call ----------------------------------------------------

    def _check_nondet_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in _NONDET_CALLS:
            name = ".".join(dotted)
            self._flag(
                "nondet-call", node, name,
                f"{_NONDET_CALLS[dotted]} in a deterministic module",
            )
        elif len(dotted) == 2 and dotted[0] == "random":
            if dotted[1] not in _RANDOM_SAFE:
                name = ".".join(dotted)
                self._flag(
                    "nondet-call", node, name,
                    f"global-state {name}() in a deterministic module; "
                    "use a seeded random.Random instance",
                )

    # -- metric-name ----------------------------------------------------

    def _check_metric_name(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_METHODS
            and node.args
        ):
            return
        argument = node.args[0]
        if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
            name = argument.value
            if not is_known_metric(name):
                self._flag(
                    "metric-name", node, name,
                    f"metric {name!r} is not declared in repro.telemetry.metrics",
                )
        elif isinstance(argument, ast.JoinedStr):
            prefix = ""
            for value in argument.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    prefix += value.value
                else:
                    break
            if not prefix or not is_known_metric(prefix + "x"):
                detail = f"f'{prefix}...'"
                self._flag(
                    "metric-name", node, detail,
                    f"dynamic metric name {detail} matches no registered "
                    "prefix in repro.telemetry.metrics",
                )

    # -- set-iteration --------------------------------------------------

    def _check_set_iteration(self, iter_node: ast.AST, node: ast.AST) -> None:
        if self.deterministic and _is_set_expression(iter_node):
            self._flag(
                "set-iteration", node, "for-over-set",
                "iteration over an unordered set in a deterministic module; "
                "wrap in sorted(...)",
            )

    # -- pickle-boundary ------------------------------------------------

    def _check_pickle_boundary(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "submit"
        ):
            return
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(argument, ast.Lambda):
                self._flag(
                    "pickle-boundary", node, "lambda-to-submit",
                    "lambda passed to a pool submit(); lambdas do not "
                    "pickle across the worker boundary",
                )
            elif isinstance(argument, ast.Name) and argument.id in self._nested_defs:
                self._flag(
                    "pickle-boundary", node, f"closure:{argument.id}",
                    f"locally defined function {argument.id!r} passed to a "
                    "pool submit(); nested functions do not pickle",
                )

    # -- visitors -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic:
            self._check_nondet_call(node)
        self._check_metric_name(node)
        if self.in_runner:
            self._check_pickle_boundary(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_set_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set is order-free; only ordered
        # collections built from sets are flagged.
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        if self._function_stack and self.in_runner:
            self._nested_defs.add(node.name)
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def lint_source(
    source: str, rel_path: str
) -> List[Violation]:
    """Lint one file's source text (``rel_path`` is src-relative)."""
    parts = Path(rel_path).parts
    package = parts[1] if len(parts) > 2 and parts[0] == "repro" else ""
    linter = _FileLinter(
        rel_path,
        deterministic=package in DETERMINISTIC_PACKAGES,
        in_runner=package == "runner",
    )
    linter.visit(ast.parse(source, filename=rel_path))
    return linter.violations


def load_allowlist(path: Union[str, Path]) -> FrozenSet[str]:
    """Read grandfathered violation keys; ``#`` lines are comments."""
    entries = set()
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return frozenset(entries)


def run_lint(
    src_root: Optional[Union[str, Path]] = None,
    allowlist: Iterable[str] = (),
) -> List[Violation]:
    """Lint every ``.py`` file under ``src_root`` (default: this tree).

    Returns violations whose :attr:`Violation.key` is not allowlisted,
    sorted by path then line.
    """
    if src_root is None:
        src_root = Path(__file__).resolve().parents[2]  # .../src
    src_root = Path(src_root)
    allowed = frozenset(allowlist)
    violations: List[Violation] = []
    for path in sorted(src_root.rglob("*.py")):
        rel_path = path.relative_to(src_root).as_posix()
        source = path.read_text(encoding="utf-8")
        violations.extend(lint_source(source, rel_path))
    return sorted(
        (violation for violation in violations if violation.key not in allowed),
        key=lambda violation: (violation.path, violation.line),
    )


__all__ = [
    "DETERMINISTIC_PACKAGES",
    "Violation",
    "lint_source",
    "load_allowlist",
    "run_lint",
]

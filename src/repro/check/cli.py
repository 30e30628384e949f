"""``python -m repro check`` — run the oracle and the lint from the shell.

Exit status is 0 only when every selected oracle pair agrees and the
lint reports no non-allowlisted violation.  On an oracle divergence the
minimized reproducer is written under ``--artifact-dir`` (default
``check-artifacts/``) so CI can upload it.

Typical invocations::

    python -m repro check                       # full run, default seeds
    python -m repro check --smoke               # pinned CI configuration
    python -m repro check --seed 41 --programs 30
    python -m repro check --pairs trace-replay-disk,profile-io-merge
    python -m repro check --list                # show pairs and exit
    python -m repro check --no-oracle           # lint only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .lint import load_allowlist, run_lint
from .oracle import DEFAULT_BUDGET, all_pairs, run_oracle

#: The CI configuration: one pinned seed base so a red build is
#: reproducible with the exact command it prints.
SMOKE_SEED = 1997
SMOKE_PROGRAMS = 6


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"pinned CI run: seed {SMOKE_SEED}, {SMOKE_PROGRAMS} programs",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="first generator seed (default 1)"
    )
    parser.add_argument(
        "--programs", type=int, default=12,
        help="number of generated programs per pair (default 12)",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help=f"dynamic-instruction budget per run (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--pairs",
        help="comma-separated subset of oracle pairs (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the oracle pairs and exit"
    )
    parser.add_argument(
        "--no-oracle", action="store_true", help="skip the differential oracle"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the static invariant lint"
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="report the first divergence without shrinking the reproducer",
    )
    parser.add_argument(
        "--artifact-dir", default="check-artifacts",
        help="where divergence reproducers are written (default check-artifacts/)",
    )
    parser.add_argument(
        "--allowlist", default=None,
        help="lint allowlist file (default: .repro-check-allowlist beside "
        "the repo's src/, when present)",
    )


def _default_allowlist() -> Optional[Path]:
    candidate = Path(__file__).resolve().parents[3] / ".repro-check-allowlist"
    return candidate if candidate.is_file() else None


def run_from_arguments(arguments: argparse.Namespace) -> int:
    if arguments.list:
        for pair in all_pairs():
            kind = "generated programs" if pair.uses_program else "fixed workload"
            print(f"{pair.name:<30} [{kind}] {pair.description}")
        return 0

    failed = False

    if not arguments.no_oracle:
        if arguments.smoke:
            seed, programs = SMOKE_SEED, SMOKE_PROGRAMS
        else:
            seed, programs = arguments.seed, arguments.programs
        pairs = arguments.pairs.split(",") if arguments.pairs else None
        try:
            report = run_oracle(
                seeds=range(seed, seed + programs),
                budget=arguments.budget,
                pairs=pairs,
                minimize=not arguments.no_minimize,
            )
        except ValueError as error:
            known = ", ".join(pair.name for pair in all_pairs())
            print(f"repro check: {error} (known: {known})", file=sys.stderr)
            return 2
        print(report.format_text())
        if not report.passed:
            failed = True
            artifact_dir = Path(arguments.artifact_dir)
            artifact_dir.mkdir(parents=True, exist_ok=True)
            for result in report.failures:
                if result.reproducer is None:
                    continue
                path = artifact_dir / f"divergence-{result.pair.name}.asm"
                path.write_text(result.reproducer, encoding="utf-8")
                print(f"  reproducer written to {path}", file=sys.stderr)
            print(
                f"reproduce with: python -m repro check --seed {seed} "
                f"--programs {programs} --budget {arguments.budget}",
                file=sys.stderr,
            )

    if not arguments.no_lint:
        allowlist_path = (
            Path(arguments.allowlist) if arguments.allowlist else _default_allowlist()
        )
        allowlist = load_allowlist(allowlist_path) if allowlist_path else frozenset()
        violations = run_lint(allowlist=allowlist)
        if violations:
            failed = True
            for violation in violations:
                print(violation.format())
            print(
                f"lint: FAIL — {len(violations)} violation(s); grandfather "
                "pre-existing ones in .repro-check-allowlist (key: "
                "'<rule> <path> <detail>')"
            )
        else:
            suffix = f" ({len(allowlist)} allowlisted)" if allowlist else ""
            print(f"lint: PASS{suffix}")

    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check", description="differential oracle + invariant lint"
    )
    add_arguments(parser)
    return run_from_arguments(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

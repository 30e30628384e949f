"""Tests for the correctness tooling (:mod:`repro.check`).

The oracle is validated in both directions: a clean run over the fixed
repo passes every pair, and a seeded fault (the historical
``merge_profiles`` group-filtering bug, reintroduced via monkeypatch)
is detected with a named diverging field and a minimized reproducer.
"""

from __future__ import annotations

import pytest

import repro.check.oracle as oracle_module
from repro.check import generate_case, run_lint
from repro.check.cli import main as check_main
from repro.check.generator import FLOAT_REGS, INT_REGS
from repro.check.lint import Violation, lint_source, load_allowlist
from repro.check.oracle import (
    all_pairs,
    first_divergence,
    minimize_case,
    run_oracle,
)
from repro.isa import Opcode
from repro.machine import Executor
from repro.machine.errors import ExecutionError

BUDGET = 20_000


class TestGenerator:
    def test_deterministic(self):
        first = generate_case(41)
        second = generate_case(41)
        assert first.program.instructions == second.program.instructions
        assert first.program.data == second.program.data
        assert first.inputs == second.inputs

    def test_seeds_differ(self):
        assert (
            generate_case(1).program.instructions
            != generate_case(2).program.instructions
        )

    def test_every_seed_terminates_within_budget(self):
        for seed in range(40):
            case = generate_case(seed)
            executor = Executor(
                case.program, inputs=list(case.inputs), max_instructions=BUDGET
            )
            try:
                for _ in executor.run():
                    pass
            except ExecutionError:
                pass  # legitimate machine fault, compared across pairs

    def test_fault_mix(self):
        """Some seeds fault (error-timing equivalence needs them), most halt."""
        outcomes = {"clean": 0, "fault": 0}
        for seed in range(120):
            case = generate_case(seed)
            executor = Executor(
                case.program, inputs=list(case.inputs), max_instructions=BUDGET
            )
            try:
                for _ in executor.run():
                    pass
                outcomes["clean"] += 1
            except ExecutionError:
                outcomes["fault"] += 1
        assert outcomes["fault"] >= 5
        assert outcomes["clean"] >= 60

    def test_register_partition(self):
        """Int opcodes only touch int registers, FP opcodes FP registers."""
        int_pool = set(INT_REGS) | {12, 13, 15}
        float_pool = set(FLOAT_REGS)
        for seed in range(30):
            for instruction in generate_case(seed).program:
                op = instruction.opcode
                if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FLI,
                          Opcode.FLD, Opcode.CVTIF):
                    assert instruction.dest in float_pool
                elif op in (Opcode.ADD, Opcode.SUB, Opcode.DIV, Opcode.MOD,
                            Opcode.LD, Opcode.LI, Opcode.CVTFI):
                    assert instruction.dest in int_pool


class TestFirstDivergence:
    def test_equal(self):
        assert first_divergence({"a": [1, 2]}, {"a": [1, 2]}) is None

    def test_scalar_mismatch(self):
        path, fast, reference = first_divergence({"a": 1}, {"a": 2})
        assert path == "$.a" and fast == "1" and reference == "2"

    def test_first_list_index_reported(self):
        path, _, _ = first_divergence([1, 2, 3], [1, 9, 9])
        assert path == "$[1]"

    def test_length_mismatch_after_common_prefix(self):
        path, fast, reference = first_divergence([1, 2], [1, 2, 3])
        assert path == "$.length" and (fast, reference) == ("2", "3")

    def test_missing_key(self):
        path, fast, _ = first_divergence({}, {"k": 1})
        assert path == "$.k" and fast == "<missing>"

    def test_int_float_not_conflated(self):
        assert first_divergence(3, 3.0) is not None


class TestOracle:
    def test_clean_repo_passes_program_pairs(self):
        report = run_oracle(seeds=range(1, 4), budget=BUDGET,
                            pairs=[p.name for p in all_pairs() if p.uses_program])
        assert report.passed, report.format_text()

    def test_clean_repo_passes_runner_pairs(self):
        report = run_oracle(seeds=(), budget=BUDGET,
                            pairs=["runner-parallel", "runner-faulty"])
        assert report.passed, report.format_text()

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle pairs"):
            run_oracle(seeds=(1,), pairs=["no-such-pair"])

    def test_seeded_merge_fault_detected(self, monkeypatch):
        """Reverting the merge.py group fix must fail the oracle."""
        original = oracle_module.merge_profiles

        def buggy_merge(images, program_name="", run_label="merged",
                        require_common=False):
            merged = original(images, program_name=program_name,
                              run_label=run_label, require_common=require_common)
            if require_common:
                # The historical bug: groups accumulated unconditionally,
                # ignoring the common-address filter.
                merged.group_detail = {}
                for image in images:
                    for (category, phase), members in image.group_detail.items():
                        for address, counts in members.items():
                            slot = merged.group_slot(category, phase, address)
                            slot[0] += counts[0]
                            slot[1] += counts[1]
                            slot[2] += counts[2]
            return merged

        monkeypatch.setattr(oracle_module, "merge_profiles", buggy_merge)
        report = run_oracle(
            seeds=range(1997, 2001), budget=BUDGET, pairs=["profile-io-merge"]
        )
        assert not report.passed
        result = report.failures[0]
        assert "groups" in result.divergence.path
        assert result.divergence.seed is not None
        assert result.reproducer is not None
        assert "# diverged at:" in result.reproducer

    def test_minimizer_shrinks_to_predicate_core(self):
        case = generate_case(5)

        def still_diverges(trial):
            return any(
                instruction.opcode is Opcode.OUT for instruction in trial.program
            )

        minimized = minimize_case(case, still_diverges)
        non_nop = [
            instruction for instruction in minimized.program
            if instruction.opcode is not Opcode.NOP
        ]
        assert non_nop, "predicate core must survive"
        assert all(
            instruction.opcode is Opcode.OUT for instruction in non_nop
        )
        assert minimized.inputs == ()
        assert len(minimized.program) == len(case.program)  # addresses stable


DETERMINISTIC_PATH = "repro/machine/example.py"
OTHER_PATH = "repro/experiments/example.py"
RUNNER_PATH = "repro/runner/example.py"


class TestLintRules:
    def _rules(self, source, path):
        return [violation.rule for violation in lint_source(source, path)]

    def test_nondet_call_flagged_in_deterministic_module(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert self._rules(source, DETERMINISTIC_PATH) == ["nondet-call"]

    def test_nondet_call_allowed_outside_core(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert self._rules(source, OTHER_PATH) == []

    def test_perf_counter_exempt(self):
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert self._rules(source, DETERMINISTIC_PATH) == []

    def test_global_random_flagged_seeded_rng_allowed(self):
        flagged = "import random\n\ndef f():\n    return random.randint(0, 9)\n"
        assert self._rules(flagged, DETERMINISTIC_PATH) == ["nondet-call"]
        seeded = "import random\n\ndef f(seed):\n    return random.Random(seed)\n"
        assert self._rules(seeded, DETERMINISTIC_PATH) == []

    def test_set_iteration_flagged(self):
        source = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert self._rules(source, DETERMINISTIC_PATH) == ["set-iteration"]

    def test_sorted_set_iteration_allowed(self):
        source = "def f(xs):\n    for x in sorted(set(xs)):\n        print(x)\n"
        assert self._rules(source, DETERMINISTIC_PATH) == []

    def test_ilp_package_is_deterministic(self):
        # The ILP scheduler is held to the deterministic-core rules.
        clock = "import time\n\ndef f():\n    return time.time()\n"
        assert self._rules(clock, "repro/ilp/model.py") == ["nondet-call"]
        loop = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert self._rules(loop, "repro/ilp/model.py") == ["set-iteration"]

    def test_set_comprehension_source_flagged(self):
        source = "def f(xs):\n    return [x for x in {x for x in xs}]\n"
        assert self._rules(source, DETERMINISTIC_PATH) == ["set-iteration"]

    def test_unknown_metric_flagged(self):
        source = "def f(registry):\n    registry.counter('bogus.metric').add(1)\n"
        assert self._rules(source, OTHER_PATH) == ["metric-name"]

    def test_known_metric_allowed(self):
        source = "def f(registry):\n    registry.counter('machine.run').add(1)\n"
        assert self._rules(source, OTHER_PATH) == []

    def test_dynamic_metric_prefix(self):
        known = (
            "def f(registry, kind):\n"
            "    registry.timer(f'runner.job.{kind}').add(1.0)\n"
        )
        assert self._rules(known, OTHER_PATH) == []
        unknown = (
            "def f(registry, kind):\n"
            "    registry.timer(f'bogus.{kind}').add(1.0)\n"
        )
        assert self._rules(unknown, OTHER_PATH) == ["metric-name"]

    def test_lambda_to_submit_flagged_in_runner(self):
        source = "def f(pool):\n    return pool.submit(lambda: 1)\n"
        assert self._rules(source, RUNNER_PATH) == ["pickle-boundary"]
        assert self._rules(source, OTHER_PATH) == []

    def test_nested_function_to_submit_flagged(self):
        source = (
            "def f(pool):\n"
            "    def job():\n"
            "        return 1\n"
            "    return pool.submit(job)\n"
        )
        assert self._rules(source, RUNNER_PATH) == ["pickle-boundary"]

    def test_module_level_function_to_submit_allowed(self):
        source = (
            "def job():\n"
            "    return 1\n"
            "def f(pool):\n"
            "    return pool.submit(job)\n"
        )
        assert self._rules(source, RUNNER_PATH) == []

    def test_violation_key_is_line_stable(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        shifted = "import time\n\n\n\ndef f():\n    return time.time()\n"
        [first] = lint_source(source, DETERMINISTIC_PATH)
        [second] = lint_source(shifted, DETERMINISTIC_PATH)
        assert first.key == second.key
        assert first.line != second.line

    def test_allowlist_suppresses_by_key(self, tmp_path):
        violation = Violation(
            "nondet-call", DETERMINISTIC_PATH, 4, "time.time", "msg"
        )
        allowfile = tmp_path / "allow"
        allowfile.write_text(f"# comment\n{violation.key}\n", encoding="utf-8")
        assert violation.key in load_allowlist(allowfile)

    def test_repo_is_lint_clean(self):
        assert run_lint() == []


class TestCheckCli:
    def test_list_pairs(self, capsys):
        assert check_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "batch-vs-record" in out and "runner-faulty" in out

    def test_lint_only(self, capsys):
        assert check_main(["--no-oracle"]) == 0
        assert "lint: PASS" in capsys.readouterr().out

    def test_oracle_subset(self, capsys, tmp_path):
        code = check_main([
            "--no-lint", "--pairs", "batch-vs-record",
            "--seed", "3", "--programs", "2",
            "--artifact-dir", str(tmp_path),
        ])
        assert code == 0
        assert "oracle: PASS" in capsys.readouterr().out

    def test_top_level_cli_wires_check(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["check", "--list"]) == 0
        assert "profile-io-merge" in capsys.readouterr().out

"""Tests for the dynamic run-statistics collector."""

from __future__ import annotations

import pytest

from repro.isa import Category, assemble
from repro.machine import collect_statistics, run_program


class TestCollectStatistics:
    def test_instruction_count_matches_run(self, count_program):
        stats = collect_statistics(count_program)
        result = run_program(count_program)
        assert stats.instructions == result.instruction_count

    def test_category_counts_sum_to_total(self, count_program):
        stats = collect_statistics(count_program)
        assert sum(stats.by_category.values()) == stats.instructions

    def test_candidate_fraction(self, count_program):
        stats = collect_statistics(count_program)
        assert 0.0 < stats.candidate_fraction < 100.0
        assert stats.candidate_footprint == len(count_program.candidate_addresses)

    def test_branch_accounting(self):
        # Loop of 5 iterations: bnez taken 4 times, not taken once.
        program = assemble(
            """
.text
    li r1, 0
loop:
    addi r1, r1, 1
    slti r2, r1, 5
    bnez r2, loop
    halt
"""
        )
        stats = collect_statistics(program)
        assert stats.branches == 5
        assert stats.taken_branches == 4
        assert stats.taken_branch_fraction == pytest.approx(80.0)

    def test_untaken_branch(self):
        program = assemble(".text\n li r1, 1\n beqz r1, end\n nop\nend:\n halt\n")
        stats = collect_statistics(program)
        assert stats.branches == 1
        assert stats.taken_branches == 0

    def test_data_footprint(self, count_program):
        stats = collect_statistics(count_program)
        assert stats.data_footprint == 1  # only `counter`

    def test_static_footprint_at_most_code_size(self, count_program):
        stats = collect_statistics(count_program)
        assert stats.static_footprint <= len(count_program)

    def test_fp_categories_counted(self):
        program = assemble(
            ".text\n fli r1, 1.5\n fli r2, 2.0\n fadd r3, r1, r2\n fst r3, gp, 0\n"
            " fld r4, gp, 0\n halt\n"
        )
        stats = collect_statistics(program)
        assert stats.by_category[Category.FP_ALU] == 3
        assert stats.by_category[Category.FP_LOAD] == 1
        assert stats.by_category[Category.STORE] == 1


class TestStoreReplay:
    def _small_batch_store(self, program, inputs=()):
        from repro.machine import TraceStore

        store = TraceStore()
        # 3-record batches put a branch at the end of many batches, so
        # its taken/not-taken decision straddles a batch boundary.
        for _batch in store.batches(program, inputs, chunk_size=3):
            pass
        return store

    def test_replay_matches_fresh_run(self, count_program):
        store = self._small_batch_store(count_program)
        assert collect_statistics(count_program, store=store) == collect_statistics(
            count_program
        )

    def test_branches_across_batch_boundaries(self):
        from repro.telemetry import Telemetry, use_registry

        program = assemble(
            """
.text
    li r1, 0
loop:
    addi r1, r1, 1
    slti r2, r1, 7
    bnez r2, loop
    halt
"""
        )
        store = self._small_batch_store(program)
        registry = Telemetry()
        with use_registry(registry):
            stats = collect_statistics(program, store=store)
        assert registry.snapshot()["counters"]["machine.trace.replays"] == 1
        assert stats.branches == 7
        assert stats.taken_branches == 6
        assert stats.instructions == run_program(program).instruction_count

    def test_category_order_follows_first_execution(self):
        program = assemble(
            ".text\n st r0, gp, 0\n li r1, 1\n ld r2, gp, 0\n halt\n"
        )
        stats = collect_statistics(program, store=self._small_batch_store(program))
        assert list(stats.by_category) == [
            Category.STORE,
            Category.INT_ALU,
            Category.INT_LOAD,
            program[3].category,
        ]

"""Dynamic run statistics: instruction mix, branch and memory behaviour.

Characterization support (the reproduction's analogue of the paper's
Table 4.1 workload descriptions): one pass over a trace produces the
dynamic instruction mix, taken-branch ratio, candidate density and
working-set sizes that the experiment harness reports per workload.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import islice
from typing import Dict, Iterable, Optional, Set

from ..isa import Category, Number, Opcode, Program
from .tracestore import TraceStore, replay_or_run


@dataclasses.dataclass
class RunStatistics:
    """Aggregated dynamic statistics of one execution."""

    instructions: int = 0
    by_category: Dict[Category, int] = dataclasses.field(default_factory=dict)
    candidate_instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    static_addresses: Set[int] = dataclasses.field(default_factory=set)
    static_candidates: Set[int] = dataclasses.field(default_factory=set)
    memory_addresses: Set[int] = dataclasses.field(default_factory=set)

    def category_fraction(self, category: Category) -> float:
        """Dynamic share of ``category`` in percent."""
        if self.instructions == 0:
            return 0.0
        return 100.0 * self.by_category.get(category, 0) / self.instructions

    @property
    def candidate_fraction(self) -> float:
        """Dynamic share of value-prediction candidates in percent."""
        if self.instructions == 0:
            return 0.0
        return 100.0 * self.candidate_instructions / self.instructions

    @property
    def taken_branch_fraction(self) -> float:
        if self.branches == 0:
            return 0.0
        return 100.0 * self.taken_branches / self.branches

    @property
    def static_footprint(self) -> int:
        """Distinct static instructions executed."""
        return len(self.static_addresses)

    @property
    def candidate_footprint(self) -> int:
        """Distinct candidate instructions executed — the prediction-table
        working set the paper's pressure argument is about."""
        return len(self.static_candidates)

    @property
    def data_footprint(self) -> int:
        """Distinct data words touched."""
        return len(self.memory_addresses)


def collect_statistics(
    program: Program,
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> RunStatistics:
    """Execute ``program`` once and aggregate its dynamic statistics.

    ``store`` replays the run from a :class:`~repro.machine.TraceStore`
    (capturing it on a miss) instead of executing it.
    """
    stats = RunStatistics()
    branch_targets = [
        instruction.target if instruction.opcode in (Opcode.BEQZ, Opcode.BNEZ) else None
        for instruction in program.instructions
    ]
    batches = replay_or_run(program, inputs, max_instructions, store)

    # Per-address execution counts, keyed in first-execution order.
    executions: Dict[int, int] = {}
    pending_target: Optional[int] = None  # target of a branch ending a batch
    for batch in batches:
        addresses = batch.addresses
        for address, count in Counter(addresses).items():
            executions[address] = executions.get(address, 0) + count
        stats.memory_addresses.update(batch.mems)
        # A branch is taken iff the next retired address is its target; a
        # branch that retires last in the run has no successor and is not
        # counted.
        if pending_target is not None:
            stats.branches += 1
            if addresses[0] == pending_target:
                stats.taken_branches += 1
        for address, following in zip(addresses, islice(addresses, 1, None)):
            target = branch_targets[address]
            if target is not None:
                stats.branches += 1
                if following == target:
                    stats.taken_branches += 1
        pending_target = branch_targets[addresses[-1]]

    instructions = program.instructions
    for address, count in executions.items():
        instruction = instructions[address]
        stats.instructions += count
        category = instruction.category
        stats.by_category[category] = stats.by_category.get(category, 0) + count
        stats.static_addresses.add(address)
        if instruction.is_prediction_candidate:
            stats.candidate_instructions += count
            stats.static_candidates.add(address)
    return stats

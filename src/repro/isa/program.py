"""The :class:`Program` container — the reproduction's "binary executable".

A program is an addressed sequence of instructions plus an initial data
image.  Instruction addresses are word indices (0, 1, 2, ...), matching the
way the paper's profile image keys information by instruction address.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .directives import Directive
from .instruction import Instruction, Number
from .opcodes import Opcode


class ProgramError(ValueError):
    """Raised when a program fails validation."""


@dataclasses.dataclass(frozen=True)
class Program:
    """An executable image for the functional simulator.

    Attributes:
        instructions: the code segment; ``instructions[a]`` is at address
            ``a``.
        data: initial data-memory image, address -> value.
        symbols: optional name -> data-address map for globals (debugging
            and test convenience).
        labels: optional name -> code-address map (assembler output).
        name: human-readable program name.
    """

    instructions: Tuple[Instruction, ...]
    data: Mapping[int, Number] = dataclasses.field(default_factory=dict)
    symbols: Mapping[str, int] = dataclasses.field(default_factory=dict)
    labels: Mapping[str, int] = dataclasses.field(default_factory=dict)
    name: str = "<anonymous>"

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        self._validate()

    def _validate(self) -> None:
        limit = len(self.instructions)
        for address, instruction in enumerate(self.instructions):
            target = instruction.target
            if instruction.opcode.is_control and instruction.opcode is not Opcode.JR:
                if target is None:
                    raise ProgramError(
                        f"@{address}: {instruction.opcode.value} lacks a target"
                    )
                if not 0 <= target < limit:
                    raise ProgramError(
                        f"@{address}: target {target} outside [0, {limit})"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, address: int) -> Instruction:
        return self.instructions[address]

    @functools.cached_property
    def candidate_mask(self) -> Tuple[bool, ...]:
        """``candidate_mask[a]``: is the instruction at ``a`` a value-prediction
        candidate?  Built once per program (``Program`` is frozen but not
        slotted, so the mask rides along with the instance)."""
        return tuple(
            instruction.is_prediction_candidate for instruction in self.instructions
        )

    def __getstate__(self) -> Dict[str, object]:
        # The machine memoizes its tables on the program
        # (``repro.machine.executor.machine_tables``); a copy leaves the
        # memo behind and rebuilds it.
        state = dict(self.__dict__)
        state.pop("_machine_tables", None)
        return state

    @property
    def candidate_addresses(self) -> List[int]:
        """Addresses of all value-prediction candidate instructions."""
        return [address for address, flag in enumerate(self.candidate_mask) if flag]

    def directives(self) -> Dict[int, Directive]:
        """Return address -> directive for every tagged instruction."""
        return {
            address: instruction.directive
            for address, instruction in enumerate(self.instructions)
            if instruction.directive is not None
        }

    def with_directives(
        self, directive_map: Mapping[int, Optional[Directive]]
    ) -> "Program":
        """Return a new program with directives applied per ``directive_map``.

        Addresses absent from the map keep their existing directive.  This
        is the only transformation phase 3 of the methodology is allowed to
        perform: no instruction is moved, added or removed.

        Raises:
            ProgramError: if a mapped address is out of range or names an
                instruction that cannot carry a directive (not a
                value-prediction candidate).
        """
        limit = len(self.instructions)
        for address, directive in directive_map.items():
            if not 0 <= address < limit:
                raise ProgramError(f"directive address {address} out of range")
            if directive is not None and not self.instructions[
                address
            ].is_prediction_candidate:
                raise ProgramError(
                    f"@{address}: {self.instructions[address]} is not a "
                    "value-prediction candidate; it cannot carry a directive"
                )
        new_instructions = [
            instruction.with_directive(directive_map[address])
            if address in directive_map
            else instruction
            for address, instruction in enumerate(self.instructions)
        ]
        return dataclasses.replace(self, instructions=tuple(new_instructions))

    def strip_directives(self) -> "Program":
        """Return a copy of the program with every directive removed."""
        return self.with_directives(
            {address: None for address in range(len(self.instructions))}
        )


def build_program(
    instructions: Sequence[Instruction],
    data: Optional[Mapping[int, Number]] = None,
    symbols: Optional[Mapping[str, int]] = None,
    labels: Optional[Mapping[str, int]] = None,
    name: str = "<anonymous>",
) -> Program:
    """Convenience constructor mirroring :class:`Program` with defaults."""
    return Program(
        instructions=tuple(instructions),
        data=dict(data or {}),
        symbols=dict(symbols or {}),
        labels=dict(labels or {}),
        name=name,
    )

"""Classification schemes: who decides what gets predicted and allocated.

The paper compares two mechanisms layered on the same value predictor:

* :class:`HardwareClassification` — the baseline.  Every candidate
  instruction is allocated into the prediction table on a miss; a
  per-entry saturating counter decides whether each suggested prediction
  is *taken*.
* :class:`ProfileClassification` — the contribution.  Only instructions
  carrying a ``stride``/``last-value`` opcode directive are allocated;
  any suggestion from the table is taken.  The counters disappear.

:class:`AlwaysClassification` (take everything, allocate everything) is
the unclassified baseline used for predictor-accuracy measurements.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from ..isa import Directive, Program
from ..predictors import FsmClassifier


class ClassificationScheme(abc.ABC):
    """Per-instruction allocate/take policy plus its learning rule."""

    @abc.abstractmethod
    def may_allocate(self, address: int) -> bool:
        """May this instruction occupy a prediction-table entry?"""

    @abc.abstractmethod
    def should_take(self, address: int) -> bool:
        """Should a table hit's suggested value actually be used?"""

    def record(self, address: int, correct: bool) -> None:
        """Observe a prediction outcome (hardware schemes learn here)."""

    def on_evict(self, address: int) -> None:
        """The prediction table displaced this instruction's entry."""

    def directive_of(self, address: int) -> Optional[Directive]:
        """The directive steering hybrid-table placement (if any)."""
        return None


class AlwaysClassification(ClassificationScheme):
    """No classification: allocate everything, take every suggestion."""

    def may_allocate(self, address: int) -> bool:
        return True

    def should_take(self, address: int) -> bool:
        return True


class HardwareClassification(ClassificationScheme):
    """Saturating-counter classification (the paper's "VP + SC")."""

    def __init__(
        self, bits: int = 2, initial: int = 1, take_threshold: int = 2
    ) -> None:
        self.fsm = FsmClassifier(bits=bits, initial=initial, take_threshold=take_threshold)

    def may_allocate(self, address: int) -> bool:
        return True

    def should_take(self, address: int) -> bool:
        return self.fsm.should_take(address)

    def record(self, address: int, correct: bool) -> None:
        self.fsm.record(address, correct)

    def on_evict(self, address: int) -> None:
        self.fsm.on_evict(address)


class ProbeScheme(ClassificationScheme):
    """Measurement wrapper: allocate everything, decide like the wrapped scheme.

    The classification-accuracy study (Figures 5.1/5.2) judges each
    mechanism's *take/avoid* decisions against an infinite, fully
    allocated predictor, so the set of prediction attempts is identical
    for every mechanism.  This wrapper forces allocation while delegating
    the take decision and the learning rule.
    """

    def __init__(self, inner: ClassificationScheme) -> None:
        self.inner = inner

    def may_allocate(self, address: int) -> bool:
        return True

    def should_take(self, address: int) -> bool:
        return self.inner.should_take(address)

    def record(self, address: int, correct: bool) -> None:
        self.inner.record(address, correct)

    def on_evict(self, address: int) -> None:
        self.inner.on_evict(address)

    def directive_of(self, address: int):
        return self.inner.directive_of(address)


class ProfileClassification(ClassificationScheme):
    """Directive-driven classification (the paper's "VP + Prof").

    Built from an *annotated* program: the static directive map is the
    entire mechanism.  Instructions without a directive are never
    allocated and never predicted; tagged instructions are always taken.
    """

    def __init__(self, annotated_program: Program) -> None:
        self._directives: Dict[int, Directive] = annotated_program.directives()

    @classmethod
    def from_directives(cls, directives: Dict[int, Directive]) -> "ProfileClassification":
        """Build directly from an address -> directive map."""
        scheme = cls.__new__(cls)
        scheme._directives = dict(directives)
        return scheme

    def may_allocate(self, address: int) -> bool:
        return address in self._directives

    def should_take(self, address: int) -> bool:
        return address in self._directives

    def directive_of(self, address: int) -> Optional[Directive]:
        return self._directives.get(address)

    @property
    def tagged_count(self) -> int:
        return len(self._directives)


class LearnedClassification(ProfileClassification):
    """Model-predicted directive classification (learned, profile-free).

    The modern successor question (PGO-without-Profiles): a
    :class:`repro.classify.PredictabilityModel` predicts each candidate
    instruction's directive from static features alone, and the
    predicted directive map then behaves exactly like the paper's
    profile scheme — untagged instructions are never allocated and never
    predicted, tagged ones are always taken.  No profile, no counters.
    """

    @classmethod
    def from_model(cls, model, program: Program) -> "LearnedClassification":
        """Score ``program`` with a trained model and keep its tags."""
        # Imported lazily: repro.classify depends on repro.isa/analysis
        # only, but pulling it in at module import would cost every core
        # consumer the feature-extractor import.
        from ..classify import predict_directives

        return cls.from_directives(predict_directives(model, program))

"""Uniform result record for every verified inequality."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class ConsistencyRecord:
    """Outcome of evaluating one predicate on one subject.

    ``lhs`` and ``rhs`` are the two sides of the comparison, always exact
    integers (cross-multiplied where the original statement is rational).
    ``passed`` is meaningful only when ``applicable`` is true.  Records are
    built by the ten thousand in a sweep and never mutated or hashed, so the
    class is slotted rather than frozen: a frozen dataclass pays an
    ``object.__setattr__`` per field.
    """

    predicate: str
    subject: str
    lhs: int
    rhs: int
    applicable: bool
    passed: Optional[bool]

    # written by hand: the generated one would check in a __post_init__ call
    def __init__(self, predicate, subject, lhs, rhs, applicable, passed):
        if applicable:
            if passed is None:
                raise ValueError("applicable records need a pass/fail outcome")
        elif passed is not None:
            raise ValueError("pass/fail is defined only when applicable")
        self.predicate = predicate
        self.subject = subject
        self.lhs = lhs
        self.rhs = rhs
        self.applicable = applicable
        self.passed = passed


def not_applicable(predicate: str, subject: str) -> ConsistencyRecord:
    return ConsistencyRecord(predicate, subject, 0, 0, False, None)

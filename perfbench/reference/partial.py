"""Vocabulary for budgeted and partial deciders.

Several operations in this package are semi-decision procedures: they may
answer definitively or run out of budget.  ``Tri`` is the three-valued
answer type; ``EXHAUSTED`` is the out-of-budget value returned by bounded
enumerations and searches.
"""
from __future__ import annotations

import enum


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError("Tri answers must be compared explicitly; truthiness is ambiguous")


class _Exhausted:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Exhausted"


EXHAUSTED = _Exhausted()

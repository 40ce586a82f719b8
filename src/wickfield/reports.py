"""Structured records for inequality checks and run metadata."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

FLAG_SLACK = 1e-12


@dataclass
class BoundReport:
    """One inequality check: LHS, RHS, their ratio, and witness arguments.

    ``log_sides``, when set, holds (ln LHS, ln RHS) for checks whose sides
    can overflow a float; the ratio and the flag then come from the logs.
    """

    inequality_id: str
    lhs: float
    rhs: float
    witnesses: dict = field(default_factory=dict)
    log_sides: tuple | None = None

    @property
    def ratio(self) -> float:
        if self.log_sides is not None:
            log_lhs, log_rhs = self.log_sides
            return math.exp(log_lhs - log_rhs)
        if self.rhs == 0:
            return math.inf if self.lhs > 0 else 0.0
        return self.lhs / self.rhs

    @property
    def flag(self) -> bool:
        if self.log_sides is not None:
            log_lhs, log_rhs = self.log_sides
            return log_lhs <= log_rhs + math.log1p(FLAG_SLACK)
        return self.lhs <= self.rhs * (1 + FLAG_SLACK)

    def to_record(self) -> dict:
        rec = {
            "schema_version": SCHEMA_VERSION,
            "id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "flag": self.flag,
            "witnesses": _jsonable(self.witnesses),
        }
        if self.log_sides is not None:
            rec["log_lhs"], rec["log_rhs"] = self.log_sides
        return rec


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    return obj

"""The one record every check returns: a verdict with its margin rows.

A :class:`Verdict` carries a name, a pass flag, the :class:`Row` of every
comparison the check made, and a ``data`` dict with whatever else the check
reports (constants, witnesses, identity terms, per-variant sub-verdicts).
``Verdict.to_json()`` is ``data`` plus ``"pass"``, sanitized by
:func:`jsonable`.

A :class:`Row` is one comparison: ``(member, lhs, rhs, margin, passed, tol)``.
The field order is fixed.  The first five fields are the ``margins.csv``
columns after ``check``, in the same order, so the CLI writes
``(check,) + row[:5]`` for every check type, and code that indexes rows
keeps its meaning: ``row[0]`` is the member, ``row[3]`` the margin and
``row[4]`` the pass flag (the acceptance tests index rows this way).
``tol`` is last because ``margins.csv`` does not carry it; it is ``0.0``
where a comparison has no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["Row", "Verdict", "jsonable"]


class Row(NamedTuple):
    member: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tol: float = 0.0


@dataclass
class Verdict:
    name: str
    passed: bool
    rows: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def worst_margin(self) -> float:
        """Largest margin, +-inf included; nan margins (indeterminate rows) are
        skipped, and a verdict without comparable rows gives -inf."""
        return max((r.margin for r in self.rows if not math.isnan(r.margin)),
                   default=-math.inf)

    @property
    def margins(self) -> list:
        """The rows as ``margins.csv`` writes them: every field but ``tol``."""
        return [row[:5] for row in self.rows]

    def to_json(self) -> dict:
        return jsonable({**self.data, "pass": self.passed})


def jsonable(obj):
    """JSON-safe copy: nan -> "nan", +-inf -> "inf"/"-inf", numpy scalars and
    arrays -> Python values, verdicts -> their ``to_json()``."""
    if isinstance(obj, Verdict):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj

"""Uniform result object for decision procedures.

Every check returns a CheckReport rather than a bare bool so that a false
verdict always travels with its counterexample, a true verdict with its
certificate, and every verdict with the method and search bounds that
produced it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

THEOREM_PATH = "theorem-path"
ORACLE = "oracle"


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: bool | None          # None: not applicable / precondition failed
    method: str = THEOREM_PATH
    witness: Any = None           # counterexample data for a false verdict
    certificate: Any = None       # supporting data for a true verdict
    search_bounds: Mapping[str, Any] = field(default_factory=dict)
    reason: str | None = None     # set when verdict is None

    def __post_init__(self):
        if self.verdict is False and self.witness is None:
            raise AssertionError(f"false verdict without witness in {self.name}")

    def as_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "method": self.method,
            "witness": _plain(self.witness),
            "certificate": _plain(self.certificate),
            "search_bounds": _plain(dict(self.search_bounds)),
            "reason": self.reason,
        }


def _plain(obj):
    """Recursively convert report payloads to JSON-encodable values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)) and all(
            x is None or isinstance(x, (bool, int, str)) for x in obj):
        return list(obj)    # a flat row of scalars, as the branches below
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else int(obj)
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [_plain(x) for x in items]
    return str(obj)

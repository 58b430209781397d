"""Structured check reports: named pass/fail results with failure witnesses.

A check is an id and a thunk that computes what it compares, recorded by
:meth:`Report.check`, the one place that builds a :class:`Check`."""

from __future__ import annotations

from collections import namedtuple

from .errors import QhaError
from .tensor import AlgElement, TensorElement, first_difference


class Check(namedtuple("Check", "check_id ok witness", defaults=(None,))):
    __slots__ = ()

    def to_dict(self):
        d = {"id": self.check_id, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Report:
    """An ordered list of named checks; failures carry a localizing witness."""

    def __init__(self, name: str):
        self.name = name
        self.checks = []

    def check(self, check_id: str, fn, witness=None):
        """Run ``fn()``, record check ``check_id`` and return what ``fn`` returned.

        A ``False`` result fails the check with ``witness``, called first (so only on
        failure) if it is callable; a QhaError fails it with the error's text, and a
        ConsistencyError that names where its routes part with ``"<text>; <witness>"``
        (``"... fails; at (0, 1): 2 != 3"``), and returns None; any other result passes,
        None and built objects too: the ``_require_scan`` thunks return None.  ROADMAP
        item 6 plans a pass on True only."""
        try:
            result = fn()
        except QhaError as exc:
            witness = getattr(exc, "witness", None)
            self.checks.append(Check(check_id, False, str(exc) if witness is None
                                     else f"{exc}; {witness}"))
            return None
        failed = result is False
        if failed and callable(witness):
            witness = witness()
        self.checks.append(Check(check_id, not failed, witness if failed else None))
        return result

    def add_equal(self, check_id: str, sides):
        """Record that the pair ``sides()``, computed once inside the check, is equal; on
        failure the witness is built from that pair: the first differing entry of two
        tensors, or both elements of H shown whole."""
        pair = []

        def equal():
            pair.extend(sides())
            return pair[0] == pair[1]
        return self.check(check_id, equal, lambda: f"{pair[0]!r} != {pair[1]!r}"
                          if isinstance(pair[0], AlgElement) else _diff_witness(*pair))

    def extend(self, other: "Report", prefix: str | None = None):
        for c in other.checks:
            self.check(f"{prefix}/{c.check_id}" if prefix else c.check_id, lambda: c.ok, c.witness)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def failure_ids(self):
        return [c.check_id for c in self.failures()]

    def to_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            flag = "PASS" if c.ok else "FAIL"
            line = f"{flag} {self.name}/{c.check_id}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        n_fail = len(self.failures())
        state = "ok" if not n_fail else f"{n_fail} failing"
        return f"Report({self.name}: {len(self.checks)} checks, {state})"


def _diff_witness(left, right):
    if isinstance(left, TensorElement) and isinstance(right, TensorElement):
        diff = first_difference(left, right)
        if diff:
            key, va, vb = diff
            return f"at {key}: {va} != {vb}"
    return f"{left!r} != {right!r}"

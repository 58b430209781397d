"""Structured check reports: named pass/fail results with failure witnesses."""

from __future__ import annotations

from collections import namedtuple

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

    def add(self, check_id: str, ok: bool, witness=None):
        self.checks.append(Check(check_id, bool(ok), None if ok else witness))
        return ok

    def add_equal(self, check_id: str, left, right):
        """Record an exact equality check, with the first differing entry of two tensors
        on failure; elements of H are shown whole."""
        if left == right:
            return self.add(check_id, True)
        if isinstance(left, AlgElement):
            return self.add(check_id, False, f"{left!r} != {right!r}")
        return self.add(check_id, False, _diff_witness(left, right))

    def extend(self, other: "Report", prefix: str | None = None):
        for c in other.checks:
            cid = f"{prefix}/{c.check_id}" if prefix else c.check_id
            self.checks.append(Check(cid, c.ok, c.witness))
        return self

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

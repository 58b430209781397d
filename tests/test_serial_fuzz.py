"""Fuzzing the structure parser: mutated canonical files fail only with the documented errors.

Each example takes the canonical serialisation of a catalog entry, applies
one to three mutations (drop a key, swap a value's type, put an index out
of range, put in a boolean, put in a huge value) and parses the result.
``parse_structure`` may accept it or raise SchemaError, AlgebraError or
StructureError; any other exception, or a hang, is a parser bug.  A
SchemaError's field path must lead through the file to what it refuses.
"""

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qhakit.errors import AlgebraError, SchemaError, StructureError
from qhakit.serial import parse_structure, serialize_structure

from conftest import entry

DOCUMENTED = (SchemaError, AlgebraError, StructureError)
CANONICAL = {name: serialize_structure(entry(name))
             for name in ("trivial", "z2_triangular", "semion")}

HUGE = (10 ** 400, -10 ** 400, "1" + "0" * 400, "1/" + "9" * 400, "1e999999999")
OTHER_TYPES = (None, "x", 1.5, [], {}, 7, ["1", "0"])


def locations(node):
    """Every (container, key) pair below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from locations(value)


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(CANONICAL)))
    doc = json.loads(CANONICAL[name])
    dim = doc["dimension"]
    for _ in range(draw(st.integers(1, 3))):
        spots = list(locations(doc))
        container, key = draw(st.sampled_from(spots))
        kind = draw(st.sampled_from(["drop", "type", "index", "bool", "huge"]))
        if kind == "drop":
            del container[key]
        elif kind == "type":
            # a copy: later mutations must not edit the shared value, or a list
            # can come to contain itself
            container[key] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        elif kind == "index":
            container[key] = draw(st.sampled_from([dim, -1, 10 ** 6]))
        elif kind == "bool":
            container[key] = draw(st.booleans())
        else:
            container[key] = draw(st.sampled_from(HUGE))
    return json.dumps(doc)


@given(text=mutated())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_files_fail_only_with_documented_errors(text):
    try:
        parse_structure(text)
    except DOCUMENTED:
        pass


@pytest.mark.parametrize("text", [
    '{"dimension": ' + "9" * 5000 + "}",   # beyond the interpreter's integer-string limit
    "[" * 100000 + "]" * 100000,           # nesting deeper than the recursion limit
], ids=["long-integer", "deep-nesting"])
def test_text_the_json_module_refuses_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_structure(text)


def has(node, key):
    if isinstance(key, int):
        return isinstance(node, list) and 0 <= key < len(node)
    return isinstance(node, dict) and key in node


def assert_path_is_real(exc, doc):
    """Each key and index of the refusal's path exists in ``doc``, but the last one of a
    missing field: that one names a field its object lacks."""
    *parents, last = [key or int(index) for key, index in
                      re.findall(r"([^.\[\]]+)|\[(\d+)\]", exc.path)]
    node = doc
    for key in parents:
        assert has(node, key), f"{exc}: no {key!r} on the way"
        node = node[key]
    missing = str(exc).startswith(f"{exc.path}: missing required field")
    assert has(node, last) != missing, f"{exc}: {last!r} {'is there' if missing else 'is not'}"


def assert_refused_at_real_path(text):
    try:
        parse_structure(text)
    except DOCUMENTED as exc:
        if getattr(exc, "path", None):
            assert_path_is_real(exc, json.loads(text))


@given(text=mutated())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_files_are_refused_at_real_paths(text):
    assert_refused_at_real_path(text)


FINDINGS = pytest.mark.parametrize("edit, error, match", [
    (lambda doc: doc["field"].update(kind="cyclotomic", order=10 ** 400), SchemaError,
     r"^field\.order: cyclotomic order must be at most 256"),
    (lambda doc: doc["field"].update(order=5), SchemaError, "rational field has order 1"),
    (lambda doc: doc["field"].update(kind="finite"), SchemaError, "unknown field kind"),
    (lambda doc: doc.update(basis=5), SchemaError, "^basis: expected a list"),
    (lambda doc: doc.update(name=["x"]), SchemaError, "^name: expected a string"),
    (lambda doc: doc.update(antipode_inv=3), SchemaError, "^antipode_inv: field"),
    (lambda doc: doc["coproduct"].__setitem__(0, 4), SchemaError, r"^coproduct\[0\]: expected"),
    (lambda doc: (doc.pop("antipode_inv"), doc["antipode"]["matrix"].__setitem__(0, ["0", "0"])),
     StructureError, "antipode is not invertible"),
    (lambda doc: doc["dynamical"]["shift"].update(idempotents=[], weights=[]), SchemaError,
     "at least one idempotent"),
    (lambda doc: doc["dynamical"]["twists"][0].update(f=[]), StructureError,
     r"dynamical\.twists\[0\]\.f: twist is not invertible"),
], ids=["huge-order", "rational-order", "unknown-kind", "basis-type", "name-type", "antipode-inv-type",
        "coproduct-column-type", "singular-antipode", "no-idempotent", "dynamical-non-twist"])


@FINDINGS
def test_fuzz_findings(edit, error, match):
    """Inputs that used to escape as TypeError, IndexError, SingularError or TwistError, or hang."""
    doc = json.loads(CANONICAL["z2_triangular"])
    edit(doc)
    with pytest.raises(error, match=match):
        parse_structure(json.dumps(doc))


@FINDINGS
def test_fuzz_findings_are_refused_at_real_paths(edit, error, match):
    doc = json.loads(CANONICAL["z2_triangular"])
    edit(doc)
    assert_refused_at_real_path(json.dumps(doc))

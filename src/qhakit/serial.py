"""Text file format for structures, twists, and dynamical families.

The format is JSON with exact scalars only: rationals as "p/q" strings,
cyclotomic scalars as arrays of rational strings in the reduced power
basis of the root of unity.  Serialization is canonical (sorted indices,
reduced scalars, fixed key order), so parse∘serialize is the identity.

Top-level keys: field {kind, order}, dimension, basis (optional), unit,
mult (rows {i, j, coeffs}), coproduct (per-basis sparse {i, j, scalar}
lists), counit, antipode {matrix}, antipode_inv (optional), alpha, beta,
phi (sparse {i, j, k, scalar}), r_matrix (optional sparse {i, j, scalar}),
dynamical (optional {domain, shift {idempotents, weights}, twists
[{lambda, f}]}), name (optional).  A key that an object of the format
does not define is refused, since a misspelled optional key would
otherwise drop its checks; so is a key repeated in one object, whose
earlier values JSON would drop.

Parsing reports three distinct error classes: SchemaError for malformed
JSON or schema violations (with a field path), AlgebraError for invalid
structure constants, and StructureError when a well-formed structure
fails its axiom verification (a singular antipode or a dynamical entry
that is no twist included; a dynamical refusal names its section).
Load-time verification is mandatory.  Every field path is formed by
``_at`` from the parent's path and a key or list index: ``_expect`` and
``_items`` hand each field and list item on with its path.
Cyclotomic orders above MAX_CYCLOTOMIC_ORDER are refused: the n-th
cyclotomic polynomial alone takes seconds to build past a few hundred.

:mod:`qhakit.dynamical` is imported only for a file with a ``dynamical``
section (the import rule is stated in :mod:`qhakit.cli`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .catalog import MAX_GROUP_ORDER, CatalogEntry
from .errors import QhaError, SchemaError, StructureError, TwistError
from .scalars import RATIONAL, Field
from .structures import QuasiAntipode, QuasiBialgebra
from .tensor import Algebra, LinearMap, TensorElement
from .twists import Twist

__all__ = ["parse_structure", "serialize_structure", "parse_twist", "serialize_twist"]

MAX_CYCLOTOMIC_ORDER = 256

# the index fields of a sparse entry, one per leg
_INDEX_KEYS = ("i", "j", "k")

_TOP_KEYS = ("name", "field", "dimension", "basis", "unit", "mult", "coproduct", "counit",
             "antipode", "antipode_inv", "alpha", "beta", "phi", "r_matrix", "dynamical")


# -- encoding ---------------------------------------------------------------

def _enc_vector(field, coeffs):
    return [field.format_scalar(v) for v in coeffs]


def _enc_sparse(field, t: TensorElement):
    keys = _INDEX_KEYS[:t.arity]
    return [dict(zip(keys, k), scalar=field.format_scalar(v))
            for k, v in sorted(t.entries.items())]


def _enc_matrix(field, m: LinearMap):
    return {"matrix": [_enc_vector(field, row) for row in m.matrix()]}


def structure_to_dict(obj, name=None, dynamical=None) -> dict:
    if isinstance(obj, CatalogEntry):
        return structure_to_dict(obj.structure, name=obj.name, dynamical=obj.dynamical)
    h = obj
    alg = h.algebra
    field = alg.field
    doc = {}
    if name:
        doc["name"] = name
    doc["field"] = {"kind": field.kind, "order": field.order}
    doc["dimension"] = alg.dim
    doc["basis"] = list(alg.basis_names)
    doc["unit"] = _enc_vector(field, alg.unit)
    mult_rows = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.basis_product(i, j)
            if prod:
                coeffs = [field.zero] * alg.dim
                for k, v in prod.items():
                    coeffs[k] = v
                mult_rows.append({"i": i, "j": j, "coeffs": _enc_vector(field, coeffs)})
    doc["mult"] = mult_rows
    doc["coproduct"] = [_enc_sparse(field, h.coproduct.col(i)) for i in range(alg.dim)]
    doc["counit"] = [field.format_scalar(h.counit(alg.basis_element(i))) for i in range(alg.dim)]
    doc["antipode"] = _enc_matrix(field, h.s)
    doc["antipode_inv"] = _enc_matrix(field, h.s_inv)
    doc["alpha"] = _enc_vector(field, h.alpha.coeffs)
    doc["beta"] = _enc_vector(field, h.beta.coeffs)
    doc["phi"] = _enc_sparse(field, h.phi)
    if h.r is not None:
        doc["r_matrix"] = _enc_sparse(field, h.r)
    if dynamical is not None:
        doc["dynamical"] = {
            "domain": [str(x) for x in dynamical.domain],
            "shift": {
                "idempotents": [_enc_vector(field, p.coeffs)
                                for p in dynamical.shift.idempotents],
                "weights": [str(w) for w in dynamical.shift.weights],
            },
            "twists": [{"lambda": str(lam), "f": _enc_sparse(field, dynamical.f(lam))}
                       for lam in dynamical.domain],
        }
    return doc


def serialize_structure(obj, name=None, dynamical=None) -> str:
    """Canonical text encoding; round-trips through parse_structure."""
    return json.dumps(structure_to_dict(obj, name=name, dynamical=dynamical),
                      indent=2) + "\n"


def serialize_twist(field, twist: Twist) -> str:
    return json.dumps({"twist": _enc_sparse(field, twist.f)}, indent=2) + "\n"


# -- decoding ---------------------------------------------------------------

def _unique_keys(pairs):
    """An object's pairs as a dict, refusing a repeated key: json keeps only its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"repeated field {key!r}")
        doc[key] = value
    return doc


def _load_json(text, keys):
    """The top-level object of ``text``, whose fields must be among ``keys``."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep a nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return _object(doc, None, keys, "top level must be an object")


def _at(path, key):
    """The path of field or list index ``key`` below ``path`` (None at the top level)."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _items(rows, path):
    """The items of the list ``rows`` at ``path``, each with its path."""
    return [(row, _at(path, n)) for n, row in enumerate(rows)]


def _object(obj, path, keys, message="expected an object"):
    """``obj``, refused at ``path`` unless it is an object with no field outside ``keys``."""
    if not isinstance(obj, dict):
        raise SchemaError(message, path)
    for key in obj:
        if key not in keys:
            raise SchemaError("unknown field", _at(path, key))
    return obj


def _expect(doc, key, kind=None, path=None, keys=None):
    """Field ``key`` of the object ``doc`` at ``path``, and the field's path; refused when
    missing, not a ``kind``, or, given ``keys``, an object with a field outside them."""
    at = _at(path, key)
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", at)
    val = doc[key]
    # bool is a subclass of int, but a JSON true/false is never an index or a size
    if kind is not None and (not isinstance(val, kind) or (kind is int and isinstance(val, bool))):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}", at)
    if keys is not None:
        _object(val, at, keys)
    return val, at


def _dec_field(doc) -> Field:
    spec, path = _expect(doc, "field", dict, keys=("kind", "order"))
    kind, _ = _expect(spec, "kind", str, path)
    order, order_path = _expect(spec, "order", int, path)
    try:
        field = Field(kind, order)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc
    if order > MAX_CYCLOTOMIC_ORDER:
        raise SchemaError(f"cyclotomic order must be at most {MAX_CYCLOTOMIC_ORDER}", order_path)
    return field


def _dec_scalar(field, obj, path):
    try:
        return field.parse_scalar(obj)
    except (QhaError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad scalar {obj!r}: {exc}", path) from exc


def _dec_vector(field, obj, path, dim):
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"expected a list of {dim} scalars", path)
    return [_dec_scalar(field, v, at) for v, at in _items(obj, path)]


def _dec_sparse(field, alg, rows, path, arity):
    if not isinstance(rows, list):
        raise SchemaError("expected a list of index objects", path)
    keys = _INDEX_KEYS[:arity]
    entries = {}
    for row, at in _items(rows, path):
        _object(row, at, keys + ("scalar",), "expected an object with index fields")
        idx = tuple(_expect(row, k, int, at)[0] for k in keys)
        if any(not 0 <= v < alg.dim for v in idx):
            raise SchemaError(f"index {idx} out of range", at)
        if idx in entries:
            raise SchemaError(f"duplicate index {idx}", at)
        entries[idx] = _dec_scalar(field, *_expect(row, "scalar", None, at))
    return TensorElement(alg, arity, entries)


def _dec_map(field, alg, doc, key):
    obj, path = _expect(doc, key, dict, keys=("matrix",))
    mat, path = _expect(obj, "matrix", list, path)
    if len(mat) != alg.dim:
        raise SchemaError(f"matrix must have {alg.dim} rows", path)
    return LinearMap.from_matrix(alg, [_dec_vector(field, row, at, alg.dim)
                                       for row, at in _items(mat, path)])


def parse_structure(text: str) -> CatalogEntry:
    """Parse and fully verify a structure file; verification is not bypassable."""
    doc = _load_json(text, _TOP_KEYS)
    field = _dec_field(doc)
    dim, path = _expect(doc, "dimension", int)
    if dim < 1:
        raise SchemaError("dimension must be positive", path)
    if dim > MAX_GROUP_ORDER:  # the algebra allocates a dim x dim table before any check
        raise SchemaError(f"dimension must be at most {MAX_GROUP_ORDER}", path)

    mult = {}
    for row, at in _items(*_expect(doc, "mult", list)):
        _object(row, at, ("i", "j", "coeffs"))
        idx = tuple(_expect(row, k, int, at)[0] for k in ("i", "j"))
        if idx in mult:
            raise SchemaError(f"duplicate index {idx}", at)
        mult[idx] = dict(enumerate(_dec_vector(field, *_expect(row, "coeffs", list, at), dim)))
    unit = _dec_vector(field, *_expect(doc, "unit", list), dim)
    basis = doc.get("basis")
    if basis is not None and (not isinstance(basis, list) or len(basis) != dim
                              or not all(isinstance(b, str) for b in basis)):
        raise SchemaError(f"expected a list of {dim} basis names", "basis")
    for n, b in enumerate(basis or ()):
        if basis.index(b) < n:  # a witness names an element by its basis name
            raise SchemaError(f"duplicate name {b!r}", _at("basis", n))
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise SchemaError("expected a string", "name")
    # Algebra construction checks associativity and the unit laws
    alg = Algebra(field, dim, mult, unit, basis=basis)

    cop_rows, path = _expect(doc, "coproduct", list)
    if len(cop_rows) != dim:
        raise SchemaError(f"coproduct must list {dim} columns", path)
    coproduct = LinearMap(alg, [_dec_sparse(field, alg, rows, at, 2)
                                for rows, at in _items(cop_rows, path)])
    counit = LinearMap.scalar_map(alg, _dec_vector(field, *_expect(doc, "counit", list), dim))
    s = _dec_map(field, alg, doc, "antipode")
    s_inv = _dec_map(field, alg, doc, "antipode_inv") if "antipode_inv" in doc else None
    alpha = alg.element(_dec_vector(field, *_expect(doc, "alpha", list), dim))
    beta = alg.element(_dec_vector(field, *_expect(doc, "beta", list), dim))
    phi = _dec_sparse(field, alg, *_expect(doc, "phi", list), 3)
    r = _dec_sparse(field, alg, *_expect(doc, "r_matrix", list), 2) if "r_matrix" in doc else None
    try:
        antipode = QuasiAntipode(s, alpha, beta, s_inv)
    except StructureError:   # a failing coassociator is reported before a singular antipode
        QuasiBialgebra(alg, coproduct, counit, phi)
        raise
    # verified here; StructureError propagates with its report
    structure = QuasiBialgebra(alg, coproduct, counit, phi, antipode=antipode, r=r)

    dynamical = _dec_dynamical(field, alg, structure, doc) if "dynamical" in doc else None
    return CatalogEntry(name, structure, dynamical=dynamical)


def _dec_dynamical(field, alg, structure, doc):
    from .dynamical import DynamicalTwist, ShiftSystem
    path = "dynamical"
    dyn = _object(doc[path], path, ("domain", "shift", "twists"))
    domain = set()
    for x, at in _items(*_expect(dyn, "domain", list, path)):
        lam = _dec_fraction(x, at)
        if lam in domain:
            raise SchemaError(f"duplicate value {lam}", at)
        domain.add(lam)
    spec, spec_path = _expect(dyn, "shift", dict, path, ("idempotents", "weights"))
    rows, rows_path = _expect(spec, "idempotents", list, spec_path)
    if not rows:
        raise SchemaError("expected at least one idempotent", rows_path)
    idem = [alg.element(_dec_vector(field, row, at, alg.dim))
            for row, at in _items(rows, rows_path)]
    weights = [_dec_fraction(x, at)
               for x, at in _items(*_expect(spec, "weights", list, spec_path))]
    try:
        shift = ShiftSystem(idem, weights)
    except StructureError as exc:
        raise StructureError(f"{spec_path}: {exc}") from exc
    twists = {}
    for row, at in _items(*_expect(dyn, "twists", list, path)):
        _object(row, at, ("lambda", "f"))
        lam_doc, lam_path = _expect(row, "lambda", str, at)
        lam = _dec_fraction(lam_doc, lam_path)
        if lam in twists:
            raise SchemaError(f"duplicate lambda {lam}", lam_path)
        f, at = _expect(row, "f", list, at)
        try:
            twists[lam] = Twist(_dec_sparse(field, alg, f, at, 2), structure.counit)
        except TwistError as exc:
            raise StructureError(f"{at}: {exc}") from exc
    try:
        return DynamicalTwist(domain, twists, shift)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def _dec_fraction(obj, path) -> Fraction:
    if not isinstance(obj, str):
        raise SchemaError(f"expected a rational string, got {obj!r}", path)
    try:
        return RATIONAL.parse_scalar(obj)
    except (QhaError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {obj!r}", path) from exc


def parse_twist(text: str, structure) -> Twist:
    """Parse a twist file against an already-loaded structure."""
    doc = _load_json(text, ("twist",))
    alg = structure.algebra
    return Twist(_dec_sparse(alg.field, alg, *_expect(doc, "twist", list), 2), structure.counit)

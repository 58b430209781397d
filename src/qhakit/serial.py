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
that is no twist included).  Load-time verification is mandatory.
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


def _load_json(text):
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep a nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    return doc


def _only(doc, keys, path=None):
    """Refuse a key of the object ``doc`` (at ``path``) that is not in ``keys``."""
    for key in doc:
        if key not in keys:
            raise SchemaError("unknown field", f"{path}.{key}" if path else key)


def _expect(doc, key, kind, path):
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", path)
    val = doc[key]
    # bool is a subclass of int, but a JSON true/false is never an index or a size
    if kind is not None and (not isinstance(val, kind) or (kind is int and isinstance(val, bool))):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}", path)
    return val


def _dec_field(doc) -> Field:
    spec = _expect(doc, "field", dict, "field")
    _only(spec, ("kind", "order"), "field")
    kind = _expect(spec, "kind", str, "field.kind")
    order = _expect(spec, "order", int, "field.order")
    try:
        field = Field(kind, order)
    except ValueError as exc:
        raise SchemaError(str(exc), "field") from exc
    if order > MAX_CYCLOTOMIC_ORDER:
        raise SchemaError(f"cyclotomic order must be at most {MAX_CYCLOTOMIC_ORDER}",
                          "field.order")
    return field


def _dec_scalar(field, obj, path):
    try:
        return field.parse_scalar(obj)
    except (QhaError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad scalar {obj!r}: {exc}", path) from exc


def _dec_vector(field, obj, dim, path):
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"expected a list of {dim} scalars", path)
    return [_dec_scalar(field, v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _dec_sparse(field, alg, rows, arity, path):
    if not isinstance(rows, list):
        raise SchemaError("expected a list of index objects", path)
    keys = _INDEX_KEYS[:arity]
    entries = {}
    for n, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError("expected an object with index fields", f"{path}[{n}]")
        _only(row, keys + ("scalar",), f"{path}[{n}]")
        idx = tuple(_expect(row, k, int, f"{path}[{n}].{k}") for k in keys)
        if any(not 0 <= v < alg.dim for v in idx):
            raise SchemaError(f"index {idx} out of range", f"{path}[{n}]")
        if idx in entries:
            raise SchemaError(f"duplicate index {idx}", f"{path}[{n}]")
        entries[idx] = _dec_scalar(field, _expect(row, "scalar", None, f"{path}[{n}].scalar"),
                                   f"{path}[{n}].scalar")
    return TensorElement(alg, arity, entries)


def _dec_map(field, alg, obj, path):
    _only(obj, ("matrix",), path)
    mat = _expect(obj, "matrix", list, f"{path}.matrix")
    if len(mat) != alg.dim:
        raise SchemaError(f"matrix must have {alg.dim} rows", f"{path}.matrix")
    rows = [_dec_vector(field, row, alg.dim, f"{path}.matrix[{r}]")
            for r, row in enumerate(mat)]
    return LinearMap.from_matrix(alg, rows)


def parse_structure(text: str) -> CatalogEntry:
    """Parse and fully verify a structure file; verification is not bypassable."""
    doc = _load_json(text)
    _only(doc, _TOP_KEYS)
    field = _dec_field(doc)
    dim = _expect(doc, "dimension", int, "dimension")
    if dim < 1:
        raise SchemaError("dimension must be positive", "dimension")
    if dim > MAX_GROUP_ORDER:  # the algebra allocates a dim x dim table before any check
        raise SchemaError(f"dimension must be at most {MAX_GROUP_ORDER}", "dimension")

    mult_rows = _expect(doc, "mult", list, "mult")
    mult = {}
    for n, row in enumerate(mult_rows):
        if not isinstance(row, dict):
            raise SchemaError("expected an object", f"mult[{n}]")
        _only(row, ("i", "j", "coeffs"), f"mult[{n}]")
        i = _expect(row, "i", int, f"mult[{n}].i")
        j = _expect(row, "j", int, f"mult[{n}].j")
        if (i, j) in mult:
            raise SchemaError(f"duplicate index {(i, j)}", f"mult[{n}]")
        coeffs = _dec_vector(field, _expect(row, "coeffs", list, f"mult[{n}].coeffs"),
                             dim, f"mult[{n}].coeffs")
        mult[(i, j)] = {k: v for k, v in enumerate(coeffs)}
    unit = _dec_vector(field, _expect(doc, "unit", list, "unit"), dim, "unit")
    basis = doc.get("basis")
    if basis is not None and (not isinstance(basis, list) or len(basis) != dim
                              or not all(isinstance(b, str) for b in basis)):
        raise SchemaError(f"expected a list of {dim} basis names", "basis")
    for n, b in enumerate(basis or ()):
        if basis.index(b) < n:  # a witness names an element by its basis name
            raise SchemaError(f"duplicate name {b!r}", f"basis[{n}]")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise SchemaError("expected a string", "name")
    # Algebra construction checks associativity and the unit laws
    alg = Algebra(field, dim, mult, unit, basis=basis)

    cop_rows = _expect(doc, "coproduct", list, "coproduct")
    if len(cop_rows) != dim:
        raise SchemaError(f"coproduct must list {dim} columns", "coproduct")
    coproduct = LinearMap(alg, [_dec_sparse(field, alg, rows, 2, f"coproduct[{i}]")
                                for i, rows in enumerate(cop_rows)])
    counit = LinearMap.scalar_map(
        alg, _dec_vector(field, _expect(doc, "counit", list, "counit"), dim, "counit"))
    s = _dec_map(field, alg, _expect(doc, "antipode", dict, "antipode"), "antipode")
    s_inv = None
    if "antipode_inv" in doc:
        s_inv = _dec_map(field, alg, _expect(doc, "antipode_inv", dict, "antipode_inv"),
                         "antipode_inv")
    alpha = alg.element(_dec_vector(field, _expect(doc, "alpha", list, "alpha"),
                                    dim, "alpha"))
    beta = alg.element(_dec_vector(field, _expect(doc, "beta", list, "beta"),
                                   dim, "beta"))
    phi = _dec_sparse(field, alg, _expect(doc, "phi", list, "phi"), 3, "phi")

    r = None
    if "r_matrix" in doc:
        r = _dec_sparse(field, alg, _expect(doc, "r_matrix", list, "r_matrix"),
                        2, "r_matrix")
    try:
        antipode = QuasiAntipode(s, alpha, beta, s_inv)
    except StructureError:   # a failing coassociator is reported before a singular antipode
        QuasiBialgebra(alg, coproduct, counit, phi)
        raise
    # verified here; StructureError propagates with its report
    structure = QuasiBialgebra(alg, coproduct, counit, phi, antipode=antipode, r=r)

    dynamical = None
    if "dynamical" in doc:
        dynamical = _dec_dynamical(field, alg, structure, doc["dynamical"])

    return CatalogEntry(name, structure, dynamical=dynamical)


def _dec_dynamical(field, alg, structure, doc):
    from .dynamical import DynamicalTwist, ShiftSystem
    path = "dynamical"
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path)
    _only(doc, ("domain", "shift", "twists"), path)
    domain = set()
    for n, x in enumerate(_expect(doc, "domain", list, f"{path}.domain")):
        lam = _dec_fraction(x, f"{path}.domain[{n}]")
        if lam in domain:
            raise SchemaError(f"duplicate value {lam}", f"{path}.domain[{n}]")
        domain.add(lam)
    shift_doc = _expect(doc, "shift", dict, f"{path}.shift")
    _only(shift_doc, ("idempotents", "weights"), f"{path}.shift")
    idem = [alg.element(_dec_vector(field, row, alg.dim, f"{path}.shift.idempotents[{n}]"))
            for n, row in enumerate(_expect(shift_doc, "idempotents", list,
                                            f"{path}.shift.idempotents"))]
    if not idem:
        raise SchemaError("expected at least one idempotent", f"{path}.shift.idempotents")
    weights = [_dec_fraction(x, f"{path}.shift.weights[{n}]") for n, x in
               enumerate(_expect(shift_doc, "weights", list, f"{path}.shift.weights"))]
    shift = ShiftSystem(idem, weights)
    twists = {}
    for n, row in enumerate(_expect(doc, "twists", list, f"{path}.twists")):
        if not isinstance(row, dict):
            raise SchemaError("expected an object", f"{path}.twists[{n}]")
        _only(row, ("lambda", "f"), f"{path}.twists[{n}]")
        lam = _dec_fraction(_expect(row, "lambda", str, f"{path}.twists[{n}].lambda"),
                            f"{path}.twists[{n}].lambda")
        if lam in twists:
            raise SchemaError(f"duplicate lambda {lam}", f"{path}.twists[{n}].lambda")
        f = _dec_sparse(field, alg, _expect(row, "f", list, f"{path}.twists[{n}].f"),
                        2, f"{path}.twists[{n}].f")
        try:
            twists[lam] = Twist(f, structure.counit)
        except TwistError as exc:
            raise StructureError(f"{path}.twists[{n}].f: {exc}") from exc
    return DynamicalTwist(domain, twists, shift)


def _dec_fraction(obj, path) -> Fraction:
    if not isinstance(obj, str):
        raise SchemaError(f"expected a rational string, got {obj!r}", path)
    try:
        return RATIONAL.parse_scalar(obj)
    except (QhaError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {obj!r}", path) from exc


def parse_twist(text: str, structure) -> Twist:
    """Parse a twist file against an already-loaded structure."""
    doc = _load_json(text)
    _only(doc, ("twist",))
    alg = structure.algebra
    f = _dec_sparse(alg.field, alg, _expect(doc, "twist", list, "twist"), 2, "twist")
    return Twist(f, structure.counit)

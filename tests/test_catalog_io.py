"""Built-in catalog entries and the structure file format."""

import json
import random
from fractions import Fraction

import pytest

from qhakit.catalog import builtin
from qhakit.errors import (AlgebraError, CatalogError, SchemaError,
                           StructureError)
from qhakit.randgen import random_twist
from qhakit.scalars import Field
from qhakit.serial import (parse_structure, parse_twist, serialize_structure,
                           serialize_twist)
from qhakit.structures import structures_equal

from conftest import ENTRY_NAMES, assert_verified, entry


class TestBuiltin:
    def test_names(self):
        for name in ENTRY_NAMES:
            assert builtin(name).name == name

    def test_group_parametrized(self):
        for n in (1, 2, 4, 6, 8):
            e = builtin(f"group_z{n}")
            assert e.structure.algebra.dim == n
            assert_verified(e.structure)

    def test_unknown_name(self):
        with pytest.raises(CatalogError, match="unknown builtin"):
            builtin("nonesuch")

    @pytest.mark.parametrize("name", ["group_z03", "group_z00", "group_z3\n",
                                      "group_z\u0663", "group_z+3"])
    def test_non_canonical_group_name_rejected(self, name):
        with pytest.raises(CatalogError, match="unknown builtin"):
            builtin(name)

    def test_group_order_zero_rejected(self):
        with pytest.raises(CatalogError, match="group order must be positive"):
            builtin("group_z0")

    @pytest.mark.parametrize("name", ["group_z257", "group_z99999999999",
                                      "group_z1" + "0" * 5000])
    def test_group_order_above_the_cap_rejected(self, name):
        """The n x n table is never built past the cap, and no over-long numeral is read."""
        with pytest.raises(CatalogError, match="^group order must be at most 256$"):
            builtin(name)

    def test_all_verified_at_build(self, any_entry):
        assert_verified(any_entry.structure)

    def test_semion_headline_values(self):
        s = entry("semion").structure
        alg = s.algebra
        assert s.phi * s.phi == alg.tensor_unit(3)
        zeta = alg.field.zeta
        # the projector-block coefficient of R is the fourth root of unity
        p_key_coeff = s.r.entries[(1, 1)]
        assert p_key_coeff == (zeta - 1) * Fraction(1, 4)


class TestRoundTrip:
    def test_entries(self, any_entry):
        text = serialize_structure(any_entry)
        back = parse_structure(text)
        assert back.name == any_entry.name
        assert structures_equal(back.structure, any_entry.structure)
        if any_entry.dynamical is not None:
            d1, d2 = any_entry.dynamical, back.dynamical
            assert d2 is not None
            assert d1.domain == d2.domain
            assert d1.shift.idempotents == d2.shift.idempotents
            assert d1.shift.weights == d2.shift.weights
            assert all(d1.f(lam) == d2.f(lam) for lam in d1.domain)

    def test_canonical_fixed_point(self, any_entry):
        text = serialize_structure(any_entry)
        assert serialize_structure(parse_structure(text)) == text

    def test_twisted_structures_roundtrip(self):
        for name in ("sweedler_h4", "semion"):
            s = entry(name).structure
            from qhakit.twists import twist_structure
            f = random_twist(random.Random(f"rt:{name}"), s)
            ts = twist_structure(s, f)
            back = parse_structure(serialize_structure(ts, name="tw"))
            assert structures_equal(back.structure, ts)

    def test_twist_file_roundtrip(self, any_entry):
        s = any_entry.structure
        f = random_twist(random.Random(f"tw:{any_entry.name}"), s)
        text = serialize_twist(s.algebra.field, f)
        back = parse_twist(text, s)
        assert back.f == f.f

    def test_canonical_ordering(self):
        doc = json.loads(serialize_structure(entry("semion")))
        keys = [(row["i"], row["j"], row["k"]) for row in doc["phi"]]
        assert keys == sorted(keys)


class TestParseErrors:
    def test_syntax_error(self):
        with pytest.raises(SchemaError, match="invalid JSON at line"):
            parse_structure("{ not json }")

    def test_schema_violation_named_field(self):
        doc = json.loads(serialize_structure(entry("group_z3")))
        del doc["phi"]
        with pytest.raises(SchemaError, match="phi"):
            parse_structure(json.dumps(doc))

    def test_duplicate_index_rejected(self):
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc["phi"].append(dict(doc["phi"][0]))
        with pytest.raises(SchemaError, match="duplicate index"):
            parse_structure(json.dumps(doc))

    def test_duplicate_basis_name_rejected(self):
        """A failure witness names a basis element; a repeated name would name two."""
        doc = json.loads(serialize_structure(entry("semion")))
        doc["basis"] = ["g", "g"]
        with pytest.raises(SchemaError, match=r"^basis\[1\]: duplicate name 'g'$"):
            parse_structure(json.dumps(doc))

    def test_duplicate_mult_row_rejected(self):
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc["mult"].append(dict(doc["mult"][1]))
        with pytest.raises(SchemaError, match=r"^mult\[9\]: duplicate index \(0, 1\)$"):
            parse_structure(json.dumps(doc))

    def test_duplicate_dynamical_lambda_rejected(self):
        """A second twist at one lambda would replace the first unseen."""
        doc = json.loads(serialize_structure(entry("z2_triangular")))
        twists = doc["dynamical"]["twists"]
        twists.append(dict(twists[1], f=twists[0]["f"]))
        n = len(twists) - 1
        with pytest.raises(SchemaError, match=rf"^dynamical\.twists\[{n}\]\.lambda: "
                                              r"duplicate lambda "):
            parse_structure(json.dumps(doc))

    def test_duplicate_dynamical_domain_value_rejected(self):
        """A repeated value (here written two ways) would repeat its checks."""
        doc = json.loads(serialize_structure(entry("z2_triangular")))
        domain = doc["dynamical"]["domain"]
        lam = Fraction(domain[1])
        domain.append(f"{2 * lam.numerator}/{2 * lam.denominator}")
        n = len(domain) - 1
        with pytest.raises(SchemaError, match=rf"^dynamical\.domain\[{n}\]: "
                                              rf"duplicate value {lam}$"):
            parse_structure(json.dumps(doc))

    def test_bad_scalar_path(self):
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc["alpha"][0] = "not-a-number"
        with pytest.raises(SchemaError, match=r"alpha\[0\]"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("value", [[0.1, 1], [True, 0]])
    def test_inexact_coefficient_in_list_rejected(self, value):
        doc = json.loads(serialize_structure(entry("semion")))
        doc["unit"][0] = value
        with pytest.raises(SchemaError, match=r"^unit\[0\]: bad scalar"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("text", ["1e3", "1.5", " 1/2", "1_0", "1e999999999", "1/0"])
    def test_scalar_outside_the_rational_grammar_rejected(self, text):
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc["alpha"][1] = text
        with pytest.raises(SchemaError, match=r"^alpha\[1\]: bad scalar"):
            parse_structure(json.dumps(doc))

    def test_dynamical_rational_outside_the_grammar_rejected(self):
        doc = json.loads(serialize_structure(entry("z2_triangular")))
        doc["dynamical"]["domain"][0] = "1e999999999"
        with pytest.raises(SchemaError, match=r"^dynamical\.domain\[0\]: bad rational"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("edit, text", [
        (lambda d: d["domain"].__setitem__(2, 1),
         r"dynamical\.domain\[2\]: expected a rational string, got 1"),
        (lambda d: d["shift"]["weights"].__setitem__(1, "x"),
         r"dynamical\.shift\.weights\[1\]: bad rational 'x'"),
    ], ids=["domain", "weights"])
    def test_dynamical_rational_error_names_its_entry(self, edit, text):
        doc = json.loads(serialize_structure(entry("z2_triangular")))
        edit(doc["dynamical"])
        with pytest.raises(SchemaError, match=rf"^{text}$"):
            parse_structure(json.dumps(doc))

    def test_unexpected_error_in_scalar_parsing_propagates(self, monkeypatch):
        """Only the errors parse_scalar documents become SchemaError; a bug stays visible."""
        def broken(self, obj):
            raise RuntimeError("bug in parse_scalar")

        monkeypatch.setattr(Field, "parse_scalar", broken)
        with pytest.raises(RuntimeError, match="bug in parse_scalar"):
            parse_structure(serialize_structure(entry("group_z3")))

    def test_dimension_above_the_cap_rejected(self):
        """The algebra allocates a dim x dim table before any check: a short file
        must not ask for it."""
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc.pop("basis", None)
        doc.update(dimension=257, mult=[], unit=["1"] + ["0"] * 256)
        with pytest.raises(SchemaError, match=r"^dimension: dimension must be at most 256$"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc.update(dimension=True), "dimension"),
        (lambda doc: doc["phi"][0].update(i=False), r"phi\[0\]\.i"),
        (lambda doc: doc["mult"][0].update(j=True), r"mult\[0\]\.j"),
    ], ids=["dimension", "phi.i", "mult.j"])
    def test_boolean_where_int_required_rejected(self, edit, path):
        doc = json.loads(serialize_structure(entry("group_z3")))
        edit(doc)
        with pytest.raises(SchemaError, match=rf"^{path}: field '\w+' has wrong type bool"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("name, edit, path", [
        ("semion", lambda doc: doc.update(r_matrx=doc.pop("r_matrix")), "r_matrx"),
        ("semion", lambda doc: doc["field"].update(ordr=4), "field.ordr"),
        ("semion", lambda doc: doc["antipode"].update(inverse=[]), "antipode.inverse"),
        ("semion", lambda doc: doc["antipode_inv"].update(matrx=[]), "antipode_inv.matrx"),
        ("group_z3", lambda doc: doc["mult"][0].update(k=0), r"mult\[0\]\.k"),
        ("group_z3", lambda doc: doc["phi"][0].update(l=0), r"phi\[0\]\.l"),
        ("group_z3", lambda doc: doc["coproduct"][1][0].update(k=1),
         r"coproduct\[1\]\[0\]\.k"),
        ("semion", lambda doc: doc["r_matrix"][0].update(k=0), r"r_matrix\[0\]\.k"),
        ("z2_triangular", lambda doc: doc["dynamical"].update(domian=[]), r"dynamical\.domian"),
        ("z2_triangular", lambda doc: doc["dynamical"]["shift"].update(weight=[]),
         r"dynamical\.shift\.weight"),
        ("z2_triangular", lambda doc: doc["dynamical"]["twists"][2].update(mu="1"),
         r"dynamical\.twists\[2\]\.mu"),
        ("z2_triangular", lambda doc: doc["dynamical"]["twists"][0]["f"][0].update(k=0),
         r"dynamical\.twists\[0\]\.f\[0\]\.k"),
    ], ids=["top", "field", "antipode", "antipode_inv", "mult-row", "phi-entry",
            "coproduct-entry", "r_matrix-entry", "dynamical", "dynamical.shift",
            "dynamical.twists", "dynamical.twists.f"])
    def test_unknown_key_rejected(self, name, edit, path):
        """A misspelled key is refused with its path; ignored, a misspelled optional
        key would drop its checks without a word."""
        doc = json.loads(serialize_structure(entry(name)))
        edit(doc)
        with pytest.raises(SchemaError, match=rf"^{path}: unknown field$"):
            parse_structure(json.dumps(doc))

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: doc.update(twsit=[]), "twsit"),
        (lambda doc: doc["twist"][0].update(k=0), r"twist\[0\]\.k"),
    ], ids=["top", "entry"])
    def test_unknown_key_in_a_twist_file_rejected(self, edit, path):
        h = entry("semion").structure
        doc = json.loads(serialize_twist(h.algebra.field, random_twist(random.Random(0), h)))
        edit(doc)
        with pytest.raises(SchemaError, match=rf"^{path}: unknown field$"):
            parse_twist(json.dumps(doc), h)

    @pytest.mark.parametrize("name, anchor, key, value", [
        ("semion", "{", "phi", "[]"),
        ("semion", '"field": {', "kind", '"rational"'),
        ("semion", '"antipode": {', "matrix", "[]"),
        ("group_z3", '"mult": [{', "i", "1"),
        ("group_z3", '"phi": [{', "scalar", '"2"'),
        ("semion", '"coproduct": [[{', "j", "1"),
        ("z2_triangular", '"shift": {', "weights", "[]"),
        ("z2_triangular", '"twists": [{', "lambda", '"7"'),
        ("z2_triangular", '"f": [{', "j", "0"),
    ], ids=["top", "field", "antipode", "mult-row", "phi-entry", "coproduct-entry",
            "dynamical.shift", "dynamical.twists", "dynamical.twists.f"])
    def test_repeated_key_rejected(self, name, anchor, key, value):
        """A key given twice in one object is refused at any depth: JSON would keep the
        last value and drop the first without a word."""
        text = json.dumps(json.loads(serialize_structure(entry(name))))
        bad = text.replace(anchor, f'{anchor}"{key}": {value}, ', 1)
        with pytest.raises(SchemaError, match=f"^repeated field '{key}'$"):
            parse_structure(bad)

    @pytest.mark.parametrize("anchor, key, value", [
        ("{", "twist", "[]"),
        ('"twist": [{', "i", "1"),
    ], ids=["top", "entry"])
    def test_repeated_key_in_a_twist_file_rejected(self, anchor, key, value):
        h = entry("semion").structure
        text = json.dumps(json.loads(serialize_twist(h.algebra.field,
                                                     random_twist(random.Random(0), h))))
        bad = text.replace(anchor, f'{anchor}"{key}": {value}, ', 1)
        with pytest.raises(SchemaError, match=f"^repeated field '{key}'$"):
            parse_twist(bad, h)

    def test_nonassociative_mult_names_triple(self):
        doc = json.loads(serialize_structure(entry("group_z3")))
        # g * g = g instead of g^2 breaks associativity of the cyclic table
        for row in doc["mult"]:
            if (row["i"], row["j"]) == (1, 1):
                row["coeffs"] = ["0", "1", "0"]
        with pytest.raises(AlgebraError, match="associativity|unit law"):
            parse_structure(json.dumps(doc))

    def test_pentagon_failure_named(self):
        doc = json.loads(serialize_structure(entry("semion")))
        doc.pop("dynamical", None)
        # flip the sign of the projector block: phi -> 1 + 2 p(x)p(x)p
        base = entry("semion").structure
        alg = base.algebra
        one, g = alg.unit_element, alg.basis_element(1)
        half = Fraction(1, 2)
        p = half * one - half * g
        from qhakit.tensor import tensor_of
        bad_phi = alg.tensor_unit(3) + tensor_of(p, p, p).scale(2)
        doc["phi"] = [
            {"i": k[0], "j": k[1], "k": k[2], "scalar": alg.field.format_scalar(v)}
            for k, v in sorted(bad_phi.entries.items())]
        with pytest.raises(StructureError) as exc:
            parse_structure(json.dumps(doc))
        assert "pentagon" in exc.value.report.failure_ids()

    def test_verification_mandatory(self):
        """There is no flag on the parse path that skips verification."""
        import inspect
        sig = inspect.signature(parse_structure)
        assert list(sig.parameters) == ["text"]

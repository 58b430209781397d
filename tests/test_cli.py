"""CLI contract: exit codes, deterministic reports, compute and twist commands."""

import json
import time
from fractions import Fraction

import pytest

from qhakit.cli import main
from qhakit.serial import parse_structure, serialize_structure, serialize_twist
from qhakit.structures import structures_equal
from qhakit.twists import Twist

from conftest import entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_all_suites_pass_on_semion(self, capsys):
        code, out, err = run(capsys, "verify", "semion", "--suite", "axioms")
        assert code == 0
        assert "OK:" in out

    def test_trivial_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "trivial", "--suite", "all",
                           "--trials", "2")
        assert code == 0

    def test_mutated_input_exits_2(self, capsys, tmp_path):
        doc = json.loads(serialize_structure(entry("semion")))
        doc.pop("dynamical", None)
        for row in doc["phi"]:
            row["scalar"] = ["1", "0"] if row["scalar"] == ["1/4", "0"] else row["scalar"]
        # make a mutation that definitely breaks the pentagon: flip the
        # projector block sign via direct reconstruction
        s = entry("semion").structure
        alg = s.algebra
        from qhakit.tensor import tensor_of
        half = Fraction(1, 2)
        p = half * alg.unit_element - half * alg.basis_element(1)
        bad_phi = alg.tensor_unit(3) + tensor_of(p, p, p).scale(2)
        doc["phi"] = [
            {"i": k[0], "j": k[1], "k": k[2], "scalar": alg.field.format_scalar(v)}
            for k, v in sorted(bad_phi.entries.items())]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "pentagon" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_2(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "group_z3", "--suite", "twist", "--trials", trials])
        assert exc.value.code == 2
        assert "argument --trials: must be at least 1" in capsys.readouterr().err

    def test_unknown_input_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "no_such_entry")
        assert code == 2
        assert "unknown builtin" in err

    def test_non_canonical_builtin_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "group_z03")
        assert code == 2
        assert "unknown builtin 'group_z03'" in err

    @pytest.mark.parametrize("name", ["group_z257", "group_z99999999999"])
    def test_group_order_above_the_cap_exits_2_at_once(self, capsys, name):
        """The n x n table of group_z<n> is refused before it is built."""
        start = time.monotonic()
        code, _, err = run(capsys, "verify", name, "--suite", "axioms")
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert "error: group order must be at most 256" in err

    def test_dimension_above_the_cap_exits_2(self, capsys, tmp_path):
        doc = json.loads(serialize_structure(entry("group_z3")))
        doc.pop("basis", None)
        doc.update(dimension=257, mult=[], unit=["1"] + ["0"] * 256)
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert "error: dimension: dimension must be at most 256" in err

    def test_misspelled_r_matrix_exits_2(self, capsys, tmp_path):
        """Ignored, the key would leave a file without an R-matrix: the qtriangular
        suite would pass on its one ``skip`` check."""
        path = tmp_path / "twisted.json"
        assert main(["twist", "semion", "--generate-seed", "3", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["r_matrx"] = doc.pop("r_matrix")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--suite", "qtriangular")
        assert code == 2 and out == ""
        assert "error: r_matrx: unknown field" in err

    @pytest.mark.parametrize("name, edit, path", [
        ("semion", lambda doc: doc["unit"].__setitem__(0, [0.1, 1]), "unit[0]"),
        ("semion", lambda doc: doc["unit"].__setitem__(0, [True, 0]), "unit[0]"),
        ("group_z3", lambda doc: doc.update(dimension=True), "dimension"),
        ("group_z3", lambda doc: doc["phi"][0].update(i=False), "phi[0].i"),
        ("group_z3", lambda doc: doc["alpha"].__setitem__(0, "1e999999999"), "alpha[0]"),
        ("group_z3", lambda doc: doc["phi"][0].update(scalar="1.5"), "phi[0].scalar"),
    ], ids=["float-in-list", "bool-in-list", "bool-dimension", "bool-index", "exponent",
            "decimal"])
    def test_inexact_or_boolean_input_exits_2(self, capsys, tmp_path, name, edit, path):
        doc = json.loads(serialize_structure(entry(name)))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert f"error: {path}: " in err

    def test_structured_deterministic(self, capsys):
        args = ("verify", "z2_triangular", "--suite", "twist", "--seed", "11",
                "--trials", "2", "--format", "structured")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical for fixed input and seed
        payload = json.loads(out1)
        assert payload["seed"] == 11 and payload["ok"] is True

    def test_seed_changes_report(self, capsys):
        args = ("verify", "sweedler_h4", "--suite", "twist", "--trials", "2",
                "--format", "structured")
        _, out1, _ = run(capsys, *args, "--seed", "1")
        _, out2, _ = run(capsys, *args, "--seed", "1")
        _, out3, _ = run(capsys, *args, "--seed", "2")
        assert out1 == out2
        # different seed gives a (still passing) report over different samples,
        # but the check ids and structure remain stable
        ids1 = [c["id"] for s in json.loads(out1)["suites"] for c in s["checks"]]
        ids3 = [c["id"] for s in json.loads(out3)["suites"] for c in s["checks"]]
        assert ids1 == ids3

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QHAKIT_SEED", "77")
        _, out, _ = run(capsys, "verify", "trivial", "--suite", "axioms",
                        "--format", "structured")
        assert json.loads(out)["seed"] == 77

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QHAKIT_SEED", "abc")
        code, out, err = run(capsys, "verify", "trivial", "--suite", "axioms")
        assert code == 2 and out == ""
        assert "QHAKIT_SEED" in err and "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "trivial", "--suite", "axioms",
                           "--format", "structured", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["ok"] is True


class TestCompute:
    def test_u_on_z2(self, capsys):
        code, out, _ = run(capsys, "compute", "z2_triangular", "u")
        assert code == 0
        assert '["0", "1"]' in out  # the grouplike generator

    def test_drinfeld_on_group(self, capsys):
        code, out, _ = run(capsys, "compute", "group_z2", "drinfeld",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["f_delta"] == [{"key": [0, 0], "scalar": "1"}]

    def test_invariants_on_semion(self, capsys):
        code, out, _ = run(capsys, "compute", "semion", "invariants", "1",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["z_1"] == [["0", "0"], ["1", "0"]]  # the grouplike g

    def test_u_without_r_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "group_z3", "u")
        assert code == 2
        assert "R-matrix" in err

    def test_invariants_without_power_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "semion", "invariants")
        assert code == 2

    @pytest.mark.parametrize("what", ("u", "drinfeld", "v"))
    def test_power_for_another_operator_exits_2(self, capsys, what):
        """Only 'invariants' reads m; any other operator is refused, not run without it."""
        code, out, err = run(capsys, "compute", "semion", what, "7")
        assert code == 2 and out == ""
        assert "error: only 'invariants' takes the power m" in err

    def test_v_roundtrip(self, capsys):
        code, out, _ = run(capsys, "compute", "sweedler_h4", "v", "--seed", "5")
        assert code == 0
        assert "round trip" in out

    def test_ac_operator(self, capsys):
        code, out, _ = run(capsys, "compute", "z2_triangular", "ac-operator",
                           "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["a"] == [{"key": [0, 0], "scalar": "1"}]


class TestTwist:
    def test_identity_twist_is_canonical_identity(self, capsys, tmp_path):
        s = entry("semion").structure
        tw_file = tmp_path / "id.json"
        tw_file.write_text(serialize_twist(s.algebra.field, Twist.identity(s)))
        out_file = tmp_path / "out.json"
        code, _, _ = run(capsys, "twist", "semion", "--twist", str(tw_file),
                         "--output", str(out_file))
        assert code == 0
        back = parse_structure(out_file.read_text())
        assert structures_equal(back.structure, s)

    def test_twist_by_own_r_gives_opposite(self, capsys, tmp_path):
        from qhakit.qtriangular import canonical_r_elements
        s = entry("semion").structure
        tw_file = tmp_path / "r.json"
        tw_file.write_text(serialize_twist(s.algebra.field,
                                           Twist(s.r, s.counit, s.r_inv, check=False)))
        out_file = tmp_path / "out.json"
        code, _, _ = run(capsys, "twist", "semion", "--twist", str(tw_file),
                         "--output", str(out_file))
        assert code == 0
        back = parse_structure(out_file.read_text()).structure
        assert back.coproduct == s.coproduct_t
        assert back.phi == s.phi_inv.perm((3, 2, 1))
        alpha_r, beta_r = canonical_r_elements(s)
        assert back.alpha == alpha_r and back.beta == beta_r
        assert back.s == s.s

    def test_twist_then_inverse_restores(self, capsys, tmp_path):
        s = entry("sweedler_h4").structure
        from qhakit.randgen import random_twist
        import random as _random
        f = random_twist(_random.Random(23), s)
        step1 = tmp_path / "step1.json"
        fwd = tmp_path / "f.json"
        bwd = tmp_path / "finv.json"
        fwd.write_text(serialize_twist(s.algebra.field, f))
        bwd.write_text(serialize_twist(s.algebra.field, f.inverse()))
        code, _, _ = run(capsys, "twist", "sweedler_h4", "--twist", str(fwd),
                         "--output", str(step1))
        assert code == 0
        step2 = tmp_path / "step2.json"
        code, _, _ = run(capsys, "twist", str(step1), "--twist", str(bwd),
                         "--output", str(step2))
        assert code == 0
        back = parse_structure(step2.read_text())
        assert structures_equal(back.structure, s)

    def test_generated_twist_output_reverifies(self, capsys, tmp_path):
        out_file = tmp_path / "generated.json"
        code, _, _ = run(capsys, "twist", "semion", "--generate-seed", "3",
                         "--output", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(out_file), "--suite", "axioms")
        assert code == 0

    def test_invalid_twist_exits_2(self, capsys, tmp_path):
        s = entry("z2_triangular").structure
        tw_file = tmp_path / "bad.json"
        # g (x) g is invertible but not counital
        tw_file.write_text(json.dumps(
            {"twist": [{"i": 1, "j": 1, "scalar": "1"}]}))
        code, _, err = run(capsys, "twist", "z2_triangular", "--twist", str(tw_file))
        assert code == 2
        assert "counit" in err


class TestUnreadableFiles:
    @pytest.mark.parametrize("argv", [
        ("verify", "{bad}", "--suite", "axioms"),
        ("compute", "{bad}", "v"),
        ("twist", "semion", "--twist", "{bad}"),
    ], ids=["verify", "compute", "twist"])
    def test_a_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, argv):
        """A structure or twist file that does not decode is refused by name with exit 2,
        not a traceback with exit 1, which would read as a failed check."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_a_repeated_key_exits_2(self, capsys, tmp_path):
        """A bogus "phi" ahead of the real one would be dropped without a word: the file
        would verify on the later value alone."""
        path = tmp_path / "twisted.json"
        assert run(capsys, "twist", "semion", "--generate-seed", "3", "--output", str(path))[0] == 0
        text = path.read_text()
        path.write_text('{"phi": [],' + text[1:])
        code, out, err = run(capsys, "verify", str(path), "--suite", "axioms")
        assert code == 2 and out == ""
        assert err == "error: repeated field 'phi'\n"

"""The rational block basis of Q[Z/n] and the transport of bundles into it.

A run in the block basis must be indistinguishable from the run in the
group basis: every suite report and every computed value is compared byte
for byte, with the transport forced on bundles the selection rules would
leave alone, by patching ``suites._block_form``, the one door through
which a run reaches the carried bundle.  A run "without" the transport is
made by making the rules pick nothing (``blocks._selected``).
"""

import functools
import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from qhakit import blocks, cli, drinfeld, qtriangular, structures, suites, twists
from qhakit.catalog import builtin
from qhakit.dynamical import constant_family
from qhakit.errors import ConsistencyError, StructureError
from qhakit.randgen import random_twist
from qhakit.scalars import RATIONAL, Cyclo
from qhakit.serial import parse_structure, serialize_structure
from qhakit.structures import _block_form, opposite_structure
from qhakit.tensor import tensor_of
from qhakit.twists import Twist, twist_structure

from conftest import VERIFIERS, counting_memo, counting_verifiers, rebind, stores_of


def _dense_twist(h):
    """F = 1 (x) 1 + sum c_ij (g_i - 1) (x) (g_j - 1): dense, counital, invertible."""
    alg = h.algebra
    one = alg.unit_element
    f = alg.tensor_unit(2)
    for i in range(1, alg.dim):
        for j in range(1, alg.dim):
            c = Fraction(1 + (i * j) % 3, 1 + (i + j) % 2)
            f = f + tensor_of(alg.basis_element(i) - one, alg.basis_element(j) - one).scale(c)
    return Twist(f, h.counit)


def _twisted_file(n):
    """A dense twist of group_z<n>, written to text and loaded back as a file is."""
    s = builtin(f"group_z{n}").structure
    text = serialize_structure(twist_structure(s, _dense_twist(s)), name=f"t{n}")
    return parse_structure(text)


def _entry(name):
    return _twisted_file(4) if name == "t4" else builtin(name)


def _without_blocks(monkeypatch):
    monkeypatch.setattr(blocks, "_selected", lambda alg: None)


def _set_door(monkeypatch, s, carried):
    """Make ``suites.setting`` see ``carried`` as the carried form of ``s``."""
    monkeypatch.setattr(suites, "_block_form", lambda x: carried if x is s else None)


def _report_bytes(rep):
    return json.dumps(rep.to_dict(), sort_keys=True)


# -- the basis ------------------------------------------------------------------

@pytest.mark.parametrize("n, constants, pairs", [(2, 2, 2), (3, 6, 5), (4, 6, 6), (5, 26, 17),
                                                 (6, 12, 10), (8, 22, 22)])
def test_block_table_size(n, constants, pairs):
    """The counted constants match the rebuilt table; Z/4 and Z/6 leave 6 and 10 pairs."""
    basis = blocks.block_basis(n)
    alg, _ = blocks._block_algebra(basis, builtin(f"group_z{n}").structure.algebra.field)
    assert basis.constants == constants == sum(len(c) for c in alg._mult.values())
    assert len(alg._mult) == pairs


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_is_rational_and_inverts(n):
    basis = blocks.block_basis(n)
    assert all(isinstance(v, Fraction) for row in basis.matrix for v in row)
    assert all(isinstance(v, int) for row in basis.inverse for v in row)
    ident = [[sum(a * b for a, b in zip(row, col)) for col in zip(*basis.matrix)]
             for row in basis.inverse]
    assert ident == [[int(i == j) for j in range(n)] for i in range(n)]


def test_changed_entry_is_refused():
    s = _twisted_file(4).structure
    basis = blocks.block_basis(4)
    matrix = [list(row) for row in basis.matrix]
    matrix[2][1] += Fraction(1, 7)
    with pytest.raises(StructureError, match="P\\^\\{-1\\} P is not the identity"):
        blocks.transport(s, basis._replace(matrix=tuple(map(tuple, matrix))))


@pytest.mark.parametrize("name, picked", [
    ("t4", True), ("semion", True), ("group_z4", False), ("z2_triangular", False),
    ("sweedler_h4", False), ("t5", False)])
def test_selection_rules(name, picked):
    """Twisted Z/4 and the semion are carried; trivial coassociators, a non-group
    table and Z/5, whose block table is not smaller, are not."""
    entry = _twisted_file(5) if name == "t5" else _entry(name)
    assert (_block_form(entry.structure) is not None) == picked


def test_round_trip_returns_every_tensor():
    for entry in (_twisted_file(4), builtin("semion")):
        s = entry.structure
        c = blocks.transport(s, blocks.block_basis(s.algebra.dim))
        t = c.s
        for name in ("phi", "phi_inv", "alpha", "beta", "r", "r_inv"):
            if getattr(s, name) is not None:
                assert c.back(getattr(t, name)) == getattr(s, name), name
        for name in ("coproduct", "s", "s_inv"):
            mine, theirs = getattr(s, name), getattr(t, name)
            for i in range(s.algebra.dim):
                e = s.algebra.basis_element(i)
                assert c.back(theirs(c.carry(e))) == mine(e), name
        for i in range(s.algebra.dim):
            e = s.algebra.basis_element(i)
            assert t.counit(c.carry(e)) == s.counit(e)


# -- byte-identical runs ----------------------------------------------------------

@pytest.mark.parametrize("name", ["group_z2", "group_z3", "group_z4", "group_z5", "group_z6",
                                  "semion", "z2_triangular", "t4"])
def test_forced_transport_gives_the_same_reports(monkeypatch, name):
    """z2_triangular runs without its dynamical family: an entry with one stays in the
    original basis (see the next test)."""
    entry = _entry(name)._replace(dynamical=None)
    s = entry.structure
    carried = blocks.transport(s, blocks.block_basis(s.algebra.dim))

    def reports(door):
        _set_door(monkeypatch, s, door)
        assert suites.setting(entry)[0].structure is (s if door is None else carried.s)
        return suites.run_suites(entry, suites.SUITE_NAMES, seed=0, trials=1)

    for plain, block in zip(reports(None), reports(carried)):
        assert block.ok, (block.name, block.failure_ids())
        assert _report_bytes(block) == _report_bytes(plain), block.name


def test_an_entry_with_a_family_stays_in_the_original_basis(monkeypatch):
    """``setting`` returns z2_triangular as it is, even with the door patched to carry it."""
    entry = builtin("z2_triangular")
    assert entry.dynamical is not None
    s = entry.structure
    _set_door(monkeypatch, s, blocks.transport(s, blocks.block_basis(s.algebra.dim)))
    chosen, draw = suites.setting(entry)
    assert chosen is entry
    g = s.algebra.basis_element(1)
    assert draw.carry(g) is g and draw.back(g) is g


@pytest.mark.parametrize("name", ["group_z3", "group_z4", "semion", "t4"])
def test_forced_transport_gives_the_same_values(name):
    entry = _entry(name)
    s = entry.structure
    carried = blocks.transport(s, blocks.block_basis(s.algebra.dim))
    w = s.algebra.unit_element + s.algebra.basis_element(1).scale(Fraction(1, 3))
    whats = ["drinfeld", "second-drinfeld", "gamma", "gammabar", "v"]
    if s.r is not None:
        whats += ["u", "invariants", "ac-operator"]
    field = s.algebra.field
    for what in whats:
        plain = cli._compute(s, what, 2, w)
        block = cli._compute(carried.s, what, 2, carried.carry(w))
        assert ({k: cli._encode(field, carried.back(x)) for k, x in block.items()}
                == {k: cli._encode(field, x) for k, x in plain.items()}), what


def _cli_outputs(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_structure(_entry(name)))
    outs = []
    structured = ["--format", "structured"]
    for argv in (["verify", str(path), "--suite", "all", "--trials", "1"] + structured,
                 ["compute", str(path), "v"] + structured,
                 ["compute", str(path), "drinfeld"] + structured,
                 ["twist", str(path), "--generate-seed", "4"]):
        code = cli.main(argv)
        outs.append((code, capsys.readouterr().out))
    return outs


@pytest.mark.parametrize("name", ["t4", "semion", "group_z4"])
def test_cli_bytes_with_and_without_blocks(capsys, tmp_path, monkeypatch, name):
    carried = _cli_outputs(capsys, tmp_path, name)
    _without_blocks(monkeypatch)
    assert _cli_outputs(capsys, tmp_path, name) == carried


# -- one run per request: a bundle verified in the block basis is decided there --------

def _fails_in_block_basis(monkeypatch, module, name):
    """Make ``module.name`` raise on a bundle in the block basis (basis names ``b...``)
    and work as before on any other: a defect of the block-basis path alone.  The
    suites and the driver import a layer's names when they run, so ``module`` is
    the layer that defines ``name``."""
    original = getattr(module, name)

    def mutant(h, *args):
        if h.algebra.basis_names[0].startswith("b"):
            raise ConsistencyError(f"{name} mutant: block basis")
        return original(h, *args)
    monkeypatch.setattr(module, name, mutant)


def test_a_suite_defect_in_the_block_basis_shows(monkeypatch):
    """The suite runs once, in the block basis; no rerun in the group basis hides the defect."""
    _fails_in_block_basis(monkeypatch, drinfeld, "gamma_bar_under_twist")
    (report,) = suites.run_suites(_twisted_file(4), "drinfeld", seed=0, trials=1)
    assert report.failure_ids() == ["P9@0"]
    (check,) = report.failures()
    assert check.witness == "gamma_bar_under_twist mutant: block basis"


def test_a_compute_defect_in_the_block_basis_shows(capsys, tmp_path, monkeypatch):
    path = tmp_path / "t4.json"
    path.write_text(serialize_structure(_twisted_file(4)))
    _fails_in_block_basis(monkeypatch, drinfeld, "compute_drinfeld_data")
    assert cli.main(["compute", str(path), "drinfeld"]) == 2
    assert "error: compute_drinfeld_data mutant: block basis" in capsys.readouterr().err


def test_a_dynamical_family_is_checked_in_the_original_basis(monkeypatch):
    """Load checks only that each member of a family is a twist, so the dynamical suite
    can fail on a bundle verified in the block basis; its witnesses are then those of
    the original basis, as with the blocks off."""
    s = _twisted_file(4).structure
    family = constant_family(s, random_twist(random.Random(1), s), domain=(0, 1))
    text = serialize_structure(s, name="t4", dynamical=family)

    def report():
        (rep,) = suites.run_suites(parse_structure(text), "dynamical", seed=0, trials=1)
        return rep

    carried = report()
    assert "E43@0" in carried.failure_ids()
    _without_blocks(monkeypatch)
    assert _report_bytes(report()) == _report_bytes(carried)


def test_refusal_text_is_the_group_basis_one(capsys, tmp_path, monkeypatch):
    """A file that fails in the block basis is refused with the group-basis error."""
    doc = json.loads(serialize_structure(_twisted_file(4)))
    doc["phi"][0]["scalar"] = str(2 * Fraction(doc["phi"][0]["scalar"]))
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))

    def refusal():
        code = cli.main(["verify", str(path), "--suite", "axioms"])
        err = capsys.readouterr().err
        return code, [line for line in err.splitlines() if not line.startswith("elapsed")]

    carried = refusal()
    assert carried[0] == 2 and "failed check" in "\n".join(carried[1])
    _without_blocks(monkeypatch)
    assert refusal() == carried


def test_coassociator_failure_comes_before_a_singular_antipode():
    """A file failing both its axioms and its antipode's invertibility reports the axioms."""
    doc = json.loads(serialize_structure(_twisted_file(4)))
    del doc["antipode_inv"]
    doc["antipode"]["matrix"][1] = ["0"] * 4
    doc["phi"][0]["scalar"] = str(2 * Fraction(doc["phi"][0]["scalar"]))
    with pytest.raises(StructureError, match="^quasi-bialgebra axioms fail: "):
        parse_structure(json.dumps(doc))


def test_one_block_algebra_per_load(monkeypatch):
    """Loading two twisted group_z4 files carries each once (the inverses a file leaves
    out come from its verified carried bundle) and builds the block algebra of Z/4
    once: the carried bundles share it."""
    s = builtin("group_z4").structure
    texts = [serialize_structure(_twisted_file(4)),
             serialize_structure(twist_structure(s, random_twist(random.Random(3), s)))]
    carried = []
    transport = blocks.transport
    monkeypatch.setattr(blocks, "transport",
                        lambda s, basis: carried.append(s) or transport(s, basis))
    built = functools.lru_cache(maxsize=None)(blocks._block_algebra.__wrapped__)
    monkeypatch.setattr(blocks, "_block_algebra", built)
    first, second = (parse_structure(text).structure for text in texts)
    assert carried == [first, second]
    assert built.cache_info().misses == 1
    assert _block_form(first).s.algebra is _block_form(second).s.algebra


def test_a_carried_bundle_is_freed_at_its_last_reference():
    """The carried form in a bundle's memo holds no reference back to the bundle, so
    the bundle dies at ``del`` without the cyclic collector, as does the run's
    ``Transported``, which ``suites.setting`` hands the bundle."""
    text = serialize_structure(_twisted_file(4))
    gc.disable()
    try:
        entry = parse_structure(text)
        assert _block_form(entry.structure) is not None
        chosen, draw = suites.setting(entry)
        assert draw.original is entry.structure
        ref = weakref.ref(entry.structure)
        del entry, chosen, draw
        assert ref() is None
    finally:
        gc.enable()


def test_no_cyclotomic_arithmetic_on_rational_files(monkeypatch):
    """A twisted group_z4 file is verified with no Q(zeta_n) operation: the basis stays in Q."""
    calls = []
    for attr in ("__mul__", "__add__", "inverse"):
        original = getattr(Cyclo, attr)

        def counted(self, *args, _original=original, _attr=attr):
            calls.append(_attr)
            return _original(self, *args)
        monkeypatch.setattr(Cyclo, attr, counted)
    entry = _twisted_file(4)
    carried = _block_form(entry.structure)
    assert carried is not None and carried.s.algebra.field == RATIONAL
    reports = suites.run_suites(entry, ["twist", "drinfeld"], seed=0, trials=1)
    assert all(r.ok for r in reports)
    assert calls == []


@pytest.mark.parametrize("name", ["semion", "sweedler_h4", "z2_triangular"])
def test_no_r_twisted_bundle_is_built(monkeypatch, name):
    """P6+E17 and compute_u prove that both R-twists land on H^cop, whose battery they
    share with P1'-E14: a qtriangular job twists no bundle by R or (R^T)^{-1} and stores
    one verified H^cop.  After load it runs verify_qba twice (H^cop, the primed structure)
    and verify_quasi_antipode four times (those two, the triples of R and (R^T)^{-1})."""
    e = builtin(name)
    s = suites.setting(e)[0].structure
    stores = counting_memo(s)
    twisted_by = []
    real = twists.twist_structure
    rebind(monkeypatch, real, lambda h, f, **kwargs: twisted_by.append(f.f) or real(h, f, **kwargs))
    counts = counting_verifiers(monkeypatch)
    (report,) = suites.run_suites(e, "qtriangular", seed=0, trials=1)
    assert report.ok
    assert len(twisted_by) == 1  # uni-u's one draw
    assert s.r not in twisted_by and qtriangular.r_tilde(s)[0] not in twisted_by
    assert stores_of(stores, opposite_structure) == {(): 1}
    assert [counts[v] for v in VERIFIERS] == [2, 4, 3]


@pytest.mark.parametrize("name", ["semion", "sweedler_h4", "z2_triangular"])
def test_an_all_run_verifies_the_primed_structure_once(monkeypatch, name):
    """P2 and P5 share one verified primed structure: after load, the five suites run
    verify_qba, verify_quasi_antipode and verify_rmatrix 15, 22 and 15 times."""
    e = builtin(name)
    built = []
    real = structures._verified
    monkeypatch.setattr(structures, "_verified", lambda b: built.append(b) or real(b))
    counts = counting_verifiers(monkeypatch)
    reports = suites.run_suites(e, "all", seed=0)
    assert all(r.ok for r in reports)
    primed = structures._mapped_structure(suites.setting(e)[0].structure, True)
    assert sum(b is primed for b in built) == 1
    assert [counts[v] for v in VERIFIERS] == [15, 22, 15]

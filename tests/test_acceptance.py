"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is an exact equality at zero tolerance; the randomized
criteria run 25 seeded samples per catalog entry.  Run with ``-s`` to see
the per-criterion lines as they pass.
"""

import json
import random
from fractions import Fraction

import pytest

from qhakit.antipode import antipode_from_v, check_v_universality
from qhakit.catalog import default_entries
from qhakit.cli import main as cli_main
from qhakit.drinfeld import (drinfeld_under_twist, gamma_bar_under_twist,
                             opposite_drinfeld)
from qhakit.dynamical import (check_dynamical_coproduct, check_qdqybe,
                              check_classical_dqybe, check_shifted_quasi_cocycle,
                              constant_family, dynamical_coassociator,
                              qdqybe_sides, shifted_cocycle_sides)
from qhakit.errors import StructureError
from qhakit.qtriangular import (altschuler_coste_operator, check_ssr_identity,
                                check_u_universality, compute_u,
                                opposite_by_r_vs_cop, r_tilde)
from qhakit.randgen import random_invertible_element, random_twist
from qhakit.serial import parse_structure, serialize_structure
from qhakit.structures import (QuasiAntipode, QuasiBialgebra, check_qqybe,
                               qqybe_sides, structures_equal, verify_qba,
                               verify_quasi_antipode, verify_rmatrix)
from qhakit.tensor import tensor_of
from qhakit.twists import (Twist, central_to_compatible, compatible_to_central,
                           compose_twists, is_compatible, quadratic_invariants,
                           quasi_cocycle_sides, twist_structure)

from conftest import drinfeld_data, entry, hopf, without_r

SEEDS = 25
ENTRIES = default_entries()
QT = [e for e in ENTRIES if e.structure.r is not None]


def report(num, text):
    print(f"[criterion {num}] PASS - {text}")


def test_criterion_1_axiom_suites():
    """All five entries pass every verifier; mutations localize correctly."""
    for e in ENTRIES:
        s = e.structure
        assert verify_qba(s).ok, e.name
        assert verify_quasi_antipode(s).ok, e.name
        if s.r is not None:
            assert verify_rmatrix(s).ok, e.name

    # negative control per verifier, with localization
    sem = hopf("semion")
    alg = sem.algebra
    half = Fraction(1, 2)
    p = half * alg.unit_element - half * alg.basis_element(1)
    bad_phi = alg.tensor_unit(3) + tensor_of(p, p, p).scale(2)
    with pytest.raises(StructureError) as exc:
        QuasiBialgebra(alg, sem.coproduct, sem.counit, bad_phi)
    assert exc.value.report.failure_ids() == ["pentagon"]

    z2 = hopf("z2_triangular")
    pz = half * z2.algebra.unit_element - half * z2.algebra.basis_element(1)
    bad_anti = QuasiAntipode(z2.s, pz, z2.beta, s_inv=z2.s_inv)
    rep = verify_quasi_antipode(z2, bad_anti)
    failed = set(rep.failure_ids())
    assert failed and failed <= {"Sphi", "Sphi-inv", "Sab-alpha", "eps-alpha-beta"}

    semqt = entry("semion").structure
    bad_r = semqt.algebra.tensor_unit(2)  # root of unity replaced by 1
    rep = verify_rmatrix(QuasiBialgebra(semqt.algebra, semqt.coproduct, semqt.counit,
                                        semqt.phi, semqt.phi_inv, semqt.antipode,
                                        bad_r, bad_r, verify=False))
    assert "E14.ii" in rep.failure_ids()
    report(1, "axiom suites pass on all five entries; mutations localize")


def test_criterion_2_antipode_equivalence():
    """25 seeded generators per entry round-trip exactly through the pair."""
    for e in ENTRIES:
        h = hopf(e.name)
        rng = random.Random(f"acc2:{e.name}")
        for _ in range(SEEDS):
            w = random_invertible_element(rng, h.algebra)
            # antipode_from_v verifies the constructed triple, evaluates all
            # four closed forms, checks the defining relations on every basis
            # element, and asserts the round trip returns exactly w
            antipode_from_v(h, w)
    report(2, f"{SEEDS} antipode-equivalence round trips per entry, exact")


def test_criterion_3_universality():
    """v and u are invariant under 25 seeded random twists per entry."""
    for e in ENTRIES:
        h = hopf(e.name)
        rng = random.Random(f"acc3:{e.name}")
        w = random_invertible_element(rng, h.algebra)
        alt = h.antipode.conjugated(w)
        assert verify_quasi_antipode(h, alt).ok, e.name
        for _ in range(SEEDS):
            f = random_twist(rng, h)
            twisted = twist_structure(h, f, verify=False)
            assert check_v_universality(h, alt, f, twisted), e.name
            if e.structure.r is not None:
                assert check_u_universality(e.structure, twisted), e.name
    report(3, f"v and u invariant under {SEEDS} random twists per entry")


def test_criterion_4_drinfeld_battery():
    """Expansion agreements, conjugation, transport, and 25 twisted routes."""
    for e in ENTRIES:
        h = hopf(e.name)
        # expansion equality, conjugation onto the primed coproduct, the
        # coassociator transport, the canonical-element identities, and the
        # second twist are all asserted inside
        drinfeld_data(e.name)
        opposite_drinfeld(h)
        rng = random.Random(f"acc4:{e.name}")
        for _ in range(SEEDS):
            g = random_twist(rng, h)
            tw = twist_structure(h, g, verify=False)
            gamma_bar_under_twist(h, g, tw)
            drinfeld_under_twist(h, g, tw)
    report(4, f"full transport battery with {SEEDS} twisted routes per entry")


def test_criterion_5_quasitriangular_battery():
    for e in QT:
        s = e.structure
        # closed-form agreement, conjugation to the antipode square, the
        # canonical-element relations, the cross relations, u~ = S(u^{-1}),
        # and centrality of u S(u) are asserted inside
        ops = compute_u(s)
        rep = check_ssr_identity(s)
        assert rep.ok, (e.name, rep.failure_ids())
        rep = opposite_by_r_vs_cop(s)
        assert rep.ok, e.name
        if e.name == "z2_triangular":
            assert ops.u == s.algebra.basis_element(1)  # u = g, concretely
    report(5, "operator battery exact on all quasi-triangular entries; u = g on k[Z/2]")


def test_criterion_6_quasi_cocycle_battery():
    for e in QT:
        s = e.structure
        q = s
        h = s
        rt, rt_inv = r_tilde(s)
        for label, f in {
            "RtR": s.r.transpose() * s.r,
            "QinvR": rt_inv * s.r,
            "QtR": rt.transpose() * s.r,
            "RinvQ": s.r_inv * rt,
            "RtQ": s.r.transpose() * rt,
        }.items():
            assert is_compatible(Twist(f, s.counit), q), (e.name, label)
        altschuler_coste_operator(s)

        z = h.algebra.scalar_element(Fraction(5, 3))
        c = central_to_compatible(z, q)
        assert is_compatible(c, q), e.name
        compatible_to_central(c, h)  # P8 postconditions asserted inside

        rng = random.Random(f"acc6:{e.name}")
        f = random_twist(rng, q)
        g = compose_twists(f, c)
        assert structures_equal(twist_structure(s, g, verify=False),
                                twist_structure(s, f, verify=False)), e.name
        assert is_compatible(compose_twists(f.inverse(), g), q), e.name

        one = h.algebra.unit_element
        for m in (1, 2):
            assert quadratic_invariants(s, m) * quadratic_invariants(s, -m) == one
    report(6, "compatible-twist battery and quadratic invariants exact")


def test_criterion_7_qqybe():
    for e in QT:
        assert check_qqybe(e.structure), e.name
    for name in ("semion", "sweedler_h4"):
        s = entry(name).structure
        data = drinfeld_data(name)
        r_twist = Twist(s.r, s.counit, s.r_inv, check=False)
        out = drinfeld_under_twist(s, r_twist, twist_structure(without_r(s), r_twist,
                                                               verify=False))
        assert out.f == data.f_delta.f.transpose() * (s.r_inv.transpose() * s.r_inv)
    report(7, "quasi-QYBE exact on all entries; R-twisted transport closed form exact")


def test_criterion_8_dynamical():
    # degeneration chain
    for name in ("z2_triangular", "sweedler_h4", "semion"):
        s = entry(name).structure
        q = s
        # zero-weight shifted condition == plain cocycle condition, term for
        # term, for an arbitrary twist
        f = random_twist(random.Random(f"acc8:{name}"), q)
        fam = constant_family(q, f)
        assert shifted_cocycle_sides(fam, q, 0) == quasi_cocycle_sides(f, q), name
        # zero-weight dynamical QYBE == plain quasi-QYBE of the twisted
        # structure, for a coassociator-fixing twist (R^T R always is one)
        f_qc = Twist(s.r.transpose() * s.r, s.counit)
        fam_qc = constant_family(q, f_qc)
        twisted = twist_structure(s, f_qc, verify=False)
        assert qdqybe_sides(fam_qc, s, 0) == qqybe_sides(twisted), name
        if s.phi == s.algebra.tensor_unit(3):
            assert check_qdqybe(fam, s, 0) == check_classical_dqybe(fam, s, 0), name

    z2 = entry("z2_triangular")
    dyn, t = z2.dynamical, z2.structure
    rep = check_shifted_quasi_cocycle(dyn, t)
    assert rep.ok and len(rep.checks) == len(dyn.checkable())
    for lam in dyn.checkable():
        dynamical_coassociator(dyn, t, lam)  # route equality asserted inside
        rep = check_dynamical_coproduct(dyn, t, lam)
        assert rep.ok, (lam, rep.failure_ids())
        assert check_qdqybe(dyn, t, lam), lam
    report(8, "degeneration chain, route equalities, and the grid family all exact")


def test_criterion_9_infrastructure(capsys, tmp_path):
    for e in ENTRIES:
        text = serialize_structure(e)
        back = parse_structure(text)
        assert structures_equal(back.structure, e.structure), e.name
        assert serialize_structure(back) == text, e.name

    # deterministic reports per seed
    args = ["verify", "z2_triangular", "--suite", "twist", "--seed", "9",
            "--trials", "2", "--format", "structured"]
    assert cli_main(args) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    # exit-code contract: 0 pass, 1 check failure, 2 load error
    assert cli_main(["verify", "trivial", "--suite", "axioms"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    doc = json.loads(serialize_structure(entry("semion")))
    doc.pop("dynamical", None)
    alg = entry("semion").structure.algebra
    half = Fraction(1, 2)
    p = half * alg.unit_element - half * alg.basis_element(1)
    bad_phi = alg.tensor_unit(3) + tensor_of(p, p, p).scale(2)
    doc["phi"] = [{"i": k[0], "j": k[1], "k": k[2],
                   "scalar": alg.field.format_scalar(v)}
                  for k, v in sorted(bad_phi.entries.items())]
    bad.write_text(json.dumps(doc))
    assert cli_main(["verify", str(bad)]) == 2
    capsys.readouterr()
    assert cli_main(["compute", "group_z3", "u"]) == 2
    capsys.readouterr()

    # exit 1: a loadable family (valid twists) that fails the shifted
    # cocycle checks because the coefficient table is not 1-periodic
    from qhakit.dynamical import DynamicalTwist, ShiftSystem
    z2 = entry("z2_triangular").structure
    alg2 = z2.algebra
    one, g = alg2.unit_element, alg2.basis_element(1)
    half = Fraction(1, 2)
    p0, p1 = half * one + half * g, half * one - half * g
    shift = ShiftSystem([p0, p1], [Fraction(0), Fraction(1)])
    twists = {}
    for lam, c in ((0, 2), (1, 3), (2, 5)):
        twists[Fraction(lam)] = Twist(
            alg2.tensor_unit(2) + tensor_of(p1, p1).scale(c - 1), z2.counit)
    bad_fam = DynamicalTwist(sorted(twists), twists, shift)
    failing = tmp_path / "failing_family.json"
    failing.write_text(serialize_structure(z2, name="nonsolution",
                                           dynamical=bad_fam))
    assert cli_main(["verify", str(failing), "--suite", "dynamical",
                     "--trials", "1"]) == 1
    capsys.readouterr()
    report(9, "round trips canonical; reports byte-deterministic; exit codes honored")

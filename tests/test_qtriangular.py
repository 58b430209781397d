"""Quasi-triangular operators: canonical elements, u and u~, the compatible A."""

import collections
import random
from fractions import Fraction

import pytest

from qhakit import drinfeld, qtriangular, structures, suites, twists
from qhakit.antipode import compute_v
from qhakit.catalog import builtin
from qhakit.dynamical import check_opposite_qdqybe, constant_family
from qhakit.qtriangular import (altschuler_coste_operator, canonical_r_elements,
                                check_ssr_identity, check_u_universality,
                                compute_u, opposite_by_r_vs_cop, r_tilde)
from qhakit.randgen import random_twist
from qhakit.errors import ConsistencyError
from qhakit.structures import (QuasiAntipode, Transported, _opposite,
                               opposite_structure, verify_quasi_antipode, verify_rmatrix)
from qhakit.twists import Twist, is_compatible, twist_structure, twisted_antipode

from conftest import (QT_NAMES, assert_verified, counting_memo, drinfeld_data, entry, hopf,
                      rebind, stores_of, where)


class TestCanonicalElements:
    def test_trivial(self):
        s = entry("trivial").structure
        one = s.algebra.unit_element
        assert canonical_r_elements(s) == (one, one)

    def test_z2_alpha_r_is_g(self):
        """Oracle: direct expansion of m(S (x) 1)R^{-1} with R^2 = 1 (x) 1."""
        s = entry("z2_triangular").structure
        alg = s.algebra
        assert s.r * s.r == alg.tensor_unit(2)
        alpha_r, beta_r = canonical_r_elements(s)
        g = alg.basis_element(1)
        # 1/2 (1*1 + 1*g + g*1 - g*g) = g
        expected = Fraction(1, 2) * (alg.unit_element + g + g - alg.unit_element)
        assert alpha_r == expected == g
        assert beta_r == g

    def test_semion_prop6_assertions(self):
        # asserts the R-twist reproduces the opposite structure
        canonical_r_elements(entry("semion").structure, "r")
        canonical_r_elements(entry("semion").structure, "r_tilde")

    def test_sweedler_both_matrices(self):
        canonical_r_elements(entry("sweedler_h4").structure, "r")
        canonical_r_elements(entry("sweedler_h4").structure, "r_tilde")


class TestComputeU:
    @pytest.mark.parametrize("name", QT_NAMES)
    def test_full_battery(self, name):
        # all form agreements and relations asserted internally
        compute_u(entry(name).structure)

    def test_trivial(self):
        ops = compute_u(entry("trivial").structure)
        one = entry("trivial").structure.algebra.unit_element
        assert ops.u == ops.u_tilde == one

    def test_z2_u_is_g(self):
        s = entry("z2_triangular").structure
        ops = compute_u(s)
        g = s.algebra.basis_element(1)
        assert ops.u == g
        assert ops.u_tilde == g  # S = id and g^{-1} = g

    def test_sweedler_conjugation(self):
        """u implements S^2, which negates the nilpotent generators."""
        s = entry("sweedler_h4").structure
        ops = compute_u(s)
        alg = s.algebra
        x = alg.basis_element(2)
        assert ops.u * x * ops.u_inv == -x
        assert s.s(s.s(x)) == -x

    def test_semion_u(self):
        s = entry("semion").structure
        ops = compute_u(s)
        alg = s.algebra
        zeta = alg.field.zeta
        half = Fraction(1, 2)
        expected = alg.element([half - half * zeta, half + half * zeta])
        assert ops.u == expected
        assert ops.u_tilde == s.s(ops.u_inv)

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_u_s_u_central(self, name):
        s = entry(name).structure
        ops = compute_u(s)
        prod = ops.u * s.s(ops.u)
        assert prod == s.s(ops.u) * ops.u
        assert prod.is_central()


class TestUniversality:
    def test_identity_twist(self, qt_entry):
        s = qt_entry.structure
        assert check_u_universality(s, twist_structure(s, Twist.identity(s)))

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_random_twists(self, name):
        s = entry(name).structure
        rng = random.Random(f"uni-u:{name}")
        for _ in range(5):
            assert check_u_universality(s, twist_structure(s, random_twist(rng, s),
                                                           verify=False))


class TestSSRIdentity:
    @pytest.mark.parametrize("name", QT_NAMES)
    def test_all(self, name):
        rep = check_ssr_identity(entry(name).structure)
        assert rep.ok, rep.failure_ids()


class TestAltschulerCoste:
    def test_trivial_hopf(self):
        s = entry("trivial").structure
        a = altschuler_coste_operator(s)
        assert a == s.algebra.tensor_unit(2)

    def test_z2_collapses(self):
        """Oracle: direct expansion with u = g: Delta(g)(g (x) g) = 1 (x) 1."""
        s = entry("z2_triangular").structure
        a = altschuler_coste_operator(s)
        assert a == s.algebra.tensor_unit(2)

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_compatibility(self, name):
        # compatibility of the normalized operator is asserted internally
        altschuler_coste_operator(entry(name).structure)


class TestUEvaluatedOnce:
    @pytest.mark.parametrize("name", ("semion", "sweedler_h4"))
    def test_closed_forms_evaluated_once_per_bundle(self, name, monkeypatch):
        """compute_u, the Altschuler-Coste operator, the u-origin report and the twist
        invariance check share one connecting-element evaluation per bundle and R choice."""
        s = builtin(name).structure  # a new bundle: its memo starts empty
        f = random_twist(random.Random(3), s)
        targets = []
        real = qtriangular._connecting_element

        def counting(h, other):
            targets.append(other)
            return real(h, other)

        monkeypatch.setattr(qtriangular, "_connecting_element", counting)
        compute_u(s)
        altschuler_coste_operator(s)
        assert opposite_by_r_vs_cop(s).ok
        # u from R, u~ from (R^T)^{-1}
        assert targets == [qtriangular._canonical(s, "r")[1],
                           qtriangular._canonical(s, "r_tilde")[1]]
        assert check_u_universality(s, twist_structure(s, f, verify=False))
        assert len(targets) == 4  # the twisted bundle evaluates its own


@pytest.mark.parametrize("name", QT_NAMES)
def test_each_r_triple_is_computed_once(name, monkeypatch):
    """No R-twisted bundle is built: a lone compute_u twists no bundle and computes the
    triples of R and (R^T)^{-1} once each; a qtriangular suite at seed 0 (five trials)
    twists only uni-u's bundles, and computes 2 triples for u, 5 for the invariants
    at m = 0, +-1, +-2 and 3 on each of uni-u's bundles."""
    calls = collections.Counter()
    for real in (twists.twist_structure, twists.twisted_antipode):
        rebind(monkeypatch, real, lambda *args, _real=real, **kwargs: (
            calls.update([_real.__name__]) or _real(*args, **kwargs)))
    compute_u(builtin(name).structure)
    assert [calls[f] for f in ("twist_structure", "twisted_antipode")] == [0, 2]
    calls.clear()
    (rep,) = suites.run_suites(builtin(name), "qtriangular", seed=0)
    assert rep.ok
    assert [calls[f] for f in ("twist_structure", "twisted_antipode")] == [5, 22]


class TestOppositeOnce:
    def test_opposite_computed_once_per_bundle(self):
        """P1, P1', u and u~ with both R-twist landing proofs (their triple checks among
        them) and the transposed opposite dynamical QYBE read one H^cop from the memo."""
        e = builtin("semion")
        s = e.structure
        stores = counting_memo(s)
        draw = Transported(s, s, None, None)
        assert suites.suite_axioms(e, draw, seed=0, trials=0).ok
        assert suites.suite_qtriangular(e, draw, seed=0, trials=0).ok
        assert check_opposite_qdqybe(constant_family(s, Twist.identity(s)), s, "transpose", 0)
        assert stores_of(stores, _opposite) == {(): 1}

    @pytest.mark.parametrize("name", ("semion", "sweedler_h4", "z2_triangular"))
    def test_one_verified_opposite_per_bundle(self, name, monkeypatch):
        """P1 and P1'-E14 share one verified H^cop; P4 verifies its own, without R:
        all five suites build ``opposite_structure`` twice."""
        built = []
        real = structures._opposite
        monkeypatch.setattr(structures, "_opposite", lambda h: built.append(h) or real(h))
        reports = suites.run_suites(builtin(name), "all", seed=0, trials=1)
        assert all(r.ok for r in reports)
        assert len(built) == 2
        assert built[0].r is not None and built[1].r is None

    @pytest.mark.parametrize("name", ("semion", "sweedler_h4"))
    def test_u_origin_verifies_no_bundle(self, name, monkeypatch):
        """Once u is memoized, the u-origin report checks the R triple against H^cop
        from the memo and runs no quasi-bialgebra battery: P1'-E14 verifies H^cop."""
        s = builtin(name).structure
        compute_u(s)
        verified = []
        real = structures.verify_qba
        monkeypatch.setattr(structures, "verify_qba", lambda q: verified.append(q) or real(q))
        assert opposite_by_r_vs_cop(s).ok
        assert verified == []


def _landing_mutant(monkeypatch, helper, mutate):
    """Pass each result of the twisting helper ``helper``, as ``qtriangular`` binds it,
    through ``mutate``: only the R-twisted side of the landing proof calls that binding."""
    real = getattr(qtriangular, helper)
    monkeypatch.setattr(qtriangular, helper, lambda *args: mutate(real(*args)))


def _unswapped(monkeypatch):
    _landing_mutant(monkeypatch, "_twisted_coproduct", lambda delta: delta.swapped())


def _doubled_phi(monkeypatch):
    _landing_mutant(monkeypatch, "twisted_coassociator", lambda phi: phi.scale(2))
    _doubled_phi_inv(monkeypatch)


def _doubled_phi_inv(monkeypatch):
    _landing_mutant(monkeypatch, "twisted_coassociator_inv", lambda phi_inv: phi_inv.scale(2))


@pytest.mark.parametrize("mutant, name, text", [
    (_unswapped, "sweedler_h4", "twisting by the R-matrix does not reverse the coproduct"),
    (_doubled_phi, "sweedler_h4", "twisting by the R-matrix does not reverse the coassociator"),
    (_doubled_phi, "semion", "twisting by the R-matrix does not reverse the coassociator"),
    (_doubled_phi_inv, "semion", "twisting by the R-matrix does not reverse the coassociator"),
], ids=["coproduct", "phi-sweedler_h4", "phi-semion", "phi-inv-semion"])
def test_an_r_twist_landing_mutant_fails_its_checks(monkeypatch, mutant, name, text):
    """The R-twisted parts moved off H^cop: ``canonical_r_elements`` raises the landing
    check's text, the qtriangular suite fails P6+E17 and the u battery with it, and FdR's
    structure, built only on a passed proof, raises it too."""
    mutant(monkeypatch)
    with pytest.raises(ConsistencyError) as exc:
        canonical_r_elements(builtin(name).structure)
    assert str(exc.value) == text
    failed = f"{text}; {where(exc.value)}"
    (rep,) = suites.run_suites(builtin(name), "qtriangular", seed=0, trials=1)
    assert [(c.check_id, where(c)) for c in rep.failures()] == [
        ("P6+E17", failed), ("E18+E19+E20+L1+L2", failed)]
    with pytest.raises(ConsistencyError, match=f"^{text}$"):
        qtriangular._r_landing(builtin(name).structure)


def test_a_wrong_r_tilde_triple_fails_the_u_battery(monkeypatch):
    """Mutant: alpha doubled only in the triple that twisting by (R^T)^{-1} induces, which u~
    connects to.  ``canonical_r_elements`` verifies that triple as a quasi-antipode of
    H^cop, so the u battery fails with that check's text and P6+E17, on R, passes."""
    real = qtriangular._canonical

    def mutant(t, which):
        twist, anti = real(t, which)
        if which == "r_tilde":
            anti = QuasiAntipode(anti.s, 2 * anti.alpha, anti.beta, s_inv=anti.s_inv)
        return twist, anti

    monkeypatch.setattr(qtriangular, "_canonical", mutant)
    (rep,) = suites.run_suites(builtin("sweedler_h4"), "qtriangular", seed=0, trials=1)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [
        ("E18+E19+E20+L1+L2", "alternative quasi-antipode fails: Sphi, Sphi-inv, eps-alpha-beta")]


class TestUOrigin:
    @pytest.mark.parametrize("name", QT_NAMES)
    def test_u_equals_connecting_operator(self, name):
        rep = opposite_by_r_vs_cop(entry(name).structure)
        assert rep.ok, rep.failure_ids()

    def test_a_wrong_r_triple_is_refused(self, monkeypatch):
        """Mutant: an R-twisted triple with alpha_R doubled fails its check on H^cop, which
        ``u-as-v`` runs before u, and the report records it instead of raising."""
        s = builtin("sweedler_h4").structure  # a new bundle: no R-twist cached yet
        real = qtriangular.twisted_antipode

        def doubled(h, f):
            anti = real(h, f)
            return QuasiAntipode(anti.s, 2 * anti.alpha, anti.beta, s_inv=anti.s_inv)

        monkeypatch.setattr(qtriangular, "twisted_antipode", doubled)
        rep = opposite_by_r_vs_cop(s)
        assert [(c.check_id, c.witness) for c in rep.failures()] == [
            ("u-as-v", "alternative quasi-antipode fails: Sphi, Sphi-inv, eps-alpha-beta")]

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_fdr_reads_the_verified_triple(self, name, monkeypatch):
        """FdR twists by ``_canonical``'s R-twist onto H^cop's coproduct and coassociator
        with the very triple object ``canonical_r_elements`` verified, after that proof."""
        e = builtin(name)
        s = suites.setting(e)[0].structure
        seen = []
        real = drinfeld.drinfeld_under_twist

        def recording(h, g, twisted):
            proved = (canonical_r_elements.__wrapped__, "r") in h._memo
            seen.append((h, g, twisted, proved))
            return real(h, g, twisted)

        monkeypatch.setattr(drinfeld, "drinfeld_under_twist", recording)
        (rep,) = suites.run_suites(e, "qtriangular", seed=0, trials=1)
        assert rep.ok
        (h, g, landed, proved), = seen
        twist, anti = qtriangular._canonical(s, "r")
        cop = _opposite(s)
        assert h is s and g is twist and proved
        assert landed.antipode is anti and landed.r is None
        assert all(a is b for a, b in zip((landed.coproduct, landed.phi, landed.phi_inv),
                                          (cop.coproduct, cop.phi, cop.phi_inv)))

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_u_tilde_is_v_on_the_opposite_pair(self, name):
        """u~ connects the native triple of H^cop to the one twisting by (R^T)^{-1} induces."""
        s = entry(name).structure
        rt, rt_inv = r_tilde(s)
        anti = twisted_antipode(s, Twist(rt, s.counit, rt_inv))
        op = opposite_structure(s.without_r())
        assert verify_quasi_antipode(op, anti).ok
        assert compute_u(s).u_tilde == compute_v(op, anti)


class TestRTilde:
    @pytest.mark.parametrize("name", QT_NAMES)
    def test_r_tilde_is_rmatrix(self, name):
        s = entry(name).structure
        rt, rt_inv = r_tilde(s)
        assert verify_rmatrix(s, rt, rt_inv).ok

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_opposite_r_matrix(self, name):
        s = entry(name).structure
        assert_verified(opposite_structure(s))  # includes R^T as its R-matrix

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_compatible_combinations(self, name):
        s = entry(name).structure
        q = s
        rt, rt_inv = r_tilde(s)
        for label, f in {
            "QinvR": rt_inv * s.r,
            "QtR": rt.transpose() * s.r,
            "RinvQ": s.r_inv * rt,
            "RtQ": s.r.transpose() * rt,
            "RtR": s.r.transpose() * s.r,
        }.items():
            assert is_compatible(Twist(f, s.counit), q), (name, label)


class TestRibbonFormObservation:
    """Recorded observation, not a required identity: on every catalog entry
    the normalized compatible operator A happens to have the central form
    (v (x) v) Delta(v^{-1}) generated by an invertible central element."""

    def test_hopf_entries_have_trivial_a(self):
        for name in ("trivial", "z2_triangular", "sweedler_h4"):
            s = entry(name).structure
            a = altschuler_coste_operator(s)
            assert a == s.algebra.tensor_unit(2)  # v = 1 realizes the form

    def test_semion_a_generated_by_u(self):
        from qhakit.twists import central_to_compatible
        s = entry("semion").structure
        alg = s.algebra
        a = altschuler_coste_operator(s)
        eps_u = s.counit.on_leg(a, 1).entries[(0,)]
        normalized = a.scale(alg.field.inv(eps_u))
        u = compute_u(s).u  # central here (commutative algebra)
        assert central_to_compatible(u, s).f == normalized


class TestFdeltaUnderR:
    @pytest.mark.parametrize("name", ("semion", "sweedler_h4"))
    def test_twisted_drinfeld_closed_form(self, name):
        """F_delta twisted by the R-matrix equals F_delta^T (R R^T)^{-1}."""
        from qhakit.drinfeld import drinfeld_under_twist
        from qhakit.twists import twist_structure
        s = entry(name).structure
        data = drinfeld_data(name)
        r_twist = Twist(s.r, s.counit, s.r_inv, check=False)
        out = drinfeld_under_twist(s, r_twist, twist_structure(s.without_r(), r_twist,
                                                               verify=False))
        rrt_inv = s.r_inv.transpose() * s.r_inv
        assert out.f == data.f_delta.f.transpose() * rrt_inv

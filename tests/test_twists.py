"""The twist engine: twisted structures, composition, quasi-cocycles, compatibility."""

import collections
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qhakit import DEFAULT_TRIALS, antipode, suites, twists
from qhakit.catalog import builtin
from qhakit.antipode import compute_v
from qhakit.errors import ConsistencyError, TwistError
from qhakit.randgen import random_twist
from qhakit.serial import parse_structure, parse_twist, serialize_structure
from qhakit.structures import (QuasiAntipode, _connecting_element, structures_equal,
                               verify_quasi_antipode)
from qhakit.tensor import tensor_of
from qhakit.twists import (Twist, central_to_compatible, compatible_to_central,
                           compose_twists, is_compatible, is_quasi_cocycle,
                           quadratic_invariants, twist_structure, twisted_antipode,
                           twisted_coassociator)

from conftest import ENTRY_NAMES, assert_verified, counting_memo, entry, hopf, rebind, stores_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from harness import group_twist  # noqa: E402


def semion_p():
    alg = hopf("semion").algebra
    return Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)


class TestTwistValidation:
    def test_counit_property_enforced(self):
        h = hopf("z2_triangular")
        alg = h.algebra
        g = alg.basis_element(1)
        with pytest.raises(TwistError, match="counit"):
            Twist(tensor_of(g, g), h.counit)

    def test_non_invertible_rejected(self):
        h = hopf("semion")
        p = semion_p()
        f = h.algebra.tensor_unit(2) - tensor_of(p, p)  # counital but singular
        with pytest.raises(TwistError, match="invertible"):
            Twist(f, h.counit)


class TestTwistStructure:
    def test_identity_twist_fixes_everything(self, any_entry):
        s = any_entry.structure
        ts = twist_structure(s, Twist.identity(s))
        assert structures_equal(ts, s)

    def test_untwist_roundtrip(self, any_entry):
        s = any_entry.structure
        rng = random.Random(21)
        f = random_twist(rng, s)
        ts = twist_structure(s, f)
        assert_verified(ts)
        assert structures_equal(twist_structure(ts, f.inverse()), s)

    def test_twisting_preserves_verification(self, any_entry):
        s = any_entry.structure
        rng = random.Random(33)
        for _ in range(3):
            f = random_twist(rng, s)
            assert_verified(twist_structure(s, f))

    def test_semion_projector_twist(self):
        """1 + (c-1) p(x)p is a twist for any invertible c; its twist verifies."""
        s = entry("semion").structure
        p = semion_p()
        for c in (Fraction(3), Fraction(-1, 2), s.algebra.field.zeta):
            f = Twist(s.algebra.tensor_unit(2) + tensor_of(p, p).scale(c - 1), s.counit)
            assert_verified(twist_structure(s, f))


class TestComposition:
    def test_compose_with_inverse_is_identity(self, any_entry):
        q = hopf(any_entry.name)
        f = random_twist(random.Random(5), q)
        assert compose_twists(f, f.inverse()) == Twist.identity(q)

    def test_identity_neutral(self, any_entry):
        q = hopf(any_entry.name)
        g = random_twist(random.Random(6), q)
        assert compose_twists(Twist.identity(q), g) == g

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_group_law_on_structures(self, name):
        s = entry(name).structure
        rng = random.Random(17)
        f, g = random_twist(rng, s), random_twist(rng, s)
        assert structures_equal(
            twist_structure(s, compose_twists(f, g)),
            twist_structure(twist_structure(s, g), f))


class TestPower:
    @staticmethod
    def r_twist(s):
        return Twist(s.r, s.counit, s.r_inv)

    @pytest.mark.parametrize("name", ("z2_triangular", "sweedler_h4", "semion"))
    def test_matches_repeated_composition(self, name):
        s = entry(name).structure
        f = self.r_twist(s)
        for m in range(-4, 5):
            step = f if m >= 0 else f.inverse()
            expected = Twist.identity(s)
            for _ in range(abs(m)):
                expected = compose_twists(expected, step)
            got = f.power(m)
            assert (got.f, got.f_inv) == (expected.f, expected.f_inv), m

    def test_large_power_composes_logarithmically(self, monkeypatch):
        s = entry("semion").structure
        f = self.r_twist(s)
        m = 10 ** 6
        bound = 2 * m.bit_length()
        calls = []
        real = twists.compose_twists

        def counting(a, b):
            calls.append(1)
            assert len(calls) <= bound, "power composes more than 2 bit_length(m) times"
            return real(a, b)

        monkeypatch.setattr(twists, "compose_twists", counting)
        for power in (m, -m):
            calls.clear()
            f.power(power)


class TestQuasiCocycle:
    def test_identity_twist(self, any_entry):
        q = hopf(any_entry.name)
        assert is_quasi_cocycle(Twist.identity(q), q)

    def test_equivalence_with_fixed_coassociator(self, any_entry):
        q = hopf(any_entry.name)
        rng = random.Random(8)
        for _ in range(4):
            f = random_twist(rng, q)
            assert is_quasi_cocycle(f, q) == (
                twisted_coassociator(q, f.f, f.f_inv) == q.phi)

    def test_semion_rtr(self):
        s = entry("semion").structure
        q = s
        rtr = Twist(s.r.transpose() * s.r, s.counit)
        assert is_quasi_cocycle(rtr, q)
        assert is_compatible(rtr, q)

    def test_semion_r_itself(self):
        """The oracle decides: twisting by R gives the opposite coassociator,
        which for the symmetric self-inverse semion coassociator equals the
        original, so R is itself a quasi-cocycle here."""
        s = entry("semion").structure
        q = s
        r_twist = Twist(s.r, s.counit, s.r_inv, check=False)
        assert twisted_coassociator(q, s.r, s.r_inv) == q.phi_inv.perm((3, 2, 1))
        assert q.phi_inv.perm((3, 2, 1)) == q.phi
        assert is_quasi_cocycle(r_twist, q)

    def test_noncocycle_twist_exists(self):
        """Negative control: a nilpotent-supported twist on the four-dimensional
        entry that moves the coassociator."""
        h = hopf("sweedler_h4")
        alg = h.algebra
        x, gx = alg.basis_element(2), alg.basis_element(3)
        f = Twist(alg.tensor_unit(2) + tensor_of(x, gx), h.counit)
        assert not is_quasi_cocycle(f, h)
        assert not is_compatible(f, h)


class TestCompatible:
    def test_identity_compatible(self, any_entry):
        q = hopf(any_entry.name)
        assert is_compatible(Twist.identity(q), q)

    def test_central_construction(self, any_entry):
        h = hopf(any_entry.name)
        q = h
        z = h.algebra.scalar_element(Fraction(5, 2))
        c = central_to_compatible(z, q)
        assert is_compatible(c, q)

    def test_unit_gives_identity_twist(self, any_entry):
        h = hopf(any_entry.name)
        c = central_to_compatible(h.algebra.unit_element, h)
        assert c == Twist.identity(h)

    def test_grouplike_collapse(self):
        h = hopf("z2_triangular")
        g = h.algebra.basis_element(1)
        c = central_to_compatible(g, h)
        assert c == Twist.identity(h)  # (g (x) g) Delta(g) = 1 (x) 1

    def test_semion_one_plus_p(self):
        h = hopf("semion")
        z = h.algebra.unit_element + semion_p()
        c = central_to_compatible(z, h)
        assert is_compatible(c, h)
        # compatible_to_central asserts the defining relations internally
        back = compatible_to_central(c, h)
        assert back.is_central() and back.is_invertible()

    def test_non_central_rejected(self):
        h = hopf("sweedler_h4")
        with pytest.raises(TwistError, match="central"):
            central_to_compatible(h.algebra.basis_element(1), h)


class TestCompatibleToCentral:
    def test_identity_gives_one(self, any_entry):
        """The zigzag of the coassociator collapses the identity twist to 1."""
        h = hopf(any_entry.name)
        z = compatible_to_central(Twist.identity(h), h)
        assert z == h.algebra.unit_element

    def test_roundtrip_defining_relations(self, any_entry):
        h = hopf(any_entry.name)
        z0 = h.algebra.scalar_element(Fraction(3))
        c = central_to_compatible(z0, h)
        z = compatible_to_central(c, h)  # raises unless all relations hold
        assert z.is_central()

    def test_central_element_is_v(self, any_entry):
        """z connects (S, alpha, beta) to (S, alpha_C, beta_C): it is compute_v of that pair."""
        h = hopf(any_entry.name)
        alg = h.algebra
        z = 2 * alg.unit_element + alg.basis_element(alg.dim - 1)
        if not (z.is_central() and z.is_invertible() and h.counit(z)):
            z = alg.scalar_element(3)
        c = central_to_compatible(z, h)
        alt = twisted_antipode(h, c)
        assert verify_quasi_antipode(h, alt).ok  # (S, alpha_C, beta_C)
        assert compatible_to_central(c, h) == compute_v(h, alt)

    def test_a_non_central_candidate_is_refused_by_the_routine(self):
        """Centrality is not checked apart: the routine's S~-conjugation scan, with S~ = S,
        refuses a candidate z that does not commute with S(H) = H."""
        h = hopf("sweedler_h4")
        alg, anti = h.algebra, h.antipode
        w = alg.unit_element + alg.basis_element(2)  # 1 + x, invertible, not central
        other = QuasiAntipode(anti.s, w * anti.alpha, anti.beta * w.inverse(), s_inv=anti.s_inv)
        with pytest.raises(ConsistencyError,
                           match="^S~ is not conjugation by v on basis element g$"):
            _connecting_element(h, other)

    def test_a_wrong_closed_form_inverse_names_its_first_difference(self, monkeypatch):
        """Mutant: the connecting element's closed-form inverse doubled.  The route check
        raises ConsistencyError with the first entry where the two inverses part."""
        h = hopf("sweedler_h4")
        real = twists._connecting_element

        def doubled_inverse(*args):
            z, z_inv = real(*args)
            return z, z_inv.scale(2)

        monkeypatch.setattr(twists, "_connecting_element", doubled_inverse)
        with pytest.raises(ConsistencyError) as exc:
            compatible_to_central(Twist.identity(h), h)
        assert (str(exc.value), exc.value.witness) == (
            "closed-form inverse disagrees with linear-solve inverse", "at (0,): 2 != 1")

    def test_incompatible_rejected(self):
        h = hopf("sweedler_h4")
        alg = h.algebra
        x, gx = alg.basis_element(2), alg.basis_element(3)
        f = Twist(alg.tensor_unit(2) + tensor_of(x, gx), h.counit)
        with pytest.raises(TwistError, match="not compatible"):
            compatible_to_central(f, h)


class TestUniquenessOfTwistedStructures:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_both_directions(self, name):
        """Twists give equal structures exactly when they differ by a compatible one."""
        s = entry(name).structure
        q = s
        h = hopf(name)
        rng = random.Random(12)
        f = random_twist(rng, q)
        z = h.algebra.scalar_element(2)
        c = central_to_compatible(z, q)
        g = compose_twists(f, c)
        # forward: G = FC gives the same structure as F
        assert structures_equal(twist_structure(s, g, verify=False),
                                twist_structure(s, f, verify=False))
        # reverse: equal structures force a compatible residual
        residual = compose_twists(f.inverse(), g)
        assert is_compatible(residual, q)
        # and a genuinely different twist does not yield an equal structure
        other = random_twist(rng, q)
        if not is_compatible(compose_twists(f.inverse(), other), q):
            assert not structures_equal(twist_structure(s, other, verify=False),
                                        twist_structure(s, f, verify=False))

    def test_twisted_structures_are_not_cached(self):
        """The scalar-built compatible C is exactly 1 (x) 1, so FC equals F as a twist;
        twisting by it must still build a new structure, or P7 would compare one
        object with itself."""
        s = entry("sweedler_h4").structure
        f = random_twist(random.Random(12), s)
        c = central_to_compatible(s.algebra.scalar_element(2), s)
        g = compose_twists(f, c)
        assert g == f
        assert twist_structure(s, g) is not twist_structure(s, f)

    @pytest.mark.parametrize("name", ["group_z3", "semion"])
    def test_a_central_element_moves_the_canonical_elements(self, name):
        """For a non-scalar central z, C = central_to_compatible(z) is not 1 (x) 1:
        twisting by FC keeps the coproduct, the coassociator and R of twisting by F,
        and moves alpha and beta by zeta = eps(z)^2 (z S(z))^{-1}, which is the
        central element compatible_to_central recovers from C."""
        s = entry(name).structure
        h = hopf(name)
        f = random_twist(random.Random(5), s)
        z = s.algebra.unit_element + s.algebra.basis_element(1).scale(2)   # 1 + 2g
        c = central_to_compatible(z, s)
        eps_z = s.counit(z)
        zeta = (z * h.s(z)).inverse().scale(eps_z * eps_z)
        assert c.f != s.algebra.tensor_unit(2) and zeta != s.algebra.unit_element
        by_f = twist_structure(s, f, verify=False)
        by_fc = twist_structure(s, compose_twists(f, c), verify=False)
        assert not structures_equal(by_fc, by_f)
        assert (by_fc.coproduct, by_fc.phi, by_fc.r) == (by_f.coproduct, by_f.phi, by_f.r)
        assert by_fc.alpha == zeta * by_f.alpha and by_fc.beta * zeta == by_f.beta
        assert compatible_to_central(c, h) == zeta


def _dense_twisted_z4():
    """group_z4 twisted by the dense workload's twist (seed 0) and loaded from its file."""
    s = builtin("group_z4").structure
    g = parse_twist(json.dumps(group_twist(4, random.Random(0))), s)
    return parse_structure(serialize_structure(twist_structure(s, g), name="t4"))


@pytest.mark.parametrize("name, seed", [("group_z3", 0), ("semion", 0), ("t4", 0),
                                        ("z2_triangular", 1)])
def test_an_identity_compatible_twist_fails_p7_and_p8(monkeypatch, name, seed):
    """The twist suite's C comes from a random central z, so it is not 1 (x) 1 at
    trial 0 on these entries (z2_triangular's five draws at seed 0 are all multiples
    of 1 or of g, whose C is 1 (x) 1).  A central_to_compatible that returns the
    identity twist then fails P7.fwd and P8, and only those."""
    e = _dense_twisted_z4() if name == "t4" else builtin(name)
    original, built = twists.central_to_compatible, []

    def spy(z, q):
        c = original(z, q)
        built.append(c.f != q.algebra.tensor_unit(2))
        return c

    monkeypatch.setattr(twists, "central_to_compatible", spy)
    (rep,) = suites.run_suites(e, "twist", seed=seed, trials=1)
    assert rep.ok and built == [True]
    monkeypatch.setattr(twists, "central_to_compatible", lambda z, q: Twist.identity(q))
    (rep,) = suites.run_suites(e, "twist", seed=seed, trials=1)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [
        ("P7.fwd@0", "twisting by F and by FC differ"),
        ("P8@0", "the central element of C is not eps(z)^2 (z S(z))^{-1}")]


@pytest.mark.parametrize("name", ENTRY_NAMES + ("t4",))
def test_each_bundle_is_twisted_once_by_each_twist(monkeypatch, name):
    """All five suites twist no bundle twice by one twist, and ``uni-v`` reads the bundle
    ``E6.verify`` built and verified.  A bundle and its copy without R share every part
    twisting reads, so a bundle is its coproduct and coassociator.  Each bundle and
    twist is kept, so no ``id`` is reused."""
    e = _dense_twisted_z4() if name == "t4" else builtin(name)
    real_twist, real_v = twists.twist_structure, antipode.check_v_universality
    calls, uni_v = [], []

    def twisting(h, f, verify=True):
        out = real_twist(h, f, verify)
        calls.append((h, f, verify, out))
        return out

    def recording(*args):
        uni_v.append(args)
        return real_v(*args)

    rebind(monkeypatch, real_twist, twisting)
    rebind(monkeypatch, real_v, recording)
    assert all(rep.ok for rep in suites.run_suites(e, "all", seed=0))
    twisted = collections.Counter((id(h.coproduct), id(h.phi), id(f)) for h, f, _, _ in calls)
    assert sum(n - 1 for n in twisted.values()) == 0
    verified = {id(f): out for _, f, verify, out in calls if verify}
    assert len(uni_v) == DEFAULT_TRIALS
    assert all(bundle is verified[id(f)] for _, _, f, bundle in uni_v)


class TestQuadraticInvariants:
    def test_m_zero(self, qt_entry):
        s = qt_entry.structure
        assert quadratic_invariants(s, 0) == s.algebra.unit_element

    def test_semion_first_invariant(self):
        s = entry("semion").structure
        z1 = quadratic_invariants(s, 1)
        assert z1 == s.algebra.basis_element(1)  # the grouplike generator
        assert z1.is_central() and z1.is_invertible()

    def test_opposite_powers_invert(self, qt_entry):
        s = qt_entry.structure
        one = s.algebra.unit_element
        for m in (1, 2):
            assert quadratic_invariants(s, m) * quadratic_invariants(s, -m) == one

    def test_computed_once_per_m(self):
        """The qtriangular suite's P8 checks compute each m = 0, +-1, +-2 once."""
        qt, draw = suites.setting(builtin("semion"))
        stores = counting_memo(qt.structure)
        suites.suite_qtriangular(qt, draw, seed=0, trials=1)
        assert stores_of(stores, quadratic_invariants) == {(m,): 1 for m in (0, 1, -1, 2, -2)}

    def test_alpha_roundtrip_under_inverse_twist(self, qt_entry):
        """Twisting the canonical elements by F then F^{-1} restores them."""
        from qhakit.twists import twisted_alpha, twisted_beta
        h = qt_entry.structure
        rng = random.Random(14)
        f = random_twist(rng, h)
        tw = twist_structure(h, f, verify=False)
        assert twisted_alpha(tw, f.inverse()) == h.alpha
        assert twisted_beta(tw, f.inverse()) == h.beta

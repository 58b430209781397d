"""The Drinfeld twist machinery and its behavior under arbitrary twists."""

import functools
import json
import random
import sys
from pathlib import Path

import pytest

from qhakit import drinfeld, suites
from qhakit.catalog import builtin
from qhakit.drinfeld import (compute_drinfeld_data, compute_drinfeld_twist,
                             compute_gamma, compute_gamma_bar,
                             drinfeld_under_twist, gamma_bar_under_twist,
                             opposite_drinfeld)
from qhakit.errors import ConsistencyError
from qhakit.randgen import random_twist
from qhakit.serial import parse_structure, parse_twist, serialize_structure
from qhakit.structures import (QuasiBialgebra, _block_form, opposite_structure,
                               primed_structure, zero_structure)
from qhakit.tensor import tensor_of
from qhakit.twists import Twist, twist_structure

from conftest import ENTRY_NAMES, drinfeld_data, entry, hopf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from harness import group_twist  # noqa: E402


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
        assert gamma != tensor_of(h.alpha, h.alpha)  # gamma = alpha (x) alpha when Phi = 1
        # the intertwining identity was already asserted inside compute_gamma;
        # cross-check the defining contraction once more, densely
        delta = h.coproduct
        w = h.phi_inv.embed((1, 2, 3), 4) * delta.on_leg(h.phi, 1)
        alg = h.algebra
        acc = alg.tensor_zero(2)
        for (a, b, c, d), v in w.entries.items():
            left = h.s.col(b) * h.alpha * alg.basis_element(c)
            right = h.s.col(a) * h.alpha * alg.basis_element(d)
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


# -- the closed forms against the per-entry sums they factor ---------------------

@functools.lru_cache(maxsize=None)
def _oracle_bundle(name):
    """A built entry, or ``t<n>``: group_z<n> twisted by the dense workload's twist and
    loaded from its file; t4 is taken into the block basis, t5 stays in the group basis."""
    if not name.startswith("t"):
        return hopf(name)
    n = int(name[1:])
    s = builtin(f"group_z{n}").structure
    g = parse_twist(json.dumps(group_twist(n, random.Random(0))), s)
    h = parse_structure(serialize_structure(twist_structure(s, g), name=name)).structure
    carried = _block_form(h)
    assert (carried is not None) == (n == 4)
    return h if carried is None else carried.s


def _entry_sum(t, term):
    """sum_I c_I term(*I) over the entries of ``t``, one arity-2 term per entry."""
    acc = t.algebra.tensor_zero(2)
    for key, c in t.entries.items():
        acc = acc + term(*key).scale(c)
    return acc


ORACLE_BUNDLES = ("semion", "sweedler_h4", "t4", "t5")


class TestClosedFormOracle:
    @pytest.mark.parametrize("name", ORACLE_BUNDLES)
    def test_drinfeld_twist(self, name):
        """All four closed forms of F_delta and F_delta^-1, summed entry by entry."""
        h = _oracle_bundle(name)
        e, s, delta = h.algebra.basis_element, h.s, h.coproduct
        gamma, gamma_bar = compute_gamma(h), compute_gamma_bar(h)

        def sdt(i):   # (S (x) S) Delta^T(e_i)
            return s.map_tensor(h.coproduct_t.col(i))

        def dprime(a):   # the primed coproduct (S (x) S) Delta^T(S^-1(a))
            return s.map_tensor(h.coproduct_t(h.s_inv(a)))

        f = _entry_sum(h.phi, lambda i1, i2, i3:
                       sdt(i1) * gamma * delta(e(i2) * h.beta * s(e(i3))))
        f_alt = _entry_sum(h.phi_inv, lambda i1, i2, i3:
                           dprime(e(i1) * h.beta * s(e(i2))) * gamma * delta.col(i3))
        f_inv = _entry_sum(h.phi_inv, lambda i1, i2, i3:
                           delta.col(i1) * gamma_bar * dprime(s(e(i2)) * h.alpha * e(i3)))
        f_inv_alt = _entry_sum(h.phi, lambda i1, i2, i3:
                               delta(s(e(i1)) * h.alpha * e(i2)) * gamma_bar * sdt(i3))
        twist = compute_drinfeld_twist(h)
        assert f == f_alt == twist.f
        assert f_inv == f_inv_alt == twist.f_inv

    @pytest.mark.parametrize("name", ORACLE_BUNDLES)
    def test_gamma_bar_under_twist(self, name):
        """sum g_ab g Delta(e_a) gamma-bar (S (x) S)(g^T Delta^T(e_b)), entry by entry."""
        h = _oracle_bundle(name)
        g = random_twist(random.Random(f"oracle:{name}"), h)
        gamma_bar, gt = compute_gamma_bar(h), g.f.transpose()
        closed = _entry_sum(g.f, lambda a, b: g.f * h.coproduct.col(a) * gamma_bar
                            * h.s.map_tensor(gt * h.coproduct_t.col(b)))
        assert closed == gamma_bar_under_twist(h, g, twist_structure(h, g, verify=False))


# -- route mutants: one route of a closed-form check changed -----------------------

_PAIRED = drinfeld._paired


def _double_nth(monkeypatch, caller, n):
    """Double the n-th result of the closed-form helper among its calls from ``caller``."""
    calls = []

    def mutant(t, left, right):
        out = _PAIRED(t, left, right)
        if sys._getframe(1).f_code.co_name == caller:
            calls.append(caller)
            if len(calls) == n:
                return out.scale(2)
        return out

    monkeypatch.setattr(drinfeld, "_paired", mutant)


def _twisted_gamma_bar(h):
    g = random_twist(random.Random(0), h)
    return gamma_bar_under_twist(h, g, twist_structure(h, g))


@pytest.mark.parametrize("caller, n, run, check, text", [
    ("compute_drinfeld_twist", 2, compute_drinfeld_twist, "E9+E10+E11+P2+P3",
     "the two closed forms of the Drinfeld twist disagree"),
    ("compute_drinfeld_twist", 4, compute_drinfeld_twist, "E9+E10+E11+P2+P3",
     "the two closed forms of the inverse Drinfeld twist disagree"),
    ("gamma_bar_under_twist", 1, _twisted_gamma_bar, "P9@0",
     "twisted gamma-bar closed form disagrees with recomputation"),
], ids=["f_alt", "f_inv_alt", "twisted-gamma-bar"])
def test_a_route_mutant_fails_its_check(monkeypatch, caller, n, run, check, text):
    """F_alt, F_inv_alt or the twisted gamma-bar closed form doubled: the public call
    raises the check's text, and the drinfeld suite fails that check alone."""
    _double_nth(monkeypatch, caller, n)
    with pytest.raises(ConsistencyError) as exc:
        run(builtin("semion").structure)
    assert str(exc.value) == text
    _double_nth(monkeypatch, caller, n)
    (rep,) = suites.run_suites(builtin("semion"), "drinfeld", seed=0, trials=1)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [(check, text)]

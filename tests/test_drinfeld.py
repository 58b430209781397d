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
                             compute_gamma, compute_gamma_bar, compute_second_drinfeld,
                             drinfeld_under_twist, gamma_bar_under_twist,
                             opposite_drinfeld)
from qhakit.dynamical import check_opposite_qdqybe, constant_family
from qhakit.errors import ConsistencyError
from qhakit.randgen import random_twist
from qhakit.serial import parse_structure, parse_twist, serialize_structure
from qhakit.structures import (QuasiAntipode, QuasiBialgebra, _block_form, _mapped_structure,
                               opposite_structure, primed_structure, zero_structure)
from qhakit.tensor import LinearMap, tensor_of
from qhakit.twists import Twist, central_to_compatible, twist_structure

from conftest import (ENTRY_NAMES, QT_NAMES, counting_memo, drinfeld_data, entry, hopf, rebind,
                      stores_of, where, without_r)

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

    def test_mapped_structure_computed_once(self):
        """F_delta, F_0, the verified primed and zero structures (P2, P2') and the three
        opposite dynamical QYBEs read one primed and one zero bundle from the memo."""
        h = builtin("semion").structure
        stores = counting_memo(h)
        compute_drinfeld_data(h)
        primed_structure(h), zero_structure(h)
        family = constant_family(h, Twist.identity(h))
        for variant in ("primed", "zero", "transpose"):
            check_opposite_qdqybe(family, h, variant, 0)
        assert stores_of(stores, _mapped_structure) == {(True,): 1, (False,): 1}

    @pytest.mark.parametrize("derive", (
        opposite_structure, primed_structure, zero_structure,
        without_r, lambda h: twist_structure(h, Twist.identity(h))))
    def test_derived_bundle_computes_its_own(self, derive):
        h = hopf("semion")
        f_delta = compute_drinfeld_twist(h)
        assert compute_drinfeld_twist(derive(h)) is not f_delta

    @pytest.mark.parametrize("name", QT_NAMES)
    def test_one_drinfeld_computation_per_bundle_in_a_full_run(self, name, monkeypatch):
        """A ``--suite all`` run computes the Drinfeld data of the bundle it runs on once:
        the drinfeld suite reads that bundle itself, and the qtriangular suite's E16,
        FdR and E24AC find the data in its memo.  Any bundle on the same coproduct, such
        as a copy without R, would count as that bundle here."""
        e = builtin(name)
        run = suites.setting(e)[0].structure
        key, computed = (compute_drinfeld_data.__wrapped__,), []

        def counted(h):
            if h.coproduct is run.coproduct and key not in h._memo:
                computed.append(h)
            return compute_drinfeld_data(h)
        rebind(monkeypatch, compute_drinfeld_data, counted)
        assert all(rep.ok for rep in suites.run_suites(e, "all", seed=0, trials=1))
        assert computed == [run]


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


def _change_calls(monkeypatch, caller, change):
    """Replace the k-th result ``out`` of the closed-form helper among its calls from
    ``caller`` (k counted from 1) by ``change(k, out)``."""
    calls = []

    def mutant(t, left, right):
        out = _PAIRED(t, left, right)
        if sys._getframe(1).f_code.co_name == caller:
            calls.append(caller)
            return change(len(calls), out)
        return out

    monkeypatch.setattr(drinfeld, "_paired", mutant)


def _double_nth(monkeypatch, caller, n):
    """Double the n-th result of the closed-form helper among its calls from ``caller``."""
    _change_calls(monkeypatch, caller, lambda k, out: out.scale(2) if k == n else out)


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
    assert [(c.check_id, where(c)) for c in rep.failures()] == [
        (check, f"{text}; {where(exc.value)}")]


def _with(b, **parts):
    """The bundle ``b`` with the named parts replaced, unverified."""
    kept = dict(coproduct=b.coproduct, phi=b.phi, phi_inv=b.phi_inv, antipode=b.antipode,
                r=b.r, r_inv=b.r_inv)
    return QuasiBialgebra(b.algebra, counit=b.counit, verify=False, **{**kept, **parts})


def _double_column(b):
    """The coproduct doubled on basis element 1 only."""
    cols = [c.scale(2) if i == 1 else c for i, c in enumerate(b.coproduct.columns)]
    return _with(b, coproduct=LinearMap(b.algebra, cols))


def _double_phi(b):
    return _with(b, phi=b.phi.scale(2))


def _double_alpha(b):
    return _with(b, antipode=QuasiAntipode(b.s, 2 * b.alpha, b.beta, s_inv=b.s_inv))


_MAPPED, _GAMMA = drinfeld._mapped_structure, drinfeld.compute_gamma
F_DELTA, F_ZERO = "compute_drinfeld_twist", "compute_second_drinfeld"


def _mutate_mapped(monkeypatch, caller, change):
    """Hand ``caller`` the mapped (primed or zero) bundle changed by ``change``."""
    def mutant(h, primed):
        out = _MAPPED(h, primed)
        return change(out) if sys._getframe(1).f_code.co_name == caller else out

    monkeypatch.setattr(drinfeld, "_mapped_structure", mutant)


def _compatible():
    """C = (z (x) z) Delta(z^{-1}) / eps(z) on z2_triangular, z = 2 + g: a compatible
    twist other than 1, so twisting by F_delta C moves no coproduct or coassociator."""
    h = builtin("z2_triangular").structure
    alg = h.algebra
    return central_to_compatible(alg.unit_element.scale(2) + alg.basis_element(1), h)


def _f_delta_times_c(monkeypatch):
    """Both closed forms give F_delta C, and both inverse forms C^{-1} F_delta^{-1}."""
    c = _compatible()
    _change_calls(monkeypatch, F_DELTA, lambda k, out: out * c.f if k <= 2 else c.f_inv * out)


def _gamma_times_c(monkeypatch):
    """gamma becomes gamma C, which moves both closed forms to F_delta C, and both
    inverse forms become C^{-1} F_delta^{-1}; only gamma-bar stays where it was."""
    c = _compatible()
    monkeypatch.setattr(drinfeld, "compute_gamma", lambda h: _GAMMA(h) * c.f)
    _change_calls(monkeypatch, F_DELTA, lambda k, out: c.f_inv * out if k > 2 else out)


@pytest.mark.parametrize("mutate, name, run, text", [
    # on sweedler_h4 the closed forms of F_delta read the primed coproduct at 1 only
    (lambda mp: _mutate_mapped(mp, F_DELTA, _double_column), "sweedler_h4",
     compute_drinfeld_twist,
     "F_delta does not conjugate the coproduct onto the primed coproduct at basis element g"),
    (lambda mp: _mutate_mapped(mp, F_ZERO, _double_column), "sweedler_h4",
     compute_second_drinfeld,
     "F_0 does not conjugate the coproduct onto the zero coproduct at basis element g"),
    (lambda mp: _mutate_mapped(mp, F_DELTA, _double_phi), "semion", compute_drinfeld_twist,
     "the coassociator does not twist onto its primed form"),
    (lambda mp: _mutate_mapped(mp, F_ZERO, _double_phi), "semion", compute_second_drinfeld,
     "the coassociator does not twist onto its zero form"),
    (lambda mp: _mutate_mapped(mp, F_DELTA, _double_alpha), "semion", compute_drinfeld_twist,
     "twisted canonical elements are not (S(beta), S(alpha))"),
    (lambda mp: _mutate_mapped(mp, F_ZERO, _double_alpha), "semion", compute_second_drinfeld,
     "twisted canonical elements are not (S^{-1}(beta), S^{-1}(alpha))"),
    (_f_delta_times_c, "z2_triangular", compute_drinfeld_twist,
     "F_delta Delta(alpha) != gamma"),
    (_gamma_times_c, "z2_triangular", compute_drinfeld_twist,
     "Delta(beta) F_delta^{-1} != gamma-bar"),
], ids=["primed-coproduct", "zero-coproduct", "primed-phi", "zero-phi", "primed-canonical",
        "zero-canonical", "gamma", "gamma-bar"])
def test_a_battery_mutant_fails_its_check(monkeypatch, mutate, name, run, text):
    """One route of an F_delta or F_0 postcondition changed: the public call raises the
    check's text, and the drinfeld suite fails E9+E10+E11+P2+P3 alone with it."""
    mutate(monkeypatch)
    with pytest.raises(ConsistencyError) as exc:
        run(builtin(name).structure)
    assert str(exc.value) == text
    mutate(monkeypatch)
    (rep,) = suites.run_suites(builtin(name), "drinfeld", seed=0, trials=1)
    assert [(c.check_id, where(c)) for c in rep.failures()] == [
        ("E9+E10+E11+P2+P3", f"{text}; {where(exc.value)}")]

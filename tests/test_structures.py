"""Structure bundles and their axiom verifiers, including negative controls."""

from fractions import Fraction

import pytest

from qhakit import structures, suites
from qhakit.catalog import builtin
from qhakit.errors import ConsistencyError, SingularError, StructureError
from qhakit.report import Report
from qhakit.structures import (QuasiAntipode, QuasiBialgebra, _require, _require_equal,
                               _require_scan, check_qqybe, opposite_structure,
                               primed_structure, structures_equal, verify_qba,
                               verify_quasi_antipode, verify_rmatrix,
                               zero_structure)
from qhakit.tensor import LinearMap, contract, tensor_of

from conftest import (ENTRY_NAMES, assert_verified, counting_memo, entry, hopf, stores_of,
                      without_r)


class TestVerifiers:
    def test_all_entries_pass(self, any_entry):
        s = any_entry.structure
        assert verify_qba(s).ok
        assert verify_quasi_antipode(s).ok

    def test_rmatrix_entries_pass(self, qt_entry):
        assert verify_rmatrix(qt_entry.structure).ok

    def test_trivial_entry_everything_one(self):
        s = entry("trivial").structure
        alg = s.algebra
        assert s.phi == alg.tensor_unit(3)
        assert s.r == alg.tensor_unit(2)
        assert s.alpha == alg.unit_element and s.beta == alg.unit_element


class TestRequireEqual:
    """The one route-check primitive: it returns the agreed value or names where
    the two values part."""

    def test_returns_left_on_equality(self):
        alg = hopf("sweedler_h4").algebra
        left, right = alg.basis_element(1), alg.basis_element(1)
        assert _require_equal(left, right, "routes disagree") is left

    def test_tensor_witness_is_the_first_differing_multi_index(self):
        alg = hopf("sweedler_h4").algebra
        one, g = alg.unit_element, alg.basis_element(1)
        left = tensor_of(one, g) + tensor_of(g, one)
        right = tensor_of(one, g) + tensor_of(g, one).scale(3) + tensor_of(g, g)
        with pytest.raises(ConsistencyError) as exc:
            _require_equal(left, right, "routes disagree")
        assert str(exc.value) == "routes disagree"
        assert exc.value.witness == "at (1, 0): 1 != 3"

    def test_element_witness_is_its_arity_1_entry(self):
        alg = hopf("sweedler_h4").algebra
        one, x = alg.unit_element, alg.basis_element(2)
        with pytest.raises(ConsistencyError) as exc:
            _require_equal(one + x, one + x.scale(Fraction(1, 2)), "v alpha != alpha~")
        assert (str(exc.value), exc.value.witness) == ("v alpha != alpha~",
                                                       "at (2,): 1 != 1/2")

    def test_a_verdict_is_compared_as_a_value(self):
        with pytest.raises(ConsistencyError) as exc:
            _require_equal(False, True, "not a compatible twist")
        assert exc.value.witness == "False != True"

    def test_scan_names_the_first_failing_basis_element(self):
        alg = hopf("sweedler_h4").algebra
        e = alg.basis_element
        with pytest.raises(ConsistencyError) as exc:
            _require_scan(alg, lambda i: (e(i), e(i).scale(2) if i >= 2 else e(i)),
                          "fails on basis element {name}")
        assert (str(exc.value), exc.value.witness) == ("fails on basis element x",
                                                       "at (2,): 1 != 2")

    def test_pair_scan_names_the_first_failing_pair(self):
        alg = hopf("sweedler_h4").algebra
        e = alg.basis_element
        with pytest.raises(ConsistencyError, match=r"^pair \(g, x\)$"):
            _require_scan(alg, lambda i, j: (e(i) * e(j), e(i) if (i, j) >= (1, 2)
                                             else e(i) * e(j)), "pair ({name})", pairs=True)


class TestReportCheck:
    """The one place a check is recorded: a verdict, a clean return or a kernel error."""

    def test_false_fails_with_the_witness(self):
        rep = Report("r")
        assert rep.check("c", lambda: False, "w") is False
        assert [c.to_dict() for c in rep.checks] == [{"id": "c", "ok": False, "witness": "w"}]

    def test_a_callable_witness_is_called_only_on_failure(self):
        calls = []

        def witness():
            calls.append(1)
            return "computed"

        rep = Report("r")
        rep.check("pass", lambda: True, witness)
        assert calls == []
        rep.check("fail", lambda: False, witness)
        assert calls == [1]
        assert rep.checks[-1].witness == "computed"

    @pytest.mark.parametrize("error, text", [
        (ConsistencyError("routes part", "at (0,): 1 != 2"), "routes part; at (0,): 1 != 2"),
        (ConsistencyError("routes part"), "routes part"),
        (StructureError("axioms fail"), "axioms fail")])
    def test_a_kernel_error_fails_with_its_text(self, error, text):
        """The error's text, and where the routes part when a ConsistencyError names it."""
        def raising():
            raise error

        rep = Report("r")
        assert rep.check("c", raising, "unused") is None
        assert rep.checks == [("c", False, text)]

    @pytest.mark.parametrize("value", [True, None, 0, "", [], "a value"])
    def test_any_other_result_passes_and_is_returned(self, value):
        rep = Report("r")
        assert rep.check("c", lambda: value, "w") is value
        assert rep.checks == [("c", True, None)]
        assert rep.check("required", lambda: _require(rep, "unused")) is None
        assert rep.ok

    def test_other_errors_propagate(self):
        rep = Report("r")
        with pytest.raises(ZeroDivisionError):
            rep.check("c", lambda: 1 / 0)
        assert rep.checks == []

    def test_a_kernel_error_in_a_suite_check_fails_that_check(self, monkeypatch):
        """A kernel error raised by a predicate fails its own check, and the suite goes on."""
        def raising(t):
            raise ConsistencyError("x")

        monkeypatch.setattr(suites, "check_qqybe", raising)
        rep, = suites.run_suites(entry("semion"), "qtriangular", trials=1)
        checks = {c.check_id: c for c in rep.checks}
        assert checks["E42"] == ("E42", False, "x")
        assert "FdR" in checks and "uni-u@0" in checks
        assert rep.failure_ids() == ["E42"]

    def test_add_equal_computes_its_sides_once_inside_the_check(self):
        """``sides`` runs once, inside the check, and the witness comes from that same pair."""
        alg = hopf("sweedler_h4").algebra
        x = alg.basis_element(2)
        calls = []

        def sides(left, right):
            def computed():
                calls.append(1)
                return left, right
            return computed

        rep = Report("r")
        assert rep.add_equal("equal", sides(x, x)) is True
        assert rep.add_equal("tensors", sides(tensor_of(x, x), tensor_of(x, x).scale(2))) is False
        assert rep.add_equal("elements", sides(x, x.scale(2))) is False
        assert len(calls) == 3
        assert [c.witness for c in rep.checks] == [
            None, "at (2, 2): 1 != 2", f"{x!r} != {x.scale(2)!r}"]

        def raising():
            raise ConsistencyError("x")

        assert rep.add_equal("raising", raising) is None
        assert rep.checks[-1] == ("raising", False, "x")


def _raising(*args, **kwargs):
    raise ConsistencyError("x")


class TestOperandsInsideChecks:
    """A kernel error while computing what a check compares fails the checks that read
    the value, each with the error's text, and the report goes on."""

    def test_fdr_operand(self, monkeypatch):
        from qhakit import drinfeld
        monkeypatch.setattr(drinfeld, "drinfeld_under_twist", _raising)
        rep, = suites.run_suites(entry("semion"), "qtriangular", trials=1)
        checks = {c.check_id: c for c in rep.checks}
        assert checks["FdR"] == ("FdR", False, "x")
        assert "uni-u@0" in checks
        assert rep.failure_ids() == ["FdR"]

    def test_drinfeld_data(self, monkeypatch):
        from qhakit import drinfeld, qtriangular
        monkeypatch.setattr(drinfeld, "compute_drinfeld_data", _raising)
        monkeypatch.setattr(qtriangular, "compute_drinfeld_data", _raising)
        rep, = suites.run_suites(entry("semion"), "qtriangular", trials=1)
        assert rep.failure_ids() == ["E16", "E16.gamma", "E16.gammabar", "E24AC", "FdR"]
        assert {c.witness for c in rep.failures()} == {"x"}

    def test_verifier_contraction(self, monkeypatch):
        h = hopf("sweedler_h4")
        monkeypatch.setattr(structures, "contract", _raising)
        rep = verify_quasi_antipode(h)
        assert rep.failure_ids() == ["Sphi", "Sphi-inv", "Sab-alpha", "Sab-beta"]

    def test_dynamical_coproduct_operands(self, monkeypatch):
        from qhakit import dynamical
        from qhakit.dynamical import check_dynamical_coproduct
        z2 = entry("z2_triangular")
        monkeypatch.setattr(dynamical, "_telescoped", _raising)
        for lam in z2.dynamical.checkable():
            rep = check_dynamical_coproduct(z2.dynamical, z2.structure, lam)
            assert rep.checks == [(f"E46.{i}", False, "x") for i in ("i", "ii", "iii", "iv")]

    def test_compatible_twist_of_the_twist_suite(self, monkeypatch):
        from qhakit import twists
        monkeypatch.setattr(twists, "central_to_compatible", _raising)
        rep, = suites.run_suites(entry("sweedler_h4"), "twist", trials=1)
        assert rep.failure_ids() == ["L4@0", "P7.fwd@0", "P7.rev@0", "P8@0"]

    def test_twisted_bundle_of_the_drinfeld_suite(self, monkeypatch):
        from qhakit import twists
        monkeypatch.setattr(twists, "twist_structure", _raising)
        rep, = suites.run_suites(entry("sweedler_h4"), "drinfeld", trials=1)
        assert rep.failure_ids() == ["P9@0", "T4@0"]


class TestNegativeControls:
    def test_wrong_alpha_localized(self):
        """k[Z/2] with alpha = (1-g)/2 breaks the antipode zigzag, nothing else."""
        h = hopf("z2_triangular")
        alg = h.algebra
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        bad = QuasiAntipode(h.s, p, h.beta, s_inv=h.s_inv)
        rep = verify_quasi_antipode(h, bad)
        assert not rep.ok
        failed = set(rep.failure_ids())
        assert "Sab-alpha" in failed or "Sphi" in failed
        # the failure is localized: purely multiplicative checks still pass
        assert "S-antihom" not in failed
        assert "S-inverse" not in failed

    def test_singular_antipode_is_refused(self):
        """Without s_inv the constructor inverts S; a singular S is a StructureError."""
        h = hopf("z2_triangular")
        singular = LinearMap.from_matrix(h.algebra, [[1, 1], [1, 1]])
        with pytest.raises(StructureError, match="^antipode is not invertible: singular") as exc:
            QuasiAntipode(singular, h.alpha, h.beta)
        assert isinstance(exc.value.__cause__, SingularError)

    def test_pentagon_mutation_localized(self):
        """Flipping the coassociator's projector coefficient breaks exactly the pentagon."""
        h = hopf("semion")
        alg = h.algebra
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        bad_phi = alg.tensor_unit(3) + tensor_of(p, p, p).scale(2)
        with pytest.raises(StructureError) as exc:
            QuasiBialgebra(alg, h.coproduct, h.counit, bad_phi)
        rep = exc.value.report
        assert rep.failure_ids() == ["pentagon"]
        witness = rep.failures()[0].witness
        assert witness and "at (" in witness

    def test_invalid_rmatrix_entry(self):
        """Replacing the root of unity by 1 breaks the hexagon-type identity."""
        s = entry("semion").structure
        alg = s.algebra
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        bad_r = alg.tensor_unit(2)  # the zeta-1 coefficient replaced by 0
        rep = verify_rmatrix(QuasiBialgebra(alg, s.coproduct, s.counit, s.phi, s.phi_inv,
                                            s.antipode, bad_r, bad_r, verify=False))
        assert not rep.ok
        assert "E14.ii" in rep.failure_ids()

    def test_semion_r_forced_coefficient(self):
        """In idempotent coordinates the coefficient must square to -1."""
        s = entry("semion").structure
        alg = s.algebra
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        # oracle: r_{1+1,1} = phi^{-1}_{111} r_{11}^2 forces r_{11}^2 = -1
        zeta = alg.field.zeta
        r11 = 1 + (zeta - 1)  # coefficient of p(x)p block
        assert r11 * r11 == -1


class TestDerivedStructures:
    def test_opposite_involution(self, any_entry):
        s = any_entry.structure
        assert structures_equal(opposite_structure(opposite_structure(s)), s)

    def test_hopf_z2_self_opposite(self):
        s = entry("z2_triangular").structure
        h = without_r(s)
        op = opposite_structure(h)
        assert structures_equal(op, h)

    def test_semion_opposite_components(self):
        h = hopf("semion")
        op = opposite_structure(h)
        assert op.coproduct == h.coproduct            # cocommutative
        assert op.phi == h.phi                        # symmetric and self-inverse
        assert op.alpha == h.alpha and op.beta == h.beta  # S = id
        assert_verified(op)

    def test_sweedler_opposite_antipode_inverted(self):
        h = hopf("sweedler_h4")
        op = opposite_structure(h)
        assert op.s == h.s_inv and op.s != h.s
        assert_verified(op)

    def test_primed_semion_swaps_canonical_elements(self):
        h = hopf("semion")
        pr = primed_structure(h)
        assert pr.coproduct == h.coproduct
        assert pr.phi == h.phi
        assert pr.alpha == h.s(h.beta) == h.beta     # S = id: alpha' = beta
        assert pr.beta == h.alpha
        assert_verified(pr)

    def test_zero_semion(self):
        h = hopf("semion")
        ze = zero_structure(h)
        assert ze.alpha == h.beta and ze.beta == h.alpha
        assert_verified(ze)

    def test_primed_zero_identity_when_s_trivial(self):
        h = hopf("group_z3")
        for derived in (primed_structure(h), zero_structure(h)):
            assert structures_equal(derived, h)

    def test_sweedler_primed_and_zero_verified(self):
        h = hopf("sweedler_h4")
        assert_verified(primed_structure(h))
        assert_verified(zero_structure(h))


def _memo_probe():
    """A memoized function of a bundle and two parameters, the second with a default,
    and a bundle with an empty memo."""
    @structures._memoized
    def pick(h, a, b=2):
        return object()

    class Bundle:
        _memo = {}
    return pick, Bundle()


class TestMemoized:
    def test_keywords_and_defaults_share_the_positional_entry(self):
        """A call binds by position, keyword or default to one memo key."""
        pick, h = _memo_probe()
        assert pick(h, 1) is pick(h, 1, 2) is pick(h, a=1) is pick(h, 1, b=2) is pick(h, b=2, a=1)
        assert pick(h, 1, 3) is pick(h, 1, b=3) is not pick(h, 1)
        assert sorted(key[1:] for key in h._memo) == [(1, 2), (1, 3)]

    @pytest.mark.parametrize("args, kwargs, text", [
        ((), {}, "missing 1 required positional argument: 'a'"),
        ((1,), {"a": 1}, "got multiple values for argument 'a'"),
        ((1,), {"c": 1}, "got an unexpected keyword argument 'c'"),
        ((1, 2, 3), {}, "takes from 2 to 3 positional arguments but 4 were given"),
    ], ids=["missing", "twice", "unknown", "too-many"])
    def test_a_call_that_does_not_bind_raises_and_caches_nothing(self, args, kwargs, text):
        pick, h = _memo_probe()
        pick(h, 1)
        with pytest.raises(TypeError, match=text):
            pick(h, *args, **kwargs)
        assert len(h._memo) == 1

    def test_library_calls_by_keyword(self):
        """``quadratic_invariants(s, m=1)`` and ``canonical_r_elements(s, which="r")``
        read the entries of their positional and default calls."""
        from qhakit.qtriangular import canonical_r_elements
        from qhakit.twists import quadratic_invariants
        s = builtin("sweedler_h4").structure  # a new bundle: its memo starts empty
        stores = counting_memo(s)
        assert quadratic_invariants(s, m=1) is quadratic_invariants(s, 1)
        assert (canonical_r_elements(s) is canonical_r_elements(s, "r")
                is canonical_r_elements(s, which="r"))
        assert stores_of(stores, quadratic_invariants) == {(1,): 1}
        assert stores_of(stores, canonical_r_elements) == {("r",): 1}


class TestQQYBE:
    def test_all_qt_entries(self, qt_entry):
        assert check_qqybe(qt_entry.structure)

    def test_hopf_case_reduces_to_plain_qybe(self):
        s = entry("z2_triangular").structure
        r12 = s.r.embed((1, 2), 3)
        r13 = s.r.embed((1, 3), 3)
        r23 = s.r.embed((2, 3), 3)
        # oracle: with trivial coassociator both sides are plain R products
        assert r12 * r13 * r23 == r23 * r13 * r12
        assert check_qqybe(s)


class TestHelperIdentities:
    """Derived consequences of the axioms, re-checked explicitly."""

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_aleft(self, name):
        h = hopf(name)
        alg, s, beta = h.algebra, h.s, h.beta
        for i in range(alg.dim):
            a = alg.basis_element(i)
            lhs = contract(h.phi, [(1, None), a], [(2, None), beta, (3, s)])
            rhs = alg.tensor_zero(2)
            dd = h.coproduct.on_leg(h.coproduct(a), 1)  # (Delta (x) 1)Delta(a)
            for (a1, a2, a3), c in dd.entries.items():
                term = contract(h.phi,
                                [alg.basis_element(a1), (1, None)],
                                [alg.basis_element(a2), (2, None), beta, (3, s),
                                 s.col(a3)])
                rhs = rhs + term.scale(c)
            assert lhs == rhs, name

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_phiby1(self, name):
        h = hopf(name)
        delta, phi, phi_inv = h.coproduct, h.phi, h.phi_inv
        lhs = phi.embed((1, 2, 3), 4)
        rhs = (delta.on_leg(phi, 1) * delta.on_leg(phi, 3)
               * phi_inv.embed((2, 3, 4), 4) * delta.on_leg(phi_inv, 2))
        assert lhs == rhs, name

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_1byphi(self, name):
        h = hopf(name)
        delta, phi, phi_inv = h.coproduct, h.phi, h.phi_inv
        lhs = phi.embed((2, 3, 4), 4)
        rhs = (delta.on_leg(phi_inv, 2) * phi_inv.embed((1, 2, 3), 4)
               * delta.on_leg(phi, 1) * delta.on_leg(phi, 3))
        assert lhs == rhs, name

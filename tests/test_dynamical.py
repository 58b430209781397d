"""Shifted cocycles, the dynamical coassociator, and the quasi-dynamical QYBE."""

import random
from fractions import Fraction

import pytest

from qhakit import dynamical
from qhakit.dynamical import (DynamicalTwist, ShiftSystem, _insert_shifted, _placed,
                              _r_family, check_classical_dqybe,
                              check_dynamical_coproduct, check_opposite_qdqybe,
                              check_qdqybe, check_shifted_quasi_cocycle,
                              constant_family, dynamical_coassociator,
                              qdqybe_sides, shifted_cocycle_sides, shifted_insert)
from qhakit.errors import DomainError, FieldMismatch, StructureError
from qhakit.randgen import random_twist
from qhakit.structures import qqybe_sides
from qhakit.tensor import tensor_of
from qhakit.twists import Twist, quasi_cocycle_sides, twist_structure

from conftest import entry, hopf


def z2_family(values):
    """A diagonal twist family on k[Z/2] with given p(x)p-block coefficients."""
    t = entry("z2_triangular").structure
    alg = t.algebra
    one, g = alg.unit_element, alg.basis_element(1)
    half = Fraction(1, 2)
    p0, p1 = half * one + half * g, half * one - half * g
    shift = ShiftSystem([p0, p1], [Fraction(0), Fraction(1)])
    twists = {}
    for lam, c in values.items():
        f = alg.tensor_unit(2) + tensor_of(p1, p1).scale(c - 1)
        twists[Fraction(lam)] = Twist(f, t.counit)
    return t, DynamicalTwist(sorted(twists), twists, shift), (p0, p1)


class TestShiftSystem:
    def test_validation(self):
        alg = hopf("z2_triangular").algebra
        one, g = alg.unit_element, alg.basis_element(1)
        half = Fraction(1, 2)
        p0, p1 = half * one + half * g, half * one - half * g
        ShiftSystem([p0, p1], [0, 1])  # valid
        with pytest.raises(StructureError, match="orthogonal"):
            ShiftSystem([p0, p0], [0, 1])
        with pytest.raises(StructureError, match="sum to 1"):
            ShiftSystem([p0], [0])

    def test_empty_system_is_refused(self):
        with pytest.raises(StructureError, match="at least one idempotent"):
            ShiftSystem([], [])

    def test_shift_element_eigenvalues(self):
        t, dyn, (p0, p1) = z2_family({0: 2, 1: 2, 2: 2})
        h_elt = dyn.shift.element()
        assert h_elt * p0 == 0 * p0
        assert h_elt * p1 == p1  # weight 1 on the projector block

    def test_sweedler_center_is_scalars_only(self):
        """The four-dimensional entry admits only the trivial shift system."""
        from reference_kernel import nullspace
        alg = hopf("sweedler_h4").algebra
        rows = []
        for i in range(alg.dim):
            e = alg.basis_element(i)
            for k in range(alg.dim):
                row = []
                for j in range(alg.dim):
                    b = alg.basis_element(j)
                    row.append((b * e).coeffs[k] - (e * b).coeffs[k])
                rows.append(row)
        center = nullspace(alg.field, rows)
        assert len(center) == 1  # spanned by the unit


class TestShiftedInsert:
    def test_hand_expanded_table(self):
        """Oracle: dense expansion over the idempotent coordinates."""
        t, dyn, (p0, p1) = z2_family({0: 2, 1: 3, 2: 5})
        alg = t.algebra
        idem = [p0, p1]

        def f_coeff(lam, a, b):
            # idempotent-coordinate table of F(lam) = 1 + (c-1) p1 (x) p1
            c = {0: 2, 1: 3, 2: 5}[lam]
            return alg.field.coerce(c if (a, b) == (1, 1) else 1)

        for lam in (0, 1):
            for leg in (1, 2, 3):
                got = shifted_insert(dyn, lam, leg, 3)
                rest = [p for p in (1, 2, 3) if p != leg]
                expected = alg.tensor_zero(3)
                for a in (0, 1):
                    for b in (0, 1):
                        for c in (0, 1):
                            w = dyn.shift.weights[a]
                            parts = [None, None, None]
                            parts[leg - 1] = idem[a]
                            parts[rest[0] - 1] = idem[b]
                            parts[rest[1] - 1] = idem[c]
                            coeff = f_coeff(int(lam + w), b, c)
                            expected = expected + tensor_of(*parts).scale(coeff)
                assert got == expected, (lam, leg)

    def test_degenerate_shift_is_plain_embedding(self):
        t = entry("semion").structure
        rng = random.Random(1)
        f = random_twist(rng, t)
        fam = constant_family(t, f, domain=[0, 1])
        for leg in (1, 2, 3):
            rest = tuple(p for p in (1, 2, 3) if p != leg)
            assert shifted_insert(fam, 0, leg, 3) == f.f.embed(rest, 3)

    def test_out_of_domain(self):
        t, dyn, _ = z2_family({0: 2, 1: 2, 2: 2})
        with pytest.raises(DomainError, match="outside"):
            shifted_insert(dyn, 2, 1, 3)  # needs F(3), not in the domain


class TestShiftedCocycle:
    def test_builtin_family_passes(self):
        z2 = entry("z2_triangular")
        rep = check_shifted_quasi_cocycle(z2.dynamical, z2.structure)
        assert rep.ok
        assert len(rep.checks) == 3  # lambda in {0, 1/2, 1}

    def test_solution_family_with_nonconstant_table(self):
        """The solved functional equation forces 1-periodicity; on a
        half-integer grid that still leaves a nonconstant family."""
        z2 = entry("z2_triangular")
        dyn = z2.dynamical
        f0 = dyn.f(Fraction(0))
        fhalf = dyn.f(Fraction(1, 2))
        assert f0 != fhalf
        assert dyn.f(Fraction(1)) == f0

    def test_nonperiodic_family_fails(self):
        t, dyn, _ = z2_family({0: 2, 1: 3, 2: 5})
        rep = check_shifted_quasi_cocycle(dyn, t)
        assert not rep.ok

    def test_zero_weight_reduction_to_plain_cocycle(self):
        """Term-for-term, the zero-shift condition is the plain one."""
        for name in ("sweedler_h4", "semion"):
            q = hopf(name)
            rng = random.Random(f"red:{name}")
            for _ in range(3):
                f = random_twist(rng, q)
                fam = constant_family(q, f)
                assert shifted_cocycle_sides(fam, q, 0) == quasi_cocycle_sides(f, q)

    def test_compatible_constant_family_passes_everywhere(self):
        s = entry("semion").structure
        rtr = Twist(s.r.transpose() * s.r, s.counit)
        fam = constant_family(s, rtr, domain=[0, 1])
        rep = check_shifted_quasi_cocycle(fam, s)
        assert rep.ok and len(rep.checks) == 2

    def test_noncocycle_constant_family_fails_everywhere(self):
        h = hopf("sweedler_h4")
        alg = h.algebra
        x, gx = alg.basis_element(2), alg.basis_element(3)
        f = Twist(alg.tensor_unit(2) + tensor_of(x, gx), h.counit)
        fam = constant_family(h, f, domain=[0, 1])
        rep = check_shifted_quasi_cocycle(fam, h)
        assert all(not c.ok for c in rep.checks)


class TestDynamicalCoassociator:
    def test_builtin_family_routes_agree(self):
        z2 = entry("z2_triangular")
        for lam in z2.dynamical.checkable():
            phi_lam = dynamical_coassociator(z2.dynamical, z2.structure, lam)
            # the solved family is blockwise 1-periodic, so the closed form
            # telescopes back to the static coassociator
            assert phi_lam == z2.structure.phi

    def test_constant_quasi_cocycle_family_is_static(self):
        s = entry("semion").structure
        rtr = Twist(s.r.transpose() * s.r, s.counit)
        fam = constant_family(s, rtr)
        assert dynamical_coassociator(fam, s, 0) == s.phi

    def test_constant_family_matches_plain_twist(self):
        s = entry("sweedler_h4").structure
        f = random_twist(random.Random(3), s)
        fam = constant_family(s, f)
        assert dynamical_coassociator(fam, s, 0) == twist_structure(
            s, f, verify=False).phi


class TestDynamicalCoproduct:
    def test_builtin_family(self):
        z2 = entry("z2_triangular")
        for lam in z2.dynamical.checkable():
            rep = check_dynamical_coproduct(z2.dynamical, z2.structure, lam)
            assert rep.ok, (lam, rep.failure_ids())

    def test_trivial_r(self):
        s = entry("trivial").structure
        f = Twist.identity(s)
        fam = constant_family(s, f, domain=[0])
        assert check_dynamical_coproduct(fam, s, 0).ok

    def test_constant_family_on_quasi_entry(self):
        # every counital twist on the two-dimensional entry is a cocycle,
        # so a random constant family satisfies the zero-shift condition
        s = entry("semion").structure
        f = random_twist(random.Random(7), s)
        assert check_shifted_quasi_cocycle(constant_family(s, f), s).ok
        fam = constant_family(s, f)
        assert check_dynamical_coproduct(fam, s, 0).ok

    def test_noncocycle_constant_family_fails_coproduct_identities(self):
        # negative control: the four identities need the cocycle condition
        h = hopf("sweedler_h4")
        s = entry("sweedler_h4").structure
        alg = h.algebra
        x, gx = alg.basis_element(2), alg.basis_element(3)
        f = Twist(alg.tensor_unit(2) + tensor_of(x, gx), h.counit)
        fam = constant_family(h, f, domain=[0, 1])
        assert not check_dynamical_coproduct(fam, s, 0).ok


class TestPlacements:
    def test_table_evaluated_once_per_parameter_per_call(self):
        z2 = entry("z2_triangular")
        dyn = z2.dynamical
        r_at = _r_family(dyn, z2.structure)
        calls = []

        def counted(mu):
            calls.append(mu)
            return r_at(mu)

        for lam in dyn.checkable():
            params = {lam, *(lam + w for w in dyn.shift.weights)}
            for _ in range(2):   # nothing is kept from one call to the next
                calls.clear()
                placed = _placed(dyn.shift, lam, counted)
                assert sorted(calls) == sorted(params)
            r = r_at(lam)
            assert placed == (r.embed((1, 2), 3), r.embed((1, 3), 3), r.embed((2, 3), 3),
                              *(_insert_shifted(dyn.shift, lam, leg, 3, r_at)
                                for leg in (3, 2, 1)))

    def test_coproduct_check_evaluates_each_parameter_once(self, monkeypatch):
        """E46 needs R(lambda) beside the placements: still one evaluation per parameter."""
        z2 = entry("z2_triangular")
        dyn, t = z2.dynamical, z2.structure
        expected = {lam: check_dynamical_coproduct(dyn, t, lam).to_dict()
                    for lam in dyn.checkable()}
        calls = []

        def counted_family(dyn, t):
            r_at = _r_family(dyn, t)

            def counted(mu):
                calls.append(mu)
                return r_at(mu)
            return counted

        monkeypatch.setattr(dynamical, "_r_family", counted_family)
        for lam in dyn.checkable():
            calls.clear()
            assert check_dynamical_coproduct(dyn, t, lam).to_dict() == expected[lam]
            assert sorted(calls) == sorted({lam, *(lam + w for w in dyn.shift.weights)})


class TestQDQYBE:
    def test_builtin_family(self):
        z2 = entry("z2_triangular")
        for lam in z2.dynamical.checkable():
            assert check_qdqybe(z2.dynamical, z2.structure, lam)
            assert check_classical_dqybe(z2.dynamical, z2.structure, lam)

    def test_zero_weight_reduction_to_plain_qqybe(self):
        """With zero weights the dynamical equation is the plain one for R_F,
        provided the twist fixes the coassociator (R^T R always does)."""
        for name in ("z2_triangular", "semion", "sweedler_h4"):
            s = entry(name).structure
            f = Twist(s.r.transpose() * s.r, s.counit)
            fam = constant_family(s, f)
            twisted = twist_structure(s, f, verify=False)
            assert qdqybe_sides(fam, s, 0) == qqybe_sides(twisted)

    def test_trivial_coassociator_reduction_to_classical(self):
        s = entry("z2_triangular").structure
        f = random_twist(random.Random(19), s)
        fam = constant_family(s, f)
        assert s.phi == s.algebra.tensor_unit(3)
        assert check_qdqybe(fam, s, 0) == check_classical_dqybe(fam, s, 0) is True

    def test_opposite_variants(self):
        z2 = entry("z2_triangular")
        for lam in z2.dynamical.checkable():
            for variant in ("primed", "zero", "transpose"):
                assert check_opposite_qdqybe(z2.dynamical, z2.structure, variant, lam)

    def test_opposite_variants_constant_families(self):
        for name in ("sweedler_h4", "semion"):
            s = entry(name).structure
            f = Twist(s.r.transpose() * s.r, s.counit)
            fam = constant_family(s, f)
            for variant in ("primed", "zero", "transpose"):
                assert check_opposite_qdqybe(fam, s, variant, 0), (name, variant)

    def test_primed_matches_plain_when_s_trivial(self):
        z2 = entry("z2_triangular")
        lam = Fraction(0)
        assert (check_opposite_qdqybe(z2.dynamical, z2.structure, "primed", lam)
                == check_qdqybe(z2.dynamical, z2.structure, lam))


class TestDomainValidation:
    def test_checkable_subgrid(self):
        z2 = entry("z2_triangular")
        assert z2.dynamical.checkable() == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_empty_checkable_rejected(self):
        # weights (0, 1) with domain {0} leave no checkable point
        t = entry("z2_triangular").structure
        alg = t.algebra
        one, g = alg.unit_element, alg.basis_element(1)
        half = Fraction(1, 2)
        p0, p1 = half * one + half * g, half * one - half * g
        with pytest.raises(StructureError, match="shifted parameters"):
            DynamicalTwist([Fraction(0)], {Fraction(0): Twist.identity(t)},
                           ShiftSystem([p0, p1], [Fraction(0), Fraction(1)]))

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_inexact_scalars_are_refused(self, bad):
        """Weights, domain values, twist keys and parameters are exact rationals: a float
        or a boolean is refused, as at every other scalar entry point."""
        t, dyn, _ = z2_family({0: 2, 1: 2, 2: 2})
        f = Twist.identity(t)
        refusals = [lambda: ShiftSystem([t.algebra.unit_element], [bad]),
                    lambda: constant_family(t, f, domain=(bad,)),
                    lambda: DynamicalTwist([0, 1], {0: f, bad: f}, dyn.shift),
                    lambda: dyn.twist(bad),
                    lambda: shifted_insert(dyn, bad, 1),
                    lambda: check_dynamical_coproduct(dyn, t, bad)]
        for refused in refusals:
            with pytest.raises(FieldMismatch):
                refused()

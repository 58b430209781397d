"""Independent scalar-coordinate oracles for the projector-diagonal entries.

The two-dimensional entries are diagonal in the idempotent basis
p0 = (1+g)/2, p1 = (1-g)/2, so every kernel identity reduces to a scalar
functional equation indexed by bits.  These tests re-derive the central
identities in that coordinate system, independently of the sparse tensor
machinery, and compare outcomes with the kernel verifiers.
"""

import itertools
from fractions import Fraction

from qhakit.dynamical import check_shifted_quasi_cocycle
from qhakit.structures import QuasiBialgebra, verify_qba, verify_rmatrix
from qhakit.tensor import TensorElement, tensor_of
from qhakit.twists import Twist, is_quasi_cocycle

from conftest import entry, hopf


def idempotents(alg):
    half = Fraction(1, 2)
    one, g = alg.unit_element, alg.basis_element(1)
    return [half * one + half * g, half * one - half * g]


def phi_table(h):
    """phi_{abc} scalar table of a diagonal coassociator on k[Z/2]."""
    alg = h.algebra
    p = idempotents(alg)
    table = {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        block = tensor_of(p[a], p[b], p[c])
        prod = h.phi * block
        key = next(iter(block.entries))
        table[(a, b, c)] = prod.entries.get(key, alg.field.zero) \
            * alg.field.inv(block.entries[key])
    return table


class TestSemionScalarOracles:
    def test_pentagon_is_the_scalar_cocycle_identity(self):
        """phi(b,c,d) phi(a,b+c,d) phi(a,b,c) == phi(a+b,c,d) phi(a,b,c+d)."""
        h = hopf("semion")
        phi = phi_table(h)
        for a, b, c, d in itertools.product((0, 1), repeat=4):
            lhs = phi[(b, c, d)] * phi[(a, (b + c) % 2, d)] * phi[(a, b, c)]
            rhs = phi[((a + b) % 2, c, d)] * phi[(a, b, (c + d) % 2)]
            assert lhs == rhs, (a, b, c, d)

    def test_mutated_table_fails_both_routes(self):
        """Scalar route and kernel verifier agree on the broken coassociator."""
        h = hopf("semion")
        alg = h.algebra
        p = idempotents(alg)
        bad_phi = alg.tensor_unit(3) + tensor_of(p[1], p[1], p[1]).scale(2)
        # scalar route: phi_111 = 3 violates the cocycle identity at (1,1,1,1)
        t = Fraction(3)
        assert t * t != 1
        # kernel route
        q = QuasiBialgebra(alg, h.coproduct, h.counit, bad_phi, verify=False)
        rep = verify_qba(q)
        assert rep.failure_ids() == ["pentagon"]

    def test_rmatrix_hexagon_in_scalar_coordinates(self):
        """r_{a+b,c} = phi_{cab} phi_{acb}^{-1} phi_{abc} r_{ac} r_{bc} and its mirror.

        With the symmetric coassociator here the prefactor collapses to
        phi_{abc}, forcing the projector-block coefficient to square to -1.
        """
        s = entry("semion").structure
        alg = s.algebra
        phi = phi_table(s)
        p = idempotents(alg)
        r = {}
        for a, b in itertools.product((0, 1), repeat=2):
            block = tensor_of(p[a], p[b])
            prod = s.r * block
            key = next(iter(block.entries))
            r[(a, b)] = prod.entries.get(key, alg.field.zero) \
                * alg.field.inv(block.entries[key])
        for a, b, c in itertools.product((0, 1), repeat=3):
            pref = (alg.field.inv(phi[(b, c, a)]) * phi[(a, c, b)]
                    * alg.field.inv(phi[(a, b, c)]))
            assert r[((a + b) % 2, c)] == pref * r[(a, c)] * r[(b, c)], (a, b, c)
            pref2 = (phi[(c, a, b)] * alg.field.inv(phi[(a, c, b)])
                     * phi[(a, b, c)])
            assert r[(a, (b + c) % 2)] == pref2 * r[(a, b)] * r[(a, c)], (a, b, c)
        # the forced equation at a = b = c = 1: r11^2 = -1
        assert r[(1, 1)] * r[(1, 1)] == -1

    def test_wrong_root_fails_both_routes(self):
        s = entry("semion").structure
        alg = s.algebra
        # r11 = 1 satisfies neither the scalar relation nor the verifier
        assert Fraction(1) * Fraction(1) != -1
        unit2 = alg.tensor_unit(2)
        rep = verify_rmatrix(QuasiBialgebra(alg, s.coproduct, s.counit, s.phi, s.phi_inv,
                                            s.antipode, unit2, unit2, verify=False))
        assert "E14.ii" in rep.failure_ids()


class TestZ2FamilyScalarOracle:
    def brute_force_condition(self, coeffs, weights, domain):
        """The shifted condition in scalar coordinates, solved by enumeration.

        f_ab(lam) f_{a+b,c}(lam) == f_bc(lam + w_a) f_{a,b+c}(lam), where
        f_ab = 1 except f_11 = t(lam).
        """
        def f(lam, a, b):
            return coeffs[lam] if (a, b) == (1, 1) else Fraction(1)

        checkable = [lam for lam in domain
                     if all(lam + w in domain for w in weights)]
        results = {}
        for lam in checkable:
            ok = True
            for a, b, c in itertools.product((0, 1), repeat=3):
                lhs = f(lam, a, b) * f(lam, (a + b) % 2, c)
                rhs = f(lam + weights[a], b, c) * f(lam, a, (b + c) % 2)
                if lhs != rhs:
                    ok = False
            results[lam] = ok
        return results

    def test_builtin_family_agrees_with_brute_force(self):
        z2 = entry("z2_triangular")
        dyn = z2.dynamical
        domain = list(dyn.domain)
        coeffs = {}
        alg = z2.structure.algebra
        p = idempotents(alg)
        for lam in domain:
            block = tensor_of(p[1], p[1])
            prod = dyn.f(lam) * block
            key = next(iter(block.entries))
            coeffs[lam] = prod.entries.get(key, alg.field.zero) \
                * alg.field.inv(block.entries[key])
        oracle = self.brute_force_condition(coeffs, dyn.shift.weights, domain)
        assert all(oracle.values())
        rep = check_shifted_quasi_cocycle(dyn, z2.structure)
        kernel = {lam: c.ok for lam, c in zip(dyn.checkable(), rep.checks)}
        assert kernel == oracle

    def test_nonsolution_flagged_identically_by_both_routes(self):
        from qhakit.dynamical import DynamicalTwist, ShiftSystem
        z2 = entry("z2_triangular").structure
        alg = z2.algebra
        p = idempotents(alg)
        shift = ShiftSystem([p[0], p[1]], [Fraction(0), Fraction(1)])
        domain = [Fraction(k) for k in range(3)]
        coeffs = {Fraction(0): Fraction(2), Fraction(1): Fraction(3),
                  Fraction(2): Fraction(2)}
        twists = {lam: Twist(alg.tensor_unit(2)
                             + tensor_of(p[1], p[1]).scale(c - 1), z2.counit)
                  for lam, c in coeffs.items()}
        dyn = DynamicalTwist(domain, twists, shift)
        oracle = self.brute_force_condition(coeffs, shift.weights, domain)
        rep = check_shifted_quasi_cocycle(dyn, z2)
        kernel = {lam: c.ok for lam, c in zip(dyn.checkable(), rep.checks)}
        assert kernel == oracle
        # t(0) = 2 but t(0 + 1) = 3 breaks the condition at 0, while at 1 the
        # table is periodic again
        assert oracle == {Fraction(0): False, Fraction(1): False}

    def test_every_counital_twist_here_is_a_cocycle(self):
        """Scalar proof of the two-dimensional rigidity: counitality pins
        three of the four block coefficients, and every remaining table
        satisfies the cocycle identity."""
        q = hopf("z2_triangular")
        alg = q.algebra
        p = idempotents(alg)
        for t in (Fraction(2), Fraction(-3), Fraction(1, 5)):
            f = Twist(alg.tensor_unit(2) + tensor_of(p[1], p[1]).scale(t - 1),
                      q.counit)
            assert is_quasi_cocycle(f, q)

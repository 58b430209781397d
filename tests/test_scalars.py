"""Exact field arithmetic: rationals and cyclotomic extensions."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from qhakit.catalog import builtin
from qhakit.errors import FieldMismatch, SingularError
from qhakit.scalars import (Cyclo, RATIONAL, _reduction_rows, _zeta_powers, cyclotomic_field,
                            cyclotomic_polynomial, totient)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def cyclo_values(order):
    deg = totient(order)
    return st.lists(rationals, min_size=deg, max_size=deg).map(
        lambda cs: Cyclo(order, cs))


class TestRationals:
    def test_sum(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_inverse(self):
        assert RATIONAL.inv(Fraction(3, 4)) == Fraction(4, 3)

    def test_zero_inverse_rejected(self):
        with pytest.raises(SingularError):
            RATIONAL.inv(Fraction(0))

    def test_embed(self):
        assert RATIONAL.coerce("0") == Fraction(0, 1)
        assert RATIONAL.coerce("-2/3") == Fraction(-2, 3)


class TestCyclotomic:
    def test_zeta4_square(self):
        z = cyclotomic_field(4).zeta
        assert z * z == -1

    def test_zeta4_inverse(self):
        z = cyclotomic_field(4).zeta
        assert z.inverse() == -z
        assert z * (-z) == 1

    def test_zeta3_sum_of_powers(self):
        z = cyclotomic_field(3).zeta
        assert z + z * z == -1

    @pytest.mark.parametrize("order", [4, 5, 12])
    def test_pickle_and_deepcopy(self, order):
        """A value, and the semion's coassociator (over Q(zeta_4)), survive a round trip."""
        field = cyclotomic_field(order)
        z = field.zeta * Fraction(3, 7) + 1
        phi = builtin("semion").structure.phi
        for x in (z, field.zeta, field.one, phi):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert pickle.loads(pickle.dumps(z)).coeffs == z.coeffs

    def test_one_plus_zeta4_inverse(self):
        # (1 + z)(1 - z)/2 = (1 - z^2)/2 = (1 + 1)/2 = 1
        z = cyclotomic_field(4).zeta
        inv = (1 + z).inverse()
        assert inv == Cyclo(4, [Fraction(1, 2), Fraction(-1, 2)])
        assert (1 + z) * inv == 1

    def test_embed_constants(self):
        f4 = cyclotomic_field(4)
        assert f4.coerce(1).coeffs == (Fraction(1), Fraction(0))
        f3 = cyclotomic_field(3)
        assert f3.coerce(Fraction(-2, 3)).coeffs == (Fraction(-2, 3), Fraction(0))

    def test_known_cyclotomic_polynomials(self):
        table = {
            1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1],
            6: [1, -1, 1], 8: [1, 0, 0, 0, 1], 12: [1, 0, -1, 0, 1],
            16: [1, 0, 0, 0, 0, 0, 0, 0, 1],
        }
        for n, coeffs in table.items():
            assert [int(c) for c in cyclotomic_polynomial(n)] == coeffs

    def test_zeta_order(self):
        for n in (2, 3, 4, 5, 6, 8, 12, 16):
            z = cyclotomic_field(n).zeta
            power = z
            for _ in range(n - 1):
                power = power * z
            assert power == 1, n

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            cyclotomic_field(4).zeta + cyclotomic_field(3).zeta

    def test_reduction_idempotent(self):
        z = cyclotomic_field(8).zeta
        v = (1 + z) * (2 - z * z)
        assert Cyclo(8, v.coeffs) == v
        assert Cyclo.from_poly(8, v.coeffs) == v

    def test_floats_rejected(self):
        with pytest.raises(FieldMismatch):
            RATIONAL.coerce(0.5)

    @pytest.mark.parametrize("value, message", [
        ([0.1, 1], "floats are forbidden"),
        ([True, 0], "booleans are not scalars"),
        ([0, 1.0], "floats are forbidden"),
    ])
    def test_coefficient_lists_follow_rational_rules(self, value, message):
        with pytest.raises(FieldMismatch, match=message):
            cyclotomic_field(4).coerce(value)

    @pytest.mark.parametrize("text", ["1e3", "1.5", " 1/2", "1_0", "1e999999999", "1/2/3",
                                      "+-1", "", "\u0661"])
    def test_rational_strings_follow_the_p_or_p_over_q_grammar(self, text):
        """Fraction would read decimals and exponents ("1e999999999" never finishes)."""
        with pytest.raises(FieldMismatch, match="not a rational of the form p or p/q"):
            RATIONAL.coerce(text)
        with pytest.raises(FieldMismatch, match="not a rational of the form p or p/q"):
            cyclotomic_field(4).coerce([text, "0"])

    @pytest.mark.parametrize("text, value", [("7", 7), ("-7", -7), ("+3/6", Fraction(1, 2)),
                                             ("0/5", 0), ("-12/8", Fraction(-3, 2))])
    def test_rational_strings_accepted(self, text, value):
        assert RATIONAL.coerce(text) == value

    def test_zero_denominator_string_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RATIONAL.coerce("1/0")


@pytest.mark.parametrize("order", [3, 4, 8])
class TestFieldAxioms:
    @given(data=st.data())
    def test_ring_axioms(self, order, data):
        """Associativity and distributivity hold exactly, no tolerance."""
        a = data.draw(cyclo_values(order))
        b = data.draw(cyclo_values(order))
        c = data.draw(cyclo_values(order))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(data=st.data())
    def test_multiplicative_inverse(self, order, data):
        a = data.draw(cyclo_values(order))
        if a:
            assert a * a.inverse() == 1

    @given(p=rationals, q=rationals)
    def test_rational_embedding_is_homomorphic(self, order, p, q):
        field = cyclotomic_field(order)
        assert field.coerce(p * q) == field.coerce(p) * field.coerce(q)
        assert field.coerce(p + q) == field.coerce(p) + field.coerce(q)


def stored_form(v: Cyclo):
    """The invariants of the stored form: one positive denominator, no common factor."""
    assert type(v.den) is int and v.den > 0
    assert all(type(c) is int for c in v.num) and len(v.num) == totient(v.order)
    assert math.gcd(v.den, *v.num) == 1
    if not any(v.num[1:]):
        assert hash(v) == hash(v.coeffs[0]) and v == v.coeffs[0]
    return v.coeffs


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 30])
class TestAgainstFractionOracle:
    """Every operation against the Fraction-coefficient arithmetic of ``reference_kernel``."""

    @given(data=st.data())
    @settings(max_examples=50)
    def test_ring_operations(self, order, data):
        a, b = data.draw(numerator_values(order)), data.draw(numerator_values(order))
        x, y = a.coeffs, b.coeffs
        assert stored_form(a + b) == tuple(p + q for p, q in zip(x, y))
        assert stored_form(a - b) == tuple(p - q for p, q in zip(x, y))
        assert stored_form(-a) == tuple(-p for p in x)
        assert stored_form(a * b) == ref.cyclo_mul(order, x, y)
        if a:
            assert stored_form(a.inverse()) == ref.cyclo_inverse(order, x)

    @given(data=st.data())
    @settings(max_examples=50)
    def test_from_poly_and_zeta(self, order, data):
        poly = data.draw(st.lists(rationals, max_size=3 * order + 1))
        assert stored_form(Cyclo.from_poly(order, poly)) == ref.cyclo_reduce(order, poly)
        k = data.draw(st.integers(-2 * order, 3 * order))
        zeta_k = ref.cyclo_reduce(order, [0] * (k % order) + [1])
        assert stored_form(Cyclo.zeta(order, k)) == zeta_k


def test_inverse_at_the_largest_file_order():
    """Order 256 (the serial cap, degree 128): the inverse is formed and checks."""
    rng = random.Random(0)
    a = Cyclo(256, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(128)])
    inv = a.inverse()
    stored_form(inv)
    assert a * inv == 1


class TestSympyOracle:
    """The cyclotomic polynomials, the powers of zeta and the reduction rows against sympy."""

    def test_polynomials_and_reduction_rows(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(1, 65):
            modulus = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
            assert cyclotomic_polynomial(n) == tuple(
                Fraction(int(c)) for c in reversed(modulus.all_coeffs())), n
            deg = totient(n)
            rows = _reduction_rows(n)
            assert len(rows) == max(deg - 1, 1), n
            for m, row in enumerate(rows):
                rem = sympy.Poly(x ** (deg + m), x).rem(modulus)
                expected = [int(c) for c in reversed(rem.all_coeffs())]
                assert row == tuple(expected + [0] * (deg - len(expected))), (n, m)
                assert all(type(c) is int for c in row)
            powers = _zeta_powers(n)
            assert len(powers) == n, n
            for m, row in enumerate(powers):
                rem = sympy.Poly(x ** m, x).rem(modulus)
                expected = [int(c) for c in reversed(rem.all_coeffs())]
                assert row == tuple(expected + [0] * (deg - len(expected))), (n, m)
                assert all(type(c) is int for c in row)


def numerator_values(order):
    """Q(zeta_n) values: general ones, and constants, which clear to int numerators."""
    field = cyclotomic_field(order)
    return st.one_of(cyclo_values(order), rationals.map(field.coerce))


@pytest.mark.parametrize("order", [3, 4, 5, 8, 12])
class TestNumeratorForm:
    @given(data=st.data())
    def test_restore_inverts_clear(self, order, data):
        field = cyclotomic_field(order)
        values = data.draw(st.lists(numerator_values(order), max_size=6))
        nums, den = field.clear(values)
        assert type(den) is int and den > 0
        for v, n in zip(values, nums):
            assert (type(n) is int) == (not any(v.coeffs[1:]))
        # numerators mixed in count as over 1: n stands for the value den * v
        mixed, mixed_den = field.clear([*values, *nums])
        assert mixed_den == den
        for restored in (field.restore(nums, den), field.restore(mixed, mixed_den)[:len(values)]):
            assert restored == values
            assert all(type(v) is Cyclo for v in restored)
        assert field.restore(mixed, mixed_den)[len(values):] == [v * den for v in values]

    @given(data=st.data())
    def test_exact_division_by_a_numerator(self, order, data):
        field = cyclotomic_field(order)
        p, q = data.draw(numerator_values(order)), data.draw(numerator_values(order))
        if not p:
            return
        (p_num, q_num), _ = field.clear([p, q])
        # the Bareiss oracle's exact division and its restore over a Z[zeta_n] denominator
        quotient = ref.divider(field, p_num)(p_num * q_num)
        assert field.restore([quotient], 1) == field.restore([q_num], 1)
        assert ref.restore(field, [q_num, p_num], p_num) == [q / p, field.one]


class TestEncoding:
    def test_rational_strings(self):
        assert RATIONAL.format_scalar(Fraction(-2, 3)) == "-2/3"
        assert RATIONAL.format_scalar(Fraction(5)) == "5"
        assert RATIONAL.parse_scalar("-2/3") == Fraction(-2, 3)

    def test_cyclotomic_arrays(self):
        f4 = cyclotomic_field(4)
        assert f4.format_scalar(f4.zeta) == ["0", "1"]
        assert f4.parse_scalar(["0", "1"]) == f4.zeta

"""Exact scalar arithmetic over Q and cyclotomic extensions Q(zeta_n).

Scalar values are either ``fractions.Fraction`` (rational field) or
:class:`Cyclo`: an int vector on the power basis 1, zeta, ... of a
primitive n-th root of unity, reduced modulo the n-th cyclotomic
polynomial, over one positive int denominator with no common factor (the
standard form of a number-field element).  All Q(zeta_n) arithmetic is
int arithmetic on such vectors, through one product, ``_product``.
Everything is exact, so every comparison downstream is a strict equality.

Tensors and the linear solve compute on numerators instead of field
values: a set of values is cleared to integral numerators over one int
denominator, the lcm of their denominators (``Field.clear``), and restored
to field values only at the boundary (``Field.restore``).  Over Q a
numerator is an int.  Over Q(zeta_n) it is an element of Z[zeta_n]: a
plain int when the value is a constant, otherwise a private ``_Integral``
vector.  ``qhakit.tensor`` stores its elements in this form.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatch, SingularError

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL_TEXT = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's totient, by counting the units mod n (n stays tiny here)."""
    if n < 1:
        raise ValueError("totient of a non-positive integer")
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def _product(a, b, rows):
    """The product of two int vectors on the power basis: a schoolbook
    convolution, folded below the modulus degree by ``_reduction_rows``."""
    deg = len(a)
    out = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    low = out[:deg]
    for row, overflow in zip(rows, out[deg:]):
        if overflow:
            low = [u + overflow * v for u, v in zip(low, row)]
    return tuple(low)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Int coefficients (ascending, monic) of the n-th cyclotomic polynomial: x^n - 1
    divided exactly by the (monic) cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        divisor = cyclotomic_polynomial(d)
        k = len(divisor) - 1
        quotient = [0] * (len(poly) - k)
        for shift in reversed(range(len(quotient))):
            c = quotient[shift] = poly[shift + k]
            if c:
                for i, y in enumerate(divisor):
                    poly[shift + i] -= c * y
        assert not any(poly), "cyclotomic division must be exact"
        poly = quotient
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m is zeta^m, 0 <= m < n, reduced: the row before times zeta, with
    zeta^deg = minus the lower coefficients of the monic cyclotomic polynomial."""
    deg = totient(n)
    top = [-c for c in cyclotomic_polynomial(n)[:deg]]
    row = [1] + [0] * (deg - 1)
    powers = [tuple(row)]
    for _ in range(n - 1):
        overflow = row[-1]
        row = [0] + row[:-1]
        if overflow:
            row = [u + overflow * v for u, v in zip(row, top)]
        powers.append(tuple(row))
    return tuple(powers)


def _fold(n: int, terms):
    """The int vector of sum(c * zeta^m) over the pairs (m, c), m any int."""
    powers = _zeta_powers(n)
    out = [0] * totient(n)
    for m, c in terms:
        if c:
            out = [u + c * v for u, v in zip(out, powers[m % n])]
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m is zeta^(deg+m), deg = totient(n), reduced: what a product folds back
    below the modulus degree without polynomial division."""
    deg = totient(n)
    powers = _zeta_powers(n)
    return tuple(powers[(deg + m) % n] for m in range(max(deg - 1, 1)))


class Cyclo:
    """An element of Q(zeta_n): an int vector ``num`` over one positive int ``den``.

    ``num`` has length totient(n); entry k over ``den`` is the coefficient
    of zeta^k, and ``gcd(den, *num) == 1``, so equality and hashing are
    structural.  ``numerator`` (an int for a constant, else an
    ``_Integral``) and ``denominator`` are as for ``Fraction``; ``coeffs``
    is the ``Fraction`` view.  Instances are immutable.  Ints and Fractions
    mix in as constants; mixing different orders raises.
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != totient(order):
            raise ValueError(
                f"need {totient(order)} coefficients for order {order}, got {len(coeffs)}")
        return cls.from_poly(order, coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the stored form, not through __new__
        return Cyclo._raw, (self.order, self.num, self.den)

    @classmethod
    def _raw(cls, order, num, den):
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _reduced(cls, order, num, den):
        """The value ``num / den`` for an int vector and a nonzero int, in stored form."""
        if den < 0:
            num, den = [-c for c in num], -den
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
        return cls._raw(order, tuple(num), den)

    @classmethod
    def from_poly(cls, order, poly):
        """Reduce an arbitrary-degree polynomial in zeta modulo the cyclotomic polynomial."""
        poly = [c if isinstance(c, Fraction) else Fraction(c) for c in poly]
        den = math.lcm(*[c.denominator for c in poly])
        num = _fold(order, enumerate([c.numerator * (den // c.denominator) for c in poly]))
        return cls._reduced(order, num, den)

    @classmethod
    def zeta(cls, order, power=1):
        return cls._raw(order, _zeta_powers(order)[power % order], 1)

    @classmethod
    def constant(cls, order, value):
        v = value if isinstance(value, Fraction) else Fraction(value)
        return cls._raw(order, (v.numerator,) + (0,) * (totient(order) - 1), v.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta, zeta^2, ... as reduced ``Fraction``s."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    @property
    def numerator(self):
        num = self.num
        if any(num[1:]):
            return _Integral(num, _reduction_rows(self.order))
        return num[0]

    @property
    def denominator(self) -> int:
        return self.den

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.order != self.order:
                raise FieldMismatch(
                    f"cannot mix Q(zeta_{self.order}) with Q(zeta_{other.order})")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.constant(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        return Cyclo._reduced(self.order, [x * b + y * a for x, y in zip(self.num, other.num)],
                              a * b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        return Cyclo._reduced(self.order, [x * b - y * a for x, y in zip(self.num, other.num)],
                              a * b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclo._raw(self.order, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self.order
        return Cyclo._reduced(order, _product(self.num, other.num, _reduction_rows(order)),
                              self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "Cyclo":
        """``den * conj / N``, conj the product of the conjugates sigma_k(num), k != 1:
        ``num * conj`` is formed and checked to be the norm N, a nonzero int."""
        if not self:
            raise SingularError("division by zero in cyclotomic field")
        n, num, rows = self.order, self.num, _reduction_rows(self.order)
        conj = (1,) + (0,) * (len(num) - 1)
        for k in range(2, n):
            if math.gcd(k, n) == 1:   # sigma_k: zeta -> zeta^k
                conj = _product(conj, _fold(n, [(i * k, c) for i, c in enumerate(num)]), rows)
        norm = _product(num, conj, rows)
        assert norm[0] and not any(norm[1:]), "a value times its conjugates must be its norm"
        return Cyclo._reduced(n, [self.den * c for c in conj], norm[0])

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.order == other.order and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.order, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


class _Integral:
    """A numerator in Z[zeta_n]: int coefficients on the power basis 1, zeta, ...

    The numerator form (see ``Field.clear``) of a Q(zeta_n) value that is
    not a constant; constants clear to plain ints, and the two mix in
    ``+``, ``-`` and ``*``.  Arithmetic may leave a constant as an
    ``_Integral``; it then compares and hashes equal to the int, so a
    numerator table has one value however it was reached.  ``rows`` are
    the reduction rows of the order, so a product folds back below the
    modulus degree without division.  Like an int, it is its own numerator.
    """

    __slots__ = ("coeffs", "rows")
    denominator = 1
    numerator = property(lambda self: self)

    def __init__(self, coeffs, rows):
        self.coeffs = coeffs
        self.rows = rows

    def __add__(self, other):
        a = self.coeffs
        if isinstance(other, _Integral):
            return _Integral(tuple([x + y for x, y in zip(a, other.coeffs)]), self.rows)
        if isinstance(other, int):
            return _Integral((a[0] + other,) + a[1:], self.rows)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        a = self.coeffs
        if isinstance(other, _Integral):
            return _Integral(tuple([x - y for x, y in zip(a, other.coeffs)]), self.rows)
        if isinstance(other, int):
            return _Integral((a[0] - other,) + a[1:], self.rows)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return -self + other
        return NotImplemented

    def __neg__(self):
        return _Integral(tuple([-x for x in self.coeffs]), self.rows)

    def __mul__(self, other):
        if isinstance(other, int):   # immutable, so a factor of 1 may return self
            return self if other == 1 else _Integral(tuple([x * other for x in self.coeffs]),
                                                     self.rows)
        if not isinstance(other, _Integral):
            return NotImplemented
        return _Integral(_product(self.coeffs, other.coeffs, self.rows), self.rows)

    __rmul__ = __mul__

    def __floordiv__(self, m):
        """Division by an int ``m`` that divides every coefficient."""
        return _Integral(tuple([x // m for x in self.coeffs]), self.rows)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        a = self.coeffs
        if isinstance(other, _Integral):
            return a == other.coeffs
        if isinstance(other, int):
            return a[0] == other and not any(a[1:])
        return NotImplemented

    def __hash__(self):
        a = self.coeffs
        return hash(a) if any(a[1:]) else hash(a[0])


@lru_cache(maxsize=None)
def _cyclo_constants(order: int) -> tuple[Cyclo, Cyclo]:
    """0 and 1 of Q(zeta_order), built once per order (``Cyclo`` is immutable)."""
    return Cyclo.constant(order, 0), Cyclo.constant(order, 1)


class Field(namedtuple("Field", "kind order")):
    """Descriptor of the coefficient field: the rationals, or Q(zeta_order).

    All scalars inside one algebra share a single field; mixing is an error.
    """

    __slots__ = ()

    def __new__(cls, kind="rational", order=1):
        if kind not in ("rational", "cyclotomic"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "rational" and order != 1:
            raise ValueError("rational field has order 1")
        if kind == "cyclotomic" and order < 2:
            raise ValueError("cyclotomic order must be at least 2")
        return super().__new__(cls, kind, order)

    @property
    def zero(self):
        return ZERO if self.kind == "rational" else _cyclo_constants(self.order)[0]

    @property
    def one(self):
        return ONE if self.kind == "rational" else _cyclo_constants(self.order)[1]

    @property
    def zeta(self):
        if self.kind == "rational":
            raise FieldMismatch("the rational field has no distinguished root of unity")
        return Cyclo.zeta(self.order)

    def coerce(self, value):
        """Embed ints, Fractions, strings, or coefficient lists into this field."""
        if isinstance(value, Cyclo):
            if self.kind != "cyclotomic" or value.order != self.order:
                raise FieldMismatch(f"{value!r} does not belong to {self}")
            return value
        if isinstance(value, (list, tuple)):
            if self.kind != "cyclotomic":
                raise FieldMismatch("coefficient lists only make sense in a cyclotomic field")
            return Cyclo(self.order, [self._rational(c) for c in value])
        q = self._rational(value)
        return q if self.kind == "rational" else Cyclo.constant(self.order, q)

    def _rational(self, value) -> Fraction:
        """A rational from an int, Fraction or "p"/"p/q" string; anything else is refused.

        Booleans, floats, and decimal or exponent strings (which ``Fraction``
        would accept, ``"1e999999999"`` at the cost of computing 10**999999999)
        raise FieldMismatch; ``"1/0"`` raises ZeroDivisionError.
        """
        if isinstance(value, bool):
            raise FieldMismatch("booleans are not scalars")
        if isinstance(value, float):
            raise FieldMismatch("floats are forbidden; use exact rationals")
        if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
            raise FieldMismatch(f"{value!r} is not a rational of the form p or p/q")
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
        raise FieldMismatch(f"cannot coerce {value!r} into {self}")

    def inv(self, value):
        if isinstance(value, Cyclo):
            return value.inverse()
        if not value:
            raise SingularError("division by zero")
        return 1 / Fraction(value)

    # -- numerator form: what the tensor kernel and the elimination compute on --

    def clear(self, values):
        """Numerators over one common denominator: ``(nums, den)``, ``values[i] = nums[i] / den``.

        ``den`` is an int, the lcm of the value denominators, and the
        numerators are integral.  Over Q they are ints (0 for a zero value).
        Over Q(zeta_n) they lie in Z[zeta_n]: an int for a constant value,
        otherwise an integral coefficient vector.  ``values`` may mix field
        values with numerators, which count as over 1.
        """
        values = list(values)
        den = math.lcm(*[v.denominator for v in values])
        if den == 1:
            return [v.numerator for v in values], 1
        return [v.numerator * (den // v.denominator) for v in values], den

    def restore(self, nums, den):
        """The field values ``n / den`` for the numerators ``n``, reduced; inverts :meth:`clear`.

        ``den`` is a nonzero int, and every value is built directly from its
        numerator and ``den``.
        """
        if self.kind == "rational":
            if den == 1:
                return [Fraction(n) for n in nums]
            return [Fraction(n, den) for n in nums]
        order = self.order
        zeros = (0,) * (totient(order) - 1)
        return [Cyclo._reduced(order, (n,) + zeros if isinstance(n, int) else n.coeffs, den)
                for n in nums]

    def format_scalar(self, value):
        """Text encoding: 'p/q' strings for Q, coefficient-string arrays for Q(zeta_n)."""
        value = self.coerce(value)
        if self.kind == "rational":
            return str(value)
        return [str(c) for c in value.coeffs]

    def parse_scalar(self, obj):
        return self.coerce(obj)

    def __str__(self):
        return "Q" if self.kind == "rational" else f"Q(zeta_{self.order})"


RATIONAL = Field("rational", 1)


def cyclotomic_field(order: int) -> Field:
    return Field("cyclotomic", order)

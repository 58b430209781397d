"""Exact scalar arithmetic over Q and cyclotomic extensions Q(zeta_n).

Scalar values are either ``fractions.Fraction`` (rational field) or
:class:`Cyclo` (polynomial residues in a primitive n-th root of unity,
reduced modulo the n-th cyclotomic polynomial).  Everything is exact;
there is no floating point anywhere in the kernel, so every comparison
downstream is a strict equality.

The tensor kernel and the elimination compute on numerators instead of
field values (``Field.clear``, ``Field.restore``, ``Field.divider``): a set
of values is cleared to integral numerators over one int denominator, the
lcm of all their coefficient denominators.  Over Q a numerator is an int.
Over Q(zeta_n) it is an element of Z[zeta_n]: a plain int when the value
is a constant, otherwise a private integral coefficient vector that
multiplies modulo the monic integral cyclotomic polynomial.  Stored
values are always normalised ``Fraction``/``Cyclo``; numerators never
leave the kernel.
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


def totient(n: int) -> int:
    """Euler's totient, by trial-division factorization (n stays tiny here)."""
    if n < 1:
        raise ValueError("totient of a non-positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- polynomial helpers (dense, ascending coefficients, Fraction entries) --

def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else ZERO) - (b[i] if i < len(b) else ZERO)
           for i in range(n)]
    return _trim(out)


def _poly_divmod(a, b):
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = _trim(list(a))
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        _trim(a)
    return _trim(q), a


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m is the reduced form of zeta^(deg+m), deg = totient(n), as ints.

    Lets products be folded back below the modulus degree without running
    polynomial division in the multiplication hot path.  The rows are
    integral because the cyclotomic polynomial is monic and integral, so
    ``Cyclo`` values and ``_Integral`` numerators fold with the same rows.
    """
    deg = totient(n)
    modulus = cyclotomic_polynomial(n)
    rows = []
    # zeta^deg = -(lower coefficients) since the modulus is monic
    current = [-int(c) for c in modulus[:deg]]
    rows.append(tuple(current))
    for _ in range(deg - 2):
        shifted = [0] + current[:-1]
        overflow = current[-1]
        if overflow:
            shifted = [a + overflow * b for a, b in zip(shifted, rows[0])]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial.

    Computed once per order by dividing x^n - 1 by the cyclotomic
    polynomials of the proper divisors of n.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return (Fraction(-1), ONE)
    num = [ZERO] * (n + 1)
    num[0], num[n] = Fraction(-1), ONE
    poly = num
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem, "cyclotomic division must be exact"
    return tuple(poly)


class Cyclo:
    """An element of Q(zeta_n), stored reduced mod the cyclotomic polynomial.

    ``coeffs`` has length totient(n); entry k is the coefficient of zeta^k.
    Instances are immutable.  Mixed arithmetic with ints and Fractions
    coerces them as constants; mixing different orders raises.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = totient(order)
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    @classmethod
    def _raw(cls, order, coeffs):
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def from_poly(cls, order, poly):
        """Reduce an arbitrary-degree polynomial in zeta modulo the cyclotomic polynomial."""
        modulus = list(cyclotomic_polynomial(order))
        _, rem = _poly_divmod([Fraction(c) for c in poly], modulus)
        deg = totient(order)
        rem = rem + [ZERO] * (deg - len(rem))
        return cls(order, rem)

    @classmethod
    def zeta(cls, order, power=1):
        return cls.from_poly(order, [ZERO] * (power % order) + [ONE])

    @classmethod
    def constant(cls, order, value):
        deg = totient(order)
        v = value if isinstance(value, Fraction) else Fraction(value)
        return cls._raw(order, (v,) + (ZERO,) * (deg - 1))

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
        return Cyclo._raw(self.order,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclo._raw(self.order,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclo._raw(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        deg = len(a)
        out = [ZERO] * (2 * deg - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        if deg > 1:
            rows = _reduction_rows(self.order)
            low = out[:deg]
            for m, overflow in enumerate(out[deg:]):
                if overflow:
                    row = rows[m]
                    low = [u + overflow * v for u, v in zip(low, row)]
            out = low
        return Cyclo._raw(self.order, tuple(out))

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
        """Multiplicative inverse by extended gcd against the cyclotomic polynomial."""
        if not self:
            raise SingularError("division by zero in cyclotomic field")
        modulus = list(cyclotomic_polynomial(self.order))
        # extended Euclid on (self, modulus); gcd is a nonzero constant
        r0, r1 = _trim(list(self.coeffs)), modulus
        s0, s1 = [ONE], []
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "gcd with an irreducible modulus must be constant"
        inv_gcd = 1 / r0[0]
        return Cyclo.from_poly(self.order, [c * inv_gcd for c in s0])

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

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
    ``+``, ``-`` and ``*``.  ``rows`` are the reduction rows of the order,
    so a product folds back below the modulus degree without division.
    ``// d`` divides every coefficient by the int ``d`` and is only used
    where the quotient is integral.
    """

    __slots__ = ("coeffs", "rows")

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
        if isinstance(other, int):
            return _Integral(tuple([x * other for x in self.coeffs]), self.rows)
        if not isinstance(other, _Integral):
            return NotImplemented
        a, b, rows = self.coeffs, other.coeffs, self.rows
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
        return _Integral(tuple(low), rows)

    __rmul__ = __mul__

    def __floordiv__(self, d):
        return _Integral(tuple([x // d for x in self.coeffs]), self.rows)

    def __bool__(self):
        return any(self.coeffs)


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

        ``den`` is an int, the lcm of the denominators of all coefficients,
        and the numerators are integral.  Over Q they are ints (0 for a zero
        value).  Over Q(zeta_n) they lie in Z[zeta_n]: an int for a constant
        value, otherwise an integral coefficient vector.  ``values`` may mix
        field values with numerators, which count as over 1.
        """
        values = list(values)
        if self.kind == "rational":
            den = math.lcm(*[v.denominator for v in values])
            if den == 1:
                return [v.numerator for v in values], 1
            return [v.numerator * (den // v.denominator) for v in values], den
        den = math.lcm(*[c.denominator for v in values if isinstance(v, Cyclo)
                         for c in v.coeffs])
        rows = _reduction_rows(self.order)
        nums = []
        for v in values:
            if not isinstance(v, Cyclo):
                nums.append(v * den)
            elif any(v.coeffs[1:]):
                nums.append(_Integral(tuple([c.numerator * (den // c.denominator)
                                             for c in v.coeffs]), rows))
            else:
                c = v.coeffs[0]
                nums.append(c.numerator * (den // c.denominator))
        return nums, den

    def restore(self, nums, den):
        """The field values ``n / den`` for the numerators ``n``, reduced; inverts :meth:`clear`.

        ``den`` is a nonzero numerator.  Over an int ``den`` every value is
        built directly from reduced ``Fraction`` coefficients; over a
        Z[zeta_n] ``den`` (a Bareiss determinant) one ``Cyclo`` inverse is
        formed for all of ``nums``.
        """
        if self.kind == "rational":
            if den == 1:
                return [Fraction(n) for n in nums]
            return [Fraction(n, den) for n in nums]
        if not isinstance(den, int):
            inv = self.restore([den], 1)[0].inverse()
            return [v * inv for v in self.restore(nums, 1)]
        order = self.order
        zeros = (ZERO,) * (totient(order) - 1)
        return [Cyclo._raw(order, (Fraction(n, den),) + zeros) if isinstance(n, int)
                else Cyclo._raw(order, tuple([Fraction(c, den) for c in n.coeffs]))
                for n in nums]

    def divider(self, p):
        """Exact division by the nonzero numerator ``p``, as a function of the dividend.

        The dividend must be ``p`` times a numerator, as every Bareiss
        quotient is.  For an int ``p`` (always, over Q) it is ``//``.  For
        ``p`` in Z[zeta_n] it multiplies by ``m / p``, integral for ``m`` the
        lcm of the coefficient denominators of ``1 / p``, then divides every
        coefficient by ``m``; the power basis is a Z-basis of Z[zeta_n], so
        that division is exact too.
        """
        if isinstance(p, int):
            return lambda x: x // p
        (inv,), m = self.clear([self.restore([p], 1)[0].inverse()])
        return lambda x: (x * inv) // m

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

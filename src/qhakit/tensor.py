"""Structure-constant algebras, their tensor powers, and leg operations.

An :class:`Algebra` is a finite-dimensional unital associative algebra
given by sparse structure constants c_{ij}^k (e_i e_j = sum_k c_{ij}^k e_k),
checked for associativity and the unit laws at construction.  An element
of H^(x)n is a :class:`TensorElement`, and an element of H is the tensor
of arity 1: :class:`AlgElement` is the subclass that every constructor
and every operation with an arity-1 result returns (the class is chosen
by arity in one place, ``TensorElement._of``), so nothing converts
between the two.  The stored form is a sparse table from multi-indices to
nonzero integral numerators over one positive int denominator, with no
common factor (the gcd of the denominator and every numerator coefficient
is 1).  Numerators are ints over Q and lie in Z[zeta_n] over Q(zeta_n)
(ints, or ``_Integral`` vectors, which compare and hash like ints when
constant), so each value has one stored form and equality and hashing are
structural.  The algebra holds its structure constants in the same form.

Every operation runs on numerators and reduces its result once, with one
gcd over the table.  Every product through the structure constants (the
legwise product, the product in H, ``left_matrix``, all of whose columns
are one walk, and the associativity check of an algebra's table) runs in
one kernel, ``_walk``: both operands are indexed as tries over their legs,
each left prefix walks the right trie once, the numerators join at the
last leg, and leg pairs with no structure constants are skipped whole.
Every linear map on legs runs in the other kernel, the block map
``_apply``, which replaces a run of adjacent legs by their image: ``on_leg``
maps one leg through a map's columns, and ``contract`` collapses each
output leg's run of input legs into the products of its factors.
``_walk`` and ``_apply`` are the only weighted sums; other modules (the
closed forms of ``qhakit.drinfeld``, the block table of ``qhakit.blocks``)
build theirs from them through products, ``contract`` and ``on_leg``.
Field values appear only at the boundary: the public constructors clear
them (``Field.clear``) and ``entries``/``coeffs`` restore them
(``Field.restore``) on each access, for files, reports, witnesses and ``repr``.

The support join is what makes a change of basis pay: in the rational
block basis of a cyclic group algebra (:mod:`qhakit.blocks`, eps_d g^j
for d | n, 0 <= j < phi(d)), products across blocks vanish, so 6 of the
16 leg pairs of Z/4 and 10 of the 36 of Z/6 carry structure constants,
and an arity-k product walks that much less.  Which bundles use that
basis is stated in :mod:`qhakit.blocks`.

Conventions used throughout:

* legs are numbered from 1;
* ``t.perm((2, 3, 1))`` puts component 2 on leg 1, component 3 on leg 2,
  component 1 on leg 3 (so for a coassociator ``phi.perm((3, 2, 1))`` is
  the familiar 321-reversal);
* ``r.embed((1, 3), 3)`` places an arity-2 element on legs 1 and 3 of
  H^(x)3 with the unit on leg 2.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import linalg
from .errors import AlgebraError, ArityMismatch, SingularError
from .scalars import _Integral


def _trie(nums):
    """A numerator table as nested dicts over its legs; the leaves keep 1-tuple keys."""
    trie = {}
    for K, v in nums.items():
        node = trie
        for k in K[:-1]:
            node = node.setdefault(k, {})
        node[K[-1:]] = v
    return trie


def _walk(table, arity, left, right):
    """Numerators of the legwise product of two numerator tables of H^(x)arity.

    The one structure-constant kernel: ``table[i][j]`` maps a key tuple to
    the numerator of c_{ij}^k (the key is (k,) for the product).  Both
    operands are indexed as tries over their legs and the left one is walked
    depth first, each left prefix with a frontier of (key prefix, product of
    structure constants, right node) extended from its parent's: what lies
    above the last leg is formed once per pair of prefixes, not of entries,
    and one frontier per depth is alive.  A right subtree under a leg pair
    with no structure constants is skipped whole (the per-leg support join);
    the numerators join only at the last leg.
    """
    if not (left and right):
        return {}
    if not arity:   # scalars: one entry each, and their product is nonzero
        return {(): left[()] * right[()]}
    if arity > 1:   # at arity 1 a table is its own trie
        left, right = _trie(left), _trie(right)
    out = {}   # key prefix -> last key -> sum
    _descend(table, out, left, [((), 1, right)], arity - 1)
    return {key + k: v for key, acc in out.items() for k, v in acc.items() if v}


def _descend(table, out, node, frontier, legs):
    """``_walk`` below the left node ``node``, ``legs`` legs above the last; the
    last leg's sums go to ``out[key prefix]`` (no cancellation test)."""
    if legs:
        for i, child in node.items():
            row = table[i]
            _descend(table, out, child, [(key + k, val * c, rchild)
                                         for key, val, rnode in frontier
                                         for j, rchild in rnode.items()
                                         for k, c in row[j].items()], legs - 1)
        return
    for key, val, rnode in frontier:
        acc = out.get(key)
        if acc is None:
            acc = out[key] = {}
        get = acc.get
        for (i,), u in node.items():
            row = table[i]
            w = val * u
            for (j,), v in rnode.items():
                col = row[j]
                if col:
                    wv = w * v
                    for k, c in col.items():
                        acc[k] = get(k, 0) + wv * c


def _legwise(a, b):
    """The legwise product of two elements of one arity (the product in H at arity 1)."""
    a._require_like(b)
    alg = a.algebra
    nums = _walk(alg._numerators, a.arity, a._nums, b._nums)
    return TensorElement._reduced(alg, a.arity, nums, a._den * b._den * alg._denominator ** a.arity)


def _over_one_denominator(factors):
    """A dict of tensors as one table of numerators over one denominator (an image)."""
    den = math.lcm(*[f._den for f in factors.values()])
    return {b: f._nums if f._den == den else {k: v * (den // f._den) for k, v in f._nums.items()}
            for b, f in factors.items()}, den


def _apply(t, start, width, image, algebra, arity):
    """The block map: legs ``start+1 .. start+width`` of ``t`` replaced by their image.

    ``image`` is ``(table, den)``: ``table`` maps each index block of those
    legs to the numerators over ``den`` of what replaces it.  The result, of
    the given arity, lies in ``algebra`` (a map may cross algebras).  Only a
    sum into an entry already there can cancel; a cancelled entry is deleted.
    """
    table, den = image
    stop = start + width
    out = {}
    get = out.get
    for key, u in t._nums.items():
        head, tail = key[:start], key[stop:]
        for sub, c in table[key[start:stop]].items():
            k = head + sub + tail
            v = get(k)
            if v is None:
                out[k] = u * c
            elif v := v + u * c:
                out[k] = v
            else:
                del out[k]
    return TensorElement._reduced(algebra, arity, out, t._den * den)


class Algebra:
    """Finite-dimensional unital associative algebra over an exact field."""

    def __init__(self, field, dim, mult, unit=None, basis=None):
        if dim < 1:
            raise AlgebraError("dimension must be positive")
        self.field = field
        self.dim = dim
        self.basis_names = list(basis) if basis else [f"e{i}" for i in range(dim)]
        if len(self.basis_names) != dim:
            raise AlgebraError("one basis name per dimension")

        table = {}
        for (i, j), val in mult.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"structure constant index ({i},{j}) out of range")
            if isinstance(val, dict):
                col = {k: field.coerce(v) for k, v in val.items()}
            else:
                col = {k: field.coerce(v) for k, v in enumerate(val)}
            col = {k: v for k, v in col.items() if v}
            for k in col:
                if not 0 <= k < dim:
                    raise AlgebraError(f"structure constant target {k} out of range")
            if col:
                table[(i, j)] = col
        self._mult = table
        # the structure constants as numerators over one denominator:
        # _numerators[i][j] maps the key (k,) to the numerator of c_{ij}^k
        nums, self._denominator = field.clear(v for col in table.values() for v in col.values())
        nums = iter(nums)
        self._numerators = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j), col in table.items():
            self._numerators[i][j] = {(k,): next(nums) for k in col}

        if unit is None:
            unit_coeffs = [field.one] + [field.zero] * (dim - 1)
        else:
            unit_coeffs = [field.coerce(v) for v in unit]
            if len(unit_coeffs) != dim:
                raise AlgebraError("unit vector has wrong length")
        self.unit = tuple(unit_coeffs)
        self.unit_element = self.element(self.unit)
        self._tensor_units = {}
        self._check()

    # -- construction-time axiom checks --

    def _check(self):
        one = self.unit_element
        for i in range(self.dim):
            e = self.basis_element(i)
            if one * e != e or e * one != e:
                raise AlgebraError(f"unit law fails on basis element {self.basis_names[i]}")
        # (e_i e_j) e_k and e_i (e_j e_k) as numerators over the denominator squared
        nums, b = self._numerators, [{(k,): 1} for k in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if _walk(nums, 1, nums[i][j], b[k]) != _walk(nums, 1, b[i], nums[j][k]):
                        raise AlgebraError(
                            "associativity fails on basis triple "
                            f"({self.basis_names[i]}, {self.basis_names[j]}, {self.basis_names[k]})")

    # -- basic accessors --

    def basis_product(self, i, j):
        return self._mult.get((i, j), {})

    def element(self, coeffs) -> "AlgElement":
        """The element with the given field-valued coefficients on the basis."""
        coeffs = list(coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraError("coefficient vector has wrong length")
        return TensorElement(self, 1, {(i,): v for i, v in enumerate(coeffs)})

    def basis_element(self, i) -> "AlgElement":
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return TensorElement._of(self, 1, {(i,): 1}, 1)

    def zero_element(self) -> "AlgElement":
        return TensorElement._of(self, 1, {}, 1)

    def scalar_element(self, value) -> "AlgElement":
        return self.field.coerce(value) * self.unit_element

    def tensor_unit(self, arity) -> "TensorElement":
        """The unit of H^(x)arity (arity 0 gives the scalar 1)."""
        t = self._tensor_units.get(arity)
        if t is None:
            t = self._tensor_units[arity] = (self.tensor_unit(arity - 1) @ self.unit_element
                                             if arity else TensorElement._of(self, 0, {(): 1}, 1))
        return t

    def tensor_zero(self, arity) -> "TensorElement":
        return TensorElement._of(self, arity, {}, 1)

    def multi_indices(self, arity):
        return itertools.product(range(self.dim), repeat=arity)

    def compatible(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.unit == other.unit
                and self._mult == other._mult)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field})"


class TensorElement:
    """A sparse element of H^(x)arity in the stored form of the module docstring.

    An arity-1 tensor is an element of H: every constructor makes it an
    :class:`AlgElement`.  Instances are never mutated, so results may share
    tables.
    """

    __slots__ = ("algebra", "arity", "_nums", "_den")
    _MIXED = "tensors over different algebras"

    def __new__(cls, algebra, arity, entries=None):
        """The tensor with the given field values; keys are checked, values coerced."""
        if arity < 0:
            raise ArityMismatch("arity must be nonnegative")
        field = algebra.field
        values = {}
        for key, val in (entries or {}).items():
            key = tuple(key)
            if len(key) != arity or not all(0 <= i < algebra.dim for i in key):
                raise ArityMismatch(f"bad multi-index {key} for arity {arity}")
            val = field.coerce(val)
            values[key] = values[key] + val if key in values else val
        values = {k: v for k, v in values.items() if v}
        nums, den = field.clear(values.values())
        return TensorElement._of(algebra, arity, dict(zip(values, nums)), den)

    @staticmethod
    def _of(algebra, arity, nums, den):
        """An element from a table already in stored form; the class is chosen by arity."""
        self = object.__new__(AlgElement if arity == 1 else TensorElement)
        self.algebra, self.arity, self._nums, self._den = algebra, arity, nums, den
        return self

    @staticmethod
    def _reduced(algebra, arity, nums, den):
        """An element from nonzero numerators over a positive ``den``: divides out
        the gcd of ``den`` and every numerator coefficient, one gcd for the table."""
        if den != 1:
            if algebra.field.kind == "rational":
                g = math.gcd(den, *nums.values())
            else:
                g = den
                for v in nums.values():
                    g = math.gcd(g, *v.coeffs) if isinstance(v, _Integral) else math.gcd(g, v)
                    if g == 1:
                        break
            if g != 1:
                nums, den = {k: v // g for k, v in nums.items()}, den // g
        return TensorElement._of(algebra, arity, nums, den)

    def _require_like(self, other):
        if not self.algebra.compatible(other.algebra):
            raise ArityMismatch(self._MIXED)
        if self.arity != other.arity:
            raise ArityMismatch(f"arity mismatch: {self.arity} vs {other.arity}")

    @property
    def entries(self) -> dict:
        """multi-index -> nonzero field value, restored on each access."""
        return dict(zip(self._nums, self.algebra.field.restore(self._nums.values(), self._den)))

    # -- linear structure --

    def _combine(self, other, op):
        """``op(self, other)`` for ``op`` the addition or the subtraction of numerators."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        a, b = self._den, other._den
        g = math.gcd(a, b)
        fa, fb = b // g, a // g
        out = {k: v * fa for k, v in self._nums.items()} if fa != 1 else dict(self._nums)
        get = out.get
        for k, v in other._nums.items():
            v = op(get(k, 0), v if fb == 1 else v * fb)
            if v:
                out[k] = v
            else:
                del out[k]
        return self._reduced(self.algebra, self.arity, out, a * fa)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self._of(self.algebra, self.arity, {k: -v for k, v in self._nums.items()},
                        self._den)

    def scale(self, scalar):
        scalar = self.algebra.field.coerce(scalar)
        if not scalar:
            return self._of(self.algebra, self.arity, {}, 1)
        n = scalar.numerator
        return self._reduced(self.algebra, self.arity, {k: v * n for k, v in self._nums.items()},
                             self._den * scalar.denominator)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra.compatible(other.algebra) and self.arity == other.arity
                and self._den == other._den and self._nums == other._nums)

    def __hash__(self):
        return hash((self.arity, self._den, frozenset(self._nums.items())))

    def __reduce__(self):
        # copy and pickle rebuild from the stored form, not through __new__
        return TensorElement._of, (self.algebra, self.arity, self._nums, self._den)

    # -- multiplicative structure --

    def __mul__(self, other):
        """Legwise product: (a (x) b)(c (x) d) = ac (x) bd, extended bilinearly."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        return _legwise(self, other)

    def __matmul__(self, other):
        """Outer (Kronecker) product: arities add."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        if not self.algebra.compatible(other.algebra):
            raise ArityMismatch(self._MIXED)
        nums = {I + J: u * v for I, u in self._nums.items() for J, v in other._nums.items()}
        return TensorElement._reduced(self.algebra, self.arity + other.arity, nums,
                                      self._den * other._den)

    # -- leg operations --

    def perm(self, sigma) -> "TensorElement":
        """Leg relabeling: leg s of the result carries component sigma[s-1]."""
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(1, self.arity + 1)):
            raise ArityMismatch(f"{sigma} is not a permutation of 1..{self.arity}")
        if self.arity < 2:   # the identity is the only permutation
            return self
        get = operator.itemgetter(*[s - 1 for s in sigma])
        out = {get(key): val for key, val in self._nums.items()}
        return TensorElement._of(self.algebra, self.arity, out, self._den)

    def transpose(self) -> "TensorElement":
        if self.arity != 2:
            raise ArityMismatch("transpose is the arity-2 leg swap")
        return self.perm((2, 1))

    def embed(self, positions, arity) -> "TensorElement":
        """Place this element on the given legs of H^(x)arity, unit elsewhere."""
        positions = tuple(positions)
        if len(positions) != self.arity:
            raise ArityMismatch("one position per leg")
        if len(set(positions)) != len(positions):
            raise ArityMismatch("duplicate positions")
        if any(not 1 <= p <= arity for p in positions):
            raise ArityMismatch(f"positions {positions} out of range for arity {arity}")
        # component c of self (x) 1 lands on leg legs[c-1]; perm takes the inverse
        legs = positions + tuple(p for p in range(1, arity + 1) if p not in positions)
        sigma = [0] * arity
        for c, p in enumerate(legs, 1):
            sigma[p - 1] = c
        return (self @ self.algebra.tensor_unit(arity - self.arity)).perm(sigma)

    # -- inversion and matrices --

    def left_matrix(self):
        """The matrix of left multiplication by self, as numerators ``(rows, den)``.

        Column J of ``rows / den`` holds the coefficients of self * e_J over
        H^(x)arity, rows and columns in ``multi_indices`` order; the entries
        of ``rows`` are numerators (ints over Q, elements of Z[zeta_n] over
        Q(zeta_n)), so the matrix is never built from field values.
        """
        alg = self.algebra
        index = {J: pos for pos, J in enumerate(alg.multi_indices(self.arity))}
        rows = [[0] * len(index) for _ in index]
        # one walk against every e_J at once: each leg's key (k,) becomes (k, j),
        # so a result key interleaves the row K and the column J
        table = [[{(k, j): c for (k,), c in col.items()} for j, col in enumerate(row)]
                 for row in alg._numerators]
        for key, val in _walk(table, self.arity, self._nums, dict.fromkeys(index, 1)).items():
            rows[index[key[::2]]][index[key[1::2]]] = val
        return rows, self._den * alg._denominator ** self.arity

    def invert(self) -> "TensorElement":
        """Two-sided inverse, via one exact solve of the left-multiplication matrix.

        Both one-sided identities are verified before returning; a left
        inverse that is not also a right inverse raises SingularError.
        """
        alg, n = self.algebra, self.arity
        unit = alg.tensor_unit(n)
        rows, den = self.left_matrix()
        # (rows / den) x = unit = nums / unit_den  <=>  (unit_den * rows) x = den * nums
        if unit._den != 1:
            rows = [[unit._den * v for v in row] for row in rows]
        rhs = [den * unit._nums.get(K, 0) for K in alg.multi_indices(n)]
        nums, x_den = alg.field.clear(linalg.solve(alg.field, rows, rhs))
        candidate = self._of(alg, n, {J: v for J, v in zip(alg.multi_indices(n), nums) if v},
                             x_den)
        if candidate * self != unit:
            raise SingularError("element has a right inverse but no left inverse")
        return candidate

    def scalar(self):
        if self.arity != 0:
            raise ArityMismatch("only arity-0 tensors are scalars")
        return self.entries.get((), self.algebra.field.zero)

    def __repr__(self):
        names = self.algebra.basis_names
        entries = self.entries
        terms = []
        for key in sorted(entries):
            label = "(x)".join(names[i] for i in key) if key else "1"
            terms.append(f"({entries[key]})*{label}")
        return " + ".join(terms) if terms else "0"


class AlgElement(TensorElement):
    """An element of H: a tensor of arity 1, with a dense ``coeffs`` view.

    ``Algebra.element`` builds one from coefficients, ``TensorElement(alg, 1, ...)``
    from entries; every operation with an arity-1 result returns one.
    """

    __slots__ = ()
    _MIXED = "elements of different algebras"

    @property
    def coeffs(self) -> tuple:
        """The coefficients on the basis, as field values."""
        out = [self.algebra.field.zero] * self.algebra.dim
        for (i,), v in self.entries.items():
            out[i] = v
        return tuple(out)

    def __mul__(self, other):
        """The product in H (its own method, so that it is timed apart from tensor products)."""
        if isinstance(other, TensorElement):
            return _legwise(self, other)
        return self.scale(other)

    def inverse(self) -> "AlgElement":
        return self.invert()

    def is_invertible(self) -> bool:
        try:
            self.invert()
            return True
        except SingularError:
            return False

    def is_central(self) -> bool:
        alg = self.algebra
        return all(self * alg.basis_element(i) == alg.basis_element(i) * self
                   for i in range(alg.dim))


def first_difference(a: TensorElement, b: TensorElement):
    """Smallest multi-index where two tensors differ, with both values (or None)."""
    zero = a.algebra.field.zero
    a, b = a.entries, b.entries
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, zero), b.get(key, zero)
        if va != vb:
            return key, va, vb
    return None


class LinearMap:
    """A linear map H -> H^(x)m defined by its images on the basis.

    The map is stored and applied linearly.  Whether it is an
    anti-homomorphism (such as an antipode) is a property the structure
    verifiers check, not part of the representation.
    """

    __slots__ = ("algebra", "out_arity", "columns", "_numerators")

    def __init__(self, algebra, columns):
        columns = list(columns)
        if len(columns) != algebra.dim:
            raise ArityMismatch("one column per basis element")
        arities = {c.arity for c in columns}
        if len(arities) != 1:
            raise ArityMismatch("all columns must share one arity")
        self.algebra = algebra
        self.out_arity = arities.pop()
        self.columns = columns
        self._numerators = None   # the columns over one denominator, built by on_leg

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, [algebra.basis_element(i) for i in range(algebra.dim)])

    @classmethod
    def from_matrix(cls, algebra, matrix):
        cols = [TensorElement(algebra, 1, {(k,): matrix[k][i] for k in range(algebra.dim)})
                for i in range(algebra.dim)]
        return cls(algebra, cols)

    @classmethod
    def scalar_map(cls, algebra, values):
        """A map H -> F (arity-0 images), e.g. a counit."""
        return cls(algebra, [TensorElement(algebra, 0, {(): v}) for v in values])

    def col(self, i) -> TensorElement:
        return self.columns[i]

    def __call__(self, x: AlgElement):
        """Apply to an element; a map to scalars returns the scalar, others a tensor."""
        out = self.on_leg(x, 1)
        return out.scalar() if self.out_arity == 0 else out

    def on_leg(self, t: TensorElement, leg: int) -> TensorElement:
        """Apply on one leg of a tensor; the arity changes by out_arity - 1."""
        if not 1 <= leg <= t.arity:
            raise ArityMismatch(f"leg {leg} out of range for arity {t.arity}")
        if self._numerators is None:
            self._numerators = _over_one_denominator({(i,): c for i, c in enumerate(self.columns)})
        return _apply(t, leg - 1, 1, self._numerators, self.algebra, t.arity - 1 + self.out_arity)

    def map_tensor(self, t: TensorElement) -> TensorElement:
        """Apply a 1 -> 1 map on every leg (e.g. (S (x) S)R, or S(a) for an element)."""
        if self.out_arity != 1:
            raise ArityMismatch("map_tensor needs a 1 -> 1 map")
        for leg in range(1, t.arity + 1):
            t = self.on_leg(t, leg)
        return t

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other; other must be 1 -> 1."""
        if other.out_arity != 1:
            raise ArityMismatch("can only precompose with a 1 -> 1 map")
        return LinearMap(self.algebra, [self.on_leg(c, 1) for c in other.columns])

    def matrix(self):
        if self.out_arity != 1:
            raise ArityMismatch("matrix form needs a 1 -> 1 map")
        d = self.algebra.dim
        mat = [[self.algebra.field.zero] * d for _ in range(d)]
        for i in range(d):
            for (k,), v in self.columns[i].entries.items():
                mat[k][i] = v
        return mat

    def inverse(self) -> "LinearMap":
        inv = linalg.invert_matrix(self.algebra.field, self.matrix())
        return LinearMap.from_matrix(self.algebra, inv)

    def swapped(self) -> "LinearMap":
        """For 1 -> 2 maps: the opposite coproduct T o Delta."""
        if self.out_arity != 2:
            raise ArityMismatch("swapped needs a 1 -> 2 map")
        return LinearMap(self.algebra, [c.perm((2, 1)) for c in self.columns])

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.algebra.compatible(other.algebra)
                and self.out_arity == other.out_arity and self.columns == other.columns)

    def __repr__(self):
        return f"LinearMap(1->{self.out_arity})"


def tensor_of(*elements) -> TensorElement:
    """Outer product a_1 (x) ... (x) a_n of algebra elements."""
    if not elements:
        raise ArityMismatch("tensor_of needs at least one factor")
    out = elements[0]
    for e in elements[1:]:
        out = out @ e
    return out


def contract(t: TensorElement, *specs) -> TensorElement:
    """Multiply a tensor out into a lower arity, leg by leg.

    Each spec describes one output leg as a sequence of factors over ``t``'s
    algebra, taken in order: an AlgElement is a fixed factor, a pair
    ``(leg, m)`` is the image of input leg ``leg`` under the 1 -> 1 map
    ``m`` (``None`` for the identity).  Every input leg must be used exactly
    once.  For instance the reading of ``sum S(X) a Y b S(Z)`` off an
    arity-3 tensor is ``contract(phi, [(1, s), a, (2, None), b, (3, s)])``.
    """
    alg = t.algebra
    order = []   # the input legs in the order the specs read them
    for spec in specs:
        for item in spec:
            other = item
            if not isinstance(item, AlgElement):
                leg, other = item
                order.append(leg)
                if other is None:
                    continue
                if other.out_arity != 1:
                    raise ArityMismatch("contract applies 1 -> 1 maps only")
            if not alg.compatible(other.algebra):
                raise ArityMismatch(AlgElement._MIXED)
    legs = list(range(1, t.arity + 1))
    if order != legs:
        if sorted(order) != legs:
            raise ArityMismatch(f"legs {sorted(order)} do not cover 1..{t.arity} exactly once")
        t = t.perm(order)   # each spec's legs side by side, in the order it reads them
    unit = alg.unit_element
    for s, spec in enumerate(specs):
        # output leg s replaces the r legs the spec reads by the product of its items, formed
        # up to each item once per distinct prefix of the index blocks those legs hold
        products, r = {(): None if spec else unit}, 0   # indices read -> product so far
        for item in spec:
            if isinstance(item, AlgElement):
                products = {b: item if p is None else p * item for b, p in products.items()}
                continue
            r += 1
            col = alg.basis_element if item[1] is None else item[1].col
            prev, products = products, {}
            for b in {key[s:s + r] for key in t._nums}:
                p, f = prev[b[:-1]], col(b[-1])
                products[b] = f if p is None else p * f
        t = _apply(t, s, r, _over_one_denominator(products), alg, t.arity - r + 1)
    return t

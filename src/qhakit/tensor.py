"""Structure-constant algebras, their tensor powers, and leg operations.

An :class:`Algebra` is a finite-dimensional unital associative algebra
given by sparse structure constants c_{ij}^k (e_i e_j = sum_k c_{ij}^k e_k),
checked for associativity and the unit laws at construction.  Elements of
tensor powers H^(x)n are sparse multi-index coefficient tables with zeros
always dropped, so equality is plain dict equality.  Every product through
the structure constants (the legwise product, the product in H and the
columns of ``left_matrix``) runs in one private kernel, ``_walk``: the
right operand is indexed as a trie over its legs, each left entry walks it
leg by leg sharing prefixes, and leg pairs with no structure constants are
skipped whole.  Pure outer products (``@``, hence ``embed``, ``contract``
and the tensor units) expand through ``_expand``; ``LinearMap.on_leg``
substitutes a map's columns, in numerator form, into one leg.

All of these run on numerators.  Each operand is cleared to integral
numerators over one int denominator (``Field.clear``: Python ints for Q;
for Q(zeta_n) ints for constants and Z[zeta_n] coefficient vectors
otherwise), the algebra holds its structure constants once in the same
form, and each result entry is restored once, as a reduced ``Fraction`` or
``Cyclo`` (``Field.restore``).  Stored entries are always normalised field
values, so equality, hashing and serialization never see a numerator.

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

from . import linalg
from .errors import AlgebraError, ArityMismatch, SingularError


def _acc(entries, key, value):
    cur = entries.get(key)
    if cur is None:
        if value:
            entries[key] = value
        return
    cur = cur + value
    if cur:
        entries[key] = cur
    else:
        del entries[key]


def _expand(out, coeff, legs):
    """Add the outer product ``coeff * legs[0] (x) legs[1] (x) ...`` into ``out``.

    Each leg maps a key (a tuple of basis indices, one per tensor leg it
    covers) to a nonzero numerator; the keys of a term are concatenated and
    an empty leg makes the term zero.  This is the helper for pure outer
    products (``contract``, ``tensor_unit``, ``@``); products through the
    structure constants go through ``_walk``.  The keys of one
    expansion are distinct and a product of nonzero numerators is nonzero,
    so only the final accumulation into ``out`` can cancel (as in ``_acc``).
    """
    terms = [((), coeff)]
    for leg in legs:
        if not leg:
            return
        terms = [(key + k, val * c) for key, val in terms for k, c in leg.items()]
    get = out.get
    for key, val in terms:
        cur = get(key)
        if cur is None:
            out[key] = val
            continue
        cur = cur + val
        if cur:
            out[key] = cur
        else:
            del out[key]


def _legwise(alg, arity, left, right):
    """Entries of the legwise product of two entry tables of H^(x)arity."""
    field = alg.field
    lnums, lden = field.clear(left.values())
    rnums, rden = field.clear(right.values())
    out = _walk(alg._numerators, arity, zip(left, lnums), zip(right, rnums))
    return _restored(field, out, lden * rden * alg._denominator ** arity)


def _walk(table, arity, left, right):
    """Numerators of the legwise product of two numerator tables of H^(x)arity.

    This is the one structure-constant kernel: ``left`` and ``right`` are
    (multi-index, numerator) pairs and ``table[i][j]`` maps the key (k,) to
    the numerator of c_{ij}^k.  The right operand is indexed once as a trie
    over its first arity - 1 legs.  For each left entry I the trie is walked
    leg by leg, with a frontier of (key prefix, partial product, trie node),
    so everything above the last leg is formed once per trie node rather
    than once per pair of entries.  A subtree under a leg pair (I_l, j) with
    no structure constants is skipped whole (the per-leg support join).
    Sums are accumulated without testing for cancellation; the zeros are
    swept once at the end.
    """
    if not arity:   # scalars: at most one entry each, and their product is nonzero
        return {(): u * v for _, u in left for _, v in right}
    trie = {}
    for J, v in right:
        node = trie
        for j in J[:-1]:
            node = node.setdefault(j, {})
        node[J[-1]] = v
    out = {}
    get = out.get
    for I, u in left:
        frontier = [((), u, trie)]
        for i in I[:-1]:
            row = table[i]
            frontier = [(key + k, val * c, child)
                        for key, val, node in frontier
                        for j, child in node.items()
                        for k, c in row[j].items()]
        row = table[I[-1]]
        for key, val, node in frontier:
            for j, v in node.items():
                col = row[j]
                if col:
                    w = val * v
                    for k, c in col.items():
                        k = key + k
                        out[k] = get(k, 0) + w * c
    return {k: v for k, v in out.items() if v}


def _restored(field, nums, den):
    """The table of numerators ``nums`` over ``den`` as reduced field values."""
    return dict(zip(nums, field.restore(nums.values(), den)))


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
        self._tensor_units = {}
        self._check()

    # -- construction-time axiom checks --

    def _check(self):
        one = self.unit_element
        for i in range(self.dim):
            e = self.basis_element(i)
            if one * e != e or e * one != e:
                raise AlgebraError(f"unit law fails on basis element {self.basis_names[i]}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.basis_element(i) * self.basis_element(j)
                for k in range(self.dim):
                    left = ij * self.basis_element(k)
                    right = self.basis_element(i) * (self.basis_element(j) * self.basis_element(k))
                    if left != right:
                        raise AlgebraError(
                            "associativity fails on basis triple "
                            f"({self.basis_names[i]}, {self.basis_names[j]}, {self.basis_names[k]})")

    # -- basic accessors --

    def basis_product(self, i, j):
        return self._mult.get((i, j), {})

    def element(self, coeffs) -> "AlgElement":
        coeffs = [self.field.coerce(v) for v in coeffs]
        if len(coeffs) != self.dim:
            raise AlgebraError("coefficient vector has wrong length")
        return AlgElement(self, tuple(coeffs))

    def basis_element(self, i) -> "AlgElement":
        coeffs = [self.field.zero] * self.dim
        coeffs[i] = self.field.one
        return AlgElement(self, tuple(coeffs))

    @property
    def unit_element(self) -> "AlgElement":
        return AlgElement(self, self.unit)

    def zero_element(self) -> "AlgElement":
        return AlgElement(self, (self.field.zero,) * self.dim)

    def scalar_element(self, value) -> "AlgElement":
        return self.field.coerce(value) * self.unit_element

    def tensor_unit(self, arity) -> "TensorElement":
        """The unit of H^(x)arity (arity 0 gives the scalar 1)."""
        cached = self._tensor_units.get(arity)
        if cached is not None:
            return cached
        entries = {}
        support = {(i,): v for i, v in enumerate(self.unit) if v}
        _expand(entries, self.field.one, [support] * arity)
        t = TensorElement(self, arity, entries, clean=True)
        self._tensor_units[arity] = t
        return t

    def tensor_zero(self, arity) -> "TensorElement":
        return TensorElement(self, arity, {}, clean=True)

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


class AlgElement:
    """An element of H as a dense coefficient vector over the basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def _require_same(self, other):
        if not self.algebra.compatible(other.algebra):
            raise ArityMismatch("elements of different algebras")

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._require_same(other)
        return AlgElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._require_same(other)
        return AlgElement(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return AlgElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._require_same(other)
            alg = self.algebra
            out = [alg.field.zero] * alg.dim
            for (k,), v in _legwise(alg, 1, self._table(), other._table()).items():
                out[k] = v
            return AlgElement(alg, tuple(out))
        return AlgElement(self.algebra,
                          tuple(a * self.algebra.field.coerce(other) for a in self.coeffs))

    def __rmul__(self, other):
        # scalar * element (scalars commute with everything)
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _table(self):
        return {(i,): v for i, v in enumerate(self.coeffs) if v}

    def to_tensor(self) -> "TensorElement":
        return TensorElement(self.algebra, 1, self._table(), clean=True)

    def inverse(self) -> "AlgElement":
        return self.to_tensor().invert().as_element()

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except SingularError:
            return False

    def is_central(self) -> bool:
        alg = self.algebra
        return all(self * alg.basis_element(i) == alg.basis_element(i) * self
                   for i in range(alg.dim))

    def __repr__(self):
        names = self.algebra.basis_names
        terms = [f"({v})*{names[i]}" for i, v in enumerate(self.coeffs) if v]
        return " + ".join(terms) if terms else "0"


class TensorElement:
    """A sparse element of H^(x)arity: multi-index -> nonzero coefficient."""

    __slots__ = ("algebra", "arity", "entries")

    def __init__(self, algebra, arity, entries=None, clean=False):
        if arity < 0:
            raise ArityMismatch("arity must be nonnegative")
        self.algebra = algebra
        self.arity = arity
        if entries is None:
            entries = {}
        if not clean:
            cleaned = {}
            for key, val in entries.items():
                key = tuple(key)
                if len(key) != arity or not all(0 <= i < algebra.dim for i in key):
                    raise ArityMismatch(f"bad multi-index {key} for arity {arity}")
                val = algebra.field.coerce(val)
                if val:
                    _acc(cleaned, key, val)
            entries = cleaned
        self.entries = entries

    def _require_like(self, other):
        if not self.algebra.compatible(other.algebra):
            raise ArityMismatch("tensors over different algebras")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity mismatch: {self.arity} vs {other.arity}")

    # -- linear structure --

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        out = dict(self.entries)
        for key, val in other.entries.items():
            _acc(out, key, val)
        return TensorElement(self.algebra, self.arity, out, clean=True)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        out = dict(self.entries)
        for key, val in other.entries.items():
            _acc(out, key, -val)
        return TensorElement(self.algebra, self.arity, out, clean=True)

    def __neg__(self):
        return TensorElement(self.algebra, self.arity,
                             {k: -v for k, v in self.entries.items()}, clean=True)

    def scale(self, scalar) -> "TensorElement":
        scalar = self.algebra.field.coerce(scalar)
        if not scalar:
            return self.algebra.tensor_zero(self.arity)
        return TensorElement(self.algebra, self.arity,
                             {k: v * scalar for k, v in self.entries.items()}, clean=True)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- multiplicative structure --

    def __mul__(self, other):
        """Legwise product: (a (x) b)(c (x) d) = ac (x) bd, extended bilinearly."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._require_like(other)
        return TensorElement(self.algebra, self.arity,
                             _legwise(self.algebra, self.arity, self.entries, other.entries),
                             clean=True)

    def __matmul__(self, other):
        """Outer (Kronecker) product: arities add."""
        if isinstance(other, AlgElement):
            other = other.to_tensor()
        if not isinstance(other, TensorElement):
            return NotImplemented
        if not self.algebra.compatible(other.algebra):
            raise ArityMismatch("tensors over different algebras")
        field = self.algebra.field
        lnums, lden = field.clear(self.entries.values())
        rnums, rden = field.clear(other.entries.values())
        out = {}
        _expand(out, 1, [dict(zip(self.entries, lnums)), dict(zip(other.entries, rnums))])
        return TensorElement(self.algebra, self.arity + other.arity,
                             _restored(field, out, lden * rden), clean=True)

    # -- leg operations --

    def perm(self, sigma) -> "TensorElement":
        """Leg relabeling: leg s of the result carries component sigma[s-1]."""
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(1, self.arity + 1)):
            raise ArityMismatch(f"{sigma} is not a permutation of 1..{self.arity}")
        out = {tuple(key[s - 1] for s in sigma): val for key, val in self.entries.items()}
        return TensorElement(self.algebra, self.arity, out, clean=True)

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
        of ``rows`` are numerators in the sense of ``Field.clear`` (ints over
        Q, elements of Z[zeta_n] over Q(zeta_n)), so the matrix is never
        built from field values.
        """
        alg = self.algebra
        field = alg.field
        d, n = alg.dim, self.arity
        size = d ** n
        nums, den = field.clear(self.entries.values())
        zero = field.clear([field.zero])[0][0]   # the numerator of 0
        rows = [[zero] * size for _ in range(size)]
        entries = list(zip(self.entries, nums))
        for col, J in enumerate(alg.multi_indices(n)):
            for K, val in _walk(alg._numerators, n, entries, [(J, 1)]).items():
                row = 0
                for idx in K:
                    row = row * d + idx
                rows[row][col] = val
        return rows, den * alg._denominator ** n

    def invert(self) -> "TensorElement":
        """Two-sided inverse, via one exact solve of the left-multiplication matrix.

        Both one-sided identities are verified before returning; a left
        inverse that is not also a right inverse raises SingularError.
        """
        alg = self.algebra
        d, n = alg.dim, self.arity
        unit = alg.tensor_unit(n)
        rows, den = self.left_matrix()
        # (rows / den) x = unit = nums / unit_den  <=>  (unit_den * rows) x = den * nums
        nums, unit_den = alg.field.clear(unit.entries.values())
        if unit_den != 1:
            rows = [[unit_den * v for v in row] for row in rows]
        rhs = [0] * (d ** n)
        for K, v in zip(unit.entries, nums):
            row = 0
            for idx in K:
                row = row * d + idx
            rhs[row] = den * v
        x = linalg.solve(alg.field, rows, rhs)
        entries = {}
        for col, J in enumerate(alg.multi_indices(n)):
            if x[col]:
                entries[J] = x[col]
        candidate = TensorElement(alg, n, entries, clean=True)
        if candidate * self != unit:
            raise SingularError("element has a right inverse but no left inverse")
        return candidate

    # -- conversions --

    def as_element(self) -> AlgElement:
        if self.arity != 1:
            raise ArityMismatch("only arity-1 tensors identify with algebra elements")
        coeffs = [self.algebra.field.zero] * self.algebra.dim
        for (i,), v in self.entries.items():
            coeffs[i] = v
        return AlgElement(self.algebra, tuple(coeffs))

    def scalar(self):
        if self.arity != 0:
            raise ArityMismatch("only arity-0 tensors are scalars")
        return self.entries.get((), self.algebra.field.zero)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra.compatible(other.algebra) and self.arity == other.arity
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.arity, frozenset(self.entries.items())))

    def __repr__(self):
        names = self.algebra.basis_names
        terms = []
        for key in sorted(self.entries):
            label = "(x)".join(names[i] for i in key) if key else "1"
            terms.append(f"({self.entries[key]})*{label}")
        return " + ".join(terms) if terms else "0"


def first_difference(a: TensorElement, b: TensorElement):
    """Smallest multi-index where two tensors differ, with both values (or None)."""
    keys = sorted(set(a.entries) | set(b.entries))
    zero = a.algebra.field.zero
    for key in keys:
        va = a.entries.get(key, zero)
        vb = b.entries.get(key, zero)
        if va != vb:
            return key, va, vb
    return None


class LinearMap:
    """A linear map H -> H^(x)m defined by its images on the basis.

    ``anti=True`` only marks anti-homomorphisms (such as an antipode); the
    map itself is stored and applied linearly, and anti-multiplicativity
    is a property the structure verifiers check, not the representation.
    """

    __slots__ = ("algebra", "out_arity", "columns", "anti", "_elements", "_numerators")

    def __init__(self, algebra, columns, anti=False):
        columns = list(columns)
        if len(columns) != algebra.dim:
            raise ArityMismatch("one column per basis element")
        arities = {c.arity for c in columns}
        if len(arities) != 1:
            raise ArityMismatch("all columns must share one arity")
        self.algebra = algebra
        self.out_arity = arities.pop()
        self.columns = columns
        self.anti = anti
        self._elements = None
        self._numerators = None   # the columns in numerator form, built by on_leg

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, [algebra.basis_element(i).to_tensor() for i in range(algebra.dim)])

    @classmethod
    def from_matrix(cls, algebra, matrix, anti=False):
        cols = []
        for i in range(algebra.dim):
            entries = {}
            for k in range(algebra.dim):
                v = algebra.field.coerce(matrix[k][i])
                if v:
                    entries[(k,)] = v
            cols.append(TensorElement(algebra, 1, entries, clean=True))
        return cls(algebra, cols, anti=anti)

    @classmethod
    def scalar_map(cls, algebra, values):
        """A map H -> F (arity-0 images), e.g. a counit."""
        cols = []
        for v in values:
            v = algebra.field.coerce(v)
            cols.append(TensorElement(algebra, 0, {(): v} if v else {}, clean=True))
        return cls(algebra, cols)

    def col(self, i) -> TensorElement:
        return self.columns[i]

    def col_element(self, i) -> AlgElement:
        if self._elements is None:
            if self.out_arity != 1:
                raise ArityMismatch("columns are not algebra elements")
            self._elements = [c.as_element() for c in self.columns]
        return self._elements[i]

    def __call__(self, x: AlgElement):
        """Apply to an element; returns a scalar, AlgElement, or TensorElement by arity."""
        out = self.algebra.tensor_zero(self.out_arity)
        for i, v in enumerate(x.coeffs):
            if v:
                out = out + self.columns[i].scale(v)
        if self.out_arity == 0:
            return out.scalar()
        if self.out_arity == 1:
            return out.as_element()
        return out

    def on_leg(self, t: TensorElement, leg: int) -> TensorElement:
        """Apply on one leg of a tensor; the arity changes by out_arity - 1."""
        if not 1 <= leg <= t.arity:
            raise ArityMismatch(f"leg {leg} out of range for arity {t.arity}")
        field = self.algebra.field
        nums, den = field.clear(t.entries.values())
        if self._numerators is None:
            col_nums, col_den = field.clear(v for c in self.columns for v in c.entries.values())
            col_nums = iter(col_nums)
            self._numerators = [{sub: next(col_nums) for sub in c.entries}
                                for c in self.columns], col_den
        cols, col_den = self._numerators
        out = {}
        get = out.get
        for key, u in zip(t.entries, nums):
            head, tail = key[:leg - 1], key[leg:]
            for sub, c in cols[key[leg - 1]].items():
                k = head + sub + tail
                out[k] = get(k, 0) + u * c
        out = {k: v for k, v in out.items() if v}
        return TensorElement(self.algebra, t.arity - 1 + self.out_arity,
                             _restored(field, out, den * col_den), clean=True)

    def map_tensor(self, t: TensorElement) -> TensorElement:
        """Apply a 1 -> 1 map on every leg (e.g. (S (x) S)R)."""
        if self.out_arity != 1:
            raise ArityMismatch("map_tensor needs a 1 -> 1 map")
        out = t
        for leg in range(1, t.arity + 1):
            out = self.on_leg(out, leg)
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other; other must be 1 -> 1."""
        if other.out_arity != 1:
            raise ArityMismatch("can only precompose with a 1 -> 1 map")
        cols = []
        for i in range(self.algebra.dim):
            img = self(other.col_element(i))
            if self.out_arity == 1:
                img = img.to_tensor()
            elif self.out_arity == 0:
                img = TensorElement(self.algebra, 0, {(): img}, clean=False)
            cols.append(img)
        return LinearMap(self.algebra, cols, anti=self.anti != other.anti)

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
        return LinearMap.from_matrix(self.algebra, inv, anti=self.anti)

    def swapped(self) -> "LinearMap":
        """For 1 -> 2 maps: the opposite coproduct T o Delta."""
        if self.out_arity != 2:
            raise ArityMismatch("swapped needs a 1 -> 2 map")
        return LinearMap(self.algebra, [c.perm((2, 1)) for c in self.columns], anti=self.anti)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.algebra.compatible(other.algebra)
                and self.out_arity == other.out_arity and self.columns == other.columns)

    def __repr__(self):
        kind = "anti" if self.anti else "linear"
        return f"LinearMap(1->{self.out_arity}, {kind})"


def tensor_of(*elements) -> TensorElement:
    """Outer product a_1 (x) ... (x) a_n of algebra elements."""
    if not elements:
        raise ArityMismatch("tensor_of needs at least one factor")
    out = elements[0].to_tensor()
    for e in elements[1:]:
        out = out @ e.to_tensor()
    return out


def contract(t: TensorElement, *specs) -> TensorElement:
    """Multiply a tensor out into a lower arity, leg by leg.

    Each spec describes one output leg as a sequence of factors, taken in
    order: an AlgElement is a fixed factor, a pair ``(leg, m)`` is the
    image of input leg ``leg`` under the 1 -> 1 map ``m`` (``None`` for
    the identity).  Every input leg must be used exactly once.  For
    instance the reading of ``sum S(X) a Y b S(Z)`` off an arity-3 tensor
    is ``contract(phi, [(1, s), a, (2, None), b, (3, s)])``.
    """
    alg = t.algebra
    used = []
    for spec in specs:
        for item in spec:
            if not isinstance(item, AlgElement):
                used.append(item[0])
    if sorted(used) != list(range(1, t.arity + 1)):
        raise ArityMismatch(f"legs {sorted(used)} do not cover 1..{t.arity} exactly once")
    unit = alg.unit_element
    # the product of the items of spec s up to position p depends only on
    # the indices of the legs read so far: entries sharing them share it
    prefixes = {}   # (s, p, indices read) -> that product
    rows = []   # the output-leg factors of each entry of t
    for key in t.entries:
        factors = []
        for s, spec in enumerate(specs):
            elt = None
            read = ()
            for p, item in enumerate(spec):
                if not isinstance(item, AlgElement):
                    read += (key[item[0] - 1],)
                prefix = prefixes.get((s, p, read))
                if prefix is None:
                    if isinstance(item, AlgElement):
                        f = item
                    else:
                        m = item[1]
                        f = alg.basis_element(read[-1]) if m is None else m.col_element(read[-1])
                    prefix = prefixes[s, p, read] = f if elt is None else elt * f
                elt = prefix
            factors.append(unit if elt is None else elt)
        rows.append(factors)
    field = alg.field
    nums, den = field.clear(t.entries.values())
    legs = [[] for _ in rows]
    for slot in zip(*rows):   # one output leg: its factor for every entry of t
        flat, slot_den = field.clear(c for f in slot for c in f.coeffs)
        den *= slot_den
        for n, leg_list in enumerate(legs):
            coeffs = flat[n * alg.dim:(n + 1) * alg.dim]
            leg_list.append({(i,): c for i, c in enumerate(coeffs) if c})
    out = {}
    for num, leg_list in zip(nums, legs):
        _expand(out, num, leg_list)
    return TensorElement(alg, len(specs), _restored(field, out, den), clean=True)


def contract_element(t: TensorElement, spec) -> AlgElement:
    """Contract a whole tensor into a single algebra element."""
    return contract(t, spec).as_element()

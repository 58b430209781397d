"""The numerator kernel and the p-adic solve against the field-valued oracles.

``reference_kernel`` keeps the Fraction/Cyclo product kernel, Gaussian
elimination and the fraction-free (Bareiss) elimination; here they compute
the same products, outer products, leg maps, left matrices, contractions,
the Drinfeld closed-form sum, inverses and solutions on random inputs, and
must agree entry by entry (same values, same scalar types) and error text
by error text. The
algebras cover what the catalog does not: structure constants with
denominators (k[Z/2] on the bases {1, g/2} and {2, g}, whose unit e0 / 2
has a denominator, 2x2 matrices on a scaled matrix-unit basis), cyclotomic
structure constants (k[Z/3] on the basis {1, c g, g^2}), the fields
Q(zeta_n) for n = 3, 4, 5, 8, 12 (degrees 2 and 4, with non-trivial
reduction rows), dense arity-3 tensors over k[Z/3], dense arity-4 tensors
over k[Z/2] and k[Z/3], and sparse arity-3/4 tensors over the 2x2
matrices, whose zero structure constants the kernel's per-leg support join
prunes (down to frontiers emptied above the last leg). Arity-3/4 operands
whose entries share prefixes, arity-3 left matrices in the Z/4 block basis,
and the grouped Drinfeld sum against the four-leg expansion it replaced
(``reference_kernel.paired``) cover the two-sided walk. Contractions of
dense arity-4 tensors by two two-leg specs (over k[Z/3] and in the Z/4
block basis), a leg map across algebras (the block basis's ``down``) and
the tensor units of arity 0 to 4 cover the block map. The law check of
``Algebra`` and the block table of ``blocks._block_algebra`` are checked
against the element-product check and the ``Fraction`` convolution they
replaced, on the catalog's tables, the block tables and tables with one
structure constant changed. Cyclotomic values
mix constants, which clear to int numerators, with general values, which
clear to Z[zeta_n] vectors. The stored form itself (numerators over one
denominator, content-reduced) is checked to be canonical on every result,
and equal under equality and hashing whichever route reached a value.
"""

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from qhakit import blocks, linalg, tensor
from qhakit.catalog import builtin
from qhakit.drinfeld import _paired
from qhakit.errors import AlgebraError, SingularError, StructureError
from qhakit.scalars import RATIONAL, _Integral, cyclotomic_field, totient
from qhakit.serial import parse_twist
from qhakit.tensor import Algebra, LinearMap, TensorElement, contract, tensor_of
from qhakit.twists import twist_structure

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from harness import group_twist  # noqa: E402

Q3, Q4, Q5, Q8, Q12 = (cyclotomic_field(n) for n in (3, 4, 5, 8, 12))
FIELDS = (RATIONAL, Q3, Q4, Q5, Q8, Q12)


def z2_half(field):
    """k[Z/2] on the basis {1, g/2}: (g/2)(g/2) = 1/4."""
    return Algebra(field, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                              (1, 1): {0: Fraction(1, 4)}}, basis=["1", "g/2"])


def z2_double(field):
    """k[Z/2] on the basis {2, g}: the unit is e0 / 2, so it clears over the denominator 2."""
    return Algebra(field, 2, {(0, 0): {0: 2}, (0, 1): {1: 2}, (1, 0): {1: 2},
                              (1, 1): {0: Fraction(1, 2)}}, unit=[Fraction(1, 2), 0],
                   basis=["2", "g"])


def m2_scaled(field):
    """2x2 matrices on f_ij = s_ij e_ij: f_ij f_kl = [j == k] (s_ij s_kl / s_il) f_il."""
    s = {(0, 0): Fraction(1), (0, 1): Fraction(1, 2), (1, 0): Fraction(3), (1, 1): Fraction(1)}
    mult = {(2 * i + j, 2 * k + l): ({2 * i + l: s[i, j] * s[k, l] / s[i, l]} if j == k else {})
            for i in range(2) for j in range(2) for k in range(2) for l in range(2)}
    return Algebra(field, 4, mult, unit=[1, 0, 0, 1], basis=["f11", "f12", "f21", "f22"])


def z3(field):
    return Algebra(field, 3, {(i, j): {(i + j) % 3: 1} for i in range(3) for j in range(3)})


def z3_scaled(field, c):
    """k[Z/3] on the basis {1, c g, g^2}: e1 e1 = c^2 e2, e1 e2 = e2 e1 = c e0, e2 e2 = e1 / c."""
    c = field.coerce(c)
    mult = {(0, j): {j: 1} for j in range(3)} | {(j, 0): {j: 1} for j in range(3)}
    mult |= {(1, 1): {2: c * c}, (1, 2): {0: c}, (2, 1): {0: c}, (2, 2): {1: c.inverse()}}
    return Algebra(field, 3, mult, basis=["1", "cg", "g2"])


M2 = {field: m2_scaled(field) for field in (RATIONAL, Q8)}
ALGEBRAS = (z2_half(RATIONAL), z2_half(Q8), M2[RATIONAL], M2[Q8], z3(RATIONAL),
            z3_scaled(Q3, Q3.zeta), z2_half(Q5), m2_scaled(Q12),
            z3_scaled(Q12, [Fraction(1, 2), Fraction(1, 2), 0, 0]))


def rationals(large=False):
    if large:
        return st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 12)
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def scalars(field, large=False):
    """Rationals; over Q(zeta_n) also coefficient lists, so values mix constants and vectors."""
    q = rationals(large)
    if field.kind == "rational":
        return q
    deg = totient(field.order)
    return st.one_of(q, st.lists(q, min_size=deg, max_size=deg))


def elements(alg):
    """Random elements, and ones built so that products cancel: (1 +- b) for a basis b."""
    field = alg.field
    dense = st.lists(scalars(field), min_size=alg.dim, max_size=alg.dim).map(alg.element)
    signed = st.tuples(st.integers(0, alg.dim - 1), st.sampled_from([1, -1])).map(
        lambda p: alg.unit_element + p[1] * alg.basis_element(p[0]))
    return st.one_of(dense, signed)


@st.composite
def tensors(draw, alg, arity):
    """Sparse, dense (when small enough), or a short sum of pure tensors."""
    field = alg.field
    keys = list(alg.multi_indices(arity))
    kind = draw(st.sampled_from(["sparse", "dense", "pure"]))
    if kind == "pure" and arity:
        out = alg.tensor_zero(arity)
        for _ in range(draw(st.integers(1, 2))):
            out = out + tensor_of(*[draw(elements(alg)) for _ in range(arity)])
        return out
    if kind == "dense" and len(keys) <= 27:
        chosen = keys
    else:
        chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    return TensorElement(alg, arity, {k: field.coerce(draw(scalars(field))) for k in chosen})


@st.composite
def shared_prefix_tensors(draw, alg, arity):
    """Entries under one or two heads of arity - 2 legs, each with at least two
    indices on leg arity - 1 and at least two on the last leg, so left entries
    share both their last-leg prefix and a shorter one."""
    field = alg.field
    idx = st.integers(0, alg.dim - 1)
    heads = draw(st.lists(st.tuples(*[idx] * (arity - 2)), min_size=1, max_size=2, unique=True))
    entries = {}
    for head in heads:
        for mid in draw(st.lists(idx, min_size=2, max_size=3, unique=True)):
            for last in draw(st.lists(idx, min_size=2, max_size=3, unique=True)):
                entries[head + (mid, last)] = draw(nonzero_scalars(field))
    return TensorElement(alg, arity, entries)


def same(a, b):
    """Equal values of equal scalar types, in the same positions."""
    assert a == b
    assert [type(v) for v in a] == [type(v) for v in b]


def same_tensor(s, t):
    assert s.entries == t.entries
    assert all(type(v) is type(t.entries[k]) for k, v in s.entries.items())


def field_matrix(t):
    rows, den = t.left_matrix()
    return [t.algebra.field.restore(row, den) for row in rows]


def outcome(fn, *args):
    """The result of fn(*args), or the type and text of the error it raised."""
    try:
        return "ok", fn(*args)
    except (SingularError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def algebra_and_arity(data, max_arity=3):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    top = 3 if alg.dim <= 3 and alg.field.kind == "rational" else 2
    return alg, data.draw(st.integers(0, min(max_arity, top)))


class TestKernelAgainstReference:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, data):
        alg, arity = algebra_and_arity(data)
        s, t = data.draw(tensors(alg, arity)), data.draw(tensors(alg, arity))
        same_tensor(s * t, ref.mul(s, t))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_alg_mul(self, data):
        alg = data.draw(st.sampled_from(ALGEBRAS))
        a, b = data.draw(elements(alg)), data.draw(elements(alg))
        same(list((a * b).coeffs), list(ref.alg_mul(a, b).coeffs))

    def test_dense_arity_three_over_z3(self):
        alg = z3(RATIONAL)
        keys = list(alg.multi_indices(3))
        s = TensorElement(alg, 3, {k: Fraction(n % 7 - 3, n % 5 + 1) for n, k in enumerate(keys)})
        t = TensorElement(alg, 3, {k: Fraction(n % 4 + 1, n % 3 + 2) for n, k in enumerate(keys)})
        assert len(s.entries) > 20 and len(t.entries) == 27
        same_tensor(s * t, ref.mul(s, t))

    def test_cancellation_to_zero(self):
        alg = z2_half(RATIONAL)
        plus = alg.unit_element + 2 * alg.basis_element(1)    # 1 + g
        minus = alg.unit_element - 2 * alg.basis_element(1)   # 1 - g
        assert (plus * minus).coeffs == ref.alg_mul(plus, minus).coeffs == (0, 0)
        s = tensor_of(plus, alg.basis_element(1), minus)
        t = tensor_of(minus, plus, plus)
        assert (s * t).entries == ref.mul(s, t).entries == {}

    def test_cancellation_to_zero_over_q3(self):
        """(1 + g + g^2)(1 - g) = 0 in k[Z/3], on the basis {1, zeta g, g^2}."""
        alg = z3_scaled(Q3, Q3.zeta)
        zz = Q3.zeta * Q3.zeta                     # g = zeta^2 e1
        norm = alg.element([1, zz, 1])
        diff = alg.element([1, -zz, 0])
        assert (norm * diff).coeffs == ref.alg_mul(norm, diff).coeffs == (0, 0, 0)
        s = tensor_of(norm, alg.basis_element(1), diff) + tensor_of(diff, diff, norm)
        t = tensor_of(diff, norm, alg.element([Fraction(1, 3), 0, 2]))
        assert (s * t).entries == ref.mul(s, t).entries == {}
        partial = tensor_of(diff, alg.basis_element(1), norm)
        same_tensor((s + partial) * t.perm((2, 1, 3)), ref.mul(s + partial, t.perm((2, 1, 3))))

    @pytest.mark.parametrize("alg", [z2_half(RATIONAL), z3(RATIONAL)], ids=["z2_half", "z3"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_mul_dense_arity_four(self, alg, data):
        """Every pair of basis elements has a nonzero product: nothing is pruned."""
        keys = list(alg.multi_indices(4))
        s, t = (TensorElement(alg, 4, {k: data.draw(rationals()) for k in keys})
                for _ in range(2))
        same_tensor(s * t, ref.mul(s, t))

    @pytest.mark.parametrize("field", [RATIONAL, Q8], ids=str)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mul_sparse_matrix_algebra(self, field, data):
        """Half the leg pairs of 2x2 matrix units multiply to zero and are pruned."""
        alg = M2[field]
        arity = data.draw(st.sampled_from([3, 4]))
        keys = st.tuples(*[st.integers(0, alg.dim - 1)] * arity)
        s, t = (TensorElement(alg, arity, data.draw(st.dictionaries(
                    keys, scalars(field).map(field.coerce), max_size=12)))
                for _ in range(2))
        same_tensor(s * t, ref.mul(s, t))

    @pytest.mark.parametrize("alg", [z3(RATIONAL), M2[RATIONAL], z3_scaled(Q3, Q3.zeta), M2[Q8]],
                             ids=["z3", "m2", "z3-Q3", "m2-Q8"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_mul_left_entries_sharing_prefixes(self, alg, data):
        """Left entries that share prefixes walk the right trie once per prefix."""
        arity = data.draw(st.sampled_from([3, 4]))
        s = data.draw(shared_prefix_tensors(alg, arity))
        t = data.draw(st.one_of(shared_prefix_tensors(alg, arity), tensors(alg, arity)))
        assert len({k[:-1] for k in s.entries}) < len(s.entries)
        same_tensor(s * t, ref.mul(s, t))
        same_tensor(t * s, ref.mul(t, s))

    @pytest.mark.parametrize("field", [RATIONAL, Q8], ids=str)
    def test_mul_with_frontiers_emptied_above_the_last_leg(self, field, monkeypatch):
        """2x2 matrix units, f_ij f_kl = 0 unless j == k: every right entry starts with
        f11 or f12, so the left prefixes (f12,) and (f22,) die after leg 1 and
        (f11, f12) after leg 2, while (f21, f11) survives to the last leg."""
        alg = M2[field]
        f11, f12, f21, f22 = range(4)
        c = field.zeta if field.kind == "cyclotomic" else Fraction(5, 7)
        s = TensorElement(alg, 3, {(f12, f11, f11): 1, (f22, f21, f12): Fraction(-2, 3),
                                   (f11, f12, f21): 3, (f11, f12, f22): c,
                                   (f21, f11, f12): Fraction(1, 2), (f21, f11, f22): -4})
        t = TensorElement(alg, 3, {(f11, f11, f21): 5, (f12, f12, f22): -1, (f11, f12, f11): c,
                                   (f12, f11, f21): 2})
        frontiers = []
        descend = tensor._descend

        def recording(table, out, node, frontier, legs):
            frontiers.append(len(frontier))
            return descend(table, out, node, frontier, legs)

        monkeypatch.setattr(tensor, "_descend", recording)
        same_tensor(s * t, ref.mul(s, t))
        assert (s * t).entries and 0 in frontiers
        dying = TensorElement(alg, 3, {k: v for k, v in s.entries.items() if k[0] != f21})
        assert (dying * t).entries == ref.mul(dying, t).entries == {}

    @pytest.mark.parametrize("alg", [z3(RATIONAL), M2[RATIONAL], M2[Q8]], ids=["z3", "m2", "m2-Q8"])
    def test_arity_zero_and_empty_operands(self, alg):
        field = alg.field
        x = TensorElement(alg, 0, {(): Fraction(3, 2)})
        y = TensorElement(alg, 0, {(): field.zeta if field.kind != "rational" else -7})
        same_tensor(x * y, ref.mul(x, y))
        for arity in range(5):
            full = alg.tensor_unit(arity) + TensorElement(alg, arity, {(0,) * arity: 5})
            zero = alg.tensor_zero(arity)
            for s, t in ((full, zero), (zero, full), (zero, zero)):
                assert (s * t).entries == ref.mul(s, t).entries == {}

    def test_arity_four_products_cancelling_to_zero(self):
        """k[Z/3]: (1 + g + g^2)(1 - g) = 0; 2x2 matrices: the surviving pairs of
        (f11 + f12)(f12 + mu f22) cancel, the others are pruned."""
        alg = z3(RATIONAL)
        norm, diff = alg.element([1, 1, 1]), alg.element([1, -1, 0])
        a, b = alg.element([Fraction(1, 2), 0, 3]), alg.element([0, -2, 1])
        s = tensor_of(a, norm, b, a) + tensor_of(b, norm, a, a)
        t = tensor_of(b, diff, a, b)
        assert (s * t).entries == ref.mul(s, t).entries == {}
        same_tensor((s + tensor_of(a, a, a, a)) * t, ref.mul(s + tensor_of(a, a, a, a), t))
        m2 = M2[RATIONAL]
        f11, f12, f22 = (m2.basis_element(i) for i in (0, 1, 3))
        mu = -m2.basis_product(0, 1)[1] / m2.basis_product(1, 3)[1]
        c, d = m2.element([1, Fraction(1, 3), -2, 5]), m2.element([0, 1, 1, Fraction(-1, 2)])
        s = tensor_of(c, f11 + f12, d, c)
        t = tensor_of(d, f12 + mu * f22, c, c) + tensor_of(c, f12 + mu * f22, d, d)
        assert (s * t).entries == ref.mul(s, t).entries == {}

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_outer_and_on_leg(self, data):
        alg, arity = algebra_and_arity(data, max_arity=2)
        s = data.draw(tensors(alg, arity))
        t = data.draw(tensors(alg, data.draw(st.integers(0, 2))))
        same_tensor(s @ t, ref.outer(s, t))
        if arity:
            out_arity = data.draw(st.integers(0, 2))
            m = LinearMap(alg, [data.draw(tensors(alg, out_arity)) for _ in range(alg.dim)])
            leg = data.draw(st.integers(1, arity))
            same_tensor(m.on_leg(s, leg), ref.on_leg(m, s, leg))
            # applying and precomposing are on_leg at leg 1
            a = data.draw(elements(alg))
            applied, expected = m(a), ref.on_leg(m, a, 1)
            if out_arity == 0:
                same([applied], [expected.scalar()])
            else:
                same_tensor(applied, expected)
            k = LinearMap(alg, [data.draw(tensors(alg, 1)) for _ in range(alg.dim)])
            for col, c in zip(m.compose(k).columns, k.columns):
                same_tensor(col, ref.on_leg(m, c, 1))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_paired_closed_form(self, data):
        """The Drinfeld closed-form helper, sum_ab t_ab (L(e_a) x) R(e_b), against that
        sum formed term by term."""
        alg = data.draw(st.sampled_from([a for a in ALGEBRAS if a.field in (RATIONAL, Q8)]))
        t, x = data.draw(tensors(alg, 2)), data.draw(tensors(alg, 2))
        ls, rs = ([data.draw(tensors(alg, 2)) for _ in range(alg.dim)] for _ in range(2))
        left = LinearMap(alg, [ref.mul(c, x) for c in ls])
        expected = alg.tensor_zero(2)
        for (a, b), c in t.entries.items():
            expected = ref.add(expected, ref.scale(ref.mul(left.columns[a], rs[b]), c))
        same_tensor(_paired(t, left, LinearMap(alg, rs)), expected)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_paired_against_the_four_leg_expansion(self, data):
        """The grouped sum against the expansion it replaced: both maps applied as legs of
        an arity-4 tensor, which ``contract`` multiplies out."""
        alg = data.draw(st.sampled_from(ALGEBRAS))
        t = data.draw(tensors(alg, 2))
        left, right = (LinearMap(alg, [data.draw(tensors(alg, 2)) for _ in range(alg.dim)])
                       for _ in range(2))
        same_tensor(_paired(t, left, right), ref.paired(t, left, right))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_left_matrix(self, data):
        alg, arity = algebra_and_arity(data, max_arity=2)
        t = data.draw(tensors(alg, arity))
        for new, old in zip(field_matrix(t), ref.left_matrix(t)):
            same(new, old)

    def test_left_matrix_arity_three_in_the_z4_block_basis(self):
        """The benchmark's dense twisted coassociator, carried into the Z/4 block basis
        (6 of its 16 leg pairs carry structure constants), and a sparse tensor there."""
        h = builtin("group_z4").structure
        f = parse_twist(json.dumps(group_twist(4, Random(0))), h)
        alg, down = blocks._block_algebra(blocks.block_basis(4), h.algebra.field)
        phi = down.map_tensor(twist_structure(h, f, verify=False).phi)
        sparse = TensorElement(alg, 3, {(0, 2, 3): Fraction(1, 3), (2, 3, 3): -2, (3, 1, 0): 5})
        assert len(phi.entries) > 20
        for t in (phi, sparse):
            for new, old in zip(field_matrix(t), ref.left_matrix(t), strict=True):
                same(new, old)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_contract(self, data):
        alg, arity = algebra_and_arity(data)
        field = alg.field
        t = data.draw(tensors(alg, arity))
        m = LinearMap.from_matrix(alg, [[data.draw(scalars(field)) for _ in range(alg.dim)]
                                        for _ in range(alg.dim)])
        out_arity = data.draw(st.integers(1 if arity else 0, 3))
        specs = [[] for _ in range(out_arity)]
        for leg in data.draw(st.permutations(range(1, arity + 1))):
            specs[data.draw(st.integers(0, out_arity - 1))].append(
                (leg, data.draw(st.sampled_from([None, m]))))
        for spec in specs:
            if data.draw(st.booleans()):
                spec.insert(data.draw(st.integers(0, len(spec))), data.draw(elements(alg)))
        same_tensor(contract(t, *specs), ref.contract(t, *specs))

    @pytest.mark.parametrize("alg", [z3(RATIONAL), z3_scaled(Q3, Q3.zeta)], ids=["z3", "z3-Q3"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_contract_dense_arity_four_by_two_two_leg_specs(self, alg, data):
        """Two specs of two legs each, read in any leg order, so the legs are permuted
        side by side first and each spec collapses distinct index blocks."""
        t = TensorElement(alg, 4, {k: data.draw(rationals()) for k in alg.multi_indices(4)})
        m = LinearMap.from_matrix(alg, [[data.draw(scalars(alg.field)) for _ in range(alg.dim)]
                                        for _ in range(alg.dim)])
        a, b, c = (data.draw(elements(alg)) for _ in range(3))
        i, j, k, l = data.draw(st.permutations(range(1, 5)))
        specs = ([(i, m), a, (j, None)], [b, (k, None), c, (l, m)])
        same_tensor(contract(t, *specs), ref.contract(t, *specs))

    def test_contract_arity_four_in_the_z4_block_basis(self):
        """Gamma's and gamma-bar's readings of the benchmark's dense four-leg expansion,
        carried into the Z/4 block basis."""
        g = builtin("group_z4").structure
        f = parse_twist(json.dumps(group_twist(4, Random(0))), g)
        h = blocks.transport(twist_structure(g, f, verify=False), blocks.block_basis(4)).s
        t4 = h.phi_inv.embed((1, 2, 3), 4) * h.coproduct.on_leg(h.phi, 1)
        assert len(t4.entries) > 100
        for specs in (([(2, h.s), h.alpha, (3, None)], [(1, h.s), h.alpha, (4, None)]),
                      ([(1, None), h.beta, (4, h.s)], [(2, None), h.beta, (3, h.s)])):
            same_tensor(contract(t4, *specs), ref.contract(t4, *specs))

    def test_on_leg_of_a_map_across_algebras(self):
        """``_block_algebra``'s down map takes group coordinates to block coordinates: its
        columns lie in the block algebra, and so does every leg it maps."""
        g = builtin("group_z4").structure
        phi = twist_structure(g, parse_twist(json.dumps(group_twist(4, Random(0))), g),
                              verify=False).phi
        alg, down = blocks._block_algebra(blocks.block_basis(4), g.algebra.field)
        assert not alg.compatible(g.algebra) and down.algebra is alg
        for leg in (1, 2, 3):
            out = down.on_leg(phi, leg)
            assert out.algebra is alg
            same_tensor(out, ref.on_leg(down, phi, leg))
        same_tensor(down.map_tensor(phi), ref.on_leg(down, ref.on_leg(down, ref.on_leg(
            down, phi, 1), 2), 3))

    @pytest.mark.parametrize("alg", ALGEBRAS + (z2_double(RATIONAL), z2_double(Q8)),
                             ids=lambda a: f"{','.join(a.basis_names)}@{a.field}")
    def test_tensor_units(self, alg):
        """The unit of H^(x)k, k = 0..4, against iterated outer products of field values
        (``z2_double``'s unit e0 / 2 has a denominator)."""
        expected = TensorElement(alg, 0, {(): 1})
        for k in range(5):
            same_tensor(alg.tensor_unit(k), expected)
            expected = ref.outer(expected, alg.unit_element)

    @pytest.mark.parametrize("field", [RATIONAL, Q8], ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_invert_with_a_fractional_unit(self, field, data):
        alg = z2_double(field)
        t = data.draw(tensors(alg, data.draw(st.integers(1, 2))))
        new, old = outcome(TensorElement.invert, t), outcome(ref.invert, t)
        assert new[0] == old[0]
        if new[0] == "ok":
            same_tensor(new[1], old[1])
        else:
            assert new[1] == old[1]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invert(self, data):
        alg, arity = algebra_and_arity(data, max_arity=2)
        t = data.draw(tensors(alg, arity))
        new, old = outcome(TensorElement.invert, t), outcome(ref.invert, t)
        assert new[0] == old[0]
        if new[0] == "ok":
            same_tensor(new[1], old[1])
        else:
            assert new[1] == old[1]


# -- the stored form ----------------------------------------------------------

STORED = (z2_half(RATIONAL), z3(RATIONAL), z2_double(RATIONAL), z2_half(Q4), z2_double(Q4),
          z2_half(Q8), M2[Q8])


def assert_canonical(t):
    """Positive denominator, nonzero numerators, content 1, and one form per value:
    clearing the restored field values gives the same table, with equal hashes."""
    nums, den = t._nums, t._den
    assert den > 0 and all(nums.values())
    coeffs = [c for v in nums.values() for c in (v.coeffs if isinstance(v, _Integral) else (v,))]
    assert math.gcd(den, *coeffs) == 1
    for v in nums.values():
        if isinstance(v, _Integral) and not any(v.coeffs[1:]):
            assert v == v.coeffs[0] and hash(v) == hash(v.coeffs[0])
    again = TensorElement(t.algebra, t.arity, t.entries)
    assert again._den == den and again._nums == nums and hash(again) == hash(t)


def nonzero_scalars(field):
    return scalars(field).map(field.coerce).filter(bool)


class TestStoredForm:
    """Over Q, Q(zeta_4) and Q(zeta_8): every result is in the one stored form,
    equal values reached by different routes are equal with equal hashes, and
    the linear structure agrees with the field-valued oracle."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_results_are_canonical(self, data):
        alg = data.draw(st.sampled_from(STORED))
        arity = data.draw(st.integers(0, 2))
        s, t = data.draw(tensors(alg, arity)), data.draw(tensors(alg, arity))
        a, b = data.draw(elements(alg)), data.draw(elements(alg))
        q = data.draw(nonzero_scalars(alg.field))
        m = LinearMap(alg, [data.draw(tensors(alg, 1)) for _ in range(alg.dim)])
        results = [s * t, s + t, s - t, -s, s.scale(q), s @ t, a * b, a + b, a - b, a * q,
                   m(a), m.on_leg(s, 1) if arity else s, contract(s @ a, [*((leg, None) for leg in range(1, arity + 1)), b, (arity + 1, m)])]
        for x in results:
            assert_canonical(x)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_values_by_different_routes(self, data):
        alg = data.draw(st.sampled_from(STORED))
        arity = data.draw(st.integers(0, 2))
        a, b, c = (data.draw(tensors(alg, arity)) for _ in range(3))
        x, y = data.draw(elements(alg)), data.draw(elements(alg))
        q = data.draw(nonzero_scalars(alg.field))
        inv = alg.field.inv(q)
        for left, right in (((a + b) - b, a), (a.scale(q).scale(inv), a),
                            ((a * b) * c, a * (b * c)), ((x + y) - y, x),
                            ((x * q) * inv, x), ((x * y) * x, x * (y * x))):
            assert left == right and hash(left) == hash(right)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_structure(self, data):
        alg = data.draw(st.sampled_from(STORED))
        arity = data.draw(st.integers(0, 3 if alg.dim == 2 else 2))
        s, t = data.draw(tensors(alg, arity)), data.draw(tensors(alg, arity))
        q = data.draw(scalars(alg.field))
        same_tensor(s + t, ref.add(s, t))
        same_tensor(s - t, ref.sub(s, t))
        same_tensor(s - s, alg.tensor_zero(arity))
        same_tensor(-s, ref.neg(s))
        same_tensor(s.scale(q), ref.scale(s, q))


# -- the elimination ----------------------------------------------------------

@st.composite
def systems(draw, field):
    """A square system that often needs row swaps, is often singular, and may have large entries."""
    n = draw(st.integers(0, 5 if field.kind == "rational" else 4))
    large = draw(st.booleans())

    def entry():
        if draw(st.integers(0, 2)) == 0:
            return field.zero   # zeros on the diagonal force row swaps
        return field.coerce(draw(scalars(field, large)))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        i, j, k = perm[0], perm[1], perm[-1]   # k == i when n == 2
        a, b = field.coerce(draw(scalars(field))), field.coerce(draw(scalars(field)))
        rows[j] = [a * x + b * y for x, y in zip(rows[i], rows[k])]
    rhs = [entry() for _ in range(n)]
    return rows, rhs


SOLVERS = (linalg._solve_columns, ref.bareiss_solve_columns, ref.solve_columns)


def agree(field, matrix, columns):
    """The p-adic solve, Bareiss and Gaussian elimination give equal solutions
    of equal scalar types, or raise the same error with the same text."""
    new, *olds = (outcome(solver, field, matrix, columns) for solver in SOLVERS)
    for old in olds:
        assert new[0] == old[0]
        if new[0] == "ok":
            for a, b in zip(new[1], old[1], strict=True):
                same(a, b)
        else:
            assert new[1] == old[1]
    return new


def primes_tried(monkeypatch, primes):
    """Make ``linalg`` try ``primes`` first; returns the list of primes it factors modulo."""
    tried = []
    factor = linalg._factor

    def recording(a, p):
        tried.append(p)
        return factor(a, p)

    monkeypatch.setattr(linalg, "_PRIMES", primes)
    monkeypatch.setattr(linalg, "_factor", recording)
    return tried


def integer_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


class TestEliminationAgainstReference:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve(self, field, data):
        m, b = data.draw(systems(field))
        new, old = outcome(linalg.solve, field, m, b), outcome(ref.solve, field, m, b)
        assert new[0] == old[0]
        if new[0] == "ok":
            same(new[1], old[1])
        else:
            assert new[1] == old[1]
        agree(field, m, [b])

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invert_matrix(self, field, data):
        m, _ = data.draw(systems(field))
        new, old = outcome(linalg.invert_matrix, field, m), outcome(ref.invert_matrix, field, m)
        assert new[0] == old[0]
        if new[0] == "ok":
            for a, b in zip(new[1], old[1]):
                same(a, b)
        else:
            assert new[1] == old[1]
        units = [[field.one if i == j else field.zero for i in range(len(m))]
                 for j in range(len(m))]
        agree(field, m, units)

    def test_row_swaps_and_large_entries(self):
        big = Fraction(10 ** 40 + 7, 3 ** 30)
        m = [[Fraction(0), big, Fraction(1)],
             [Fraction(0), Fraction(0), Fraction(-2, 7)],
             [big, Fraction(1, 3), Fraction(0)]]
        b = [Fraction(1), big, Fraction(-5)]
        same(linalg.solve(RATIONAL, m, b), ref.solve(RATIONAL, m, b))
        agree(RATIONAL, m, [b])

    def test_vector_pivots_over_q5(self, monkeypatch):
        """Z[zeta_5] pivots after a forced row swap: Bareiss divides through 1 / p."""
        pivots = []
        divider = ref.divider

        def recording(field, p):
            pivots.append(p)
            return divider(field, p)

        monkeypatch.setattr(ref, "divider", recording)
        z = Q5.zeta
        m = [[Q5.zero, z, 1 + z * z],
             [1 + z, Q5.coerce(2), z * z * z / 3],
             [z * z, Q5.coerce(Fraction(1, 2)), z - 1]]
        b = [Q5.one, z, Q5.coerce(-3)]
        same(linalg.solve(Q5, m, b), ref.solve(Q5, m, b))
        same(ref.bareiss_solve(Q5, m, b), ref.solve(Q5, m, b))
        assert any(isinstance(p, _Integral) for p in pivots)
        pivots.clear()
        for new, old in zip(linalg.invert_matrix(Q5, m), ref.invert_matrix(Q5, m)):
            same(new, old)
        for new, old in zip(ref.bareiss_invert_matrix(Q5, m), ref.invert_matrix(Q5, m)):
            same(new, old)
        assert any(isinstance(p, _Integral) for p in pivots)

    def test_singular_and_shape_errors(self):
        m = [[Fraction(1), Fraction(2), Fraction(0)],
             [Fraction(2), Fraction(4), Fraction(1)],
             [Fraction(0), Fraction(0), Fraction(3)]]
        b = [Fraction(1)] * 3
        for args in ((m, b), (m[:2], b), (m, b[:2])):
            assert outcome(linalg.solve, RATIONAL, *args) == outcome(ref.solve, RATIONAL, *args)
            assert outcome(linalg.solve, RATIONAL, *args)[0] != "ok"
            assert agree(RATIONAL, args[0], [args[1]])[0] != "ok"

    def test_dense_twisted_coassociator(self):
        """The 64 x 64 load-time solve: phi of group_z4 twisted by the benchmark's dense twist."""
        h = builtin("group_z4").structure
        f = parse_twist(json.dumps(group_twist(4, Random(0))), h)
        phi = twist_structure(h, f, verify=False).phi
        assert len(phi.entries) == 64
        same_tensor(phi.invert(), ref.invert(phi))

    def test_hilbert_matrix_needs_several_lifting_steps(self, monkeypatch):
        tried = primes_tried(monkeypatch, linalg._PRIMES)
        steps = []
        solve_mod = linalg._solve_mod
        monkeypatch.setattr(linalg, "_solve_mod", lambda *a: steps.append(1) or solve_mod(*a))
        hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
        b = [Fraction(10 ** 30 + i, 7 ** (i + 5)) for i in range(8)]
        x = agree(RATIONAL, hilbert, [b])[1][0]
        assert max(abs(v.numerator) for v in x) > 2 ** 128
        assert tried == [linalg._PRIMES[0]] and len(steps) >= 4


class TestUnluckyPrimes:
    """Small leading primes force each case where a prime is unlucky; the next
    prime then gives what the oracles give."""

    def test_nonsingular_with_p_dividing_the_determinant(self, monkeypatch):
        m = integer_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])   # det 18
        tried = primes_tried(monkeypatch, (3, 2 ** 61 - 1))
        assert agree(RATIONAL, m, [[Fraction(1), Fraction(-2), Fraction(5, 7)]])[0] == "ok"
        assert tried == [3, 2 ** 61 - 1]
        tried.clear()
        units = [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
        assert agree(RATIONAL, m, units)[0] == "ok"
        assert tried == [3, 2 ** 61 - 1]

    def test_nonsingular_with_a_middle_column_dropping_rank(self, monkeypatch):
        """Column 1 is 5 times column 0 plus a multiple of 5: rank drops there mod 5 only."""
        m = integer_matrix([[1, 5, 2, 0], [2, 15, 1, 1], [0, 5, 3, 2], [1, 0, 0, 1]])
        tried = primes_tried(monkeypatch, (5, 7, 2 ** 61 - 1))
        field = cyclotomic_field(4)
        b = [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(3)]
        assert agree(RATIONAL, m, [b])[0] == "ok"
        assert tried == [5, 7]
        tried.clear()
        cm = [[field.coerce(v) for v in row] for row in m]
        assert agree(field, cm, [[field.coerce(v) for v in b]])[0] == "ok"
        assert tried == [5, 7]

    def test_every_listed_prime_unlucky(self, monkeypatch):
        """A 1 x 1 matrix divisible by every prime of ``_PRIMES``: the next smaller prime solves it."""
        tried = primes_tried(monkeypatch, linalg._PRIMES)
        m = [[Fraction(math.prod(linalg._PRIMES))]]
        assert agree(RATIONAL, m, [[Fraction(3)]])[0] == "ok"
        assert tried[:-1] == list(linalg._PRIMES) and tried[-1] < min(linalg._PRIMES)
        assert linalg._is_prime(tried[-1])

    def test_primality_against_sympy(self):
        """Strong pseudoprimes to the smallest bases, and every number near the listed primes."""
        sympy = pytest.importorskip("sympy")
        numbers = [*range(200), 2047, 1373653, 25326001, 3215031751, 2152302898747,
                   3474749660383, 341550071728321, 3825123056546413051,
                   *range(2 ** 61 - 1000, 2 ** 61 + 10)]
        assert [n for n in numbers if linalg._is_prime(n)] == [n for n in numbers if sympy.isprime(n)]

    def test_singular_with_a_dependency_over_p(self, monkeypatch):
        """Column 3 = (column 1 - column 0) / 3 + column 2.  Mod 3 column 1 has no
        pivot, but it is not a multiple of column 0: the error is for column 3."""
        m = integer_matrix([[1, 1, 0, 0], [0, 3, 1, 2], [0, 3, 0, 1], [1, 4, 0, 1]])
        tried = primes_tried(monkeypatch, (3, 2 ** 61 - 1))
        b = [Fraction(1)] * 4
        assert agree(RATIONAL, m, [b]) == ("SingularError", "singular matrix (no pivot in column 3)")
        assert tried == [3, 2 ** 61 - 1]


# -- the table builders ---------------------------------------------------------

CHECK = Algebra._check


def law_verdict(check, alg):
    """None if ``check`` passes ``alg``, else the text of the AlgebraError it raised."""
    try:
        check(alg)
    except AlgebraError as exc:
        return str(exc)
    return None


def perturbed_tables(alg):
    """The table of ``alg`` with one structure constant c_ij^k raised by 1, for each i, j, k."""
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        mult = {key: dict(col) for key, col in alg._mult.items()}
        col = mult.setdefault((i, j), {})
        col[k] = col.get(k, alg.field.zero) + 1
        yield mult


class TestTableBuildersAgainstReference:
    @pytest.mark.parametrize("name", ["trivial", "group_z2", "group_z3", "group_z6",
                                      "z2_triangular", "sweedler_h4", "semion"])
    def test_law_check_passes_the_catalog_tables(self, name):
        alg = builtin(name).structure.algebra
        assert law_verdict(CHECK, alg) is None
        assert law_verdict(ref.algebra_check, alg) is None

    @pytest.mark.parametrize("n", range(1, 13))
    def test_law_check_passes_the_block_tables(self, n):
        alg, _ = blocks._block_algebra(blocks.block_basis(n), RATIONAL)
        assert law_verdict(CHECK, alg) is None
        assert law_verdict(ref.algebra_check, alg) is None

    def test_law_check_on_changed_tables(self, monkeypatch):
        """Every one-constant change of five small tables: the same verdict and text,
        unit-law and associativity failures among them."""
        verdicts = set()
        for alg in (z2_half(RATIONAL), z3(RATIONAL), M2[RATIONAL], z3_scaled(Q3, Q3.zeta),
                    blocks._block_algebra(blocks.block_basis(4), RATIONAL)[0]):
            for mult in perturbed_tables(alg):
                with monkeypatch.context() as m:
                    m.setattr(Algebra, "_check", lambda self: None)
                    changed = Algebra(alg.field, alg.dim, mult, alg.unit, alg.basis_names)
                verdict = law_verdict(CHECK, changed)
                assert verdict == law_verdict(ref.algebra_check, changed)
                verdicts.add(verdict.split(" on ")[0] if verdict else None)
        assert verdicts == {None, "unit law fails", "associativity fails"}

    @pytest.mark.parametrize("field", [RATIONAL, Q4], ids=["Q", "Q4"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_algebra_against_the_convolution(self, n, field):
        basis = blocks.block_basis(n)
        alg, down = blocks._block_algebra(basis, field)
        ref_alg, ref_down = ref.block_algebra(basis, field)
        assert alg._mult == ref_alg._mult
        assert alg.unit == ref_alg.unit
        assert alg.basis_names == ref_alg.basis_names
        assert down.algebra is alg
        assert [c.entries for c in down.columns] == [c.entries for c in ref_down.columns]

    def test_a_changed_basis_is_refused_with_the_same_text(self):
        basis = blocks.block_basis(4)
        matrix = [list(row) for row in basis.matrix]
        matrix[2][1] += Fraction(1, 7)
        changed = basis._replace(matrix=tuple(map(tuple, matrix)))
        for build in (blocks._block_algebra, ref.block_algebra):
            with pytest.raises(StructureError) as err:
                build(changed, RATIONAL)
            assert str(err.value) == "block basis: P^{-1} P is not the identity"

"""The tensor kernel: structure-constant algebras, leg operations, inversion."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhakit.errors import AlgebraError, ArityMismatch, SingularError
from qhakit.linalg import invert_matrix, solve
from qhakit.scalars import RATIONAL, cyclotomic_field
from qhakit.randgen import random_invertible_element
from qhakit.tensor import AlgElement, Algebra, LinearMap, TensorElement, contract, tensor_of

from conftest import entry, hopf
from reference_kernel import nullspace


def z2(field=RATIONAL):
    return Algebra(field, 2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                              (1, 0): {1: 1}, (1, 1): {0: 1}}, basis=["1", "g"])


def field_matrix(t):
    """The left-multiplication matrix of t with field-valued entries."""
    rows, den = t.left_matrix()
    return [t.algebra.field.restore(row, den) for row in rows]


def semion_parts():
    alg = hopf("semion").algebra
    one, g = alg.unit_element, alg.basis_element(1)
    p = Fraction(1, 2) * one - Fraction(1, 2) * g
    return alg, one, g, p


# -- construction checks -----------------------------------------------------

class TestAlgebraConstruction:
    def test_unit_law_enforced(self):
        with pytest.raises(AlgebraError, match="unit law"):
            Algebra(RATIONAL, 2, {(0, 0): {0: 1}, (1, 1): {0: 1}})

    def test_associativity_enforced(self):
        # e1 e1 = e2, e1 e2 = e0, e2 e1 = e1 makes (e1 e1) e1 != e1 (e1 e1)
        mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                (1, 0): {1: 1}, (2, 0): {2: 1},
                (1, 1): {2: 1}, (1, 2): {0: 1}, (2, 1): {1: 1}, (2, 2): {0: 1}}
        with pytest.raises(AlgebraError, match=r"associativity.*e1, e1, e1"):
            Algebra(RATIONAL, 3, mult)


# -- legwise multiplication --------------------------------------------------

class TestMul:
    def test_unit_law(self):
        alg = z2()
        g = alg.basis_element(1)
        t = tensor_of(g, g) + alg.tensor_unit(2).scale(Fraction(1, 3))
        assert alg.tensor_unit(2) * t == t
        assert t * alg.tensor_unit(2) == t

    def test_z2_involution(self):
        alg = z2()
        g = alg.basis_element(1)
        gg = tensor_of(g, g)
        assert gg * gg == alg.tensor_unit(2)

    def test_semion_coassociator_squares_to_unit(self):
        """Oracle: dense double loop over all index pairs."""
        alg, one, g, p = semion_parts()
        phi = alg.tensor_unit(3) - tensor_of(p, p, p).scale(2)
        prod = phi * phi
        field = alg.field
        # dense oracle
        dense = {}
        for key_a in itertools.product(range(2), repeat=3):
            for key_b in itertools.product(range(2), repeat=3):
                ca = phi.entries.get(key_a)
                cb = phi.entries.get(key_b)
                if not ca or not cb:
                    continue
                legs = [alg.basis_element(i) * alg.basis_element(j)
                        for i, j in zip(key_a, key_b)]
                for k1, v1 in enumerate(legs[0].coeffs):
                    for k2, v2 in enumerate(legs[1].coeffs):
                        for k3, v3 in enumerate(legs[2].coeffs):
                            v = ca * cb * v1 * v2 * v3
                            if v:
                                key = (k1, k2, k3)
                                dense[key] = dense.get(key, field.zero) + v
        dense = {k: v for k, v in dense.items() if v}
        assert prod.entries == dense
        assert prod == alg.tensor_unit(3)


class TestPermute:
    def test_identity(self):
        alg = z2()
        t = tensor_of(alg.basis_element(1), alg.unit_element)
        assert t.perm((1, 2)) == t

    def test_swap(self):
        alg = z2()
        a, b = alg.basis_element(1), alg.unit_element
        assert tensor_of(a, b).transpose() == tensor_of(b, a)

    def test_semion_coassociator_symmetric(self):
        alg, one, g, p = semion_parts()
        phi = hopf("semion").phi
        for sigma in itertools.permutations((1, 2, 3)):
            # oracle: entry-by-entry comparison
            expected = {tuple(key[s - 1] for s in sigma): v
                        for key, v in phi.entries.items()}
            assert phi.perm(sigma).entries == expected
            assert phi.perm(sigma) == phi

    def test_inverse_composition(self):
        alg = z2()
        t = tensor_of(alg.basis_element(1), alg.unit_element, alg.basis_element(1))
        sigma = (2, 3, 1)
        inverse = (3, 1, 2)
        assert t.perm(sigma).perm(inverse) == t

    def test_malformed(self):
        alg = z2()
        with pytest.raises(ArityMismatch):
            alg.tensor_unit(2).perm((1, 1))


class TestEmbed:
    def test_r12(self):
        alg = z2()
        r = tensor_of(alg.basis_element(1), alg.basis_element(1))
        assert r.embed((1, 2), 3) == r @ alg.unit_element

    def test_r13(self):
        # components land on legs 1 and 3 with the unit in the middle
        alg = z2()
        a, b = alg.basis_element(1), alg.unit_element + alg.basis_element(1)
        expected = alg.tensor_zero(3)
        for (i,), u in a.entries.items():
            for (j,), v in b.entries.items():
                expected = expected + tensor_of(
                    alg.basis_element(i), alg.unit_element, alg.basis_element(j)
                ).scale(u * v)
        assert tensor_of(a, b).embed((1, 3), 3) == expected

    def test_unit_embeds_to_unit(self):
        alg = z2()
        assert alg.tensor_unit(2).embed((2, 3), 4) == alg.tensor_unit(4)

    def test_bad_positions(self):
        alg = z2()
        with pytest.raises(ArityMismatch):
            alg.tensor_unit(2).embed((1, 1), 3)
        with pytest.raises(ArityMismatch):
            alg.tensor_unit(2).embed((1, 4), 3)

    def test_disjoint_embeds_multiply_to_outer_product(self):
        alg = z2()
        s = tensor_of(alg.basis_element(1), alg.basis_element(1))
        t = alg.basis_element(1)
        assert s.embed((1, 2), 3) * t.embed((3,), 3) == s @ t


class TestApplyOnLeg:
    def test_counit_on_twist_legs(self):
        h = hopf("z2_triangular")
        r = entry("z2_triangular").structure.r
        assert h.counit.on_leg(r, 1) == h.algebra.tensor_unit(1)
        assert h.counit.on_leg(r, 2) == h.algebra.tensor_unit(1)

    def test_coproduct_unital(self):
        h = hopf("group_z3")
        assert h.coproduct.on_leg(h.algebra.tensor_unit(2), 1) == h.algebra.tensor_unit(3)

    def test_middle_counit_of_coassociator(self):
        for name in ("trivial", "group_z3", "z2_triangular", "sweedler_h4", "semion"):
            h = hopf(name)
            assert h.counit.on_leg(h.phi, 2) == h.algebra.tensor_unit(2)

    def test_counit_recovers_after_coproduct(self):
        for name in ("sweedler_h4", "semion"):
            h = hopf(name)
            t = h.phi + h.algebra.tensor_unit(3).scale(Fraction(1, 5))
            expanded = h.coproduct.on_leg(t, 1)
            assert h.counit.on_leg(expanded, 1) == t


class TestContractAlgebras:
    @pytest.mark.parametrize("where", ["own spec", "next to a leg", "map"])
    def test_a_factor_or_map_from_another_algebra_is_refused(self, where):
        """Wherever it stands: in a spec of its own it once gave an arity-3 tensor over
        the dim-2 algebra holding the out-of-range index 3."""
        r = entry("z2_triangular").structure.r
        sweedler = hopf("sweedler_h4")
        e3 = sweedler.algebra.basis_element(3)
        specs = {"own spec": ([(1, None)], [(2, None)], [e3]),
                 "next to a leg": ([(1, None), e3], [(2, None)]),
                 "map": ([(1, sweedler.s)], [(2, None)])}[where]
        with pytest.raises(ArityMismatch, match="elements of different algebras"):
            contract(r, *specs)

    def test_a_compatible_algebra_is_accepted(self):
        """Equal tables built twice are one algebra to ``contract``, as to products."""
        a, b = z2(), z2()
        t = tensor_of(a.basis_element(1), a.unit_element)
        g = b.basis_element(1)
        assert contract(t, [(2, None), g], [(1, LinearMap.identity(b))]) == tensor_of(g, g)


def _seeded_tensor(rng, alg, arity):
    """A few seeded entries with small rational values (zeta multiples over Q(zeta_n))."""
    keys = list(alg.multi_indices(arity))
    field = alg.field
    out = {}
    for _ in range(3):
        value = field.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        if field.kind == "cyclotomic" and rng.random() < 0.5:
            value = value * field.zeta
        out[rng.choice(keys)] = value
    return TensorElement(alg, arity, out)


class TestArityOneIsAnElement:
    """An element of H is the tensor of arity 1: every operation that lands in
    arity 1 returns an AlgElement, whichever constructor or route built it."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["group_z3", "sweedler_h4", "semion"])
    def test_every_arity_one_result_is_an_element(self, name, seed):
        rng = random.Random(f"{seed}:{name}")
        h = hopf(name)
        alg, s, eps = h.algebra, h.s, h.counit
        a, b = _seeded_tensor(rng, alg, 1), _seeded_tensor(rng, alg, 1)
        t2, t3 = _seeded_tensor(rng, alg, 2), _seeded_tensor(rng, alg, 3)
        w = random_invertible_element(rng, alg)
        results = {
            "constructor": a,
            "on_leg": eps.on_leg(t2, 1),
            "on_leg twice": eps.on_leg(eps.on_leg(t3, 3), 1),
            "on_leg 1 -> 1": s.on_leg(b, 1),
            "contract": contract(t3, [(1, s), b, (2, None), (3, s)]),
            "invert": w.invert(),
            "inverse": w.inverse(),
            "perm": a.perm((1,)),
            "+": a + b,
            "-": a - b,
            "neg": -a,
            "scale": a.scale(Fraction(-2, 3)),
            "scalar *": Fraction(1, 2) * a,
            "* scalar": a * 3,
            "product": a * b,
            "call": s(a),
            "call twice": s.compose(s)(b),
            "map_tensor": s.map_tensor(a),
            "col": s.col(0),
            "tensor_unit": alg.tensor_unit(1),
            "tensor_zero": alg.tensor_zero(1),
            "outer with a scalar": a @ alg.tensor_unit(0),
        }
        assert {k: type(v).__name__ for k, v in results.items()
                if type(v) is not AlgElement} == {}
        assert type(a @ b) is TensorElement and type(eps.on_leg(a, 1)) is TensorElement
        assert results["invert"] * w == alg.unit_element
        for x in (a, t2):
            copies = [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
            assert all(type(y) is type(x) and y == x for y in copies)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["group_z3", "sweedler_h4", "semion"])
    def test_coefficients_and_entries_build_one_element(self, name, seed):
        rng = random.Random(f"{seed}:{name}:coeffs")
        alg = hopf(name).algebra
        entries = _seeded_tensor(rng, alg, 1).entries
        coeffs = [entries.get((i,), alg.field.zero) for i in range(alg.dim)]
        from_coeffs = alg.element(coeffs)
        from_entries = TensorElement(alg, 1, entries)
        assert from_coeffs == from_entries and hash(from_coeffs) == hash(from_entries)
        assert from_coeffs.coeffs == tuple(coeffs) and from_entries.entries == entries
        assert {from_coeffs, from_entries} == {from_entries}


class TestInvertAndMatrices:
    def test_unit_inverse(self):
        alg = z2()
        assert alg.tensor_unit(3).invert() == alg.tensor_unit(3)

    def test_semion_coassociator_self_inverse(self):
        h = hopf("semion")
        inv = h.phi.invert()
        # oracle: multiply out and compare with the unit
        assert h.phi * inv == h.algebra.tensor_unit(3)
        assert inv == h.phi

    def test_gg_involution(self):
        alg = z2()
        gg = tensor_of(alg.basis_element(1), alg.basis_element(1))
        assert gg.invert() == gg

    def test_singular_detected(self):
        alg, one, g, p = semion_parts()
        with pytest.raises(SingularError):
            tensor_of(p, p).invert()

    def test_left_matrix_of_unit(self):
        alg = z2()
        m = field_matrix(alg.tensor_unit(2))
        for i in range(4):
            for j in range(4):
                assert m[i][j] == (1 if i == j else 0)

    def test_left_matrix_of_g_is_swap(self):
        alg = z2()
        m = field_matrix(alg.basis_element(1))
        assert m == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]

    def test_left_matrix_of_projector(self):
        alg = z2()
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        m = field_matrix(p)
        # oracle: direct basis multiplication
        for j in range(2):
            col = p * alg.basis_element(j)
            for k in range(2):
                assert m[k][j] == col.coeffs[k]
        # rank one: second column is a multiple of the first
        assert m[0][0] * m[1][1] == m[0][1] * m[1][0]

    def test_left_inverse_without_right_rejected(self):
        # upper triangular 2x2 over a 1-dim algebra embedded as arity-2... simpler:
        # a noncommutative check is exercised via sweedler in structures; here
        # check two-sidedness on a known invertible
        alg = z2()
        t = alg.tensor_unit(2) + tensor_of(alg.basis_element(1), alg.basis_element(1))
        with pytest.raises(SingularError):
            t.invert()  # (1 + g(x)g) is singular: (1+g(x)g)(1-g(x)g) = 0


class TestIsCentral:
    def test_unit_central(self, any_entry):
        s = any_entry.structure
        alg = s.algebra
        assert alg.unit_element.is_central()

    def test_commutative_all_central(self):
        alg = z2()
        assert alg.basis_element(1).is_central()

    def test_sweedler_g_not_central(self):
        alg = hopf("sweedler_h4").algebra
        g, x = alg.basis_element(1), alg.basis_element(2)
        # oracle: gx = -xg means g fails centrality against x
        assert g * x == -(x * g)
        assert g * x != x * g
        assert not g.is_central()


class TestLinearSolve:
    def test_identity(self):
        b = [Fraction(3), Fraction(-1, 2)]
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert solve(RATIONAL, m, b) == b

    def test_upper_triangular(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        assert solve(RATIONAL, m, [Fraction(2), Fraction(1)]) == [Fraction(1), Fraction(1)]

    def test_coassociator_inverse_by_solve(self):
        h = hopf("semion")
        m = field_matrix(h.phi)
        alg = h.algebra
        unit = alg.tensor_unit(3)
        rhs = [alg.field.zero] * 8
        for key, v in unit.entries.items():
            idx = key[0] * 4 + key[1] * 2 + key[2]
            rhs[idx] = v
        x = solve(alg.field, m, rhs)
        result = TensorElement(alg, 3, {
            key: x[key[0] * 4 + key[1] * 2 + key[2]]
            for key in itertools.product(range(2), repeat=3)})
        # oracle: multiply back
        assert h.phi * result == unit

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(SingularError):
            solve(RATIONAL, m, [Fraction(1), Fraction(0)])

    def test_invert_matrix_and_nullspace(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        inv = invert_matrix(RATIONAL, m)
        assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
        null = nullspace(RATIONAL, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
        assert len(null) == 1
        v = null[0]
        assert v[0] + 2 * v[1] == 0


# -- property tests over random sparse tensors -------------------------------

def sparse_tensors(alg, arity):
    d = alg.dim
    keys = st.tuples(*(st.integers(0, d - 1) for _ in range(arity)))
    pairs = st.lists(st.tuples(keys, st.fractions(min_value=-6, max_value=6, max_denominator=3)),
                     min_size=0, max_size=4)
    return pairs.map(lambda kv: TensorElement(alg, arity, dict(kv)))


class TestKernelProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, data):
        alg = hopf("sweedler_h4").algebra
        s = data.draw(sparse_tensors(alg, 2))
        t = data.draw(sparse_tensors(alg, 2))
        u = data.draw(sparse_tensors(alg, 2))
        assert (s * t) * u == s * (t * u)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permute_commutes_with_mul(self, data):
        alg = hopf("sweedler_h4").algebra
        s = data.draw(sparse_tensors(alg, 3))
        t = data.draw(sparse_tensors(alg, 3))
        sigma = data.draw(st.permutations([1, 2, 3]))
        sigma = tuple(sigma)
        assert (s * t).perm(sigma) == s.perm(sigma) * t.perm(sigma)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_embed_distributes(self, data):
        alg = hopf("semion").algebra
        s = data.draw(sparse_tensors(alg, 2))
        t = data.draw(sparse_tensors(alg, 1))
        assert s.embed((1, 2), 3) * t.embed((3,), 3) == s @ t

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_two_sided_inverse(self, data):
        alg = hopf("semion").algebra
        t = alg.tensor_unit(2) + data.draw(sparse_tensors(alg, 2))
        try:
            inv = t.invert()
        except SingularError:
            return
        assert t * inv == alg.tensor_unit(2)
        assert inv * t == alg.tensor_unit(2)


# -- reference paths ---------------------------------------------------------
#
# Every operation that multiplies out leg by leg shares one expansion kernel.
# Each is checked here against an oracle built only from AlgElement products,
# outer products (tensor_of), sums and scalings, over Q and Q(zeta_4), on an
# algebra whose unit is one basis vector (k[Z/2]) and on one whose unit has
# two terms and whose product is noncommutative (2x2 matrices).

Q4 = cyclotomic_field(4)


def m2(field):
    """2x2 matrices on the basis e11, e12, e21, e22: e_ij e_kl = [j == k] e_il."""
    mult = {(2 * i + j, 2 * k + l): ({2 * i + l: 1} if j == k else {})
            for i in range(2) for j in range(2) for k in range(2) for l in range(2)}
    return Algebra(field, 4, mult, unit=[1, 0, 0, 1], basis=["e11", "e12", "e21", "e22"])


BUILDERS = (z2, m2)
ALGEBRAS = tuple(build(field) for build in BUILDERS for field in (RATIONAL, Q4))


def scalars(field):
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return q if field.kind == "rational" else st.tuples(q, q).map(list)


@st.composite
def tensors(draw, alg, arity):
    """Dense when the whole tensor power is small enough, else a few random entries."""
    keys = list(alg.multi_indices(arity))
    if len(keys) <= 16 and draw(st.booleans()):
        chosen = keys
    else:
        chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return TensorElement(alg, arity, {k: draw(scalars(alg.field)) for k in chosen})


def outer(alg, scalar, factors):
    """scalar * f_1 (x) ... (x) f_n, with n = 0 giving the scalar itself."""
    if not factors:
        return TensorElement(alg, 0, {(): scalar})
    return tensor_of(*factors).scale(scalar)


def oracle_mul(s, t):
    alg = s.algebra
    out = alg.tensor_zero(s.arity)
    for I, u in s.entries.items():
        for J, v in t.entries.items():
            out = out + outer(alg, u * v, [alg.basis_element(a) * alg.basis_element(b)
                                           for a, b in zip(I, J)])
    return out


class TestReferencePaths:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, data):
        alg = data.draw(st.sampled_from(ALGEBRAS))
        arity = data.draw(st.integers(0, 4))
        s = data.draw(tensors(alg, arity))
        t = data.draw(tensors(alg, arity))
        assert (s * t).entries == oracle_mul(s, t).entries

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_left_matrix_columns(self, data):
        alg = data.draw(st.sampled_from(ALGEBRAS))
        arity = data.draw(st.integers(0, 4 if alg.dim == 2 else 2))
        t = data.draw(tensors(alg, arity))
        mat = field_matrix(t)
        d = alg.dim
        for col, J in enumerate(alg.multi_indices(arity)):
            e_J = outer(alg, alg.field.one, [alg.basis_element(j) for j in J])
            expected = [alg.field.zero] * (d ** arity)
            for K, v in oracle_mul(t, e_J).entries.items():
                expected[sum(k * d ** (arity - 1 - n) for n, k in enumerate(K))] = v
            assert [row[col] for row in mat] == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_embed(self, data):
        alg = data.draw(st.sampled_from(ALGEBRAS))
        arity = data.draw(st.integers(0, 4))
        target = data.draw(st.integers(arity, 4))
        positions = tuple(data.draw(st.permutations(range(1, target + 1)))[:arity])
        t = data.draw(tensors(alg, arity))
        expected = alg.tensor_zero(target)
        for key, val in t.entries.items():
            slots = [alg.unit_element] * target
            for p, k in zip(positions, key):
                slots[p - 1] = alg.basis_element(k)
            expected = expected + outer(alg, val, slots)
        assert t.embed(positions, target).entries == expected.entries

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_contract(self, data):
        alg = data.draw(st.sampled_from(ALGEBRAS))
        field = alg.field
        arity = data.draw(st.integers(0, 4))
        out_arity = data.draw(st.integers(1 if arity else 0, 3))
        t = data.draw(tensors(alg, arity))
        m = LinearMap.from_matrix(alg, [[data.draw(scalars(field)) for _ in range(alg.dim)]
                                        for _ in range(alg.dim)])
        specs = [[] for _ in range(out_arity)]
        for leg in data.draw(st.permutations(range(1, arity + 1))):
            specs[data.draw(st.integers(0, out_arity - 1))].append(
                (leg, data.draw(st.sampled_from([None, m]))))
        for spec in specs:
            if data.draw(st.booleans()):
                fixed = alg.element([data.draw(scalars(field)) for _ in range(alg.dim)])
                spec.insert(data.draw(st.integers(0, len(spec))), fixed)
        expected = alg.tensor_zero(out_arity)
        for key, val in t.entries.items():
            factors = []
            for spec in specs:
                elt = alg.unit_element
                for item in spec:
                    if not isinstance(item, tuple):
                        elt = elt * item
                    else:
                        leg, f = item
                        e = alg.basis_element(key[leg - 1])
                        elt = elt * (e if f is None else f(e))
                factors.append(elt)
            expected = expected + outer(alg, val, factors)
        assert contract(t, *specs).entries == expected.entries

    @pytest.mark.parametrize("field", [RATIONAL, Q4], ids=str)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_tensor_unit(self, build, field):
        alg = build(field)  # a fresh algebra: its tensor units are not cached yet
        assert alg.tensor_unit(0).entries == {(): field.one}
        for arity in range(1, 5):
            expected = tensor_of(*[alg.unit_element] * arity)
            assert alg.tensor_unit(arity).entries == expected.entries


@st.composite
def square_matrices(draw, field):
    """Random n x n matrices, n <= 4; about half get one row a multiple of another."""
    n = draw(st.integers(1, 4))
    rows = [[field.coerce(draw(scalars(field))) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = field.coerce(draw(scalars(field)))
        rows[j] = [c * v for v in rows[i]]
    return rows


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class TestSolversAgree:
    @pytest.mark.parametrize("field", [RATIONAL, Q4], ids=str)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invert_matrix_against_solve(self, field, data):
        m = data.draw(square_matrices(field))
        n = len(m)
        units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
        try:
            inv = invert_matrix(field, m)
        except SingularError as exc:
            for e in units:
                with pytest.raises(SingularError) as by_solve:
                    solve(field, m, e)
                assert str(by_solve.value) == str(exc)
            return
        identity = [list(row) for row in zip(*units)]
        assert matmul(inv, m) == identity
        assert matmul(m, inv) == identity
        for j, e in enumerate(units):
            assert solve(field, m, e) == [row[j] for row in inv]

    def test_singular_text_shared(self):
        m = [[Fraction(1), Fraction(2), Fraction(0)],
             [Fraction(2), Fraction(4), Fraction(1)],
             [Fraction(0), Fraction(0), Fraction(3)]]
        with pytest.raises(SingularError) as by_inverse:
            invert_matrix(RATIONAL, m)
        with pytest.raises(SingularError) as by_solve:
            solve(RATIONAL, m, [Fraction(1), Fraction(0), Fraction(0)])
        assert str(by_inverse.value) == str(by_solve.value) == \
            "singular matrix (no pivot in column 1)"

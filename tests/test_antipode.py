"""Antipode equivalence: the connecting operator v and its twist invariance."""

import random
import sys
from fractions import Fraction

import pytest

from qhakit import structures, suites
from qhakit.antipode import antipode_from_v, check_v_universality, compute_v
from qhakit.catalog import builtin
from qhakit.cli import main
from qhakit.errors import ConsistencyError, StructureError
from qhakit.randgen import random_invertible_element, random_twist
from qhakit.structures import QuasiAntipode, verify_quasi_antipode
from qhakit.tensor import LinearMap
from qhakit.twists import Twist, twist_structure

from conftest import ENTRY_NAMES, entry, hopf, where


class TestComputeV:
    def test_same_antipode_gives_one(self, any_entry):
        """With alt = base the zigzag identity collapses v to 1."""
        h = hopf(any_entry.name)
        assert verify_quasi_antipode(h, h.antipode).ok
        assert compute_v(h, h.antipode) == h.algebra.unit_element

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_recovers_generator_exactly(self, name):
        h = hopf(name)
        rng = random.Random(f"v:{name}")
        for _ in range(5):
            w = random_invertible_element(rng, h.algebra)
            alt = h.antipode.conjugated(w)
            assert verify_quasi_antipode(h, alt).ok
            assert compute_v(h, alt) == w

    def test_semion_grouplike_generator(self):
        h = hopf("semion")
        g = h.algebra.basis_element(1)
        alt = antipode_from_v(h, g)
        assert alt.s == h.s                       # commutative: conjugation trivial
        assert alt.alpha == h.algebra.unit_element  # g * g = 1
        assert alt.beta == g

    def test_semion_central_one_plus_p(self):
        h = hopf("semion")
        alg = h.algebra
        p = Fraction(1, 2) * alg.unit_element - Fraction(1, 2) * alg.basis_element(1)
        w = alg.unit_element + p
        alt = h.antipode.conjugated(w)
        assert verify_quasi_antipode(h, alt).ok
        assert compute_v(h, alt) == w

    def test_central_specialization(self, any_entry):
        """When the alternative triple keeps S, the connecting operator is central."""
        h = hopf(any_entry.name)
        alg = h.algebra
        # pick an invertible central w: scalars always work
        w = alg.scalar_element(Fraction(7, 3))
        alt = h.antipode.conjugated(w)
        assert alt.s == h.s
        assert verify_quasi_antipode(h, alt).ok
        v = compute_v(h, alt)
        assert v == w and v.is_central()

    def test_sweedler_nontrivial_conjugation(self):
        h = hopf("sweedler_h4")
        rng = random.Random(2)
        for _ in range(6):
            w = random_invertible_element(rng, h.algebra)
            alt = h.antipode.conjugated(w)
            if alt.s != h.s:
                break
        else:
            pytest.skip("no conjugation-moving sample drawn")
        rep = verify_quasi_antipode(h, alt)
        assert rep.ok
        assert compute_v(h, alt) == w


class TestUniqueness:
    def test_perturbed_candidate_breaks_a_relation(self, any_entry):
        """Anything differing from v violates one of the three defining relations."""
        h = hopf(any_entry.name)
        alg = h.algebra
        rng = random.Random(4)
        w = random_invertible_element(rng, alg)
        alt = h.antipode.conjugated(w)
        assert verify_quasi_antipode(h, alt).ok
        v = compute_v(h, alt)
        candidate = v + alg.unit_element  # any perturbation
        if candidate == v:
            return
        relations_hold = (
            candidate * h.alpha == alt.alpha
            and alt.beta * candidate == h.beta
            and all(alt.s(alg.basis_element(i)) * candidate
                    == candidate * h.s(alg.basis_element(i))
                    for i in range(alg.dim)))
        assert not relations_hold


class TestBijection:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_antipode_from_v_roundtrip(self, name):
        h = hopf(name)
        rng = random.Random(f"bij:{name}")
        w = random_invertible_element(rng, h.algebra)
        alt = antipode_from_v(h, w)  # asserts compute_v == w internally
        assert verify_quasi_antipode(h, alt).ok
        again = h.antipode.conjugated(compute_v(h, alt))
        assert again.s == alt.s
        assert again.alpha == alt.alpha and again.beta == alt.beta

    def test_a_wrong_triple_is_refused(self, monkeypatch):
        """Mutant: a conjugation that doubles alpha builds a triple the verifier refuses."""
        h = hopf("sweedler_h4")
        real = QuasiAntipode.conjugated

        def doubled(self, w):
            alt = real(self, w)
            return QuasiAntipode(alt.s, 2 * alt.alpha, alt.beta, s_inv=alt.s_inv)

        monkeypatch.setattr(QuasiAntipode, "conjugated", doubled)
        with pytest.raises(StructureError) as exc:
            antipode_from_v(h, h.algebra.basis_element(1))
        assert str(exc.value) == ("alternative quasi-antipode fails: "
                                  "Sphi, Sphi-inv, eps-alpha-beta")

    def test_identity_generator(self, any_entry):
        h = hopf(any_entry.name)
        alt = antipode_from_v(h, h.algebra.unit_element)
        assert alt.s == h.s
        assert alt.alpha == h.alpha and alt.beta == h.beta


class TestUniversality:
    def test_identity_twist(self, any_entry):
        h = hopf(any_entry.name)
        w = random_invertible_element(random.Random(9), h.algebra)
        alt = h.antipode.conjugated(w)
        assert verify_quasi_antipode(h, alt).ok
        f = Twist.identity(h)
        assert check_v_universality(h, alt, f, twist_structure(h, f))

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_random_twists(self, name):
        h = hopf(name)
        rng = random.Random(f"uni:{name}")
        for _ in range(5):
            w = random_invertible_element(rng, h.algebra)
            f = random_twist(rng, h)
            alt = h.antipode.conjugated(w)
            assert verify_quasi_antipode(h, alt).ok
            assert check_v_universality(h, alt, f, twist_structure(h, f, verify=False))

    @pytest.mark.parametrize("name", ("group_z3", "z2_triangular", "sweedler_h4", "semion"))
    def test_a_bundle_twisted_by_another_twist_is_caught(self, name):
        """v on a bundle twisted by g2 != g is not taken for v under g: the check returns
        False or a route raises, although v on (h, alt) needs no twisted bundle."""
        h = hopf(name)
        rng = random.Random(f"wrong:{name}")
        alt = h.antipode.conjugated(random_invertible_element(rng, h.algebra))
        g, g2 = random_twist(rng, h), random_twist(rng, h)
        assert g != g2
        wrong = twist_structure(h, g2)
        try:
            agreed = check_v_universality(h, alt, g, wrong)
        except ConsistencyError:
            agreed = None
        assert agreed is not True


# -- route mutants: one closed form of the connecting element changed --------------

_CONTRACT = structures.contract


def _double_in_each_run(monkeypatch, n):
    """Double the n-th ``contract`` result of each run of ``_connecting_element``."""
    run = {"frame": None, "calls": 0}

    def mutant(*args):
        out = _CONTRACT(*args)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_connecting_element":
            if frame is not run["frame"]:
                run.update(frame=frame, calls=0)
            run["calls"] += 1
            if run["calls"] == n:
                return out.scale(2)
        return out

    monkeypatch.setattr(structures, "contract", mutant)


@pytest.mark.parametrize("n, text, witness", [
    (2, "the two closed forms of v disagree", "at (0,): 2 != 4"),
    (4, "the two closed forms of v^{-1} disagree", "at (0,): 2/3 != 4/3"),
], ids=["v_alt", "v_inv_alt"])
def test_a_route_mutant_fails_its_check(monkeypatch, capsys, n, text, witness):
    """The second closed form of v, or of v^{-1}, doubled: compute_v raises the check's
    text with the first differing entry, the twist suite fails each check that connects
    two quasi-antipodes with that text, and the CLI prints the entry under the error."""
    _double_in_each_run(monkeypatch, n)
    h = builtin("sweedler_h4").structure
    alg = h.algebra
    alt = h.antipode.conjugated(alg.unit_element.scale(2) + alg.basis_element(1))
    with pytest.raises(ConsistencyError) as exc:
        compute_v(h, alt)
    assert (str(exc.value), exc.value.witness) == (text, witness)
    (rep,) = suites.run_suites(builtin("sweedler_h4"), "twist", seed=0, trials=1)
    failed = f"{text}; {where(exc.value)}"
    assert [(c.check_id, where(c)) for c in rep.failures()] == [
        ("T1.roundtrip@0", failed), ("uni-v@0", failed), ("P8@0", failed)]
    assert main(["compute", "sweedler_h4", "v"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {text}", "  first difference: at (0,): 1 != 2"]


@pytest.mark.parametrize("name", ["group_z2", "sweedler_h4"])
def test_a_triple_with_a_non_unital_map_fails_v_alpha(name):
    """(-S, 1, 1) on a bundle with the trivial coassociator and alpha = beta = 1: both
    closed forms give v = v^{-1} = -1, so v is a two-sided inverse of v^{-1} and only
    the relation v alpha = alpha~ (-1 against 1) fails."""
    h = builtin(name).structure
    alg = h.algebra
    assert h.phi == alg.tensor_unit(3) and h.alpha == h.beta == alg.unit_element
    negated = [LinearMap(alg, [c.scale(-1) for c in m.columns]) for m in (h.s, h.s_inv)]
    alt = QuasiAntipode(negated[0], alg.unit_element, alg.unit_element, s_inv=negated[1])
    with pytest.raises(ConsistencyError) as exc:
        compute_v(h, alt)
    assert (str(exc.value), exc.value.witness) == ("v alpha != alpha~", "at (0,): -1 != 1")

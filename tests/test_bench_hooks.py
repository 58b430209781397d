"""The names the benchmark's traced run hooks into still exist.

``bench/trace_boot.py`` wraps every public function of each layer module and
the methods in its ``METHODS`` table; ``bench/layers.json`` requires some call
counts to be nonzero.  Both files are only read here, no wrapper is installed,
so a change that renames or deletes a traced name fails these tests instead
of the traced benchmark run.  The last tests guard what the traced counts
mean: ``tensor.mul.*`` counts legwise products only, ``max_bits`` reads
reduced ``Fraction`` entries, and a legwise product, ``@``, ``embed`` or
``on_leg`` over Q(zeta_n) adds nothing to ``scalars.cyclo_mul``.
"""

import importlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import reference_kernel as ref
from conftest import hopf
from qhakit.scalars import RATIONAL, Cyclo
from qhakit.tensor import Algebra, TensorElement

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trace_boot():
    spec = importlib.util.spec_from_file_location("trace_boot", BENCH / "trace_boot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE_BOOT = _trace_boot()

# call counts that bench/trace_report.py sums from other spans, and what they need
AGGREGATES = {
    "tensor.mul": ("tensor", "TensorElement", ("__mul__",)),
    "structures.derived": ("structures", None,
                           ("opposite_structure", "primed_structure", "zero_structure")),
}


def _public_functions(layer):
    """The names trace_boot.install() gives a span: public functions defined in the module."""
    module = importlib.import_module(f"qhakit.{layer}")
    return {attr.removeprefix("suite_") for attr, fn in vars(module).items()
            if not attr.startswith("_") and not isinstance(fn, type) and callable(fn)
            and getattr(fn, "__module__", None) == module.__name__}


def _required_call_counts():
    table = json.loads((BENCH / "layers.json").read_text())["table"]
    return sorted(name.removesuffix(".calls") for row in table if row.get("nonzero_on")
                  for name in row["metrics"] if name.endswith(".calls"))


@pytest.mark.parametrize("span", sorted(TRACE_BOOT.METHODS))
def test_method_targets_resolve(span):
    layer, cls_name, attr = TRACE_BOOT.METHODS[span]
    module = importlib.import_module(f"qhakit.{layer}")
    owner = module if cls_name is None else vars(module)[cls_name]
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("span", _required_call_counts())
def test_required_call_count_has_a_traced_name(span):
    if span in TRACE_BOOT.METHODS:
        return  # resolved by test_method_targets_resolve
    if span in AGGREGATES:
        layer, cls_name, attrs = AGGREGATES[span]
        if cls_name is None:
            assert set(attrs) <= _public_functions(layer)
        else:
            owner = vars(importlib.import_module(f"qhakit.{layer}"))[cls_name]
            assert all(callable(vars(owner)[attr]) for attr in attrs)
        return
    layer, fn = span.split(".", 1)
    assert layer in TRACE_BOOT.LAYERS
    assert fn in _public_functions(layer)


# -- the counts the traced run reads -------------------------------------------

def _fractional_z2():
    """k[Z/2] on the basis {1, g/2}, whose structure constants have a denominator."""
    return Algebra(RATIONAL, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                                 (1, 1): {0: Fraction(1, 4)}})


def _samples():
    """Rational tensors of arity 1-3: catalog data and dense tensors with denominators."""
    z3 = hopf("group_z3")
    alg = _fractional_z2()
    dense = TensorElement(alg, 3, {k: Fraction(n - 3, n % 3 + 2)
                                   for n, k in enumerate(alg.multi_indices(3))})
    return [z3.phi, z3.coproduct.col(1), z3.algebra.unit_element.to_tensor() * 3, dense,
            dense.perm((3, 1, 2)), TensorElement(alg, 1, {(0,): Fraction(2, 3), (1,): 5})]


class TestTraceCounters:
    def test_alg_mul_and_left_matrix_bypass_the_legwise_product(self, monkeypatch):
        """tensor.mul.calls and .pairs count legwise products only, as in earlier runs."""
        def refuse(self, other):
            raise AssertionError("TensorElement.__mul__ was called")

        samples = _samples()
        monkeypatch.setattr(TensorElement, "__mul__", refuse)
        for t in samples:
            rows, den = t.left_matrix()
            assert [t.algebra.field.restore(row, den) for row in rows] == ref.left_matrix(t)
            if t.arity == 1:
                a = t.as_element()
                for b in (a, t.algebra.unit_element, t.algebra.basis_element(1)):
                    assert a * b == ref.alg_mul(a, b)
                    assert b * a == ref.alg_mul(b, a)

    def test_product_entries_are_reduced_fractions(self):
        """trace_boot.bits() reads numerator and denominator of every product entry."""
        samples = _samples()
        for s in samples:
            for t in samples:
                if s.algebra is not t.algebra or s.arity != t.arity:
                    continue
                for v in (s * t).entries.values():
                    assert type(v) is Fraction
                    assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
                    assert TRACE_BOOT.bits(v) == max(abs(v.numerator).bit_length(),
                                                     v.denominator.bit_length())

    def test_cyclotomic_products_make_no_cyclo_product(self, monkeypatch):
        """Over Q(zeta_n) the legwise product, ``@``, ``embed`` and ``on_leg`` multiply
        integral numerators, never Cyclo values."""
        h = hopf("semion")
        pairs = [(h.r, h.r.transpose()), (h.r, h.r_inv), (h.phi, h.r.embed((1, 3), 3))]
        assert any(any(v.coeffs[1:]) for s, _ in pairs for v in s.entries.values())
        expected = [ref.mul(s, t) for s, t in pairs]
        leg_ops = [(h.r, h.r_inv), (h.phi, h.r)]
        expected_outer = [ref.outer(s, t) for s, t in leg_ops]
        expected_embed = ref.outer(h.r, h.algebra.tensor_unit(1)).perm((1, 3, 2))
        expected_on_leg = [ref.on_leg(h.coproduct, h.r, 2), ref.on_leg(h.antipode.s, h.phi, 3)]
        calls = []
        original = Cyclo.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Cyclo, "__mul__", counting)
        monkeypatch.setattr(Cyclo, "__rmul__", counting)
        ref.mul(*pairs[0])
        assert calls, "the reference kernel multiplies Cyclo values"
        calls.clear()
        assert [s * t for s, t in pairs] == expected
        assert [s @ t for s, t in leg_ops] == expected_outer
        assert h.r.embed((1, 3), 3) == expected_embed
        assert [h.coproduct.on_leg(h.r, 2), h.antipode.s.on_leg(h.phi, 3)] == expected_on_leg
        assert calls == []

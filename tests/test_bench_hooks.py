"""The names the benchmark's traced run hooks into still exist.

``bench/trace_boot.py`` wraps every public function of each layer module and
the methods in its ``METHODS`` table; ``bench/layers.json`` requires some call
counts to be nonzero.  Both files are only read here, no wrapper is installed,
so a change that renames or deletes a traced name fails these tests instead
of the traced benchmark run.  The last tests guard what the traced counts
mean: ``tensor.mul.*`` counts legwise products only, ``max_bits`` reads
reduced ``Fraction`` entries, and a legwise product, ``@``, ``embed`` or
``on_leg`` over Q(zeta_n) adds nothing to ``scalars.cyclo_mul``, and no
tensor operation converts between numerators and field values.  The
subprocess tests run ``trace_boot.py`` itself on two small jobs: its
wrappers read ``entries``, ``hash`` and the ``TensorElement`` constructor,
so a change to that contract fails here rather than only in a traced
benchmark run.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import reference_kernel as ref
from conftest import hopf
from qhakit.scalars import RATIONAL, Cyclo, Field
from qhakit.tensor import Algebra, LinearMap, TensorElement, contract

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


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
    return [z3.phi, z3.coproduct.col(1), z3.algebra.unit_element * 3, dense,
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
                for b in (t, t.algebra.unit_element, t.algebra.basis_element(1)):
                    assert t * b == ref.alg_mul(t, b)
                    assert b * t == ref.alg_mul(b, t)

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

    def test_operations_neither_clear_nor_restore(self, monkeypatch):
        """Every operation runs on the stored numerators: ``Field.clear`` and
        ``Field.restore`` belong to the constructors and to ``entries``/``coeffs``."""
        cases = []
        for name in ("group_z3", "semion"):
            h = hopf(name)
            alg = h.algebra
            a, b = h.beta + alg.basis_element(1), h.alpha - alg.basis_element(0)
            t, u = h.coproduct.col(1), h.phi
            m = LinearMap.from_matrix(alg, [[Fraction(i + 2 * j, 3) for j in range(alg.dim)]
                                            for i in range(alg.dim)])
            q = alg.field.zeta if alg.field.kind == "cyclotomic" else Fraction(-2, 3)
            cases.append((h, alg, a, b, t, u, m, q))
        calls = []
        for attr in ("clear", "restore"):
            def counting(self, *args, _attr=attr, _original=getattr(Field, attr)):
                calls.append(_attr)
                return _original(self, *args)

            monkeypatch.setattr(Field, attr, counting)
        for h, alg, a, b, t, u, m, q in cases:
            t * h.coproduct.col(0), u * h.phi_inv, t.scale(q), q * u, t * q
            t + t.transpose(), u - h.phi_inv, -u
            t @ a, t @ u, t.embed((1, 3), 3), a.embed((2,), 3)
            h.coproduct.on_leg(t, 2), m.on_leg(u, 1), h.coproduct.on_leg(u, 3)
            contract(u, [(1, m), a, (2, None)], [b, (3, h.s)])
            u.left_matrix(), t.left_matrix()
            a * b, b * a, a + b, a - b, a * q, q * b
        assert calls == []
        cases[1][4].entries, cases[1][2].coeffs
        assert calls == ["restore", "restore"]


# -- the traced CLI --------------------------------------------------------------

def _run(args, cwd, trace=None):
    """The CLI, or ``trace_boot.py`` around it, with the benchmark's fixed hash seed."""
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    boot = [] if trace is None else [str(BENCH / "trace_boot.py"), str(trace), "req"]
    cmd = [sys.executable] + (boot or ["-m", "qhakit.cli"]) + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=600)


@pytest.mark.parametrize("args, recorded", [
    (["verify", "semion", "--suite", "twist", "--seed", "0", "--format", "structured"],
     {"twists.twist_structure", "randgen.random_twist"}),
    (["verify", "group_z3", "--suite", "drinfeld"],
     {"suites.drinfeld", "drinfeld.compute_drinfeld_data"}),
], ids=["semion-twist", "group_z3-drinfeld"])
def test_traced_run_matches_the_untraced_cli(args, recorded, tmp_path):
    """The wrappers see the calls: the suites and the driver import a layer's names
    when they run, so a name bound past ``trace_boot``'s wrappers records no span."""
    plain = _run(args, tmp_path)
    traced = _run(args, tmp_path, trace=tmp_path / "spans")
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    with open(tmp_path / "spans", "rb") as fh:
        header = json.loads(fh.readline())
        span_names = array("i")
        span_names.fromfile(fh, header["spans"])
    assert header["request"] == "req" and header["open"] == 0 and header["spans"] > 0
    assert recorded <= {header["names"][i] for i in set(span_names)}
    assert header["counters"]["tensor.mul.max_bits"] > 0
    assert header["counters"]["randgen.candidates"] > 0

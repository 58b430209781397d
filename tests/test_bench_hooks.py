"""The names the benchmark's traced run hooks into still exist.

``bench/trace_boot.py`` wraps every public function of each layer module and
the methods in its ``METHODS`` table; ``bench/layers.json`` requires some call
counts to be nonzero.  Both files are only read here, no wrapper is installed,
so a change that renames or deletes a traced name fails these tests instead
of the traced benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

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

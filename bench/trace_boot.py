"""Run one qhakit CLI job with span wrappers around every layer's public functions.

Usage (PYTHONPATH must name the checkout's src/):

    python bench/trace_boot.py SPANFILE REQUEST_ID CLI-ARGS...

The wrappers are installed from outside the program: each public function
of each layer module (and the methods named in METHODS) is replaced by a
wrapper in every qhakit module that binds it, since modules import each
other's functions by name.  A span records its name, start, end and parent;
all spans of the job carry REQUEST_ID.  Spans stay in memory and are
written to SPANFILE when the job ends: one JSON header line (request id,
span names, counters), then the span arrays as raw machine words
(int32 name, int32 parent, float64 start, float64 end).
"""

from __future__ import annotations

import importlib
import json
import operator
import sys
import time
from array import array

LAYERS = ("scalars", "tensor", "linalg", "structures", "twists", "drinfeld", "antipode",
          "qtriangular", "dynamical", "randgen", "serial", "suites", "cli")

# span name -> (module, class, attribute) for methods and private functions
METHODS = {
    "scalars.cyclo_mul": ("scalars", "Cyclo", "__mul__"),
    "scalars.cyclo_add": ("scalars", "Cyclo", "__add__"),
    "scalars.cyclo_inverse": ("scalars", "Cyclo", "inverse"),
    "tensor.alg_mul": ("tensor", "AlgElement", "__mul__"),
    "tensor.on_leg": ("tensor", "LinearMap", "on_leg"),
    "tensor.embed": ("tensor", "TensorElement", "embed"),
    "tensor.invert": ("tensor", "TensorElement", "invert"),
    "tensor.left_matrix": ("tensor", "TensorElement", "left_matrix"),
    "cli.load": ("cli", None, "_load_input"),
}

NAMES: list = []
NAME_IDS: dict = {}
SPAN_NAME, SPAN_PARENT = array("i"), array("i")
SPAN_START, SPAN_END = array("d"), array("d")
STACK = [-1]
COUNTERS = {"tensor.mul.pairs": {}, "tensor.mul.repeat_calls": 0,
            "tensor.mul.repeat_pairs": 0, "tensor.mul.peak_nnz": 0,
            "tensor.mul.max_bits": 0, "serial.bytes_read": 0, "serial.bytes_written": 0,
            "randgen.candidates": 0, "randgen.returned": 0, "suites.checks": 0,
            "linalg.solve.max_n": 0}
clock = time.perf_counter


def name_id(name: str) -> int:
    if name not in NAME_IDS:
        NAME_IDS[name] = len(NAMES)
        NAMES.append(name)
    return NAME_IDS[name]


def span(fn, name: str):
    nid = name_id(name)

    def wrapper(*args, **kwargs):
        i = len(SPAN_START)
        SPAN_NAME.append(nid)
        SPAN_PARENT.append(STACK[-1])
        SPAN_END.append(0.0)
        STACK.append(i)
        SPAN_START.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            SPAN_END[i] = clock()
            STACK.pop()

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def bits(value) -> int:
    coeffs = getattr(value, "coeffs", (value,))
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in coeffs)


def traced_mul(fn, tensor_cls):
    """Legwise product: one span per call, named by arity, plus its work counts."""
    by_arity = {}
    seen = set()
    pairs = COUNTERS["tensor.mul.pairs"]

    def wrapper(self, other):
        if not isinstance(other, tensor_cls):
            return fn(self, other)
        a = self.arity
        if a not in by_arity:
            by_arity[a] = span(fn, f"tensor.mul.a{a}")
        work = len(self.entries) * len(other.entries)
        key = (a, hash(self), hash(other))
        if key in seen:
            COUNTERS["tensor.mul.repeat_calls"] += 1
            COUNTERS["tensor.mul.repeat_pairs"] += work
        seen.add(key)
        pairs[a] = pairs.get(a, 0) + work
        result = by_arity[a](self, other)
        entries = result.entries
        if len(entries) > COUNTERS["tensor.mul.peak_nnz"]:
            COUNTERS["tensor.mul.peak_nnz"] = len(entries)
        if entries:
            top = max(bits(v) for v in entries.values())
            if top > COUNTERS["tensor.mul.max_bits"]:
                COUNTERS["tensor.mul.max_bits"] = top
        return result

    return wrapper


def with_counter(fn, counter: str, measure, combine=operator.add):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        COUNTERS[counter] = combine(COUNTERS[counter], measure(args, result))
        return result
    return wrapper


def rebind(original, replacement) -> None:
    """Replace every qhakit module binding of ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qhakit" or mod_name.startswith("qhakit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install() -> None:
    mods = {layer: importlib.import_module(f"qhakit.{layer}") for layer in LAYERS}
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr.removeprefix('suite_')}"
            wrapped = span(fn, name)
            if layer == "serial" and attr == "parse_structure":
                wrapped = with_counter(wrapped, "serial.bytes_read",
                                       lambda args, _: len(args[0].encode()))
            elif layer == "serial" and attr == "serialize_structure":
                wrapped = with_counter(wrapped, "serial.bytes_written",
                                       lambda _, out: len(out.encode()))
            elif layer == "linalg" and attr == "solve":
                wrapped = with_counter(wrapped, "linalg.solve.max_n",
                                       lambda args, _: len(args[1]), max)
            elif layer == "randgen" and attr == "random_twist":
                wrapped = with_counter(wrapped, "randgen.returned", lambda *_: 1)
            elif layer == "suites" and attr.startswith("suite_"):
                wrapped = with_counter(wrapped, "suites.checks",
                                       lambda _, rep: len(rep.checks))
            rebind(fn, wrapped)
            if layer == "suites":
                for key, value in mods["suites"]._SUITES.items():
                    if value is fn:
                        mods["suites"]._SUITES[key] = wrapped
    for name, (layer, cls_name, attr) in METHODS.items():
        owner = mods[layer] if cls_name is None else getattr(mods[layer], cls_name)
        fn = vars(owner)[attr]
        wrapped = span(fn, name)
        for key, value in list(vars(owner).items()):   # aliases such as __rmul__
            if value is fn:
                setattr(owner, key, wrapped)
        if cls_name is None:
            rebind(fn, wrapped)
    tensor_cls = mods["tensor"].TensorElement
    tensor_cls.__mul__ = traced_mul(tensor_cls.__mul__, tensor_cls)

    # every loop iteration of random_twist builds exactly one candidate tensor
    randgen = mods["randgen"]
    build = randgen.TensorElement

    def candidate(*args, **kwargs):
        COUNTERS["randgen.candidates"] += 1
        return build(*args, **kwargs)

    randgen.TensorElement = candidate


def dump(path: str, request_id: str) -> None:
    header = {"request": request_id, "names": NAMES, "spans": len(SPAN_START),
              "open": len(STACK) - 1, "counters": COUNTERS}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for column in (SPAN_NAME, SPAN_PARENT, SPAN_START, SPAN_END):
            column.tofile(fh)


def main() -> int:
    path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    cli = importlib.import_module("qhakit.cli")
    try:
        return cli.main(argv)
    finally:
        dump(path, request_id)


if __name__ == "__main__":
    sys.exit(main())

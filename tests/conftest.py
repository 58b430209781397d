"""Shared fixtures: catalog entries, built once so each bundle's memo is shared."""

from __future__ import annotations

import collections
import importlib
import pkgutil

import pytest

import qhakit
from qhakit import structures
from qhakit.catalog import builtin
from qhakit.drinfeld import compute_drinfeld_data
from qhakit.structures import verify_qba, verify_quasi_antipode, verify_rmatrix

# Every qhakit module is imported here, before any test patches a name: a module first
# imported while a patch is on binds the patched object, and the undo restores only the
# module that was patched.
MODULES = [importlib.import_module(f"qhakit.{m.name}")
           for m in pkgutil.iter_modules(qhakit.__path__)]

ENTRY_NAMES = ("trivial", "group_z3", "z2_triangular", "sweedler_h4", "semion")
QT_NAMES = ("trivial", "z2_triangular", "sweedler_h4", "semion")

_entries = {}


def entry(name):
    if name not in _entries:
        _entries[name] = builtin(name)
    return _entries[name]


def hopf(name):
    """The entry's structure bundle; its derived data is cached in its own memo."""
    return entry(name).structure


def where(failure):
    """A ConsistencyError's witness, or a failed check's, without the two values: a
    mutant doubles a route at another call in a suite than in a direct call, so the
    values differ, but the error's text and the multi-index where its routes part do not."""
    return failure.witness.rsplit(": ", 1)[0]


def drinfeld_data(name):
    return compute_drinfeld_data(hopf(name))


class CountingMemo(dict):
    """A bundle memo that counts how often each key is stored, i.e. computed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def counting_memo(s):
    """Give the bundle ``s`` a counting memo that keeps what it holds."""
    s._memo = CountingMemo(s._memo)
    return s._memo.stores


def stores_of(stores, fn):
    """{args: times computed} for the memoized function ``fn``."""
    return {key[1:]: n for key, n in stores.items() if key[0] is fn.__wrapped__}


VERIFIERS = ("verify_qba", "verify_quasi_antipode", "verify_rmatrix")


def rebind(monkeypatch, real, replacement):
    """Bind ``replacement`` in every qhakit module that binds the function ``real`` by
    its name, so each binding is wrapped, and undone, here."""
    for module in MODULES:
        if vars(module).get(real.__name__) is real:
            monkeypatch.setattr(module, real.__name__, replacement)


def counting_verifiers(monkeypatch):
    """Count the runs of each verifier: {name: runs}."""
    counts = collections.Counter()
    for name in VERIFIERS:
        real = getattr(structures, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)
        rebind(monkeypatch, real, counted)
    return counts


def assert_verified(s):
    """Every verifier that applies to the bundle ``s`` passes."""
    reports = [verify_qba(s)]
    if s.antipode is not None:
        reports.append(verify_quasi_antipode(s))
    if s.r is not None:
        reports.append(verify_rmatrix(s))
    for rep in reports:
        assert rep.ok, (rep.name, rep.failure_ids())


@pytest.fixture(params=ENTRY_NAMES)
def any_entry(request):
    return entry(request.param)


@pytest.fixture(params=QT_NAMES)
def qt_entry(request):
    return entry(request.param)

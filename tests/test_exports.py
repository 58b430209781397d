"""Every name a module lists in ``__all__`` resolves, so deleted code cannot linger there.

Also: each CLI command loads exactly the modules it runs, the block
basis is reached through one door, no private helper is left without a
caller, no module reaches into the tensor kernel's private names, every
route check raises through one primitive, every check is recorded
through one method, the package's boolean switches are a fixed set, every
signature annotation resolves and every import is read.  The test fixtures
import every module before any test patches a name.
"""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qhakit

MODULES = sorted(m.name for m in pkgutil.iter_modules(qhakit.__path__, "qhakit."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_leaves_out_inspect_and_dataclasses():
    """A cold start imports only what the run needs; the catalog bench is 25 cold starts."""
    src = str(Path(qhakit.__file__).resolve().parent.parent)
    code = ("import sys, qhakit.cli; "
            "print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_the_test_fixtures_import_every_module():
    """Loading ``conftest`` alone imports every qhakit module, so no module is first
    imported while a test's patch is on and keeps the patched binding after the undo."""
    src = str(Path(qhakit.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    code = ("import pkgutil, sys, conftest, qhakit; "
            "print(sorted(m.name for m in pkgutil.iter_modules(qhakit.__path__) "
            "if 'qhakit.' + m.name not in sys.modules))")
    path = [tests, src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _loaded_by(argv, cwd=None):
    """The ``qhakit`` modules one CLI process loads to run ``argv``, compiled from
    source as the benchmark's jobs are."""
    src = str(Path(qhakit.__file__).resolve().parent.parent)
    code = ("import contextlib, io, sys\n"
            "from qhakit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        code = cli.main(sys.argv[1:])\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'qhakit'))")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code] + argv, env=env, cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    code, modules = out.split(" ", 1)
    assert code == "0", out
    return set(ast.literal_eval(modules))


HELP_MODULES = {"qhakit", "qhakit.cli", "qhakit.errors"}
KERNEL_MODULES = HELP_MODULES | {f"qhakit.{m}" for m in (
    "catalog", "scalars", "tensor", "linalg", "structures", "report")}


def test_help_loads_no_kernel():
    """``--help`` (the benchmark's start-up probe) compiles the driver and its errors only."""
    assert _loaded_by(["--help"]) == HELP_MODULES


def test_axioms_job_leaves_out_serial_and_blocks():
    """A job on a bundle that is never carried into the block basis loads neither
    the file format nor the block-basis module, nor any layer the axioms suite
    does not run."""
    assert (_loaded_by(["verify", "trivial", "--suite", "axioms"])
            == KERNEL_MODULES | {"qhakit.suites"})


def _z4_twist():
    """group_z4 and the twist 1 (x) 1 + 2 (g - 1) (x) (g - 1), which moves its coassociator."""
    from qhakit.catalog import builtin
    from qhakit.twists import Twist

    s = builtin("group_z4").structure
    alg = s.algebra
    g = alg.basis_element(1) - alg.unit_element
    return s, Twist(alg.tensor_unit(2) + (g @ g).scale(2), s.counit)


def test_twist_job_loads_no_suite(tmp_path):
    """``twist`` by a file loads the file format, the twists and the block basis its
    twisted bundle is verified in, and neither the suites nor the random draws."""
    from qhakit.serial import serialize_twist

    s, f = _z4_twist()
    (tmp_path / "f.json").write_text(serialize_twist(s.algebra.field, f))
    assert (_loaded_by(["twist", "group_z4", "--twist", "f.json"], cwd=tmp_path)
            == KERNEL_MODULES | {"qhakit.serial", "qhakit.twists", "qhakit.blocks"})


def test_file_without_a_family_leaves_out_dynamical(tmp_path):
    """The file format loads the dynamical layer only for a ``dynamical`` section."""
    from qhakit.serial import serialize_structure
    from qhakit.twists import twist_structure

    s, f = _z4_twist()
    (tmp_path / "t4.json").write_text(serialize_structure(twist_structure(s, f), name="t4"))
    loaded = _loaded_by(["verify", "t4.json", "--suite", "axioms"], cwd=tmp_path)
    assert "qhakit.blocks" in loaded and "qhakit.dynamical" not in loaded


def _block_uses(path):
    """(imports of qhakit.blocks, uses of _block_form) in one module's source."""
    imports = uses = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            names = {a.name for a in node.names}
            imports += module in (".blocks", "qhakit.blocks") or (
                module in (".", "qhakit") and "blocks" in names)
            uses += "_block_form" in names
        elif isinstance(node, ast.Import):
            imports += any(a.name == "qhakit.blocks" for a in node.names)
        elif isinstance(node, ast.Name):
            uses += node.id == "_block_form"
        elif isinstance(node, ast.Attribute):
            uses += node.attr == "_block_form"
    return imports, uses


def test_block_basis_is_chosen_in_one_place():
    """Only structures.py imports the block-basis module; ``_block_form`` (the
    bundle's carried form, chosen by the constructor) is read only by the
    suites, whose ``setting`` is the CLI's one way to it."""
    package = Path(qhakit.__file__).resolve().parent
    importers, users = [], []
    for path in sorted(package.glob("*.py")):
        imports, uses = _block_uses(path)
        if imports:
            importers.append(path.name)
        if uses:
            users.append(path.name)
    assert importers == ["structures.py"]
    assert set(users) <= {"structures.py", "suites.py"}
    cli_imports = {a.name for node in ast.walk(ast.parse((package / "cli.py").read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module == "suites"
                   for a in node.names}
    assert "setting" in cli_imports


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_helper_has_a_caller():
    """A private module-level function or class, or a private method, that nothing in
    the package refers to besides its own definition is dead code."""
    package = Path(qhakit.__file__).resolve().parent
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in tree.body:
            if isinstance(node, defs) and _private(node.name):
                defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and _private(item.name):
                        defined.append((f"{path.name}:{node.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [f"{where}.{name}" for where, name in defined if name not in used] == []


def test_no_module_imports_a_private_kernel_name():
    """The kernel's weighted sums stay inside ``tensor.py``; other modules build
    theirs from its public operations (``contract``, ``on_leg``, the product)."""
    package = Path(qhakit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and ("." * node.level) + (node.module or "") in (".tensor", "qhakit.tensor")):
                found += [f"{path.name}: {a.name}" for a in node.names if _private(a.name)]
    assert found == []


def _scopes(tree, hit):
    """The innermost function around each node under ``tree`` that ``hit`` accepts,
    qualified by its class (``Report.check``)."""
    scopes = []

    def visit(node, scope, prefix):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                scopes.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope, prefix + child.name + ".")
            else:
                visit(child, scope, prefix)

    visit(tree, "<module>", "")
    return scopes


def _named(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _raise_scopes(tree, name):
    """The innermost function around each ``raise name(...)`` under ``tree``."""
    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        return _named(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == name

    return _scopes(tree, hit)


def test_every_route_check_raises_through_require_equal():
    """A route check hands its two values to ``structures._require_equal``, the one
    place that raises ConsistencyError, so every such error names its first difference."""
    package = Path(qhakit.__file__).resolve().parent
    found = [f"{path.name}: {scope}" for path in sorted(package.glob("*.py"))
             for scope in _raise_scopes(ast.parse(path.read_text()), "ConsistencyError")]
    assert found == ["structures.py: _require_equal"]


def _builds_a_check(node):
    """A call that builds a Check or appends to a report's ``checks``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "append":
        return _named(func.value) == "checks"
    return _named(func) == "Check"


def _records_a_check(node):
    """A call that builds a Check or calls a method of Report that records one."""
    return _builds_a_check(node) or (isinstance(node, ast.Call) and _named(node.func)
                                     in ("check", "add", "add_equal", "extend"))


def test_only_report_check_builds_a_check():
    """``Report.check`` is the one place a Check is built or appended to a report."""
    package = Path(qhakit.__file__).resolve().parent
    found = {f"{path.name}: {scope}" for path in sorted(package.glob("*.py"))
             for scope in _scopes(ast.parse(path.read_text()), _builds_a_check)}
    assert found == {"report.py: Report.check"}


def test_no_kernel_error_handler_records_a_check():
    """A kernel error inside a check reaches ``Report.check``, which records it; no
    ``except`` naming QhaError in the checking modules records a check by hand."""
    package = Path(qhakit.__file__).resolve().parent
    found = []
    for name in ("suites.py", "qtriangular.py", "structures.py"):
        for handler in ast.walk(ast.parse((package / name).read_text())):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            if "QhaError" not in {_named(n) for n in ast.walk(handler.type)}:
                continue
            if any(_records_a_check(n) for stmt in handler.body for n in ast.walk(stmt)):
                found.append(f"{name}:{handler.lineno}")
    assert found == []


def test_every_add_equal_passes_one_thunk():
    """``add_equal`` takes an id and one thunk that computes the pair inside the check:
    a lambda, or a function of no parameters defined in the same module."""
    package = Path(qhakit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        thunks = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  and not (node.args.args or node.args.vararg or node.args.kwarg)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _named(node.func) == "add_equal"):
                continue
            found.append(path.name)
            sides = node.args[-1] if node.args else None
            if isinstance(sides, ast.Lambda):
                ok = not sides.args.args
            else:
                ok = isinstance(sides, ast.Name) and sides.id in thunks
            assert ok and len(node.args) == 2 and not node.keywords, \
                f"{path.name}:{node.lineno}: add_equal takes an id and one thunk"
    assert sorted(set(found)) == ["dynamical.py", "qtriangular.py", "structures.py", "suites.py"]


# the recording paths that Report.check replaced
DELETED_RECORDERS = {"_guard", "_holds", "_add_scan", "Report.add"}


def test_no_deleted_recorder_is_defined():
    """Checks are recorded by ``Report.check`` alone: no module defines one of the
    old recording helpers again."""
    package = Path(qhakit.__file__).resolve().parent
    defined = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined & DELETED_RECORDERS == set()


# names that converted between an element of H and the arity-1 tensor it is
DELETED_CONVERSIONS = {"to_tensor", "as_element", "col_element", "contract_element"}


def test_no_element_tensor_conversion_is_defined_or_called():
    """An AlgElement is the arity-1 TensorElement, so the package needs no conversion
    between the two: no module defines, imports or calls one of the old names."""
    package = Path(qhakit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in DELETED_CONVERSIONS:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


# every parameter of the package that defaults to True or False
PINNED_FLAGS = {"QuasiBialgebra.__init__.verify", "twist_structure.verify",
                "Twist.__init__.check", "_require_scan.pairs"}


def _boolean_parameters(node, prefix=""):
    """``qualified.name.param`` of each parameter under ``node`` whose default is a bool."""
    found = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = item.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):],
                                args.defaults))
            defaults += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            found |= {f"{prefix}{item.name}.{a.arg}" for a, d in defaults
                      if isinstance(d, ast.Constant) and isinstance(d.value, bool)}
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _boolean_parameters(item, f"{prefix}{item.name}.")
    return found


def test_boolean_parameters_are_pinned():
    """A switch that skips or changes work is a settable parameter; a new one must be
    added to PINNED_FLAGS by hand, and a deleted one taken out."""
    package = Path(qhakit.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= _boolean_parameters(ast.parse(path.read_text()))
    assert found == PINNED_FLAGS



def _scope_nodes(scope):
    """The nodes that run in ``scope`` itself.  A nested function, lambda or class is
    entered only for what its definition evaluates where it stands: its decorators,
    bases and parameter defaults."""
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo += [*getattr(node, "decorator_list", ()), *getattr(node, "bases", ())]
            if not isinstance(node, ast.ClassDef):
                todo += [d for d in (*node.args.defaults, *node.args.kw_defaults) if d]
        else:
            todo += ast.iter_child_nodes(node)


def _bound_in(scope):
    """The names ``scope`` binds: its parameters, imports, definitions and stores."""
    bound = set()
    if not isinstance(scope, ast.Module):
        args = scope.args
        bound |= {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None}
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def _annotations(fn):
    """Each annotation in ``fn``'s signature, a string one parsed."""
    args = fn.args
    params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    for ann in [p.annotation for p in params if p is not None] + [fn.returns]:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval").body
        if ann is not None:
            yield ann


def _unbound_annotation_names(tree):
    """``name@line`` for each name a signature annotation reads that neither its
    module nor an enclosing function binds (the builtins count as bound).  A class
    body's names are not visible in its methods, so a class adds none."""
    found = []

    def visit(node, visible):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(f"{n.id}@{n.lineno}" for ann in _annotations(child)
                             for n in ast.walk(ann)
                             if isinstance(n, ast.Name) and n.id not in visible)
                visit(child, visible | _bound_in(child))
            else:
                visit(child, visible)

    visit(tree, _bound_in(tree) | set(dir(builtins)))
    return found


def _unused_imports(tree):
    """``name@line`` for each name an import binds that its scope never reads
    (a name the module's ``__all__`` lists counts as read)."""
    found = []
    exported = {e.value for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in n.targets)
                for e in ast.walk(n.value) if isinstance(e, ast.Constant)}
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if scope is tree:
            read |= exported
        for node in _scope_nodes(scope):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                found.extend(f"{name}@{node.lineno}" for a in node.names
                             if (name := (a.asname or a.name).split(".")[0]) not in read)
    return found


def test_annotations_name_bound_types_and_every_import_is_read():
    """``typing.get_type_hints`` resolves every signature: each name an annotation
    reads is bound in its module or an enclosing function.  No import goes unread,
    so an edit that drops the last use of a name drops its import too."""
    package = Path(qhakit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}: unbound {n}" for n in _unbound_annotation_names(tree)]
        found += [f"{path.name}: unused {n}" for n in _unused_imports(tree)]
    assert found == []

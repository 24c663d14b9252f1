"""The package loads each of its modules on first use (PEP 562), and no
module imports a name it never reads or defines one that nothing reads.

Each load check runs in a fresh interpreter, because this one has long
since loaded every module.
"""

import ast
import importlib
from pathlib import Path

import pytest

import btcayley


def test_importing_the_package_loads_no_module_of_it(run_python):
    out = run_python(
        "import sys, btcayley\n"
        "print(sorted(m for m in sys.modules if m.startswith('btcayley.')))"
    )
    assert out == "[]\n"


def test_every_exported_name_is_the_object_of_its_home_module(run_python):
    out = run_python(
        "import sys, btcayley\n"
        "for name in btcayley.__all__:\n"
        "    value = getattr(btcayley, name)\n"
        "    home = sys.modules['btcayley.' + btcayley._HOME[name]]\n"
        "    assert vars(home)[name] is value, name\n"
        "    assert getattr(value, '__module__', home.__name__) == home.__name__, name\n"
        "print('ok')"
    )
    assert out == "ok\n"


def test_star_import_binds_every_exported_name(run_python):
    out = run_python(
        "from btcayley import *\n"
        "import btcayley\n"
        "assert all(globals()[n] is getattr(btcayley, n) for n in btcayley.__all__)\n"
        "print(sorted(set(btcayley.__all__) - set(dir(btcayley))))"
    )
    assert out == "[]\n"


def test_a_module_is_an_attribute_after_a_bare_import(run_python):
    out = run_python(
        "import btcayley\n"
        "verify = btcayley.verify\n"
        "print(verify.__name__, verify.run_all is btcayley.run_all, 'verify' in dir(btcayley))"
    )
    assert out == "btcayley.verify True True\n"


def test_an_unknown_name_raises_attribute_error(run_python):
    out = run_python(
        "import sys, btcayley\n"
        "try:\n"
        "    btcayley.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from btcayley import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
        "print(sorted(m for m in sys.modules if m.startswith('btcayley.')))"
    )
    assert out == "module 'btcayley' has no attribute 'no_such_name'\nImportError\n[]\n"


# dataclasses and the modules its import pulls in, and typing: the layers
# annotate with collections.abc.
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "typing")


def test_the_command_line_layers_load_no_dataclasses_or_inspect(run_python):
    # -S: no site step, whose imports come from the environment.
    out = run_python(
        "import sys\n"
        "import btcayley.cli, btcayley.verify, btcayley.autgroup, btcayley.maps\n"
        f"print([m for m in {HEAVY_IMPORTS!r} if m in sys.modules])",
        flags=("-S",),
    )
    assert out == "[]\n"


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "btcayley"


def _absolute_imports(tree):
    """The top-level package of every absolute import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_no_module_imports_dataclasses():
    """The records are plain classes on record.Record (see record.py)."""
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in _absolute_imports(ast.parse(path.read_text()))
    ]
    assert importers == []


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree) -> set[str]:
    """Every name the module loads, including those inside string annotations."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(_imported_names(tree)) - _read_names(tree)) == []


# The packed twins, each at its home module.
PACKED_TWINS = {
    "toric_images": "toric",
    "bar_f_images": "toric",
    "reverse_images": "toric",
    "invert_images": "perms",
}


def test_no_module_binds_a_packed_twin_by_name():
    """Readers go through toric. or perms., so a twin replaced at its home
    reaches every reader; a name bound by `from ... import` would keep the
    twin it found at import time."""
    bound = [
        f"{path.name}:{alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in PACKED_TWINS
    ]
    assert bound == []
    for name, home in PACKED_TWINS.items():
        tree = ast.parse((PACKAGE / f"{home}.py").read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _handlers_naming(tree, name):
    """The innermost function around each except clause that names name
    ("" for a clause outside any function)."""
    owner = {}
    for node in ast.walk(tree):  # breadth first: a node before its children
        for child in ast.iter_child_nodes(node):
            owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(node, "")
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if name in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}:
                yield owner[node]


def test_a_failed_check_has_one_path_to_a_report():
    """A check fails by raising ClaimFailure, and only run_claim catches it:
    no adapter turns a fault into a value or into another exception."""
    caught = [
        f"{path.name}:{func}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func in _handlers_naming(ast.parse(path.read_text()), "ClaimFailure")
    ]
    assert caught == ["verify.py:run_claim"]
    raised = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "toric.py").read_text()))
        if isinstance(node, ast.Raise)
        and "RuntimeError" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    ]
    assert raised == []


def test_every_spanned_name_is_in_its_layer_module():
    """perfbench spans these entry points by name; one that goes missing
    crashes the benchmark's symmetry pass."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "common.py").read_text()
    spanned = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        )
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in spanned.items()
        for name in names
        if not hasattr(importlib.import_module(f"btcayley.{layer}"), name)
    ]
    assert spanned and missing == []


def _registered(node) -> bool:
    """Whether a package decorator, a call to a private function such as
    verify._claim(...), registers the definition: it is then read through
    the registry, not by name."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id.startswith("_")
        for d in node.decorator_list
    )


def _package_reads():
    """Each module's tree, and every name or attribute some module of the package reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return trees, read


def test_every_private_helper_is_read_in_the_package():
    """A module-level private function or class that no module of the
    package reads is dead code."""
    trees, read = _package_reads()
    unread = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not _registered(node)
        and node.name not in read
    ]
    assert unread == []


# Public, read by no module and not exported: the table reset the tests call.
UNEXPORTED_ENTRY_POINTS = {"toric.py:clear_cache"}


def test_every_public_definition_is_exported_or_read_in_the_package():
    """A module-level public function or class that is neither in
    btcayley.__all__ nor read by any module of the package is dead code,
    however many tests still call it."""
    trees, read = _package_reads()
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in btcayley.__all__
        and node.name not in read
    ]
    assert sorted(unused) == sorted(UNEXPORTED_ENTRY_POINTS)

"""Package-internal imports go one way, from a layer to the layers below it,
and only at module level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = "cliquebound"
SOURCE = Path(__file__).resolve().parent.parent / "src" / PACKAGE
PERFBENCH = SOURCE.parent.parent / "perfbench"

# Lowest first.  A module may import from its own layer or any layer below.
# ``__init__`` holds only ``__version__``, which the CLI reads, so it sits
# just under the CLI.
LAYERS = [
    ("errors", "records"),
    ("graphs",),
    ("graph6",),
    ("canon",),
    ("counting",),
    ("structure", "fixed_loss"),
    ("transform",),
    ("bounds",),
    ("enumeration",),
    ("__init__",),
    ("cli",),
]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def internal_imports(tree: ast.Module):
    """(node, imported module) for every import of a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != PACKAGE:
                    continue
                base = parts[1:]
            elif node.level == 1:
                base = node.module.split(".") if node.module else []
            else:
                continue
            if base:
                yield node, base[0]
            else:  # ``from . import x``: a submodule, or a name of __init__
                for alias in node.names:
                    yield node, alias.name if alias.name in RANK else "__init__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    yield node, parts[1] if len(parts) > 1 else "__init__"


def parse(module: str) -> ast.Module:
    return ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert [m for m in MODULES if m not in RANK] == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    upward = [
        (node.lineno, target)
        for node, target in internal_imports(parse(module))
        if RANK[target] > RANK[module]
    ]
    assert upward == [], f"{module} imports from a later layer"


@pytest.mark.parametrize("module", MODULES)
def test_no_internal_import_inside_a_function(module):
    local = []
    for func in ast.walk(parse(module)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.extend((node.lineno, target) for node, target in internal_imports(func))
    assert local == [], f"{module} imports package modules inside a function"


def module_level_imports(tree: ast.Module):
    """(line, bound name) for every name a module-level import binds,
    ``from __future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    """A deletion leaves no import behind: every name a module imports at
    module level is read somewhere in it."""
    tree = parse(module)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(line, name) for line, name in module_level_imports(tree) if name not in read]
    assert unused == [], f"{module} imports names it never uses"


# Public definitions that nothing in the package or the benchmark reads, each
# kept on purpose.
UNREAD_BY_DESIGN = {
    # ROADMAP item 3 decides whether the sweep checks them or they go
    "bounds.chain_vs_main_compare",
    "bounds.galvin_bound",
    # constructors, oracles and helpers for the tests
    "graphs.complete_bipartite",
    "graphs.turan",
    "graphs.induced",
    "graphs.connected_components",
    "graphs.Graph.num_edges",
    "graphs.Graph.has_edge",
}


def loaded_names(tree: ast.AST, skip=None):
    """Every name an expression in ``tree`` reads, bare or as an attribute,
    outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def public_definitions(module: str, tree: ast.Module):
    """(dotted name, node) for every public module-level function and class,
    and every public method and property of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member


def test_every_public_definition_is_read():
    """A public module-level function or class, and a public method or
    property of such a class, is read by some code in the package or in
    ``perfbench``, outside its own definition, unless it is listed in
    ``UNREAD_BY_DESIGN``.  An import alone does not count."""
    trees = {module: parse(module) for module in MODULES}
    trees.update(
        (f"perfbench/{path.name}", ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PERFBENCH.glob("*.py"))
    )
    unread = [
        name
        for module in MODULES
        for name, node in public_definitions(module, trees[module])
        if not any(node.name in loaded_names(tree, node) for tree in trees.values())
    ]
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN)


# The constructors of a sweep record, ``records.ConsistencyRecord`` and its
# shorthand ``records.not_applicable``.
RECORD_BUILDERS = {"ConsistencyRecord", "not_applicable"}


def test_the_sweep_builds_no_record():
    """Every sweep record comes from a predicate outside ``enumeration``:
    the sweep only picks which predicates run and tallies what they return."""
    calls = [
        node.lineno
        for node in ast.walk(parse("enumeration"))
        if isinstance(node, ast.Call)
        and RECORD_BUILDERS & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert calls == [], "enumeration builds records itself"


def test_numpy_stays_off_the_import_path():
    """Only the brute-force oracle needs numpy, and it imports numpy when
    called: the CLI runs a verification without loading it."""
    script = (
        "import sys\n"
        "from cliquebound.cli import main\n"
        "assert main(['verify', '5', '3']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"

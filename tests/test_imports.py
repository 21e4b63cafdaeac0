"""Package-internal imports go one way, from a layer to the layers below it,
and only at module level."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def package_imports(tree: ast.AST):
    """(node, alias, module, name) for every alias of an import in ``tree``
    that loads a package module: the root is ``__init__``, and ``name`` is
    the name imported from the module, or None for the module itself."""
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
            for alias in node.names:
                if base:
                    yield node, alias, base[0], alias.name
                elif alias.name in RANK:  # ``from . import x``: a submodule
                    yield node, alias, alias.name, None
                else:  # or a name of __init__
                    yield node, alias, "__init__", alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    yield node, alias, parts[1] if len(parts) > 1 else "__init__", None


def parse(module: str) -> ast.Module:
    return ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert [m for m in MODULES if m not in RANK] == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    upward = [
        (node.lineno, target)
        for node, _, target, _ in package_imports(parse(module))
        if RANK[target] > RANK[module]
    ]
    assert upward == [], f"{module} imports from a later layer"


@pytest.mark.parametrize("module", MODULES)
def test_no_internal_import_inside_a_function(module):
    local = []
    for func in ast.walk(parse(module)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.extend((node.lineno, target) for node, _, target, _ in package_imports(func))
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
# kept on purpose: ROADMAP item 3 decides whether the sweep checks them or
# they go.
UNREAD_BY_DESIGN = {
    "bounds.chain_vs_main_compare",
    "bounds.galvin_bound",
}

# Public definitions that only the benchmark reads.  They leave the package
# with the benchmark change that moves their readers test-side.
READ_ONLY_BY_PERFBENCH = {
    "graphs.complement",
    "graphs.Graph.relabel",
    "counting.brute_force_clique_vector",
    "structure.clusters",
    "structure.tight_cliques",
    "enumeration.SweepReport.failures_for",
    "enumeration.SweepReport.to_json",
}


def loads(tree: ast.AST):
    """Every name and attribute node that reads a value in ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def load_counts(tree: ast.AST) -> Counter:
    """How often ``tree`` loads each bare name and each attribute, keyed
    ``(ast.Name, name)`` and ``(ast.Attribute, name)``."""
    return Counter(
        (type(node), node.id if isinstance(node, ast.Name) else node.attr) for node in loads(tree)
    )


def module_reads(tree: ast.AST):
    """(module, name) for every name ``tree`` imports from a package module,
    and for every ``module.name`` it loads through an import of that module."""
    bound = {}  # name -> the package module an import binds it to
    reads = set()
    for node, alias, module, name in package_imports(tree):
        if name is not None:
            reads.add((module, name))
        elif isinstance(node, ast.Import) and not alias.asname:
            bound[PACKAGE] = "__init__"  # ``import cliquebound.x`` binds the root
        else:
            bound[alias.asname or alias.name] = module

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and expr.attr in RANK and module_of(expr.value) == "__init__":
            return expr.attr
        return None

    for node in loads(tree):
        if isinstance(node, ast.Attribute) and (module := module_of(node.value)):
            reads.add((module, node.attr))
    return reads


def public_definitions(module: str, tree: ast.Module):
    """(dotted name, node, whether a class member) for every public
    module-level function and class, and every public method and property
    of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, True


def definitions_read_by(readers: dict):
    """The dotted names of the package's public definitions that the parsed
    modules ``readers`` read outside the definitions' own bodies.

    A module-level definition is read where a module imports it from its
    own module, loads ``module.name`` through an import of that module, or,
    in its own module, loads its bare name.  A method or property is read
    only through an attribute ``.name``.  So a local variable of another
    module that shares a definition's name does not count as a read of it."""
    imported = set().union(*map(module_reads, readers.values()))
    everywhere = sum(map(load_counts, readers.values()), Counter())
    read = set()
    for module in MODULES:
        own = load_counts(readers[module]) if module in readers else Counter()
        for name, node, member in public_definitions(module, parse(module)):
            inside = load_counts(node) if module in readers else Counter()
            if member:
                key = (ast.Attribute, node.name)
                hit = everywhere[key] > inside[key]
            else:
                key = (ast.Name, node.name)
                hit = (module, node.name) in imported or own[key] > inside[key]
            if hit:
                read.add(name)
    return read


def package_and_benchmark_readers():
    """(definitions read by the package, definitions read by ``perfbench``)."""
    package = {module: parse(module) for module in MODULES}
    bench = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")}
    return definitions_read_by(package), definitions_read_by(bench)


def test_every_public_definition_is_read():
    """A public module-level function or class, and a public method or
    property of such a class, is read by some code in the package or in
    ``perfbench``, unless it is listed in ``UNREAD_BY_DESIGN``."""
    defined = {name for module in MODULES for name, _, _ in public_definitions(module, parse(module))}
    by_package, by_bench = package_and_benchmark_readers()
    assert sorted(defined - by_package - by_bench) == sorted(UNREAD_BY_DESIGN)


def test_benchmark_only_readers_are_pinned():
    """The definitions that ``perfbench`` reads and nothing in the package
    does are exactly ``READ_ONLY_BY_PERFBENCH``."""
    by_package, by_bench = package_and_benchmark_readers()
    assert sorted(by_bench - by_package) == sorted(READ_ONLY_BY_PERFBENCH)


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

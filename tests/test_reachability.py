"""Every definition in ``src/goldpoly`` is reached from a command.

A name-based call graph over the package's AST: its nodes are the
top-level functions and classes and the non-dunder methods, a class
carrying its dunder methods and class-body statements.  The roots are
``cli.main`` and the module-level statements of every module; imports
are not references.  Inside a node,

- a bare name ``f`` reaches the definition ``f`` of the same module, or
  the one it was imported from with ``from .module import f``;
- ``module.f``, for a package module imported by name, reaches ``f`` of
  that module;
- any other attribute ``x.f`` reaches every method named ``f``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "goldpoly"

# poly.substitute_negate runs under no command, but the benchmark's tracer
# (perfbench/tracer.py) wraps it by name, so it stays until the benchmark
# drops it.
ALLOWED_UNREACHED = {"poly.substitute_negate"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Node name -> the AST pieces whose references belong to it."""
    defs: dict[str, list[ast.AST]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[f"{module}.{stmt.name}"] = [stmt]
        elif isinstance(stmt, ast.ClassDef):
            owned: list[ast.AST] = list(stmt.bases) + list(stmt.decorator_list)
            for item in stmt.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    defs[f"{module}.{stmt.name}.{item.name}"] = [item]
                else:
                    owned.append(item)
            defs[f"{module}.{stmt.name}"] = owned
    return defs


def _module_level(tree: ast.Module) -> list[ast.AST]:
    return [stmt for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Import, ast.ImportFrom))]


def _imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """(package modules bound by name, names bound by ``from .m import``)."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.ImportFrom) or stmt.level != 1:
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name
            if stmt.module is None:
                modules[bound] = alias.name
            else:
                names[bound] = f"{stmt.module}.{alias.name}"
    return modules, names


def build_graph():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    nodes: dict[str, list[ast.AST]] = {}
    owner: dict[str, str] = {}
    for module, tree in trees.items():
        for name, body in _definitions(module, tree).items():
            nodes[name] = body
            owner[name] = module
    methods: dict[str, set[str]] = {}
    for name in nodes:
        parts = name.split(".")
        if len(parts) == 3:
            methods.setdefault(parts[2], set()).add(name)
    imports = {module: _imports(tree) for module, tree in trees.items()}

    def references(module: str, body: list[ast.AST]) -> set[str]:
        mods, names = imports[module]
        out: set[str] = set()
        for piece in body:
            for node in ast.walk(piece):
                if isinstance(node, ast.Name):
                    target = names.get(node.id, f"{module}.{node.id}")
                    if target in nodes:
                        out.add(target)
                elif isinstance(node, ast.Attribute):
                    value = node.value
                    if isinstance(value, ast.Name) and value.id in mods:
                        target = f"{mods[value.id]}.{node.attr}"
                        if target in nodes:
                            out.add(target)
                    else:
                        out |= methods.get(node.attr, set())
        return out

    edges = {name: references(owner[name], body)
             for name, body in nodes.items()}
    roots = {"cli.main"}
    for module, tree in trees.items():
        roots |= references(module, _module_level(tree))
    return nodes, edges, roots


def unreached() -> set[str]:
    nodes, edges, roots = build_graph()
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(edges[name])
    return set(nodes) - seen


def test_every_definition_serves_a_command():
    assert unreached() == ALLOWED_UNREACHED

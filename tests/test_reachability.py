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

The same resolution maps every call in a reached definition, or at module
level, to the definitions it may call, so the second test can ask of each
defaulted parameter of a reached function, method or dataclass whether
some such call passes it, by position or by keyword.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "goldpoly"

# poly.substitute_negate runs under no command, but the benchmark's tracer
# (perfbench/tracer.py) wraps it by name, so it stays until the benchmark
# drops it.
ALLOWED_UNREACHED = {"poly.substitute_negate"}

# Defaulted parameters that no call in the package passes, with the reason
# each default stays.
ALLOWED_UNPASSED = {
    "cli.main.argv": "the console entry and ``python -m`` call main() with "
                     "no argument, so it reads sys.argv; tests pass argv",
    "factor.FactorCertificate.N": "only certify_goldbach_quotient's "
                                  "certificate belongs to an N, which it "
                                  "sets after certify_even returns",
}


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

    def resolve(module: str, node: ast.AST) -> set[str]:
        """The definitions that the name or attribute ``node`` may mean."""
        mods, names = imports[module]
        if isinstance(node, ast.Name):
            target = names.get(node.id, f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute):
            value = node.value
            if not (isinstance(value, ast.Name) and value.id in mods):
                return methods.get(node.attr, set())
            target = f"{mods[value.id]}.{node.attr}"
        else:
            return set()
        return {target} if target in nodes else set()

    def references(module: str, body: list[ast.AST]) -> set[str]:
        return {target for piece in body for node in ast.walk(piece)
                for target in resolve(module, node)}

    edges = {name: references(owner[name], body)
             for name, body in nodes.items()}
    roots = {"cli.main"}
    callers = [(owner[name], body) for name, body in nodes.items()]
    for module, tree in trees.items():
        roots |= references(module, _module_level(tree))
        callers.append((module, _module_level(tree)))
    return nodes, edges, roots, callers, resolve


def reached() -> set[str]:
    nodes, edges, roots, _, _ = build_graph()
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(edges[name])
    return seen


def unreached() -> set[str]:
    return set(build_graph()[0]) - reached()


def _function_defaults(fn: ast.FunctionDef, skip: int) -> dict[str, int | None]:
    """Defaulted parameter -> its position in a call, skipping the first
    ``skip`` parameters (self or cls); None for keyword-only ones."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {arg.arg: k - skip for k, arg in enumerate(positional)
           if k >= first}
    out.update({arg.arg: None for arg, default
                in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None})
    return out


def _defaults(body: list[ast.AST]) -> dict[str, int | None]:
    """The defaulted parameters of a node: a function's or method's own,
    a class's ``__init__``'s, or, for a class without one (a dataclass),
    its annotated class-level fields with a value."""
    first = body[0]
    if isinstance(first, ast.FunctionDef):
        static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                     for dec in first.decorator_list)
        method = first.args.args and first.args.args[0].arg in ("self", "cls")
        return _function_defaults(first, 0 if static or not method else 1)
    for piece in body:
        if isinstance(piece, ast.FunctionDef) and piece.name == "__init__":
            return _function_defaults(piece, 1)
    fields = [piece for piece in body if isinstance(piece, ast.AnnAssign)
              and isinstance(piece.target, ast.Name)]
    return {piece.target.id: k for k, piece in enumerate(fields)
            if piece.value is not None}


def unpassed_defaults() -> set[str]:
    """``definition.parameter`` for every defaulted parameter of a reached
    definition that no call in the package passes."""
    nodes, _, _, callers, resolve = build_graph()
    positional: dict[str, int] = {}
    keywords: dict[str, set[str]] = {}
    for module, body in callers:
        for piece in body:
            for call in ast.walk(piece):
                if not isinstance(call, ast.Call):
                    continue
                n = len(call.args)
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    n = 1 << 30
                for target in resolve(module, call.func):
                    positional[target] = max(positional.get(target, 0), n)
                    keywords.setdefault(target, set()).update(
                        kw.arg or "**" for kw in call.keywords)
    out = set()
    for name in reached():
        passed = keywords.get(name, set())
        for param, k in _defaults(nodes[name]).items():
            if not (param in passed or "**" in passed
                    or (k is not None and k < positional.get(name, 0))):
                out.add(f"{name}.{param}")
    return out


def test_every_definition_serves_a_command():
    assert unreached() == ALLOWED_UNREACHED


def test_every_default_is_passed_by_some_caller():
    # a default that no caller overrides is a constant in disguise
    assert unpassed_defaults() == set(ALLOWED_UNPASSED)

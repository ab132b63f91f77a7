"""No function in the package lies on a cycle of its call graph.

A function that recurses once per nesting level dies on deep input with a
RecursionError, whether it calls itself or reaches itself through others.
Graph walks in the package go through ``expressions._fold``, the one walk
with an explicit stack: expression consumers and the extraction trace are
each a ``visit`` over it, and ``parse`` is one loop over tokens.

The call graph resolves plain names to nested or module-level functions
and ``self.``/``cls.``/``ClassName.`` attributes to methods of the same
class; calls through other objects are not followed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "softlogic"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func: ast.AST):
    """Nodes of ``func``'s body, not descending into nested definitions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_DEFS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def call_graph(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Qualified name of each function -> the functions its body calls."""
    graph = {}
    # (definition, qualified name, functions visible by plain name,
    # (name, methods) of the enclosing class)
    stack = [(tree, module, {}, None)]
    while stack:
        node, name, scope, owner = stack.pop()
        nested = [d for d in _own_nodes(node) if isinstance(d, (*_DEFS, ast.ClassDef))]
        functions = {d.name: f"{name}.{d.name}" for d in nested if isinstance(d, _DEFS)}
        if isinstance(node, ast.ClassDef):
            owner = node.name, functions
        else:
            scope = {**scope, **functions}
        if isinstance(node, _DEFS):
            graph[name] = _callees(node, scope, owner)
        stack += [(d, f"{name}.{d.name}", scope, owner) for d in nested]
    return graph


def _callees(func: ast.AST, scope: dict[str, str], owner) -> set[str]:
    receivers = {"self", "cls", owner[0]} if owner else set()
    methods = owner[1] if owner else {}
    callees = set()
    for node in _own_nodes(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id in scope:
            callees.add(scope[callee.id])
        elif (isinstance(callee, ast.Attribute) and callee.attr in methods
              and isinstance(callee.value, ast.Name) and callee.value.id in receivers):
            callees.add(methods[callee.attr])
    return callees


def functions_on_call_cycles(graph: dict[str, set[str]]) -> list[str]:
    """Every function that can reach itself through its callees."""
    found = []
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(graph.get(name, ()))
        if start in seen:
            found.append(start)
    return sorted(found)


def package_call_graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph.update(call_graph(ast.parse(path.read_text(), filename=str(path)), path.stem))
    return graph


def test_no_function_in_the_package_calls_itself():
    # Directly or through a cycle of calls.
    assert functions_on_call_cycles(package_call_graph()) == []


def test_the_check_sees_plain_and_method_self_calls():
    source = ast.parse(
        "def f(n):\n    return g(n - 1)\n"
        "def g(n):\n    return f(n)\n"
        "def h(n):\n    return h(n - 1)\n"
        "def caller():\n    return f(3)\n"
        "def outer():\n"
        "    def inner(n):\n        return inner(n - 1)\n"
        "    return inner(3)\n"
        "class C:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        return C.a(self)\n"
        "    def m(self):\n        return self.m()\n"
        "    def n(cls):\n        return cls.a()\n"
    )
    assert functions_on_call_cycles(call_graph(source, "mod")) == [
        "mod.C.a", "mod.C.b", "mod.C.m", "mod.f", "mod.g", "mod.h", "mod.outer.inner",
    ]

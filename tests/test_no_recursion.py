"""No function in the package calls itself by name.

A function that recurses once per nesting level dies on deep input with a
RecursionError (ROADMAP item 6).  Expression consumers walk through
``expressions._fold``, which keeps an explicit stack.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "softlogic"

# ROADMAP item 6, still open: the readers of outside input (the JSON tree
# codec and the recursive-descent text parser) recurse per nesting level.
ALLOWED = {"expressions.from_dict"}
ALLOWED_PREFIXES = ("expressions._Parser.",)


def _calls_itself(func: ast.AST, owner: str | None) -> bool:
    """Whether ``func`` calls its own name, plainly or as a method of
    ``self``, ``cls`` or its class."""
    receivers = {"self", "cls"} | ({owner} if owner else set())
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == func.name:
            return True
        if (isinstance(callee, ast.Attribute) and callee.attr == func.name
                and isinstance(callee.value, ast.Name) and callee.value.id in receivers):
            return True
    return False


def self_calling_functions() -> list[str]:
    found = []

    def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(child, owner):
                    found.append(f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.", None)
    return found


def test_no_function_in_the_package_calls_itself():
    offenders = [name for name in self_calling_functions()
                 if name not in ALLOWED and not name.startswith(ALLOWED_PREFIXES)]
    assert offenders == []


def test_the_check_sees_plain_and_method_self_calls():
    source = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
    )
    plain, klass = source.body
    assert _calls_itself(plain, None)
    assert _calls_itself(klass.body[0], "C")

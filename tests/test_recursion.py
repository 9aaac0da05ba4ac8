"""No function in the library calls itself, so no call depth grows with
the input: a module-level function never calls its own name, and a method
never calls itself through ``self``.  Calls through ``super()`` or another
object, such as ``self.base``, reach a different function."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordlib"


def _calls_itself(fn, method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if method:
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def self_calls(source: str) -> list:
    """Names of the functions, and Class.method names of the methods, that
    call themselves."""
    found = []

    def visit(body, owner, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, owner + node.name + ".", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(node, in_class):
                    found.append(owner + node.name)
                visit(node.body, owner + node.name + ".", False)

    visit(ast.parse(source).body, "", False)
    return found


def test_the_checker_finds_self_calls():
    source = '''
def a(n):
    return a(n - 1) if n else 0

def b(n):
    def inner(k):
        return inner(k - 1)
    return inner(n)

class C:
    def d(self, n):
        return self.d(n - 1)

    def e(self, n):
        return super().e(n) + self.base.e(n)

    def f(self, n):
        return f(n)

def g(n):
    return h(n)

def h(n):
    return g(n)
'''
    assert self_calls(source) == ["a", "b.inner", "C.d"]


def test_library_has_no_self_calls():
    found = {path.name: self_calls(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}

"""Every cache in the library is bounded: a functools cache on a function
that takes arguments either has an LRU bound or says, in a comment on the
line above it, why its keys are finite."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordlib"
FINITE = "# keys are finite:"


def _unbounded(decorator) -> bool:
    """functools.cache, or lru_cache with maxsize None."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def unbounded_caches(source: str) -> list:
    """Names of the functions with arguments whose cache has neither a
    bound nor the comment."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for dec in node.decorator_list:
            above = lines[dec.lineno - 2].strip() if dec.lineno > 1 else ""
            if _unbounded(dec) and not above.startswith(FINITE):
                found.append(node.name)
    return found


def test_the_checker_tells_bounded_from_unbounded():
    source = '''
import functools
from functools import cache, lru_cache

@functools.cache
def a(n): ...

@cache
def b(n): ...

@functools.lru_cache(maxsize=None)
def c(n): ...

@lru_cache(None)
def d(n): ...

@functools.lru_cache(maxsize=8)
def e(n): ...

@functools.lru_cache
def f(n): ...

@functools.cache
def g(): ...

# keys are finite: n is 0 or 1
@functools.cache
def h(n): ...
'''
    assert unbounded_caches(source) == ["a", "b", "c", "d"]


def test_library_caches_are_bounded():
    found = {path.name: unbounded_caches(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}

"""No module-level memo cache may grow without bound.

`functools.cache` and `lru_cache(maxsize=None)` on a module-level function
keep every argument and result for the life of the process.  A cache made
inside a function body lives only for that call and is exempt.
"""

import ast
import pathlib

import freeprob

CACHE_NAMES = {"cache", "lru_cache"}


def _is_cache_ref(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in CACHE_NAMES
    return isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES


def _has_finite_maxsize(call: ast.Call) -> bool:
    if isinstance(call.func, ast.Name) and call.func.id == "cache":
        return False
    if isinstance(call.func, ast.Attribute) and call.func.attr == "cache":
        return False
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return bool(sizes) and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None)


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of caches outside function bodies that lack a finite maxsize.

    A bare `@lru_cache` counts as unbounded too: its bound should be stated.
    """
    tree = ast.parse(source)
    local = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            local.update(id(n) for stmt in body for n in ast.walk(stmt))
    callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in local:
            continue
        if isinstance(node, ast.Call) and _is_cache_ref(node.func) and not _has_finite_maxsize(node):
            lines.append(node.lineno)
        elif _is_cache_ref(node) and id(node) not in callees:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_flags_unbounded_module_caches():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def a(n): ...

@functools.cache
def b(n): ...

@lru_cache
def c(n): ...

d = functools.lru_cache(None)(len)

@lru_cache(maxsize=8)
def ok(n): ...

class K:
    @cache
    def e(self): ...

def per_call(n):
    @lru_cache(maxsize=None)
    def rec(k): ...
    return rec(n)
"""
    assert unbounded_caches(source) == [5, 8, 11, 14, 20]


def test_no_unbounded_module_caches_in_src():
    root = pathlib.Path(freeprob.__file__).parent
    found = {
        str(path.relative_to(root)): lines
        for path in sorted(root.rglob("*.py"))
        if (lines := unbounded_caches(path.read_text()))
    }
    assert found == {}

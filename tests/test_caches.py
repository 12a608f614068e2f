"""No module-level memo cache may grow without bound, or go unlisted.

`functools.cache` and `lru_cache(maxsize=None)` on a module-level function
keep every argument and result for the life of the process.  A cache made
inside a function body lives only for that call and is exempt.  The README
names every module-level cache, as `module._name`, with its bound.
"""

import ast
import pathlib
import re

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


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def module_caches(source: str) -> list[str]:
    """Names of the module-level functions that a cache decorates or wraps."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in stmt.decorator_list:
                if _is_cache_ref(dec.func if isinstance(dec, ast.Call) else dec):
                    names.append(stmt.name)
        elif isinstance(stmt, ast.Assign) and any(_is_cache_ref(n) for n in ast.walk(stmt.value)):
            names.extend(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return names


def test_module_caches_finds_decorated_and_wrapped_functions():
    source = """
import functools
from functools import lru_cache

@lru_cache(maxsize=8)
def a(n): ...

@functools.lru_cache(maxsize=8)
def b(n): ...

d = functools.lru_cache(8)(len)

def per_call(n):
    @lru_cache(maxsize=8)
    def rec(k): ...
    return rec(n)
"""
    assert module_caches(source) == ["a", "b", "d"]


def test_readme_lists_every_module_cache():
    root = pathlib.Path(freeprob.__file__).parent
    modules = {".".join(path.relative_to(root).with_suffix("").parts): path for path in root.rglob("*.py")}
    in_src = {f"{module}.{name}" for module, path in modules.items() for name in module_caches(path.read_text())}
    # the README paragraph that lists the caches, and the names it gives in backticks
    paragraph = next(p for p in README.read_text().split("\n\n") if "each bounded:" in p)
    named = {token for token in re.findall(r"`([\w.]+)`", paragraph) if token.rpartition(".")[0] in modules}
    assert in_src == named

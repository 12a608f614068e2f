"""No module in `src/` may change mpmath's global precision.

A dps evaluation computes on a private `mpmath.MPContext` (see
`transforms.analytic._mp`), so neither `workdps`/`workprec` (nor their
`extra` forms) nor an assignment to `mp.dps` or `mp.prec` is needed
anywhere; either would change the precision of every caller's mpmath
arithmetic.  Assigning the precision of a context of one's own is fine.
"""

import ast
import pathlib

import freeprob

SCOPES = {"workdps", "workprec", "extradps", "extraprec"}
PRECISIONS = {"dps", "prec"}


def _is_global_context(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "mp") or (
        isinstance(node, ast.Attribute) and node.attr == "mp"
    )


def global_precision_uses(source: str) -> list[int]:
    """Line numbers that scope or assign mpmath's global precision."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SCOPES:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(t, ast.Attribute) and t.attr in PRECISIONS and _is_global_context(t.value)
                for t in targets
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_flags_global_precision_changes():
    source = """
import mpmath
from mpmath import mp, workdps

with mpmath.workdps(30):
    pass
with workdps(30):
    pass
with mpmath.mp.workprec(100):
    pass
mp.dps = 30
mpmath.mp.prec = 100
mp.prec += 10
with mpmath.extradps(5):
    pass

ctx = mpmath.MPContext()
ctx.dps = 30
ctx.prec += 10
digits = mp.dps
"""
    assert global_precision_uses(source) == [5, 7, 9, 11, 12, 13, 14]


def test_src_leaves_the_global_precision_alone():
    root = pathlib.Path(freeprob.__file__).parent
    found = {
        str(path.relative_to(root)): lines
        for path in sorted(root.rglob("*.py"))
        if (lines := global_precision_uses(path.read_text()))
    }
    assert found == {}

"""One error root: every refusal is a FreeprobError, and nothing else is caught.

The command line reports a FreeprobError as exit 1 with one JSON object on
stderr; any other exception is a bug and must surface as one, so the guard
below keeps `raise ValueError` / `raise ArithmeticError` out of `src/` and
keeps `cli.main` from catching anything but FreeprobError.
"""

import ast
import builtins
import json
import pathlib

import pytest

import freeprob
from freeprob import cli
from freeprob.cli import MAX_CATALAN_ORDER
from freeprob.errors import FreeprobError
from freeprob.transforms.jacobi import MAX_FLOAT_C
from freeprob.trees import MAX_DYCK_LENGTH

STDLIB_BASES = {"ValueError", "ArithmeticError"}
# the closed-pipe exit (`freeprob ... | head`) reports nothing and is no refusal
MAIN_MAY_CATCH = {"FreeprobError", "BrokenPipeError"}


def _names(node) -> list[str]:
    if node is None:
        return ["<bare except>"]
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else [ast.dump(node)]


def error_policy_breaches(source: str) -> list[int]:
    """Line numbers of `raise ValueError(...)` / `raise ArithmeticError(...)`,
    and of handlers in a function `main` that catch anything else than
    MAIN_MAY_CATCH."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if set(_names(exc)) & STDLIB_BASES:
                lines.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and node.name == "main":
            handlers = [h for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)]
            lines += [h.lineno for h in handlers if not set(_names(h.type)) <= MAIN_MAY_CATCH]
    return sorted(lines)


def test_guard_flags_stdlib_refusals_and_wide_handlers():
    source = """
def check(x):
    if x < 0:
        raise ValueError("negative")
    if x == 0:
        raise builtins.ArithmeticError
    raise InputError("fine")

def main(argv=None):
    try:
        run(argv)
    except BrokenPipeError:
        return 1
    except (FreeprobError, ValueError):
        return 1
    except FreeprobError:
        return 1
    except:
        return 1

def other():
    try:
        run()
    except ValueError:
        pass
"""
    assert error_policy_breaches(source) == [4, 6, 14, 18]


def test_src_raises_no_stdlib_refusal_and_main_catches_one_root():
    root = pathlib.Path(freeprob.__file__).parent
    found = {
        str(path.relative_to(root)): lines
        for path in sorted(root.rglob("*.py"))
        if (lines := error_policy_breaches(path.read_text()))
    }
    assert found == {}


def _subclass_names(cls) -> set[str]:
    return {cls.__name__}.union(*(_subclass_names(sub) for sub in cls.__subclasses__()))


# Inputs that once ended in a stdlib error type, a traceback, invalid JSON
# or a vacuous success.
HOSTILE = {
    "fid-zero-denominator": ["fid", "--c", "1/0"],
    "transform-zero-denominator": ["transform", "--c", "1/0"],
    "cumulants-zero-denominator": [
        "cumulants", "--kind", "free", "--direction", "to-moments", "--seq", "1,1/0"
    ],
    "riccati-zero-step": ["transform", "--c", "0", "--op", "riccati", "--step", "0"],
    "transform-c-overflow": ["transform", "--c", "1e400"],
    "density-c-overflow": ["density", "--c", "1e400"],
    "hopf-product-bad-json": ["hopf", "product", "--left", "[1", "--right", "[1]"],
    "dyck-mu-tall": ["dyck", "mu", "--word", "U" * 3000 + "D" * 3000],
    "dyck-mu-flat": ["dyck", "mu", "--word", "UD" * 3000],
    "dyck-factorial-tall": ["dyck", "factorial", "--word", "U" * 3000 + "D" * 3000],
    "dyck-factorial-flat": ["dyck", "factorial", "--word", "UD" * 3000],
    "dyck-mu-over-bound": ["dyck", "mu", "--word", "UD" * (MAX_DYCK_LENGTH // 2 + 1)],
    "trajectory-nan-r-lo": ["trajectory", "--c=-1/2", "--r-lo=nan"],
    "trajectory-inf-r-hi": ["trajectory", "--c=-1/2", "--r-hi=inf"],
    "transform-nan-step": ["transform", "--c", "0", "--op", "riccati", "--step", "nan"],
    "transform-inf-tol": ["transform", "--c", "0", "--op", "cf", "--tol", "inf"],
    "transform-nan-grid": ["transform", "--c", "0", "--grid=nan:1:2,1:2:2"],
    "transform-overflowing-grid": ["transform", "--c", "0", "--grid=-1e308:1e308:3,1:2:2"],
    # a count below 1 on either axis is refused, not read as an empty grid
    "transform-grid-zero-count": ["transform", "--c", "0", "--grid", "0:1:3000000,1:2:0"],
    "transform-grid-negative-counts": ["transform", "--c", "0", "--grid=0:1:-2,1:2:-3"],
    "g-at-the-pole": ["transform", "--c=-1", "--grid=0:0:1,0:0:1"],
    "phi-negative-tol": ["transform", "--c", "0", "--op", "phi", "--tol=-1", "--grid=0:0:1,1:1:1"],
    "density-nan-eps": ["density", "--c", "0", "--eps", "nan"],
    "density-nan-range": ["density", "--c", "0", "--range=nan:1:0.5"],
    # 601 points that may each run the continued fraction
    "density-cf-route-past-bound": [
        "density", "--c", "3", "--eps", "0.04", "--richardson", "--range=-30:30:0.1"
    ],
    "hopf-laws-negative": ["hopf", "laws", "--max-size", "-1"],
    "hopf-hilbert-negative": ["hopf", "hilbert", "--max", "-1"],
    # a step of 1e290 still moves z; the default 1e-5 would not, and is refused
    "riccati-nan-far-out": [
        "transform", "--op", "riccati", "--grid=1e300:1e300:1,1e300:1e300:1", "--c", "0",
        "--step", "1e290",
    ],
    "riccati-step-below-spacing": [
        "transform", "--c", "1/2", "--op", "riccati", "--step", "1.2e-16", "--grid", "1:1:1,1:1:1"
    ],
    "phi-lower-half-plane-point-mass": ["transform", "--c=-1", "--op", "phi", "--grid=1:1:1,-1:-1:1"],
    "riccati-inf-at-the-pole": [
        "transform", "--c=-1", "--op", "riccati", "--grid=0:0:1,1e-300:1e-300:1", "--format", "csv"
    ],
    "transform-c-past-bound": ["transform", "--c", "1e300", "--op", "riccati", "--dps", "20"],
    "density-c-past-bound": ["density", "--c", str(MAX_FLOAT_C + 1)],
    "catalan-negative": ["sequence", "catalan", "--max", "-1"],
    "catalan-over-bound": ["sequence", "catalan", "--max", str(MAX_CATALAN_ORDER + 1)],
}


@pytest.mark.parametrize("argv", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_input_is_a_structured_refusal(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    error = json.loads(captured.err)["error"]
    assert error["type"] in _subclass_names(FreeprobError)
    assert not hasattr(builtins, error["type"])
    assert error["message"]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_non_finite_value_names_its_field_and_point(capsys, fmt):
    argv = HOSTILE["riccati-nan-far-out"] + ["--format", fmt]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "PrecisionError"
    assert error["message"].startswith("result[0].f_residual is nan at re_z=1e+300, im_z=1e+300")


def test_main_lets_a_bug_propagate(monkeypatch):
    def broken(c, order):
        raise ZeroDivisionError("internal")

    monkeypatch.setattr(cli, "fid_test", broken)
    with pytest.raises(ZeroDivisionError, match="internal"):
        cli.main(["fid", "--c", "0"])

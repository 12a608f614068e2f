"""Golden CLI corpus: every command in tests/golden/commands.txt must print
exactly the stdout and stderr, and end with exactly the exit code, recorded
in tests/golden/expected/<name>.txt.

The corpus runs in-process through `cli.main`; a few entries also run in a
fresh interpreter, where every cache starts cold.  The `transform`,
`density` and `trajectory` entries print binary64 values that depend on the
platform's libm; tests/golden/captured_on.txt names the machine they were
captured on.

Regenerate every expected file (and captured_on.txt) after an intended
change, then review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import pathlib
import platform
import shlex
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
CAPTURED_ON = GOLDEN / "captured_on.txt"
FRESH_PROCESS = ("fid-c9_10-o200", "hopf-bf-coproduct-02", "transform-phi-cm1_2", "error-usage")


def commands() -> dict[str, list[str]]:
    """name -> argv, from the lines `name: argv` of commands.txt."""
    out = {}
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        name, argv = line.split(": ", 1)
        out[name] = shlex.split(argv)
    return out


def render(argv: list[str], code: int, out: str, err: str) -> str:
    """The expected-file text of one run: the command, its exit code, then
    stdout and stderr, each headed by its line count."""

    def stream(name: str, text: str) -> str:
        lines = text.splitlines(keepends=True)
        if text and not text.endswith("\n"):
            raise AssertionError(f"{name} does not end with a newline")
        return f"--- {name}: {len(lines)} lines\n{text}"

    return f"$ freeprob {shlex.join(argv)}\nexit: {code}\n" + stream("stdout", out) + stream("stderr", err)


def run_in_process(argv: list[str]) -> str:
    from freeprob import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return render(argv, code, out.getvalue(), err.getvalue())


def machine() -> str:
    libc = " ".join(platform.libc_ver())
    return f"{platform.platform()} ({platform.machine()}, {libc}), Python {platform.python_version()}\n"


CORPUS = commands()


@pytest.mark.parametrize("name", list(CORPUS))
def test_golden_in_process(name):
    expected = (EXPECTED / f"{name}.txt").read_text()
    assert run_in_process(CORPUS[name]) == expected, f"captured on {CAPTURED_ON.read_text()}"


@pytest.mark.parametrize("name", FRESH_PROCESS)
def test_golden_in_fresh_process(name):
    import freeprob

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeprob.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = CORPUS[name]
    proc = subprocess.run(
        [sys.executable, "-m", "freeprob", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    got = render(argv, proc.returncode, proc.stdout, proc.stderr)
    assert got == (EXPECTED / f"{name}.txt").read_text()


def test_every_expected_file_has_a_command():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(CORPUS)


if __name__ == "__main__":
    EXPECTED.mkdir(parents=True, exist_ok=True)
    old = {}
    for stale in EXPECTED.glob("*.txt"):
        old[stale.stem] = stale.read_text()
        stale.unlink()
    new = {name: run_in_process(argv) for name, argv in CORPUS.items()}
    for name, text in new.items():
        (EXPECTED / f"{name}.txt").write_text(text)
    CAPTURED_ON.write_text(machine())
    print(f"wrote {len(CORPUS)} expected files under {EXPECTED}")
    for label, names in (
        ("added", [n for n in new if n not in old]),
        ("changed", [n for n in new if n in old and old[n] != new[n]]),
        ("removed", sorted(n for n in old if n not in new)),
    ):
        print(f"{label}: {len(names)}")
        for name in names:
            print(f"  {name}")

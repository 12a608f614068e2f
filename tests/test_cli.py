import argparse
import json
import os
import subprocess
import sys

import pytest

import freeprob
from freeprob import cli
from freeprob.cli import MAX_DPS, MAX_GRID_POINTS, MAX_GRID_POINTS_DPS, build_parser, main
from freeprob.cumulants import MAX_FREE_SERIES_ORDER, MAX_SERIES_BITS, MAX_SERIES_ORDER
from freeprob.hopf import MAX_ANTIPODE_SIZE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


def test_sequence_a000699(capsys):
    code, out, _ = run(capsys, "sequence", "a000699", "--max", "12", "--format", "pretty")
    assert code == 0
    assert out.splitlines()[-1] == "1,1,4,27,248,2830"


def test_sequence_json_echoes_config(capsys):
    code, doc, _ = run_json(capsys, "sequence", "a000699", "--max", "8")
    assert code == 0
    assert doc["config"]["max"] == 8
    assert doc["result"]["values"] == ["1", "1", "4", "27"]


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "chains", "matrix", "--model", "nt", "--n", "3")
    _, out2, _ = run(capsys, "chains", "matrix", "--model", "nt", "--n", "3")
    assert out1 == out2
    _, fid1, _ = run(capsys, "fid", "--c", "0", "--order", "40")
    _, fid2, _ = run(capsys, "fid", "--c", "0", "--order", "40")
    assert fid1 == fid2
    sim = ["chains", "simulate", "--model", "mtr", "--n", "3", "--steps", "500", "--seed", "11"]
    _, sim1, _ = run(capsys, *sim)
    _, sim2, _ = run(capsys, *sim)
    assert sim1 == sim2


def test_cumulants_round_trip(capsys):
    code, doc, _ = run_json(
        capsys, "cumulants", "--kind", "free", "--direction", "from-moments",
        "--seq", "1,0,1,0,3,0,15",
    )
    assert code == 0
    assert doc["result"]["values"] == ["0", "0", "1", "0", "1", "0", "4"]


def test_chains_stationary_nt3(capsys):
    code, doc, _ = run_json(capsys, "chains", "stationary", "--model", "nt", "--n", "3")
    assert code == 0
    weights = doc["result"]["weights"]
    assert sorted(weights.values()) == ["1/3", "1/6", "1/6", "1/6", "1/6"]


def test_chains_return_time(capsys):
    code, doc, _ = run_json(capsys, "chains", "return-time", "--model", "mtr", "--n", "3")
    assert code == 0
    assert doc["result"]["total"] == 27


def test_chains_simulate_deterministic(capsys):
    args = ["chains", "simulate", "--model", "nt", "--n", "2", "--steps", "2000", "--seed", "7"]
    code, doc1, _ = run_json(capsys, *args)
    _, doc2, _ = run_json(capsys, *args)
    assert code == 0
    assert doc1 == doc2
    assert doc1["result"]["tv_distance_to_stationary"] < 0.1


def test_dyck_mu_worked_example(capsys):
    code, doc, _ = run_json(capsys, "dyck", "mu", "--word", "UUDUDD")
    assert code == 0
    assert doc["result"] == {"UDUDUD": 1, "UUDDUD": 2, "UUDUDD": 1}


def test_hopf_coproduct(capsys):
    code, doc, _ = run_json(capsys, "hopf", "coproduct", "--tree", "[3,[1],[2]]")
    assert code == 0
    assert sum(int(v) for v in doc["result"].values()) == 6
    assert doc["result"]["[null, [3, [1], [2]]]"] == "1"


def test_hopf_hilbert(capsys):
    code, doc, _ = run_json(capsys, "hopf", "hilbert", "--max", "3")
    assert code == 0
    assert doc["result"] == [1, 1, 4, 27]


def test_hopf_laws(capsys):
    code, doc, _ = run_json(capsys, "hopf", "laws", "--max-size", "3")
    assert code == 0
    assert all(doc["result"].values())


def test_fid_pass_exit_zero(capsys):
    code, doc, _ = run_json(capsys, "fid", "--c", "0", "--order", "60")
    assert code == 0
    assert doc["result"]["verdict"] == "PASS"


def test_fid_fail_exit_two(capsys):
    code, doc, _ = run_json(capsys, "fid", "--c", "9/10", "--order", "200")
    assert code == 2
    assert doc["result"]["verdict"] == "FAIL"
    assert doc["result"]["ordinal"] == 97


def test_transform_grid_csv(capsys):
    code, out, _ = run(
        capsys, "transform", "--c", "0", "--grid=-1:1:3,1:2:2", "--op", "riccati",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "re_z,im_z,g_residual,f_residual"
    assert len(lines) == 2 + 6
    for line in lines[2:]:
        assert float(line.split(",")[2]) < 1e-6


def test_trajectory_finding_exit(capsys):
    code, doc, _ = run_json(capsys, "trajectory", "--c=-1/2")
    assert code == 0
    assert doc["result"]["failures"] == []
    assert doc["result"]["q0"] < 0


def test_density_csv(capsys):
    code, out, _ = run(
        capsys, "density", "--c", "0", "--range=-1:1:0.5", "--eps", "1e-6", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 5
    mid = float(rows[2].split(",")[1])
    assert abs(mid - 0.3989422) < 1e-4


def test_check_all_desk(capsys):
    code, doc, _ = run_json(capsys, "check", "all", "--level", "desk")
    assert code == 0
    assert all(status == "ok" for status in doc["result"].values())


def test_check_subset(capsys):
    code, doc, _ = run_json(capsys, "check", "chains")
    assert code == 0
    assert list(doc["result"]) == ["chains: stationary laws are reciprocal factorials"]


def test_bound_error_exit_one(capsys):
    code, out, err = run(capsys, "sequence", "a000699", "--max", "10000")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"]["type"] == "BoundExceededError"


@pytest.mark.parametrize("direction", ["from-moments", "to-moments"])
def test_free_series_bound_exit_one(capsys, direction):
    seq = ",".join(["1"] + ["0"] * (MAX_FREE_SERIES_ORDER + 1))
    code, out, err = run(capsys, "cumulants", "--kind", "free", "--direction", direction, "--seq", seq)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BoundExceededError"
    assert str(MAX_FREE_SERIES_ORDER) in error["message"]


@pytest.mark.parametrize("kind", ["classical", "boolean"])
@pytest.mark.parametrize("direction", ["from-moments", "to-moments"])
def test_series_order_bound_exit_one(capsys, kind, direction):
    seq = ",".join(["1"] + ["0"] * (MAX_SERIES_ORDER + 1))
    code, out, err = run(capsys, "cumulants", "--kind", kind, "--direction", direction, "--seq", seq)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BoundExceededError"
    assert str(MAX_SERIES_ORDER) in error["message"]


@pytest.mark.parametrize("kind", ["classical", "free", "boolean"])
def test_series_bits_bound_exit_one(capsys, kind):
    seq = f"1,1/{2**MAX_SERIES_BITS + 1}"
    code, out, err = run(capsys, "cumulants", "--kind", kind, "--direction", "from-moments", "--seq", seq)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BoundExceededError"
    assert str(MAX_SERIES_BITS) in error["message"]


# stdout captured before the conversions moved to scaled integers
PINNED_CONVERSIONS = [
    (
        ("--kind", "free", "--direction", "from-moments", "--seq", "1,2/4,-3,0,5/6"),
        '{"config": {"command": "cumulants", "direction": "from-moments", "format": "json", "kind": "free", '
        '"seq": ["1", "1/2", "-3", "0", "5/6"]}, "result": {"decimal": [0.0, 0.5, -3.25, 4.75, -24.979166666666668], '
        '"values": ["0", "1/2", "-13/4", "19/4", "-1199/48"]}}\n',
    ),
    (
        ("--kind", "free", "--direction", "to-moments", "--seq=-2/4,3,-1/3,0,0,9/12"),
        '{"config": {"command": "cumulants", "direction": "to-moments", "format": "json", "kind": "free", '
        '"seq": ["-1/2", "3", "-1/3", "0", "0", "3/4"]}, "result": {"decimal": [1.0, 3.0, 8.666666666666666, 24.0, '
        '63.22222222222222, 157.08333333333334], "values": ["1", "3", "26/3", "24", "569/9", "1885/12"]}}\n',
    ),
    (
        ("--kind", "classical", "--direction", "from-moments", "--seq=1,-1,2/4,0,-3/9,7"),
        '{"config": {"command": "cumulants", "direction": "from-moments", "format": "json", "kind": "classical", '
        '"seq": ["1", "-1", "1/2", "0", "-1/3", "7"]}, "result": {"decimal": [0.0, -1.0, -0.5, -0.5, '
        '-1.0833333333333333, 3.8333333333333335], "values": ["0", "-1", "-1/2", "-1/2", "-13/12", "23/6"]}}\n',
    ),
    (
        ("--kind", "classical", "--direction", "to-moments", "--seq", "0,1,-1/2,2/4,0,-7"),
        '{"config": {"command": "cumulants", "direction": "to-moments", "format": "json", "kind": "classical", '
        '"seq": ["0", "1", "-1/2", "1/2", "0", "-7"]}, "result": {"decimal": [1.0, 1.0, 0.5, 0.0, 0.75, -4.75], '
        '"values": ["1", "1", "1/2", "0", "3/4", "-19/4"]}}\n',
    ),
    (
        ("--kind", "boolean", "--direction", "from-moments", "--seq", "1,2/4,-3,0,5/6", "--format", "csv"),
        '# config: {"command": "cumulants", "direction": "from-moments", "format": "csv", "kind": "boolean", '
        '"seq": ["1", "1/2", "-3", "0", "5/6"]}\nn,value,decimal\n0,0,0.0\n1,1/2,0.5\n2,-13/4,-3.25\n'
        '3,25/8,3.125\n4,-503/48,-10.479166666666666\n',
    ),
    (
        ("--kind", "boolean", "--direction", "to-moments", "--seq=0,-1,2/4,0,-3/9,7"),
        '{"config": {"command": "cumulants", "direction": "to-moments", "format": "json", "kind": "boolean", '
        '"seq": ["0", "-1", "1/2", "0", "-1/3", "7"]}, "result": {"decimal": [1.0, -1.0, 1.5, -2.0, '
        '2.4166666666666665, 3.9166666666666665], "values": ["1", "-1", "3/2", "-2", "29/12", "47/12"]}}\n',
    ),
]


@pytest.mark.parametrize(("argv", "stdout"), PINNED_CONVERSIONS)
def test_cumulant_conversion_bytes_pinned(capsys, argv, stdout):
    assert run(capsys, "cumulants", *argv) == (0, stdout, "")


@pytest.mark.parametrize("kind", ["classical", "free", "boolean"])
def test_empty_cumulant_sequence_exit_one(capsys, kind):
    code, out, err = run(capsys, "cumulants", "--kind", kind, "--direction", "to-moments", "--seq", ",")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_dyck_factorial_non_dyck_word_exit_one(capsys):
    code, out, err = run(capsys, "dyck", "factorial", "--word", "DUUD")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DyckParseError"
    assert "DUUD" in error["message"]


def test_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "fid", "--c=-2", "--order", "40")
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["fid", "--c", "1/0", "--order", "40"],
        ["transform", "--c", "1/2", "--grid=-8:8:9,-4:4:9", "--op", "g"],
    ],
    ids=["zero-denominator", "no-route-grid"],
)
def test_arithmetic_error_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] and error["message"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["hopf", "laws", "--max-size", "99"], "BoundExceededError"),
        (["fid", "--c", "1e-400", "--order", "40"], "BoundExceededError"),
        (["sequence", "shifted", "--max", "-1"], "ValueError"),
        (["hopf", "antipode", "--tree", "[" * 3000 + "]" * 3000], "ValueError"),
        (["density", "--c", "0", "--range=1e300:1e300:1"], "ValueError"),
        (["density", "--c", "0", "--range=0:1e6:1"], "BoundExceededError"),
        (["trajectory", "--c=-1/2", "--r-hi", "1e300"], "ValueError"),
        (["trajectory", "--c=-1/2", "--r-lo=-1e6"], "BoundExceededError"),
    ],
    ids=[
        "law-bound", "c-bits", "negative-count", "deep-tree", "stalled-range", "long-range",
        "stalled-trajectory", "long-trajectory",
    ],
)
def test_input_beyond_reach_exit_one(capsys, argv, error):
    # each is rejected before any work starts, as a JSON error
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == error


def test_grid_and_tree_bounds_exit_one(capsys, monkeypatch):
    # no point of a grid above its bound is evaluated
    def no_points(c, z, args):
        raise AssertionError("a point was evaluated past the grid bound")

    monkeypatch.setitem(cli._TRANSFORM_OPS, "g", (("re_g", "im_g"), no_points))
    chain = [1]  # a left chain one vertex above the antipode bound
    for k in range(2, MAX_ANTIPODE_SIZE + 2):
        chain = [k, chain, None]
    for argv in (
        ["transform", "--c=0", f"--grid=-2:2:{MAX_GRID_POINTS + 1},1:2:1"],
        ["transform", "--c=0", "--grid=-2:2:100000000,1:2:100000000"],
        ["transform", "--c=0", f"--grid=-2:2:{MAX_GRID_POINTS_DPS + 1},1:2:1", "--dps", "30"],
        ["hopf", "antipode", "--tree", json.dumps(chain)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "BoundExceededError"
    # the largest grids admitted reach their points
    for argv in (
        ["transform", "--c=0", f"--grid=-2:2:{MAX_GRID_POINTS},1:2:1"],
        ["transform", "--c=0", f"--grid=-2:2:{MAX_GRID_POINTS_DPS},1:2:1", "--dps", "30"],
    ):
        with pytest.raises(AssertionError, match="past the grid bound"):
            main(argv)


def test_dps_bound_exit_one(capsys, monkeypatch):
    # --dps outside 1..MAX_DPS fails before any point is evaluated
    argv = ["transform", "--c=-1/2", "--grid=1:1:1,1:1:1", "--op", "phi"]

    def no_points(c, z, args):
        raise AssertionError("a point was evaluated past the precision bound")

    for dps in (MAX_DPS + 1, 0, -5):
        with monkeypatch.context() as patch:
            patch.setitem(cli._TRANSFORM_OPS, "phi", (("re_phi", "im_phi"), no_points))
            code, out, err = run(capsys, *argv, "--dps", str(dps))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "BoundExceededError"
        assert str(MAX_DPS) in error["message"]
    # the bound itself still runs
    code, doc, _ = run_json(capsys, *argv, "--dps", str(MAX_DPS))
    assert code == 0
    assert doc["config"]["dps"] == MAX_DPS == 30
    assert len(doc["result"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fid", "--order", "40"],
        ["fid", "--c", "0", "--format", "csv"],
        ["chains", "stationary", "--n", "3", "--steps", "5"],
        ["hopf", "coproduct"],
        ["cumulants", "--kind", "free", "--direction", "to-moments", "--seq", "abc"],
    ],
    ids=["no-command", "missing-c", "fid-csv", "foreign-flag", "missing-tree", "bad-seq"],
)
def test_usage_error_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("label", ["1.5", "true", "null", "[1]", '"1"'])
def test_non_integer_tree_label_exit_one(capsys, label):
    code, out, err = run(capsys, "hopf", "antipode", "--tree", f"[{label}]")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_transform_config_echoes_tol_and_step(capsys):
    code, doc, _ = run_json(capsys, "transform", "--c", "0", "--grid=-1:1:2,1:2:1", "--op", "cf", "--tol", "1e-5")
    assert code == 0
    assert doc["config"]["tol"] == 1e-5
    assert doc["config"]["step"] == 1e-5


def _leaf_parsers(parser, words=()):
    """(command words, parser) for every command or action that takes no further action."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, (*words, name))


# one cheap invocation of every command and action
LEAF_ARGV = {
    "sequence": ["sequence", "catalan", "--max", "3"],
    "cumulants": ["cumulants", "--kind", "free", "--direction", "to-moments", "--seq", "1,0,1"],
    "chains stationary": ["chains", "stationary", "--n", "2"],
    "chains matrix": ["chains", "matrix", "--n", "2"],
    "chains return-time": ["chains", "return-time", "--n", "2"],
    "chains simulate": ["chains", "simulate", "--n", "2", "--steps", "10"],
    "dyck mu": ["dyck", "mu", "--word", "UD"],
    "dyck factorial": ["dyck", "factorial", "--word", "UD"],
    "dyck words": ["dyck", "words", "--n", "2"],
    "dyck matrix": ["dyck", "matrix", "--n", "2"],
    "hopf product": ["hopf", "product", "--left", "[1]", "--right", "[1]"],
    "hopf coproduct": ["hopf", "coproduct", "--tree", "[1]"],
    "hopf bf-coproduct": ["hopf", "bf-coproduct", "--tree", "[1]"],
    "hopf antipode": ["hopf", "antipode", "--tree", "[1]"],
    "hopf hilbert": ["hopf", "hilbert", "--max", "2"],
    "hopf laws": ["hopf", "laws", "--max-size", "2"],
    "fid": ["fid", "--c", "0", "--order", "20"],
    "transform": ["transform", "--c", "0", "--grid=0:0:1,1:1:1"],
    "trajectory": ["trajectory", "--c=-1/2"],
    "density": ["density", "--c", "0", "--range=0:0:1"],
    "check": ["check", "trees"],
}


LEAF_PARSERS = dict(_leaf_parsers(build_parser()))


@pytest.mark.parametrize("name", list(LEAF_PARSERS))
def test_config_echoes_every_argument(capsys, name):
    code, doc, _ = run_json(capsys, *LEAF_ARGV[name])
    assert code == 0
    dests = {action.dest for action in LEAF_PARSERS[name]._actions if action.dest != "help"}
    assert set(doc["config"]) == dests | {"command"}
    assert doc["config"]["command"] == name


def test_closed_pipe_exits_quietly():
    # like `freeprob density ... | head -n 1`: the reader leaves after one line
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeprob.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["density", "--c", "0", "--range=-4:4:0.001", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "freeprob", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"# config:")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""

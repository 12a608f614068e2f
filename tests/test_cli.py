import json
import os
import subprocess
import sys

import pytest

import freeprob
from freeprob.cli import main
from freeprob.cumulants import MAX_FREE_SERIES_ORDER


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

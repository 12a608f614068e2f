import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from freeprob import chains
from freeprob.chains import (
    MAX_CHAIN_N,
    MAX_SIMULATE_STEPS,
    ChainStructureError,
    Distribution,
    StochasticMatrix,
    move_to_root,
    mtr_transition_matrix,
    nt_transition_matrix,
    return_time_sum,
    simulate,
    stationary,
    transition_matrix,
    tv_distance,
)
from freeprob.cumulants import gaussian_shifted_sequence
from freeprob.errors import BoundExceededError, FreeprobError, InputError
from freeprob.trees import (
    BinaryTree,
    dyck_factorial,
    dyck_to_tree,
    enumerate_trees,
    tree_factorial,
    tree_to_dyck,
)
from oracles import communicating_classes_by_reach, stationary_by_elimination

V = BinaryTree
LEAF = V()


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_rotation_on_two_vertices():
    left = V(LEAF, None)
    right = V(None, LEAF)
    assert move_to_root(left, ("L",)) == right
    assert move_to_root(right, ("R",)) == left
    assert move_to_root(left, ()) == left


def test_mtr_matrix_small():
    p = mtr_transition_matrix(1)
    assert p.rows == [{0: F(1)}]

    p = mtr_transition_matrix(2)
    assert p.rows == [{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 2), 1: F(1, 2)}]


def test_rows_are_stochastic():
    for n in range(1, 6):
        for matrix in (mtr_transition_matrix(n), nt_transition_matrix(n)):
            for row in matrix.rows:
                assert sum(row.values()) == 1


def test_rows_hold_positive_weights_in_increasing_columns():
    for n in range(1, MAX_CHAIN_N + 1):
        for model in ("nt", "mtr"):
            for row in transition_matrix(model, n).rows:
                assert list(row) == sorted(row)
                assert all(x > 0 for x in row.values())


def test_nt_matrix_matches_mu():
    p = nt_transition_matrix(1)
    assert p.rows == [{0: F(1)}]
    p = nt_transition_matrix(3)
    assert len(p.states) == 5
    p4 = nt_transition_matrix(4)
    assert len(p4.states) == 14


def test_stationary_is_reciprocal_factorial():
    for n in range(1, 6):
        for matrix in (mtr_transition_matrix(n), nt_transition_matrix(n)):
            pi = stationary(matrix)
            for word, weight in pi.weights.items():
                assert weight == F(1, dyck_factorial(word))


def test_stationary_mtr_3_values():
    pi = stationary(mtr_transition_matrix(3))
    weights = sorted(pi.weights.values())
    assert weights == [F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 3)]


def test_stationary_fixed_point_exact():
    for n in range(1, 6):
        p = nt_transition_matrix(n)
        pi = stationary(p)
        vec = [pi.weights[s] for s in p.states]
        for j in range(len(p.states)):
            assert sum(vec[i] * p.rows[i].get(j, 0) for i in range(len(vec))) == vec[j]


def test_mtr_and_nt_share_stationary_law():
    for n in range(1, 6):
        a = stationary(mtr_transition_matrix(n))
        b = stationary(nt_transition_matrix(n))
        assert a.weights == b.weights  # both keyed by Dyck encodings


def test_stationary_matches_elimination_oracle():
    for n in range(1, 7):
        for model in ("nt", "mtr"):
            p = transition_matrix(model, n)
            assert stationary(p).weights == stationary_by_elimination(p).weights


def test_stationary_refuses_a_law_other_than_reciprocal_factorial():
    # a 5-cycle over the n = 3 Dyck words is irreducible, with uniform law 1/5
    states = nt_transition_matrix(3).states
    rows = [{(i + 1) % 5: F(1)} for i in range(5)]
    p = StochasticMatrix(states, rows)
    assert stationary_by_elimination(p).weights == {w: F(1, 5) for w in states}
    with pytest.raises(FreeprobError, match="1/w! is not the stationary law"):
        stationary(p)


def test_stationary_refuses_states_that_are_not_dyck_words():
    p = StochasticMatrix(["a", "b"], [{1: F(1)}, {0: F(1)}])
    with pytest.raises(FreeprobError, match="not all Dyck words"):
        stationary(p)


def test_reciprocal_factorials_sum_to_one():
    for n in range(1, 9):
        total = sum(F(1, tree_factorial(t)) for t in enumerate_trees(n))
        assert total == 1


def test_return_time_sums():
    s = gaussian_shifted_sequence(12)
    assert return_time_sum(2, "nt").total == 4
    assert return_time_sum(3, "nt").total == 27
    assert return_time_sum(4, "nt").total == 248
    for n in range(1, 7):
        for chain in ("nt", "mtr"):
            summary = return_time_sum(n, chain)
            assert summary.total == s[2 * n]
            assert summary.state_count == catalan(n)
            assert summary.expected_return == F(s[2 * n], catalan(n))


def test_return_time_sum_at_the_chain_bound():
    assert MAX_CHAIN_N == 8
    s = gaussian_shifted_sequence(16)
    for chain in ("nt", "mtr"):
        assert return_time_sum(8, chain).total == s[16]
        with pytest.raises(BoundExceededError):
            return_time_sum(9, chain)


def test_reducible_chain_reports_classes():
    # P = I on the two n = 2 words, both with w! = 2, passes the certificate
    p = StochasticMatrix(["UUDD", "UDUD"], [{0: F(1)}, {1: F(1)}])
    with pytest.raises(ChainStructureError) as err:
        stationary(p)
    assert err.value.classes == [["UUDD"], ["UDUD"]]


def _mixed_permutations(words, perms):
    """The chain on `words` that follows one of `perms`, each equally likely."""
    rows = [{} for _ in words]
    for perm in perms:
        for i, j in enumerate(perm):
            rows[i][j] = rows[i].get(j, 0) + F(1, len(perms))
    return StochasticMatrix(words, rows)


def test_communicating_classes_match_reach_oracle():
    for n in range(1, 7):
        for model in ("nt", "mtr"):
            p = transition_matrix(model, n)
            stationary(p)
            assert communicating_classes_by_reach(p) == [p.states]
    # chains that keep 1/w! but may be reducible: P = I, and one or two
    # permutations, each equally likely, that move words only among words
    # of equal w!
    rng = random.Random(2024)
    chains_to_check = []
    for n in range(2, 5):
        words = nt_transition_matrix(n).states
        chains_to_check.append(_mixed_permutations(words, [range(len(words))]))
        groups = {}
        for i, w in enumerate(words):
            groups.setdefault(dyck_factorial(w), []).append(i)
        for _ in range(20):
            perms = []
            for _ in range(rng.randint(1, 2)):
                perm = list(range(len(words)))
                for group in groups.values():
                    for i, j in zip(group, rng.sample(group, len(group))):
                        perm[i] = j
                perms.append(perm)
            chains_to_check.append(_mixed_permutations(words, perms))
    # n = 3 has four words with w! = 6: swap the first two of them
    chains_to_check.append(_mixed_permutations(nt_transition_matrix(3).states, [[1, 0, 2, 3, 4]]))
    reducible = 0
    for p in chains_to_check:
        expected = communicating_classes_by_reach(p)
        if len(expected) == 1:
            assert stationary(p).weights == {w: F(1, dyck_factorial(w)) for w in p.states}
            continue
        reducible += 1
        with pytest.raises(ChainStructureError) as err:
            stationary(p)
        assert err.value.classes == expected
    assert reducible > 50


def test_transient_state_is_refused_by_the_certificate():
    # UUDD moves to UDUD for good, so UUDD is transient and 1/w! is not the law
    p = StochasticMatrix(["UUDD", "UDUD"], [{1: F(1)}, {1: F(1)}])
    with pytest.raises(InputError, match="1/w! is not the stationary law") as err:
        stationary(p)
    assert not isinstance(err.value, ChainStructureError)


@pytest.mark.parametrize(
    "draw, rows, never",
    [
        # seven floats of 1/7 sum to 0.9999999999999998, below this draw
        (1 - 2**-53, [dict.fromkeys(range(7), F(1, 7))] * 7 + [{0: F(1)}], "s7"),
        # a draw of 0.0 is not above the running sum of a leading zero
        (0.0, [{1: F(1)}, {1: F(1)}], "s0"),
    ],
    ids=["float-sum-short-of-one", "zero-draw"],
)
def test_simulate_never_takes_a_zero_transition(monkeypatch, draw, rows, never):
    generator = SimpleNamespace(random=lambda: draw)
    monkeypatch.setattr(chains, "random", SimpleNamespace(Random=lambda seed: generator))
    p = StochasticMatrix([f"s{i}" for i in range(len(rows))], rows)
    assert simulate(p, 100, seed=1).weights[never] == 0


def test_simulate_deterministic_and_close():
    p = nt_transition_matrix(2)
    emp1 = simulate(p, 100_000, seed=12345)
    emp2 = simulate(p, 100_000, seed=12345)
    assert emp1.weights == emp2.weights
    assert tv_distance(emp1, stationary(p)) < F(2, 100)

    p3 = mtr_transition_matrix(3)
    emp3 = simulate(p3, 100_000, seed=999)
    assert tv_distance(emp3, stationary(p3)) < F(2, 100)


def test_simulate_zero_steps_degenerate():
    p = nt_transition_matrix(2)
    d = simulate(p, 0, seed=7)
    assert d.weights == {p.states[0]: F(1)}


def test_simulate_steps_bound():
    p = nt_transition_matrix(2)
    with pytest.raises(BoundExceededError, match=f"steps <= {MAX_SIMULATE_STEPS}"):
        simulate(p, MAX_SIMULATE_STEPS + 1, seed=1)
    # the bound is checked before the walk: a walk of this length would take hours
    with pytest.raises(BoundExceededError):
        simulate(p, 10**10, seed=1)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution({"a": F(1, 2)})
    with pytest.raises(ValueError):
        StochasticMatrix(["a"], [{0: F(1, 2)}])


@pytest.mark.parametrize(
    "row, message",
    [
        ([F(0), F(1)], "dict from column to weight"),  # a dense row
        ({2: F(1)}, "outside the state list"),
        ({"1": F(1)}, "outside the state list"),
        ({0: F(0), 1: F(1)}, "must be positive"),  # a zero entry would be an edge
        ({0: F(-1, 2), 1: F(3, 2)}, "must be positive"),
    ],
)
def test_sparse_row_validation(row, message):
    with pytest.raises(FreeprobError, match=message):
        StochasticMatrix(["a", "b"], [row, {0: F(1)}])

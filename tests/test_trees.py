import math
import random
from collections import Counter

import pytest

from freeprob.cumulants import gaussian_shifted_sequence
from freeprob.errors import BoundExceededError
from freeprob.trees import (
    MAX_DYCK_LENGTH,
    BinaryTree,
    DyckParseError,
    count_anti_increasing_labelings,
    dyck_factorial,
    dyck_to_tree,
    enumerate_dyck_words,
    enumerate_trees,
    is_dyck_word,
    mu_operator,
    nt_adjacency,
    nu_operator,
    owedge,
    s_via_trees,
    tree_factorial,
    tree_size,
    tree_to_dyck,
)
from freeprob.trees import _mu_rows, _nu_terms, _vertex_paths
from oracles import mu_by_last_factor, split_last_factor

V = BinaryTree  # node constructor
LEAF = V()


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def left_chain(n):
    t = None
    for _ in range(n):
        t = V(t, None)
    return t


def right_chain(n):
    t = None
    for _ in range(n):
        t = V(None, t)
    return t


def test_enumerate_trees_counts():
    assert enumerate_trees(0) == [None]
    assert len(enumerate_trees(3)) == 5
    assert len(enumerate_trees(4)) == 14
    for n in range(9):
        assert len(enumerate_trees(n)) == catalan(n)
    with pytest.raises(BoundExceededError):
        enumerate_trees(13)


def test_tree_factorial_basic():
    assert tree_factorial(None) == 1
    assert tree_factorial(LEAF) == 1
    for n in range(1, 8):
        assert tree_factorial(left_chain(n)) == math.factorial(n)
        assert tree_factorial(right_chain(n)) == math.factorial(n)
    assert tree_factorial(V(LEAF, LEAF)) == 3


def test_s_via_trees_values():
    assert s_via_trees(1) == 1
    assert s_via_trees(2) == 4
    assert s_via_trees(3) == 27
    s = gaussian_shifted_sequence(24)
    for n in range(0, 13):
        assert s_via_trees(n) == s[2 * n]


def test_count_anti_increasing_labelings():
    assert count_anti_increasing_labelings(LEAF) == 1
    assert count_anti_increasing_labelings(left_chain(2)) == 2
    seven = V(V(LEAF, LEAF), V(LEAF, LEAF))
    assert tree_size(seven) == 7
    assert count_anti_increasing_labelings(seven) == tree_factorial(seven)
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert count_anti_increasing_labelings(t) == tree_factorial(t)


def test_tree_dyck_bijection():
    assert tree_to_dyck(LEAF) == "UD"
    assert tree_to_dyck(None) == ""
    for n in range(0, 7):
        words = set()
        for t in enumerate_trees(n):
            w = tree_to_dyck(t)
            assert is_dyck_word(w) and len(w) == 2 * n
            assert dyck_to_tree(w) == t
            words.add(w)
        assert len(words) == catalan(n)


def test_dyck_encoding_and_vertex_paths_walk_deep_chains():
    # 2,500 vertices, far deeper than the recursion limit
    n = 2500
    assert tree_to_dyck(left_chain(n)) == "UD" * n
    assert tree_to_dyck(right_chain(n)) == "U" * n + "D" * n
    paths = _vertex_paths(left_chain(n))
    assert paths == [("L",) * k for k in range(n)]
    assert _vertex_paths(right_chain(n))[-1] == ("R",) * (n - 1)
    assert _vertex_paths(V(V(None, LEAF), LEAF)) == [(), ("L",), ("L", "R"), ("R",)]


def test_dyck_factorial_matches_tree_factorial():
    assert dyck_factorial("UUDUDD") == 6
    assert dyck_factorial("UUDUDD") == tree_factorial(dyck_to_tree("UUDUDD"))
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert dyck_factorial(tree_to_dyck(t)) == tree_factorial(t)
    # the defining recursion (uUvD)! = n * u! * v!, split at the last factor
    for n in range(1, 7):
        for w in enumerate_dyck_words(n):
            u, v = split_last_factor(w)
            assert dyck_factorial(w) == n * dyck_factorial(u) * dyck_factorial(v)


def test_dyck_parse_errors():
    for bad in ("DU", "UDD", "UX", "UUD"):
        with pytest.raises(DyckParseError):
            dyck_to_tree(bad)


def test_dyck_factorial_rejects_non_dyck_words():
    for bad in ("DUUD", "UUU", "DD", "UDX"):
        with pytest.raises(DyckParseError):
            dyck_factorial(bad)


def test_enumerate_dyck_words():
    assert enumerate_dyck_words(0) == [""]
    assert enumerate_dyck_words(1) == ["UD"]
    assert enumerate_dyck_words(2) == ["UUDD", "UDUD"]
    for n in range(0, 8):
        words = enumerate_dyck_words(n)
        assert len(words) == catalan(n)
        # lexicographic with U < D (not the ASCII order)
        key = lambda w: tuple(0 if ch == "U" else 1 for ch in w)
        assert words == sorted(words, key=key)


def test_owedge():
    assert owedge("UD", "UD") == "UUDD"
    assert owedge("UUDD", "UD") == "UUDUDD"


def test_owedge_rejects_non_dyck_operands():
    for left, right in (("DU", "UD"), ("UD", "DU"), ("UDD", ""), ("UD", "UX")):
        with pytest.raises(DyckParseError):
            owedge(left, right)
    with pytest.raises(ValueError):
        owedge("", "UD")


def test_dyck_word_bound():
    # the longest admitted words, in the tallest and the flattest shape
    n = MAX_DYCK_LENGTH // 2
    tall, flat = "U" * n + "D" * n, "UD" * n
    assert sum(mu_operator(tall).values()) == sum(mu_operator(flat).values()) == n + 1
    assert dyck_factorial(tall) == dyck_factorial(flat) == math.factorial(n)
    for word in ("U" * (n + 1) + "D" * (n + 1), "UD" * (n + 1)):
        for op in (mu_operator, nu_operator, dyck_factorial, dyck_to_tree):
            with pytest.raises(BoundExceededError, match=str(MAX_DYCK_LENGTH)):
                op(word)


def test_nu_empty_and_ud():
    assert nu_operator("") == {}
    assert mu_operator("") == {"": 1}
    assert nu_operator("UD") == {"UD": 1}
    assert mu_operator("UD") == {"UD": 2}


def test_mu_worked_example():
    assert mu_operator("UUDUDD") == {"UUDUDD": 1, "UUDDUD": 2, "UDUDUD": 1}


def test_mu_coefficient_sums_and_word_lengths():
    for n in range(0, 6):
        for w in enumerate_dyck_words(n):
            comb = mu_operator(w)
            assert sum(comb.values()) == n + 1
            assert all(coef > 0 for coef in comb.values())
            for term in comb:
                assert is_dyck_word(term) and len(term) == len(w)


def test_nt_adjacency_small():
    words, a = nt_adjacency(1)
    assert words == ["UD"] and a == [[2]]

    words, a = nt_adjacency(2)
    assert words == ["UUDD", "UDUD"]
    assert a == [[1, 2], [2, 1]]

    for n in range(1, 6):
        words, a = nt_adjacency(n)
        for row in a:
            assert sum(row) == n + 1


def _random_dyck_word(rng, n):
    """A Dyck word of 2n letters, each U taken with probability 1/2 while
    both letters are allowed."""
    letters, opened, depth = [], 0, 0
    while len(letters) < 2 * n:
        up = opened < n and (depth == 0 or rng.random() < 0.5)
        letters.append("U" if up else "D")
        opened += up
        depth += 1 if up else -1
    return "".join(letters)


def test_mu_matches_last_factor_recursion():
    n_max = MAX_DYCK_LENGTH // 2
    for n in range(0, 9):
        words, rows = _mu_rows(n)
        index = {w: i for i, w in enumerate(words)}
        for w, row in zip(words, rows):
            expected = mu_by_last_factor(w)
            assert mu_operator(w) == expected
            assert nu_operator(w) == expected - Counter([w])
            assert row == {index[v]: coef for v, coef in expected.items()}
    rng = random.Random(27)
    longer = [_random_dyck_word(rng, rng.randint(9, n_max)) for _ in range(60)]
    for w in longer + ["U" * n_max + "D" * n_max, "UD" * n_max]:
        expected = mu_by_last_factor(w)
        assert mu_operator(w) == expected
        assert nu_operator(w) == expected - Counter([w])


@pytest.mark.parametrize("word", ["U" * 2500 + "D" * 2500, "UD" * 2500], ids=["tall", "flat"])
def test_nu_walks_words_past_the_recursion_limit(word):
    terms = _nu_terms(word)
    assert sum(terms.values()) == 2500
    assert all(len(term) == len(word) and term.count("U") == 2500 for term in terms)

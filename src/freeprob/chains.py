"""Two exactly-solved Markov chains with tree-factorial stationary laws.

Move-to-root: states are binary tree shapes with n vertices; a uniformly
chosen vertex is promoted to the root by repeated single rotations.
Naimi-Trehel: states are Dyck words of length 2n; the transition matrix is
the mu-operator adjacency matrix divided by n+1.  Both chains are
irreducible with stationary weight 1 / (tree factorial); `stationary`
certifies that law first and then reads the communicating classes as forward
reach sets, since a positive stationary law makes every state recurrent.

States are encoded as Dyck words throughout (tree shapes via the alpha
bijection), so the two chains share a state alphabet.  A matrix holds one
sparse row per state, {column: weight} over its positive entries only; the
chains built here list the columns in increasing order.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import BoundExceededError, InputError
from .trees import (
    BinaryTree,
    _mu_rows,
    _vertex_paths,
    dyck_factorial,
    enumerate_trees,
    is_dyck_word,
    tree_to_dyck,
)

__all__ = [
    "StochasticMatrix",
    "Distribution",
    "ChainStructureError",
    "ReturnTimeSummary",
    "mtr_transition_matrix",
    "nt_transition_matrix",
    "transition_matrix",
    "stationary",
    "return_time_sum",
    "simulate",
    "tv_distance",
    "move_to_root",
]

MAX_CHAIN_N = 8
# `simulate` walks about 3 M transitions a second (2-core machine, either
# chain at n = 8), so the bound keeps a walk and its burn-in near 20 s.
MAX_SIMULATE_STEPS = 50_000_000


class ChainStructureError(InputError):
    """Raised for reducible chains; carries the communicating classes."""

    def __init__(self, classes):
        self.classes = classes
        super().__init__(f"chain is reducible; communicating classes: {classes}")


@dataclass
class StochasticMatrix:
    states: list[str]
    rows: list[dict[int, Fraction]]

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise InputError("duplicate states")
        if len(self.rows) != n or not all(isinstance(row, dict) for row in self.rows):
            raise InputError("one row per state, each a dict from column to weight")
        for row in self.rows:
            if not all(type(j) is int and 0 <= j < n for j in row):
                raise InputError("column outside the state list")
            if not all(x > 0 for x in row.values()):
                raise InputError("transition weights must be positive; leave zero entries out")
            if sum(row.values()) != 1:
                raise InputError("row does not sum to 1")


@dataclass
class Distribution:
    weights: dict[str, Fraction]

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise InputError("negative weight")
        if sum(self.weights.values()) != 1:
            raise InputError("weights must sum to 1")


def _require_chain_size(n: int) -> None:
    if n < 1:
        raise InputError("n must be positive")
    if n > MAX_CHAIN_N:
        raise BoundExceededError(f"chain bound is n <= {MAX_CHAIN_N}")


def move_to_root(t: BinaryTree, path: tuple) -> BinaryTree:
    """Rotate the vertex at `path` upward until it becomes the root.  Rotations
    keep the in-order, so an ancestor where the path turns right joins the new
    left subtree with its own left subtree, and any other the new right one."""
    ancestors = []
    for step in path:
        ancestors.append((t, step))
        t = t.left if step == "L" else t.right
    left, right = t.left, t.right
    for x, step in reversed(ancestors):
        if step == "R":
            left = BinaryTree(x.left, left)
        else:
            right = BinaryTree(right, x.right)
    return BinaryTree(left, right)


def mtr_transition_matrix(n: int) -> StochasticMatrix:
    """Move-to-root shape chain on trees with n vertices.

    Entry (t, t') is (1/n) * #{vertices v of t : move_to_root(t, v) = t'}.
    States are the Dyck encodings of the shapes.  Bound: n <= 8.
    """
    _require_chain_size(n)
    trees = enumerate_trees(n)
    states = [tree_to_dyck(t) for t in trees]
    index = {w: i for i, w in enumerate(states)}
    rows = []
    for t in trees:
        targets = Counter(index[tree_to_dyck(move_to_root(t, path))] for path in _vertex_paths(t))
        rows.append({j: Fraction(k, n) for j, k in sorted(targets.items())})
    return StochasticMatrix(states, rows)


def nt_transition_matrix(n: int) -> StochasticMatrix:
    """Naimi-Trehel chain on Dyck words: row w is mu(w) over n+1.  Bound: n <= 8."""
    _require_chain_size(n)
    words, mu = _mu_rows(n)
    return StochasticMatrix(words, [{j: Fraction(c, n + 1) for j, c in row.items()} for row in mu])


def transition_matrix(model: str, n: int) -> StochasticMatrix:
    """The "nt" (Naimi-Trehel) or "mtr" (move-to-root) chain on size-n states."""
    if model not in ("nt", "mtr"):
        raise InputError(f"unknown chain model {model!r}; expected 'nt' or 'mtr'")
    return (nt_transition_matrix if model == "nt" else mtr_transition_matrix)(n)


def stationary(p: StochasticMatrix) -> Distribution:
    """The tree-factorial law pi(w) = 1/w! of the chains in this module,
    certified by one exact pass of pi P = pi over the entries of the rows.

    There is no general solver: raises InputError for states that are not
    Dyck words, or for any other matrix whose law is not 1/w!, before any
    graph walk.  A strictly positive law that passes makes every state
    recurrent, so reaching is mutual and each communicating class is the
    forward reach set of its smallest state.  One walk from state 0 that
    reaches every state shows the chain irreducible, so pi is its one
    stationary law; otherwise raises ChainStructureError with the classes,
    each sorted and listed by smallest index.
    """
    scope = "stationary serves the chains on Dyck words, whose law is 1/w!"
    if not all(map(is_dyck_word, p.states)):
        raise InputError(f"the states are not all Dyck words; {scope}")
    pi = [Fraction(1, dyck_factorial(w)) for w in p.states]
    flow = [Fraction(0)] * len(pi)
    for weight, row in zip(pi, p.rows):
        for j, x in row.items():
            flow[j] += weight * x
    if flow != pi or sum(pi) != 1:
        raise InputError(f"1/w! is not the stationary law of this matrix; {scope}")
    # pi > 0 passed, so every state is recurrent: a class is a forward reach set
    classes, placed = [], [False] * len(pi)
    for root in range(len(pi)):
        reach = [] if placed[root] else [root]
        placed[root] = True
        for v in reach:  # reach grows as it is read
            for j in p.rows[v]:
                if not placed[j]:
                    placed[j] = True
                    reach.append(j)
        if reach:
            classes.append([p.states[i] for i in sorted(reach)])
    if len(classes) != 1:
        raise ChainStructureError(classes)
    return Distribution(dict(zip(p.states, pi)))


@dataclass
class ReturnTimeSummary:
    total: int  # sum over states of the expected first-return time 1/pi(w)
    state_count: int  # Catalan number of states
    expected_return: Fraction  # average return time over a uniform start


def return_time_sum(n: int, chain: str = "nt") -> ReturnTimeSummary:
    """Sum over states of expected first-return times, which is s_{2n}.

    By Kac's formula the expected first-return time at w is 1/pi(w) = w!, so
    the sum equals the total tree factorial s_{2n} and the uniform-start
    expectation is s_{2n} / Catalan(n).
    """
    p = transition_matrix(chain, n)
    # pi(w) = 1/w!, so each denominator is a return time w!
    total = sum(w.denominator for w in stationary(p).weights.values())
    count = len(p.states)
    return ReturnTimeSummary(total, count, Fraction(total, count))


def simulate(p: StochasticMatrix, steps: int, seed: int) -> Distribution:
    """Empirical state frequencies of a seeded random walk.

    The walk starts in the first canonical state, discards a burn-in of
    steps // 10 transitions, then records the state after each of the next
    `steps` transitions.  The generator is random.Random(seed)
    (Mersenne Twister), so output is deterministic given (matrix, steps,
    seed).  steps = 0 degenerates to a point mass at the start state.
    Bound: steps <= 50,000,000.
    """
    if steps < 0:
        raise InputError("steps must be nonnegative")
    if steps > MAX_SIMULATE_STEPS:
        raise BoundExceededError(f"simulation bound is steps <= {MAX_SIMULATE_STEPS}")
    if steps == 0:
        return Distribution({p.states[0]: Fraction(1)})
    rng = random.Random(seed)
    # per row, the running sums over its positive entries, the last forced to
    # 1.0, so a float sum short of 1 or a draw of 0.0 never lands on a zero
    rows = []
    for row in p.rows:
        cumulative = list(accumulate(map(float, row.values())))
        cumulative[-1] = 1.0
        rows.append((cumulative, list(row)))
    counts = [0] * len(p.states)
    state = 0
    burn_in = steps // 10
    for step in range(burn_in + steps):
        cumulative, columns = rows[state]
        state = columns[bisect_left(cumulative, rng.random())]
        if step >= burn_in:
            counts[state] += 1
    return Distribution(
        {s: Fraction(c, steps) for s, c in zip(p.states, counts)}
    )


def tv_distance(a: Distribution, b: Distribution) -> Fraction:
    keys = set(a.weights) | set(b.weights)
    gap = sum(abs(a.weights.get(k, Fraction(0)) - b.weights.get(k, Fraction(0))) for k in keys)
    return gap / 2

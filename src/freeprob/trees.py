"""Planar rooted binary trees, tree factorials, the Dyck-word bijection, and
the mu/nu/owedge operators behind the Naimi-Trehel queueing chain.

A tree is either None (empty) or a node with two subtrees; the vertex count
is the number of nodes.  Dyck words are strings over {U, D} with every prefix
balance nonnegative; the bijection alpha sends a tree with subtrees (l, r) to
alpha(l) + "U" + alpha(r) + "D".  The tree factorial t! = n * l! * r!
transports along alpha to (u U v D)! = n * u! * v!.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import BoundExceededError

__all__ = [
    "BinaryTree",
    "DyckParseError",
    "enumerate_trees",
    "tree_size",
    "tree_factorial",
    "s_via_trees",
    "count_anti_increasing_labelings",
    "tree_to_dyck",
    "dyck_to_tree",
    "is_dyck_word",
    "enumerate_dyck_words",
    "dyck_factorial",
    "mu_operator",
    "nu_operator",
    "owedge",
    "nt_adjacency",
]

MAX_TREE_ENUM = 12
MAX_DYCK_ENUM = 8


class DyckParseError(ValueError):
    """Raised for strings that are not valid Dyck words."""


@dataclass(frozen=True)
class BinaryTree:
    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None


def tree_size(t) -> int:
    """Vertex count of a tree; any node with .left and .right will do, so
    hopf's labeled trees share it."""
    if t is None:
        return 0
    return 1 + tree_size(t.left) + tree_size(t.right)


def enumerate_trees(n: int) -> list:
    """All planar rooted binary trees with n vertices (Catalan(n) of them).

    Deterministic order: by left-subtree size, then recursively.
    Bound: n <= 12.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_TREE_ENUM:
        raise BoundExceededError(f"tree enumeration bound is n <= {MAX_TREE_ENUM}")
    table: list[list] = [[None]]  # table[size]: the trees with that many vertices
    for size in range(1, n + 1):
        table.append([
            BinaryTree(left, right)
            for k in range(size)
            for left in table[k]
            for right in table[size - 1 - k]
        ])
    return table[n]


def _size_and_factorial(t: BinaryTree | None) -> tuple[int, int]:
    if t is None:
        return 0, 1
    left_size, left_fact = _size_and_factorial(t.left)
    right_size, right_fact = _size_and_factorial(t.right)
    n = left_size + right_size + 1
    return n, n * left_fact * right_fact


def tree_factorial(t: BinaryTree | None) -> int:
    """Tree factorial: empty! = 1 and t! = n * left! * right! for n vertices."""
    return _size_and_factorial(t)[1]


def s_via_trees(n: int) -> int:
    """Sum of tree factorials over all trees with n vertices.

    Equals the shifted connected-pairing number s_{2n}.  Bound: n <= 12.
    """
    return sum(tree_factorial(t) for t in enumerate_trees(n))


def _vertex_paths(t: BinaryTree | None, prefix: tuple = ()) -> list:
    """Preorder list of root-to-vertex paths, each a tuple over {'L','R'}."""
    if t is None:
        return []
    out = [prefix]
    out += _vertex_paths(t.left, prefix + ("L",))
    out += _vertex_paths(t.right, prefix + ("R",))
    return out


def count_anti_increasing_labelings(t: BinaryTree | None) -> int:
    """Number of bijective labelings by {1..n} with, at every vertex, all left
    subtree labels strictly smaller than all right subtree labels.

    The root takes any of the n labels; the left subtree must then take the
    l smallest of the rest and the right subtree the others, each labeled
    anti-increasingly in turn.  So the count is n * l! * r! with l! and r!
    the counts of the subtrees: the tree factorial t!.
    """
    return tree_factorial(t)


# ---------------------------------------------------------------- Dyck words


def is_dyck_word(word: str) -> bool:
    depth = 0
    for ch in word:
        if ch == "U":
            depth += 1
        elif ch == "D":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def _require_dyck(word: str) -> None:
    if not is_dyck_word(word):
        raise DyckParseError(f"not a Dyck word: {word!r}")


def split_last_factor(word: str) -> tuple[str, str]:
    """Split a nonempty Dyck word as u + 'U' + v + 'D' where the final letter
    is matched with the opener after the last return to the axis."""
    depth = 0
    last_zero = 0
    for i, ch in enumerate(word[:-1]):
        depth += 1 if ch == "U" else -1
        if depth == 0:
            last_zero = i + 1
    return word[:last_zero], word[last_zero + 1 : -1]


def tree_to_dyck(t: BinaryTree | None) -> str:
    if t is None:
        return ""
    return tree_to_dyck(t.left) + "U" + tree_to_dyck(t.right) + "D"


def dyck_to_tree(word: str) -> BinaryTree | None:
    _require_dyck(word)
    return _dyck_to_tree(word)


def _dyck_to_tree(word: str) -> BinaryTree | None:
    if not word:
        return None
    u, v = split_last_factor(word)
    return BinaryTree(_dyck_to_tree(u), _dyck_to_tree(v))


def dyck_factorial(word: str) -> int:
    """Factorial on Dyck words: 1 for the empty word, (uUvD)! = n * u! * v!."""
    _require_dyck(word)
    return _dyck_factorial(word)


def _dyck_factorial(word: str) -> int:
    if not word:
        return 1
    u, v = split_last_factor(word)
    return (len(word) // 2) * _dyck_factorial(u) * _dyck_factorial(v)


def enumerate_dyck_words(n: int) -> list[str]:
    """Dyck words of length 2n in lexicographic order with U < D.  Bound: n <= 8."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_DYCK_ENUM:
        raise BoundExceededError(f"Dyck enumeration bound is n <= {MAX_DYCK_ENUM}")
    out: list[str] = []

    def rec(prefix: list, opens: int, depth: int):
        if opens == 0 and depth == 0:
            out.append("".join(prefix))
            return
        # 'U' < 'D' lexicographically, so try an upstep first
        if opens > 0:
            prefix.append("U")
            rec(prefix, opens - 1, depth + 1)
            prefix.pop()
        if depth > 0:
            prefix.append("D")
            rec(prefix, opens, depth - 1)
            prefix.pop()

    rec([], n, 0)
    return out


# ------------------------------------------------------- mu / nu / owedge


def owedge(left_word: str, right_word: str) -> str:
    """uUvD owedge w = uUvwD: splice w in front of the final D, which closes
    the opener of the last factor."""
    _require_dyck(left_word)
    _require_dyck(right_word)
    if not left_word:
        raise ValueError("owedge is undefined for an empty left operand")
    return left_word[:-1] + right_word + "D"


def _nu(word: str) -> dict[str, int]:
    acc: dict[str, int] = {}
    if not word:
        return acc
    u, v = split_last_factor(word)
    right = "U" + v + "D"
    for term, coef in _nu(u).items():
        key = term[:-1] + right + "D"  # term owedge right, both Dyck words already
        acc[key] = acc.get(key, 0) + coef
    for term, coef in _mu(v).items():
        key = term + "U" + u + "D"
        acc[key] = acc.get(key, 0) + coef
    return acc


def _mu(word: str) -> dict[str, int]:
    acc = _nu(word)
    acc[word] = acc.get(word, 0) + 1
    return acc


def nu_operator(word: str) -> dict[str, int]:
    """nu(empty) = 0 and nu(uUvD) = nu(u) owedge (UvD) + mu(v) UuD."""
    _require_dyck(word)
    return dict(sorted(_nu(word).items()))


def mu_operator(word: str) -> dict[str, int]:
    """mu(w) = w + nu(w); nonnegative integer coefficients summing to n+1.

    All output words have the same length as the input.
    """
    _require_dyck(word)
    return dict(sorted(_mu(word).items()))


def nt_adjacency(n: int) -> tuple[list[str], list[list[int]]]:
    """Weighted adjacency matrix of the mu operator on Dyck words of length 2n.

    Row w lists the mu(w) coefficients in the canonical word order; dividing
    by n+1 gives the row-stochastic Naimi-Trehel transition matrix.
    Bound: n <= 8.
    """
    words = enumerate_dyck_words(n)
    index = {w: i for i, w in enumerate(words)}
    matrix = [[0] * len(words) for _ in words]
    for i, w in enumerate(words):
        for term, coef in mu_operator(w).items():
            matrix[i][index[term]] = coef
    return words, matrix

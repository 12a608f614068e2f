"""Planar rooted binary trees, tree factorials, the Dyck-word bijection, and
the mu/nu/owedge operators behind the Naimi-Trehel queueing chain.

A tree is either None (empty) or a node with two subtrees; the vertex count
is the number of nodes.  Dyck words are strings over {U, D} with every prefix
balance nonnegative; the bijection alpha sends a tree with subtrees (l, r) to
alpha(l) + "U" + alpha(r) + "D".  The tree factorial t! = n * l! * r!
transports along alpha to (u U v D)! = n * u! * v!.  nu and mu are one stack
walk over the prime factors of a word at every depth, one term per vertex;
the recursion it unrolls is the test oracle mu_by_last_factor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BoundExceededError, InputError

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
# Longest Dyck word the word operations accept, checked before any work.
# No word operation recurses, so depth does not bind: at 600 letters mu takes
# 4-7 ms on the slowest word measured, U^300 D^300 (2-core machine).
MAX_DYCK_LENGTH = 600


class DyckParseError(InputError):
    """Raised for strings that are not valid Dyck words."""


@dataclass(frozen=True)
class BinaryTree:
    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None


def _preorder(t) -> list:
    """The vertices of t in preorder, with None for each empty subtree.  Any
    node with .left and .right will do, so hopf's labeled trees share this
    walk, and it keeps its own stack: recursion runs out of frames on deep trees."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if node is not None:
            stack += (node.right, node.left)
    return out


def _build(preorder: list, make):
    """Fold a tree listed in preorder, with None for each empty subtree, from
    the bottom up without recursion: an empty subtree gives None, and a vertex
    gives make(item, left, right) of its item and its two subtrees' results."""
    built: list = []  # in reversed preorder a vertex's left result lies above its right one
    for item in reversed(preorder):
        built.append(None if item is None else make(item, built.pop(), built.pop()))
    return built[0]


def tree_size(t) -> int:
    """Vertex count of a tree; like _preorder it keeps its own stack, but it
    never pushes an empty subtree."""
    count, stack = 0, [t] if t is not None else []
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return count


def enumerate_trees(n: int) -> list:
    """All planar rooted binary trees with n vertices (Catalan(n) of them).

    Deterministic order: by left-subtree size, then recursively.
    Bound: n <= 12.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
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


def tree_factorial(t: BinaryTree | None) -> int:
    """Tree factorial: empty! = 1 and t! = n * left! * right! for n vertices,
    i.e. the product of the subtree sizes."""
    product, sizes = 1, []
    for node in reversed(_preorder(t)):  # as in _build
        if node is None:
            sizes.append(0)
        else:
            sizes.append(sizes.pop() + sizes.pop() + 1)
            product *= sizes[-1]
    return product


def s_via_trees(n: int) -> int:
    """Sum of tree factorials over all trees with n vertices.

    Equals the shifted connected-pairing number s_{2n}.  Bound: n <= 12.
    """
    return sum(tree_factorial(t) for t in enumerate_trees(n))


def _vertex_paths(t: BinaryTree | None) -> list:
    """Preorder list of root-to-vertex paths, each a tuple over {'L','R'};
    like _preorder it keeps its own stack."""
    out, stack = [], [(t, ())]
    while stack:
        node, path = stack.pop()
        if node is not None:
            out.append(path)
            stack += ((node.right, path + ("R",)), (node.left, path + ("L",)))
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
    if len(word) > MAX_DYCK_LENGTH:
        raise BoundExceededError(f"Dyck word bound is {MAX_DYCK_LENGTH} letters")
    if not is_dyck_word(word):
        raise DyckParseError(f"not a Dyck word: {word!r}")


def tree_to_dyck(t: BinaryTree | None) -> str:
    """alpha(t) = alpha(left) + "U" + alpha(right) + "D", read off a stack of
    pending subtrees and letters, so a tree of any depth is walked."""
    letters, stack = [], [t]
    while stack:
        item = stack.pop()
        if type(item) is str:
            letters.append(item)
        elif item is not None:
            stack += ("D", item.right, "U", item.left)
    return "".join(letters)


def dyck_to_tree(word: str) -> BinaryTree | None:
    """Inverse of alpha in one pass: stack[d] is the tree of the factors read
    at depth d, and each D makes the factor it closes their right subtree."""
    _require_dyck(word)
    stack: list = [None]
    for ch in word:
        if ch == "U":
            stack.append(None)
        else:
            inner = stack.pop()
            stack[-1] = BinaryTree(stack[-1], inner)
    return stack[0]


def dyck_factorial(word: str) -> int:
    """Factorial on Dyck words: 1 for the empty word, (uUvD)! = n * u! * v!,
    i.e. the tree factorial carried along alpha.

    Bound: words of at most 600 letters."""
    return tree_factorial(dyck_to_tree(word))


def enumerate_dyck_words(n: int) -> list[str]:
    """Dyck words of length 2n in lexicographic order with U < D: the
    alpha-images of the trees with n vertices.  Bound: n <= 8."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > MAX_DYCK_ENUM:
        raise BoundExceededError(f"Dyck enumeration bound is n <= {MAX_DYCK_ENUM}")
    # on words of one length, U < D is the reverse of the character order D < U
    return sorted(map(tree_to_dyck, enumerate_trees(n)), reverse=True)


# ------------------------------------------------------- mu / nu / owedge


def owedge(left_word: str, right_word: str) -> str:
    """uUvD owedge w = uUvwD: splice w in front of the final D, which closes
    the opener of the last factor."""
    _require_dyck(left_word)
    _require_dyck(right_word)
    if not left_word:
        raise InputError("owedge is undefined for an empty left operand")
    return left_word[:-1] + right_word + "D"


def _nu_terms(word: str) -> Counter:
    """nu(w), unrolling nu(uUvD) = nu(u) owedge (UvD) + mu(v) UuD into a sum
    over the prime factors U r D of w = p U r D s of mu(r) U p s D.

    The stack holds pairs (x, tail) standing for nu(x) tail, from (w, ""); each
    factor of a popped x emits the term r of mu(r) = r + nu(r) and pushes
    (r, "U" + p + s + "D" + tail) for the rest: one term per vertex of w."""
    terms: Counter = Counter()
    stack = [(word, "")]
    while stack:
        x, tail = stack.pop()
        depth = start = 0
        for i, ch in enumerate(x):
            depth += 1 if ch == "U" else -1
            if depth == 0:  # x[start:i + 1] is the factor U r D
                r, rest = x[start + 1 : i], "U" + x[:start] + x[i + 1 :] + "D" + tail
                terms[r + rest] += 1
                stack.append((r, rest))
                start = i + 1
    return terms


def nu_operator(word: str) -> dict[str, int]:
    """nu(empty) = 0 and nu(uUvD) = nu(u) owedge (UvD) + mu(v) UuD."""
    _require_dyck(word)
    return dict(sorted(_nu_terms(word).items()))


def mu_operator(word: str) -> dict[str, int]:
    """mu(w) = w + nu(w); nonnegative integer coefficients summing to n+1.

    All output words have the same length as the input.  Bound: words of
    at most 600 letters.
    """
    _require_dyck(word)
    terms = _nu_terms(word)
    terms[word] += 1
    return dict(sorted(terms.items()))


def _mu_rows(n: int) -> tuple[list[str], list[dict[int, int]]]:
    """The Dyck words of length 2n in canonical order and, for each word w,
    the mu(w) coefficients as {index of the term: coefficient}, by increasing
    index; over n+1 they are the Naimi-Trehel transition rows.  Bound: n <= 8."""
    words = enumerate_dyck_words(n)
    index = {w: i for i, w in enumerate(words)}
    return words, [dict(sorted((index[v], c) for v, c in mu_operator(w).items())) for w in words]


def nt_adjacency(n: int) -> tuple[list[str], list[list[int]]]:
    """Weighted adjacency matrix of the mu operator on Dyck words of length 2n.

    Row w lists the mu(w) coefficients in the canonical word order; dividing
    by n+1 gives the row-stochastic Naimi-Trehel transition matrix.
    Bound: n <= 8.
    """
    words, rows = _mu_rows(n)
    matrix = [[0] * len(words) for _ in words]
    for dense, row in zip(matrix, rows):
        for j, coef in row.items():
            dense[j] = coef
    return words, matrix

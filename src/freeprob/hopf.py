"""The Loday-Ronco Hopf algebra on anti-increasingly ordered binary trees and
the Brouder-Frabetti (charge) coproduct.

A labeled tree is anti-increasing when, at every vertex, all labels in the
left subtree are strictly smaller than all labels in the right subtree (the
root label itself is unconstrained).  Grafting s on the left and t on the
right of a new root k is written graft(s, k, t); this orientation is forced
by closure: products of anti-increasing trees with separated labels stay
anti-increasing only for it.  Ordered trees are equivalence classes of
anti-increasing labelings under order-preserving relabeling; they are stored
with canonical labels {1..n}.

The graded dimension of the ordered-tree algebra in degree n equals the
total tree factorial s_{2n} (1, 1, 4, 27, 248, ...).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import BoundExceededError, InputError
from .trees import _build, _preorder, enumerate_trees, tree_size

__all__ = [
    "LabeledTree",
    "CheckResult",
    "tree_size",
    "labels_of",
    "is_anti_increasing",
    "is_ordered",
    "canonical",
    "graft",
    "shift_labels",
    "enumerate_ordered_trees",
    "hilbert_dimension",
    "lr_product",
    "lr_coproduct",
    "counit",
    "coassociativity_check",
    "counit_check",
    "antipode",
    "antipode_check",
    "bf_over",
    "bf_coproduct",
    "tree_to_nested",
    "tree_from_nested",
]

MAX_ORDERED_ENUM = 7
MAX_LAW_SIZE = 4
# Single-operation bounds, checked before any work: the largest size at which
# the slowest tree measured took under 20 s (2-core machine).  antipode: 9
# vertices (6.2 s balanced; 10 took 29 s balanced); lr_coproduct: 16 (10.6 s;
# 17 took 25 s); bf_coproduct: 17 (6.5 s; 18 took 16.6 s, too close to keep);
# lr_product: 19 vertices in both factors together (18 s; 20 took 36 s).
MAX_ANTIPODE_SIZE = 9
MAX_COPRODUCT_SIZE = 16
MAX_BF_COPRODUCT_SIZE = 17
MAX_PRODUCT_SIZE = 19


@dataclass(frozen=True, slots=True)
class LabeledTree:
    label: int
    left: "Optional[LabeledTree]" = None
    right: "Optional[LabeledTree]" = None
    # hash((label, left, right)) from the children's stored hashes, taken once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.label, self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # a stack, not recursion: a recursive walk runs out of frames on deep trees
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a is None or b is None or a._hash != b._hash or a.label != b.label:
                    return False
                stack += ((a.left, b.left), (a.right, b.right))
        return True


Tree = Optional[LabeledTree]


def labels_of(t: Tree) -> frozenset:
    return frozenset(node.label for node in _preorder(t) if node is not None)


def _anti_increasing_labels(t: Tree) -> Optional[set]:
    """The label set of t if its labels are distinct and, at every vertex, the
    left-subtree labels lie below the right-subtree ones; None otherwise."""
    labels: set = set()
    spans: list = []  # (min, max) of each finished subtree, None when empty
    for node in reversed(_preorder(t)):  # as in _build
        if node is None:
            spans.append(None)
            continue
        label, left, right = node.label, spans.pop(), spans.pop()
        if label in labels or (left and right and left[1] >= right[0]):
            return None
        labels.add(label)
        first, last = left or right, right or left
        spans.append((min(label, first[0]), max(label, last[1])) if first else (label, label))
    return labels


def is_anti_increasing(t: Tree) -> bool:
    """Labels distinct and, at every vertex, left-subtree < right-subtree labels."""
    return _anti_increasing_labels(t) is not None


def canonical(t: Tree) -> Tree:
    """Relabel by rank to {1..n}, preserving the induced linear order."""
    preorder = _preorder(t)
    labels = sorted(node.label for node in preorder if node is not None)
    ranks = {label: i + 1 for i, label in enumerate(labels)}
    return _build(preorder, lambda node, left, right: LabeledTree(ranks[node.label], left, right))


def is_ordered(t: Tree) -> bool:
    """Canonical representative: labels exactly {1..n} and anti-increasing."""
    labels = _anti_increasing_labels(t)
    return labels is not None and labels == set(range(1, len(labels) + 1))


def graft(s: Tree, k: int, t: Tree) -> LabeledTree:
    """New root labeled k with left subtree s and right subtree t.

    Raises InputError when the label sets (including k) are not disjoint.
    """
    left, right = labels_of(s), labels_of(t)
    if (left & right) or k in left or k in right:
        raise InputError("label clash in graft")
    return LabeledTree(k, s, t)


def shift_labels(t: Tree, delta: int) -> Tree:
    return _build(_preorder(t), lambda node, left, right: LabeledTree(node.label + delta, left, right))


def _require_size(trees: tuple, bound: int, what: str) -> None:
    """Refuse trees of more than `bound` vertices in all; counts at most bound + 1."""
    count, stack = 0, list(trees)
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            if count > bound:
                raise BoundExceededError(f"{what} bound is {bound} vertices")
            stack += (node.left, node.right)


def _require_ordered(t: Tree) -> None:
    if not is_ordered(t):
        raise InputError(f"not an anti-increasingly ordered tree: {tree_to_nested(t)}")


def _closed_op(op, s: Tree, t: Tree, what: str):
    """op(s, t') on ordered s and t (checked by the caller), with t' the tree
    t relabeled above the labels of s; every term must be anti-increasing."""
    terms = op(s, shift_labels(t, tree_size(s)))
    if not all(is_anti_increasing(term) for term in terms):
        raise AssertionError(f"{what} closure violated (internal error)")
    return terms


def _graded_tensor(cop, t: Tree, what: str) -> dict:
    """cop(t) on an ordered t (checked by the caller), sides relabeled canonically;
    the gradings must add, size(left) + size(right) = size(t), in every term."""
    terms = cop(t)
    n = tree_size(t)
    if any(tree_size(a) + tree_size(b) != n for a, b in terms):
        raise AssertionError(f"{what} grading violated (internal error)")
    out: Counter = Counter()
    for (a, b), coef in terms.items():
        out[(canonical(a), canonical(b))] += coef
    return {k: v for k, v in out.items() if v}


def enumerate_ordered_trees(n: int) -> list:
    """All ordered trees with n vertices; there are s_{2n} of them.  Bound: n <= 7.

    Order: shape by shape, then lexicographic in the preorder label tuple.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > MAX_ORDERED_ENUM:
        raise BoundExceededError(f"ordered-tree enumeration bound is n <= {MAX_ORDERED_ENUM}")
    labels = tuple(range(1, n + 1))
    memo: dict = {}  # local to this call: subtrees recur with the same labels
    return [t for shape in enumerate_trees(n) for t in _labelings(shape, labels, memo)]


def _labelings(shape, labels: tuple[int, ...], memo: dict) -> tuple:
    """Every labeling of `shape` by `labels`: the root takes any label, the
    left subtree then the smallest of the rest and the right subtree the
    others.

    A plain recursion over the caller's memo, so no reference cycle outlives
    the enumeration.
    """
    if shape is None:
        return (None,)
    key = (shape, labels)
    if key not in memo:
        k = tree_size(shape.left)
        out = []
        for i, root in enumerate(labels):
            rest = labels[:i] + labels[i + 1 :]
            rights = _labelings(shape.right, rest[k:], memo)
            out.extend(LabeledTree(root, s, t) for s in _labelings(shape.left, rest[:k], memo) for t in rights)
        memo[key] = tuple(out)
    return memo[key]


def hilbert_dimension(n: int) -> int:
    """Number of ordered trees with n vertices, by direct enumeration."""
    return len(enumerate_ordered_trees(n))


# ------------------------------------------------------------------ product


def _prod_labeled(s: Tree, t: Tree) -> Counter:
    """Recursive product on labeled trees:
    s*t = graft(s1, k, s2*t) + graft(s*t1, l, t2) with empty tree as unit."""
    if s is None:
        return Counter({t: 1})
    if t is None:
        return Counter({s: 1})
    out: Counter = Counter()
    for w, c in _prod_labeled(s.right, t).items():
        out[LabeledTree(s.label, s.left, w)] += c
    for w, c in _prod_labeled(s, t.left).items():
        out[LabeledTree(t.label, w, t.right)] += c
    return out


def lr_product(s: Tree, t: Tree) -> dict:
    """Product of ordered trees; every term is again ordered.

    Computed by giving t labels above those of s (label-choice independence
    is exercised in the tests), so all terms carry canonical labels already.
    Bound: size(s) + size(t) <= 19.
    """
    _require_size((s, t), MAX_PRODUCT_SIZE, "product")
    _require_ordered(s)
    _require_ordered(t)
    return _product(s, t)


def _product(s: Tree, t: Tree) -> dict:
    """lr_product of trees already known to be ordered."""
    return dict(_closed_op(_prod_labeled, s, t, "product"))


# ---------------------------------------------------------------- coproduct


def _cop_labeled(t: Tree) -> Counter:
    """Coproduct on labeled trees, as a Counter over (left, right) tensor pairs."""
    if t is None:
        return Counter({(None, None): 1})
    out: Counter = Counter()
    for (u1, u2), cu in _cop_labeled(t.left).items():
        for (v1, v2), cv in _cop_labeled(t.right).items():
            for w, cw in _prod_labeled(u1, v1).items():
                out[(w, LabeledTree(t.label, u2, v2))] += cu * cv * cw
    out[(t, None)] += 1
    return out


def lr_coproduct(t: Tree) -> dict:
    """Coproduct of an ordered tree as a map (left, right) -> coefficient.

    Gradings add: size(left) + size(right) = size(t) in every term.
    Bound: size(t) <= 16.
    """
    _require_size((t,), MAX_COPRODUCT_SIZE, "coproduct")
    _require_ordered(t)
    return _coproduct(t)


def _coproduct(t: Tree) -> dict:
    """lr_coproduct of a tree already known to be ordered."""
    return _graded_tensor(_cop_labeled, t, "coproduct")


def counit(combination: dict) -> Fraction:
    """Projection onto the empty-tree component."""
    return Fraction(combination.get(None, 0))


def _convolve(terms: dict, s, product) -> dict:
    """m (s x id) of a tensor combination: the sum of c * s(a) * b over its terms
    (a, b) -> c, by product with the empty tree as the unit; zero terms dropped."""
    out: Counter = Counter()
    for (a, b), c in terms.items():
        for sa, ca in s(a).items():
            # with one side empty the product is the other side
            prod = {sa or b: 1} if sa is None or b is None else product(sa, b)
            for w, cw in prod.items():
                out[w] += c * ca * cw
    return {k: v for k, v in out.items() if v}


def antipode(t: Tree) -> dict:
    """Antipode via the graded-connected recursion m (S x id) Delta t = 0,
    S(t) = -t - sum of S(t_(1)) * t_(2) over proper coproduct terms, with t checked
    once and each distinct coproduct, antipode and product taken once, in tables
    local to the call and freed on return.  Bound: size(t) <= 9."""
    _require_size((t,), MAX_ANTIPODE_SIZE, "antipode")
    _require_ordered(t)
    # the table takes each subtree's coproduct once, so only products are cached
    return _antipode(t, {None: {None: 1}}, _coproduct, lru_cache(maxsize=None)(_product))


def _antipode(t: Tree, table: dict, coproduct, product) -> dict:
    """S(t) for an ordered t, from table (tree -> S) or added to it."""
    if t not in table:
        rest = {k: c for k, c in coproduct(t).items() if k != (t, None)}
        convolved = _convolve(rest, lambda a: _antipode(a, table, coproduct, product), product)
        table[t] = {w: -c for w, c in convolved.items()}
    return table[t]


# --------------------------------------------------------------------- laws


@dataclass
class CheckResult:
    ok: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def _law_sweep(max_size: int, law) -> CheckResult:
    """law(t, delta, s, product) on every ordered tree t of size <= max_size,
    up to the first failing CheckResult, which carries the counterexample.

    delta, s and product are _coproduct, _antipode and _product over one set of
    tables local to this sweep, so each is taken once per argument; the trees
    are ordered by construction.  Bound: max_size <= 4, checked before any enumeration.
    """
    if max_size < 0:
        raise InputError("max_size must be nonnegative")
    if max_size > MAX_LAW_SIZE:
        raise BoundExceededError(f"Hopf law bound is max_size <= {MAX_LAW_SIZE}")
    delta = lru_cache(maxsize=None)(_coproduct)  # tables local to this sweep
    product = lru_cache(maxsize=None)(_product)
    table = {None: {None: 1}}

    def s(t: Tree) -> dict:
        return _antipode(t, table, delta, product)

    for n in range(max_size + 1):
        for t in enumerate_ordered_trees(n):
            result = law(t, delta, s, product)
            if not result:
                return result
    return CheckResult(True)


def _coassociativity_defect(t: Tree, delta, s, product) -> CheckResult:
    """(Delta x id) Delta t - (id x Delta) Delta t, nonzero triple terms only."""
    out: Counter = Counter()
    for (a, b), c in delta(t).items():
        for (x, y), d in delta(a).items():
            out[(x, y, b)] += c * d
        for (x, y), d in delta(b).items():
            out[(a, x, y)] -= c * d
    diff = {k: v for k, v in out.items() if v}
    return CheckResult(not diff, (t, diff))


def _counit_defect(t: Tree, delta, s, product) -> CheckResult:
    left = {b: c for (a, b), c in delta(t).items() if a is None}
    right = {a: c for (a, b), c in delta(t).items() if b is None}
    return CheckResult(left == right == {t: 1}, t)


def _antipode_defect(t: Tree, delta, s, product) -> CheckResult:
    """m (id x S) Delta t = counit(t) 1: the side the recursion for S does not impose,
    as m (S x id) on the flipped tensor with the product reversed."""
    flipped = {(b, a): c for (a, b), c in delta(t).items()}
    convolved = _convolve(flipped, s, lambda x, y: product(y, x))
    return CheckResult(convolved == ({None: 1} if t is None else {}), t)


def coassociativity_check(max_size: int) -> CheckResult:
    """(Delta x id) Delta = (id x Delta) Delta on all ordered trees of size <= max_size.

    The counterexample is (t, lhs - rhs) over the triples where they differ.
    """
    return _law_sweep(max_size, _coassociativity_defect)


def counit_check(max_size: int) -> CheckResult:
    """Both counit laws on all ordered trees of size <= max_size; the counterexample is t."""
    return _law_sweep(max_size, _counit_defect)


def antipode_check(max_size: int) -> CheckResult:
    """m (id x S) Delta = unit . counit on all ordered trees of size <= max_size; the
    left-sided law m (S x id) Delta holds by the recursion that defines S.  The
    counterexample is t."""
    return _law_sweep(max_size, _antipode_defect)


# ------------------------------------------------- Brouder-Frabetti coproduct


def bf_over_labeled(s: Tree, t: Tree) -> Tree:
    """Graft s onto the leftmost leaf of t: s/(t1 v t2) = (s/t1) v t2, so the
    left spine of t is rebuilt, bottom up, over s."""
    if s is None:
        return t
    spine = []
    while t is not None:
        spine.append(t)
        t = t.left
    for node in reversed(spine):
        s = LabeledTree(node.label, s, node.right)
    return s


def bf_over(s: Tree, t: Tree) -> Tree:
    """Associative product on ordered trees with the empty tree neutral."""
    _require_ordered(s)
    _require_ordered(t)
    (result,) = _closed_op(lambda a, b: (bf_over_labeled(a, b),), s, t, "bf product")
    return result


def _bf_cop_labeled(t: Tree) -> Counter:
    """Charge coproduct on labeled trees.

    On a generator V_k(w) = graft(empty, k, w):
    Delta(V_k(w)) = V_k(w) x empty + sum of x x V_k(y) over the terms x x y
    of Delta(w) whose right side y keeps the root of w (y is empty when w is).
    Those are all terms but the part Delta(s) / (V_l(t') x empty) of
    Delta(w) = Delta(s) / Delta(V_l(t')), w = graft(s, l, t'), where / acts on
    tensors componentwise; on a general tree Delta is multiplicative along
    the decomposition graft(s, k, w) = s / V_k(w).
    """
    if t is None:
        return Counter({(None, None): 1})
    if t.left is None:
        w = t.right
        out: Counter = Counter({(t, None): 1})
        for (x, y), c in _bf_cop_labeled(w).items():
            if w is None or (y is not None and y.label == w.label):
                out[(x, LabeledTree(t.label, None, y))] += c
        return out
    a_terms = _bf_cop_labeled(t.left)
    b_terms = _bf_cop_labeled(LabeledTree(t.label, None, t.right))
    out = Counter()
    for (a1, a2), ca in a_terms.items():
        for (b1, b2), cb in b_terms.items():
            out[(bf_over_labeled(a1, b1), bf_over_labeled(a2, b2))] += ca * cb
    return out


def bf_coproduct(t: Tree) -> dict:
    """Charge coproduct of an ordered tree; gradings add in every term.
    Bound: size(t) <= 17."""
    _require_size((t,), MAX_BF_COPRODUCT_SIZE, "charge coproduct")
    _require_ordered(t)
    return _graded_tensor(_bf_cop_labeled, t, "charge coproduct")


# ------------------------------------------------------------- serialization


def tree_to_nested(t: Tree):
    """Nested-list form: None, [label] for a leaf, else [label, left, right]."""
    return _build(_preorder(t), lambda node, left, right: (
        [node.label] if left is right is None else [node.label, left, right]))


def tree_from_nested(data) -> Tree:
    """Inverse of tree_to_nested; the parts are checked in preorder."""
    preorder, stack = [], [data]
    while stack:
        item = stack.pop()
        preorder.append(item)
        if item is None:
            continue
        if not isinstance(item, (list, tuple)) or not item:
            raise InputError(f"malformed tree encoding: {item!r}")
        if not isinstance(item[0], int) or isinstance(item[0], bool):
            raise InputError(f"tree label must be an integer: {item[0]!r}")
        if len(item) not in (1, 3):
            raise InputError(f"malformed tree encoding: {item!r}")
        stack += (item[2], item[1]) if len(item) == 3 else (None, None)
    return _build(preorder, lambda item, left, right: LabeledTree(item[0], left, right))

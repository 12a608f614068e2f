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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .errors import BoundExceededError
from .trees import enumerate_trees, tree_size

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
    "bf_over",
    "bf_coproduct",
    "tree_to_nested",
    "tree_from_nested",
]

MAX_ORDERED_ENUM = 7


@dataclass(frozen=True)
class LabeledTree:
    label: int
    left: "Optional[LabeledTree]" = None
    right: "Optional[LabeledTree]" = None


Tree = Optional[LabeledTree]


def labels_of(t: Tree) -> frozenset:
    if t is None:
        return frozenset()
    return labels_of(t.left) | {t.label} | labels_of(t.right)


class _Violation(Exception):
    pass


def _span(t: Tree):
    """(min, max) of the subtree labels; raises _Violation on an ordering breach."""
    if t is None:
        return None
    lo = hi = t.label
    left, right = _span(t.left), _span(t.right)
    for sub in (left, right):
        if sub is not None:
            lo = min(lo, sub[0])
            hi = max(hi, sub[1])
    if left is not None and right is not None and left[1] >= right[0]:
        raise _Violation
    return lo, hi


def is_anti_increasing(t: Tree) -> bool:
    """Labels distinct and, at every vertex, left-subtree < right-subtree labels."""
    if len(labels_of(t)) != tree_size(t):
        return False
    try:
        _span(t)
        return True
    except _Violation:
        return False


def canonical(t: Tree) -> Tree:
    """Relabel by rank to {1..n}, preserving the induced linear order."""
    ranks = {lab: i + 1 for i, lab in enumerate(sorted(labels_of(t)))}

    def rebuild(node: Tree) -> Tree:
        if node is None:
            return None
        return LabeledTree(ranks[node.label], rebuild(node.left), rebuild(node.right))

    return rebuild(t)


def is_ordered(t: Tree) -> bool:
    """Canonical representative: labels exactly {1..n} and anti-increasing."""
    n = tree_size(t)
    return labels_of(t) == frozenset(range(1, n + 1)) and is_anti_increasing(t)


def graft(s: Tree, k: int, t: Tree) -> LabeledTree:
    """New root labeled k with left subtree s and right subtree t.

    Raises ValueError when the label sets (including k) are not disjoint.
    """
    left, right = labels_of(s), labels_of(t)
    if (left & right) or k in left or k in right:
        raise ValueError("label clash in graft")
    return LabeledTree(k, s, t)


def shift_labels(t: Tree, delta: int) -> Tree:
    if t is None:
        return None
    return LabeledTree(t.label + delta, shift_labels(t.left, delta), shift_labels(t.right, delta))


def _require_ordered(t: Tree) -> None:
    if not is_ordered(t):
        raise ValueError(f"not an anti-increasingly ordered tree: {tree_to_nested(t)}")


def enumerate_ordered_trees(n: int) -> list:
    """All ordered trees with n vertices; there are s_{2n} of them.  Bound: n <= 7.

    Order: shape by shape, then lexicographic in the preorder label tuple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ORDERED_ENUM:
        raise BoundExceededError(f"ordered-tree enumeration bound is n <= {MAX_ORDERED_ENUM}")

    @lru_cache(maxsize=None)  # local to this call: subtrees recur with the same labels
    def labelings(shape, labels: tuple[int, ...]) -> tuple:
        # The root takes any label; the left subtree then takes the smallest
        # of the rest and the right subtree the others.
        if shape is None:
            return (None,)
        k = tree_size(shape.left)
        out = []
        for i, root in enumerate(labels):
            rest = labels[:i] + labels[i + 1 :]
            rights = labelings(shape.right, rest[k:])
            out.extend(LabeledTree(root, s, t) for s in labelings(shape.left, rest[:k]) for t in rights)
        return tuple(out)

    labels = tuple(range(1, n + 1))
    return [t for shape in enumerate_trees(n) for t in labelings(shape, labels)]


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
    """
    _require_ordered(s)
    _require_ordered(t)
    shifted = shift_labels(t, tree_size(s))
    terms = _prod_labeled(s, shifted)
    for term in terms:
        if not is_anti_increasing(term):
            raise AssertionError("product closure violated (internal error)")
    return dict(terms)


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


def _canonical_tensor(terms: Counter) -> dict:
    out: Counter = Counter()
    for (a, b), coef in terms.items():
        out[(canonical(a), canonical(b))] += coef
    return {k: v for k, v in out.items() if v}


def lr_coproduct(t: Tree) -> dict:
    """Coproduct of an ordered tree as a map (left, right) -> coefficient.

    Gradings add: size(left) + size(right) = size(t) in every term.
    """
    _require_ordered(t)
    terms = _cop_labeled(t)
    n = tree_size(t)
    for (a, b) in terms:
        if tree_size(a) + tree_size(b) != n:
            raise AssertionError("coproduct grading violated (internal error)")
    return _canonical_tensor(terms)


def counit(combination: dict) -> Fraction:
    """Projection onto the empty-tree component."""
    return Fraction(combination.get(None, 0))


@dataclass
class CheckResult:
    ok: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def _coassociativity_defect(t: Tree) -> dict:
    """(Delta x id) Delta t - (id x Delta) Delta t, nonzero triple terms only."""
    out: Counter = Counter()
    for (a, b), c in lr_coproduct(t).items():
        for (x, y), d in lr_coproduct(a).items():
            out[(x, y, b)] += c * d
        for (x, y), d in lr_coproduct(b).items():
            out[(a, x, y)] -= c * d
    return {k: v for k, v in out.items() if v}


def coassociativity_check(max_size: int) -> CheckResult:
    """(Delta x id) Delta = (id x Delta) Delta on all ordered trees of size <= max_size.

    The counterexample is (t, lhs - rhs) over the triples where they differ.
    """
    for n in range(max_size + 1):
        for t in enumerate_ordered_trees(n):
            diff = _coassociativity_defect(t)
            if diff:
                return CheckResult(False, (t, diff))
    return CheckResult(True)


def counit_check(max_size: int) -> CheckResult:
    """Both counit laws on all ordered trees of size <= max_size."""
    for n in range(max_size + 1):
        for t in enumerate_ordered_trees(n):
            cop = lr_coproduct(t)
            left = Counter()
            right = Counter()
            for (a, b), c in cop.items():
                if a is None:
                    left[b] += c
                if b is None:
                    right[a] += c
            if dict(left) != {t: 1} or dict(right) != {t: 1}:
                return CheckResult(False, t)
    return CheckResult(True)


def antipode(t: Tree) -> dict:
    """Antipode via the graded-connected recursion
    S(t) = -t - sum of S(t_(1)) * t_(2) over proper coproduct terms."""
    if t is None:
        return {None: 1}
    _require_ordered(t)
    out: Counter = Counter({t: -1})
    for (a, b), c in lr_coproduct(t).items():
        if a is None or b is None:
            continue
        for sa, ca in antipode(a).items():
            if sa is None:
                out[b] -= c * ca
                continue
            for w, cw in lr_product(sa, b).items():
                out[w] -= c * ca * cw
    return {k: v for k, v in out.items() if v}


def antipode_check(max_size: int) -> CheckResult:
    """m (S x id) Delta = unit . counit on all ordered trees of size <= max_size."""
    for n in range(max_size + 1):
        for t in enumerate_ordered_trees(n):
            acc: Counter = Counter()
            for (a, b), c in lr_coproduct(t).items():
                for sa, ca in antipode(a).items():
                    if sa is None:
                        acc[b] += c * ca
                    elif b is None:
                        acc[sa] += c * ca
                    else:
                        for w, cw in lr_product(sa, b).items():
                            acc[w] += c * ca * cw
            expected = {None: 1} if t is None else {}
            if {k: v for k, v in acc.items() if v} != expected:
                return CheckResult(False, t)
    return CheckResult(True)


# ------------------------------------------------- Brouder-Frabetti coproduct


def bf_over_labeled(s: Tree, t: Tree) -> Tree:
    """Graft s onto the leftmost leaf of t: s/(t1 v t2) = (s/t1) v t2."""
    if t is None:
        return s
    if s is None:
        return t
    return LabeledTree(t.label, bf_over_labeled(s, t.left), t.right)


def bf_over(s: Tree, t: Tree) -> Tree:
    """Associative product on ordered trees with the empty tree neutral."""
    _require_ordered(s)
    _require_ordered(t)
    result = bf_over_labeled(s, shift_labels(t, tree_size(s)))
    if not is_anti_increasing(result):
        raise AssertionError("bf product closure violated (internal error)")
    return result


def _bf_cop_labeled(t: Tree) -> Counter:
    """Charge coproduct on labeled trees.

    On a generator V_k(w) = graft(empty, k, w) with w = graft(s, l, t'):
    Delta(V_k(w)) = V_k(w) x empty
                  + (id x V_k)( Delta(s) / (Delta(V_l(t')) - V_l(t') x empty) ),
    where / acts on tensors componentwise; on a general tree it is
    multiplicative along the decomposition graft(s, k, w) = s / V_k(w).
    """
    if t is None:
        return Counter({(None, None): 1})
    if t.left is None:
        k, w = t.label, t.right
        out: Counter = Counter({(t, None): 1})
        if w is None:
            out[(None, t)] += 1
            return out
        a_terms = _bf_cop_labeled(w.left)
        b_terms = Counter(_bf_cop_labeled(LabeledTree(w.label, None, w.right)))
        b_terms[(LabeledTree(w.label, None, w.right), None)] -= 1
        b_terms = Counter({key: c for key, c in b_terms.items() if c})
        for (a1, a2), ca in a_terms.items():
            for (b1, b2), cb in b_terms.items():
                left = bf_over_labeled(a1, b1)
                right = LabeledTree(k, None, bf_over_labeled(a2, b2))
                out[(left, right)] += ca * cb
        return out
    a_terms = _bf_cop_labeled(t.left)
    b_terms = _bf_cop_labeled(LabeledTree(t.label, None, t.right))
    out = Counter()
    for (a1, a2), ca in a_terms.items():
        for (b1, b2), cb in b_terms.items():
            out[(bf_over_labeled(a1, b1), bf_over_labeled(a2, b2))] += ca * cb
    return out


def bf_coproduct(t: Tree) -> dict:
    """Charge coproduct of an ordered tree; gradings add in every term."""
    _require_ordered(t)
    terms = _bf_cop_labeled(t)
    n = tree_size(t)
    for (a, b) in terms:
        if tree_size(a) + tree_size(b) != n:
            raise AssertionError("charge coproduct grading violated (internal error)")
    return _canonical_tensor(terms)


# ------------------------------------------------------------- serialization


def tree_to_nested(t: Tree):
    """Nested-list form: None, [label] for a leaf, else [label, left, right]."""
    if t is None:
        return None
    if t.left is None and t.right is None:
        return [t.label]
    return [t.label, tree_to_nested(t.left), tree_to_nested(t.right)]


def tree_from_nested(data) -> Tree:
    if data is None:
        return None
    if not isinstance(data, (list, tuple)) or not data:
        raise ValueError(f"malformed tree encoding: {data!r}")
    label = data[0]
    if not isinstance(label, int) or isinstance(label, bool):
        raise ValueError(f"tree label must be an integer: {label!r}")
    if len(data) == 1:
        return LabeledTree(label)
    if len(data) == 3:
        return LabeledTree(label, tree_from_nested(data[1]), tree_from_nested(data[2]))
    raise ValueError(f"malformed tree encoding: {data!r}")

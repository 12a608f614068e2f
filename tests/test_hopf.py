import gc
import math
from collections import Counter
from itertools import permutations

import pytest

from freeprob.cumulants import gaussian_shifted_sequence
from freeprob import hopf
from freeprob.errors import BoundExceededError
from freeprob.trees import count_anti_increasing_labelings, enumerate_trees, tree_factorial
from freeprob.hopf import (
    MAX_ANTIPODE_SIZE,
    MAX_BF_COPRODUCT_SIZE,
    MAX_COPRODUCT_SIZE,
    MAX_LAW_SIZE,
    MAX_PRODUCT_SIZE,
    CheckResult,
    LabeledTree,
    antipode,
    antipode_check,
    bf_coproduct,
    bf_over,
    bf_over_labeled,
    canonical,
    coassociativity_check,
    counit,
    counit_check,
    enumerate_ordered_trees,
    graft,
    hilbert_dimension,
    is_anti_increasing,
    is_ordered,
    labels_of,
    lr_coproduct,
    lr_product,
    shift_labels,
    tree_from_nested,
    tree_size,
    tree_to_nested,
    _bf_cop_labeled,
    _cop_labeled,
    _prod_labeled,
)
from oracles import bf_coproduct_by_subtraction

N = LabeledTree
E = None  # the empty tree
V1 = N(1)


def test_anti_increasing_flag():
    # left-subtree labels must sit strictly below right-subtree labels
    assert is_anti_increasing(E)
    assert is_anti_increasing(V1)
    assert is_anti_increasing(N(3, N(1), N(2)))
    assert not is_anti_increasing(N(3, N(2), N(1)))
    assert not is_anti_increasing(N(1, N(2), N(2)))  # repeated label
    big = N(3, N(2, N(1), N(4)), N(7, N(5), N(6)))
    assert is_anti_increasing(big)
    assert is_ordered(big)


def test_graft():
    assert graft(E, 1, E) == V1
    t = graft(N(2), 3, N(1))
    assert t == N(3, N(2), N(1))
    assert tree_size(t) == 3
    with pytest.raises(ValueError):
        graft(N(1), 1, E)
    with pytest.raises(ValueError):
        graft(N(1), 2, N(1))


def test_canonical_relabels_by_rank():
    t = N(9, N(2), N(5))
    assert canonical(t) == N(3, N(1), N(2))


def test_hilbert_dimensions():
    s = gaussian_shifted_sequence(10)
    assert hilbert_dimension(0) == 1
    assert hilbert_dimension(1) == 1
    assert hilbert_dimension(2) == 4
    assert hilbert_dimension(3) == 27
    for n in range(6):
        assert hilbert_dimension(n) == s[2 * n]


def _labelings_by_filtering(shape):
    # every labeling of the shape, kept when anti-increasing; labelings run
    # through the permutations of 1..n assigned in preorder
    def label(shape, labels):
        if shape is None:
            return None
        left = label(shape.left, labels[1:])
        return N(labels[0], left, label(shape.right, labels[1 + tree_size(left):]))

    out = []
    for perm in permutations(range(1, tree_size(shape) + 1)):
        t = label(shape, perm)
        if is_anti_increasing(t):
            out.append(t)
    return out


def test_ordered_trees_match_filtered_labelings():
    for n in range(1, 6):
        filtered = [t for shape in enumerate_trees(n) for t in _labelings_by_filtering(shape)]
        assert enumerate_ordered_trees(n) == filtered
    assert hilbert_dimension(6) == 38232


def test_labeling_count_matches_brute_force():
    # count_anti_increasing_labelings is the tree factorial; the brute force
    # over all n! labelings is the independent oracle
    for n in range(0, 7):
        for shape in enumerate_trees(n):
            assert count_anti_increasing_labelings(shape) == len(_labelings_by_filtering(shape))


def test_hilbert_equals_chain_return_time_sum():
    from freeprob.chains import return_time_sum

    for n in range(1, 6):
        assert hilbert_dimension(n) == return_time_sum(n, "nt").total


# ---------------------------------------------------------------- product


def test_product_with_unit():
    t = N(2, N(1), None)
    assert lr_product(E, t) == {t: 1}
    assert lr_product(t, E) == {t: 1}


def test_product_vertex_vertex():
    out = lr_product(V1, V1)
    assert out == {N(1, None, N(2)): 1, N(2, N(1), None): 1}


def test_product_closure_and_grading():
    for m in range(0, 4):
        for n in range(0, 4 - m):
            for s in enumerate_ordered_trees(m):
                for t in enumerate_ordered_trees(n):
                    for term, coef in lr_product(s, t).items():
                        assert coef > 0
                        assert tree_size(term) == m + n
                        assert is_ordered(term)


def test_product_associative():
    trees = [(s, t, u)
             for a in range(0, 4)
             for b in range(0, 4 - a)
             for c in range(0, 4 - a - b)
             for s in enumerate_ordered_trees(a)
             for t in enumerate_ordered_trees(b)
             for u in enumerate_ordered_trees(c)]
    for s, t, u in trees:
        left = Counter()
        for w, c in lr_product(s, t).items():
            for v, d in lr_product(w, u).items():
                left[v] += c * d
        right = Counter()
        for w, c in lr_product(t, u).items():
            for v, d in lr_product(s, w).items():
                right[v] += c * d
        assert left == right


def test_product_label_choice_independence():
    for m in range(1, 4):
        for n in range(1, 5 - m):
            for s in enumerate_ordered_trees(m):
                for t in enumerate_ordered_trees(n):
                    reference = lr_product(s, t)
                    # same ordered trees, eccentric concrete labels
                    s2 = shift_labels(canonical(s), 0)
                    s2 = _relabel(s2, {i: 10 * i for i in range(1, m + 1)})
                    t2 = _relabel(canonical(t), {i: 1000 + 7 * i for i in range(1, n + 1)})
                    raw = _prod_labeled(s2, t2)
                    collapsed = Counter()
                    for term, coef in raw.items():
                        collapsed[canonical(term)] += coef
                    assert dict(collapsed) == reference


def _relabel(t, mapping):
    if t is None:
        return None
    return LabeledTree(mapping[t.label], _relabel(t.left, mapping), _relabel(t.right, mapping))


# ---------------------------------------------------------------- coproduct


def test_coproduct_empty_and_vertex():
    assert lr_coproduct(E) == {(E, E): 1}
    assert lr_coproduct(V1) == {(E, V1): 1, (V1, E): 1}


def test_coproduct_two_vertex_chain():
    t = N(1, N(2), None)
    assert lr_coproduct(t) == {(E, t): 1, (V1, V1): 1, (t, E): 1}


def test_coproduct_cherry_six_terms():
    # The three-vertex tree with root 3 and the smaller child on the left.
    t = N(3, N(1), N(2))
    expected = {
        (E, t): 1,
        (V1, N(2, N(1), None)): 1,
        (V1, N(2, None, N(1))): 1,
        (N(1, None, N(2)), V1): 1,
        (N(2, N(1), None), V1): 1,
        (t, E): 1,
    }
    assert lr_coproduct(t) == expected


def test_coproduct_rejects_non_ordered():
    with pytest.raises(ValueError):
        lr_coproduct(N(3, N(2), N(1)))


def test_coproduct_label_choice_independence():
    for n in range(1, 5):
        for t in enumerate_ordered_trees(n):
            reference = lr_coproduct(t)
            odd = _relabel(t, {i: 2 * i + 11 for i in range(1, n + 1)})
            raw = _cop_labeled(odd)
            collapsed = Counter()
            for (a, b), coef in raw.items():
                collapsed[(canonical(a), canonical(b))] += coef
            assert dict(collapsed) == reference


def test_grading_of_coproducts():
    for n in range(0, 5):
        for t in enumerate_ordered_trees(n):
            for (a, b), coef in lr_coproduct(t).items():
                assert coef > 0
                assert tree_size(a) + tree_size(b) == n
                assert is_ordered(a) and is_ordered(b)


def test_coassociativity_counit_antipode_laws():
    assert coassociativity_check(3)
    assert counit_check(4)
    assert antipode_check(4)


def test_coassociativity_size4():
    assert coassociativity_check(4)


def test_coassociativity_reports_defect(monkeypatch):
    # drop V1 x E from Delta(V1): sizes 0 and 1 still pass, and at the first
    # two-vertex tree t, with Delta t = E x t + V1 x V1 + t x E,
    # (Delta x id) Delta t - (id x Delta) Delta t = V1 x V1 x E - V1 x E x V1
    true_coproduct = hopf._coproduct

    def dropped(t):
        terms = true_coproduct(t)
        if t == V1:
            del terms[(V1, E)]
        return terms

    monkeypatch.setattr(hopf, "_coproduct", dropped)
    t = N(1, None, N(2))
    assert coassociativity_check(2) == CheckResult(False, (t, {(V1, V1, E): 1, (V1, E, V1): -1}))


def test_counit_reports_defect(monkeypatch):
    # doubling E x t in the coproduct of the cherry breaks the left counit
    # law there and nowhere before it
    cherry = N(3, N(1), N(2))
    true_coproduct = hopf._coproduct

    def doubled(t):
        terms = true_coproduct(t)
        if t == cherry:
            terms[(E, t)] = 2
        return terms

    monkeypatch.setattr(hopf, "_coproduct", doubled)
    assert counit_check(2)
    assert counit_check(3) == CheckResult(False, cherry)


def test_antipode_reports_defect(monkeypatch):
    # with the sign of S flipped at the first two-vertex tree t,
    # m (id x S) Delta t = 2 (t - V1 * V1) is nonzero
    t = N(1, None, N(2))
    true_antipode = hopf._antipode

    def flipped(u, *tables):
        terms = true_antipode(u, *tables)
        return {w: -c for w, c in terms.items()} if u == t else terms

    monkeypatch.setattr(hopf, "_antipode", flipped)
    assert antipode_check(1)
    assert antipode_check(2) == CheckResult(False, t)


def test_law_sweep_takes_each_coproduct_once(monkeypatch):
    # the coproduct of each of the 281 ordered trees of size <= 4 is taken
    # once, shared by the law and the antipode recursion; calling the public
    # antipode once per tree took 1,486
    seen = Counter()
    true_graded_tensor = hopf._graded_tensor

    def counted(cop, t, what):
        seen[t] += 1
        return true_graded_tensor(cop, t, what)

    monkeypatch.setattr(hopf, "_graded_tensor", counted)
    assert antipode_check(4)
    assert len(seen) == sum(hilbert_dimension(n) for n in range(5)) == 281
    assert set(seen.values()) == {1}


def test_law_bound_errors(monkeypatch):
    # the bound is checked before any tree is enumerated
    def no_trees(n):
        raise AssertionError("trees enumerated past the law bound")

    monkeypatch.setattr(hopf, "enumerate_ordered_trees", no_trees)
    for check in (coassociativity_check, counit_check, antipode_check):
        with pytest.raises(BoundExceededError, match=f"max_size <= {MAX_LAW_SIZE}"):
            check(MAX_LAW_SIZE + 1)
        with pytest.raises(BoundExceededError):
            check(99)


def _left_chain(n):
    t = None
    for k in range(1, n + 1):
        t = N(k, t, None)
    return t


def test_single_operation_bound_errors(monkeypatch):
    # the bound is checked before any work: at the bound the work starts (and
    # meets the tripwire on its first step, the operand check), one vertex
    # above it BoundExceededError is raised
    class Reached(Exception):
        pass

    def tripwire(t):
        raise Reached

    monkeypatch.setattr(hopf, "_require_ordered", tripwire)
    cases = [
        (antipode, MAX_ANTIPODE_SIZE, 0),
        (lr_coproduct, MAX_COPRODUCT_SIZE, 0),
        (bf_coproduct, MAX_BF_COPRODUCT_SIZE, 0),
        (lambda t: lr_product(t, N(1)), MAX_PRODUCT_SIZE, 1),  # the right factor's vertex
    ]
    for op, bound, other in cases:
        with pytest.raises(Reached):
            op(_left_chain(bound - other))
        with pytest.raises(BoundExceededError, match=f"bound is {bound} vertices"):
            op(_left_chain(bound - other + 1))
    # the benchmark's operands have at most 5 vertices each
    assert min(MAX_ANTIPODE_SIZE, MAX_COPRODUCT_SIZE, MAX_BF_COPRODUCT_SIZE) >= 5
    assert MAX_PRODUCT_SIZE >= 10


def test_single_operation_bounds_refuse_deep_chains():
    # a left chain of 2,500 vertices, far deeper than the recursion limit: the
    # door check stops counting one vertex past the bound
    deep = _left_chain(2500)
    ops = [antipode, lr_coproduct, bf_coproduct, lambda t: lr_product(t, None), lambda t: lr_product(N(1), t)]
    for op in ops:
        with pytest.raises(BoundExceededError, match="bound is"):
            op(deep)


def test_counit_projection():
    assert counit({None: 3, V1: 5}) == 3
    assert counit({V1: 5}) == 0


def test_antipode_small_values():
    assert antipode(E) == {E: 1}
    assert antipode(V1) == {V1: -1}


def recursive_antipode(t):
    """Oracle: S(t) = -t - sum of S(t_(1)) * t_(2) over proper coproduct
    terms, recursing through the public operations with no table."""
    if t is None:
        return {None: 1}
    out = Counter()
    for (a, b), c in lr_coproduct(t).items():
        if (a, b) == (t, None):
            continue
        for sa, ca in recursive_antipode(a).items():
            prod = {sa or b: 1} if sa is None or b is None else lr_product(sa, b)
            for w, cw in prod.items():
                out[w] -= c * ca * cw
    return {k: v for k, v in out.items() if v}


def test_antipode_matches_recursive_oracle():
    trees = [t for n in range(5) for t in enumerate_ordered_trees(n)]
    trees += enumerate_ordered_trees(5)[::100]  # 29 of the 2,830 size-5 trees
    for t in trees:
        assert antipode(t) == recursive_antipode(t)


def _balanced(labels):
    # the largest label at the root, the smallest half of the rest on the left
    if not labels:
        return None
    k = (len(labels) - 1) // 2
    return N(labels[-1], _balanced(labels[:k]), _balanced(labels[k:-1]))


def test_antipode_takes_each_subtree_once(monkeypatch):
    # each antipode computed takes one coproduct of its tree; on this
    # balanced 8-vertex tree the table-free recursion took 17,202 coproducts
    # of 88 distinct trees
    seen = Counter()
    true_graded_tensor = hopf._graded_tensor

    def counted(cop, t, what):
        seen[t] += 1
        return true_graded_tensor(cop, t, what)

    monkeypatch.setattr(hopf, "_graded_tensor", counted)
    t = _balanced(list(range(1, 9)))
    assert tree_to_nested(t) == [8, [3, [1], [2]], [7, [4], [6, None, [5]]]]
    assert len(antipode(t)) == 454
    assert len(seen) == 88
    assert set(seen.values()) == {1}


def test_relabeling_leaves_no_cycles():
    # canonical and shift_labels are freed by reference counting alone
    trees = enumerate_ordered_trees(4)
    gc.disable()
    try:
        gc.collect()
        for t in trees:
            canonical(shift_labels(t, 5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_leaves_no_cycles():
    # the labeling memo is a plain dict of the call, freed by reference counting
    gc.disable()
    try:
        gc.collect()
        assert len(enumerate_ordered_trees(6)) == 38232
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_labeled_tree_hash_equality_and_repr():
    a, b = N(3, N(1), N(2)), N(3, N(1), N(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((3, N(1), N(2)))
    assert a != N(3, N(2), N(1)) and a != N(4, N(1), N(2))
    assert repr(N(1, None, N(2))) == (
        "LabeledTree(label=1, left=None, right=LabeledTree(label=2, left=None, right=None))")
    # the hash is stored, not recomputed down the tree: a chain far deeper
    # than the recursion limit is a dict key
    deep = None
    for k in range(1, 2501):
        deep = N(k, deep, None)
    table = {deep: 1, deep.left: 2}
    assert table[deep] == 1 and table[deep.left] == 2
    assert hash(deep) == hash((2500, deep.left, None))


def test_labeled_tree_equality_walks_deep_chains():
    # chains built apart, far deeper than the recursion limit
    def chain(labels):
        t = None
        for k in labels:
            t = N(k, t, None)
        return t

    labels = list(range(2500, 0, -1))
    a, b = chain(labels), chain(labels)
    assert a is not b and a == b and not a != b
    differ = chain([0] + labels[1:])  # only the deepest label differs
    assert a != differ and not a == differ
    assert a != N(1) and a.__eq__(None) is NotImplemented


def test_order_checks_walk_deep_chains():
    # a left chain of 2,500 vertices, far deeper than the recursion limit
    def chain(bottom, labels):
        t = bottom
        for k in labels:
            t = N(k, t, None)
        return t

    n = 2500
    ordered = chain(None, range(1, n + 1))
    assert is_ordered(ordered) and is_anti_increasing(ordered)
    assert labels_of(ordered) == frozenset(range(1, n + 1))
    breach = chain(N(1, N(3), N(2)), range(4, n + 1))  # only the deepest vertex breaks order
    assert not is_ordered(breach) and not is_anti_increasing(breach)
    assert not is_ordered(chain(None, range(2, n + 2)))  # labels not 1..n


def test_relabeling_grafting_and_serialization_walk_deep_chains():
    # a left chain of 2,500 vertices, far deeper than the recursion limit
    n = 2500
    deep = _left_chain(n)
    assert tree_size(deep) == n and tree_factorial(deep) == math.factorial(n)
    shifted = shift_labels(deep, 10)
    assert labels_of(shifted) == frozenset(range(11, n + 11)) and canonical(shifted) == deep
    nested = tree_to_nested(deep)
    assert nested[0] == n and nested[2] is None
    assert tree_from_nested(nested) == deep
    assert bf_over(deep, deep) == _left_chain(2 * n)


# ------------------------------------------------- Brouder-Frabetti


def test_bf_over_neutral_and_vertex():
    t = N(1, None, N(2))
    assert bf_over(E, t) == t
    assert bf_over(t, E) == t
    assert bf_over(V1, V1) == N(2, N(1), None)


def test_bf_over_associative():
    for a in range(0, 4):
        for b in range(0, 4 - a):
            for c in range(0, 4 - a - b):
                for s in enumerate_ordered_trees(a):
                    for t in enumerate_ordered_trees(b):
                        for u in enumerate_ordered_trees(c):
                            assert bf_over(bf_over(s, t), u) == bf_over(s, bf_over(t, u))


def test_bf_coproduct_single_vertex():
    assert bf_coproduct(V1) == {(V1, E): 1, (E, V1): 1}


def test_bf_coproduct_printed_examples():
    # right chain: primitive-like, no middle term
    right = N(1, None, N(2))
    assert bf_coproduct(right) == {(right, E): 1, (E, right): 1}

    # left chain: middle coefficient 2
    left = N(1, N(2), None)
    assert bf_coproduct(left) == {(left, E): 1, (V1, V1): 2, (E, left): 1}

    # zig: root with a right child that has a left child
    zig = N(1, None, N(2, N(3), None))
    assert bf_coproduct(zig) == {
        (zig, E): 1,
        (V1, N(1, None, N(2))): 1,
        (E, zig): 1,
    }


def test_bf_coproduct_grading():
    for n in range(0, 5):
        for t in enumerate_ordered_trees(n):
            for (a, b), coef in bf_coproduct(t).items():
                assert tree_size(a) + tree_size(b) == n
                assert is_ordered(a) and is_ordered(b)


def test_bf_counit_laws():
    for n in range(0, 5):
        for t in enumerate_ordered_trees(n):
            cop = bf_coproduct(t)
            left = Counter()
            right = Counter()
            for (a, b), c in cop.items():
                if a is None:
                    left[b] += c
                if b is None:
                    right[a] += c
            assert dict(left) == {t: 1}
            assert dict(right) == {t: 1}


def _left_chain(n):
    t = None
    for label in range(1, n + 1):
        t = N(label, t, None)
    return t


def test_bf_one_rule_matches_subtraction_oracle():
    # exact labeled terms, not only their canonical forms
    trees = [t for n in range(6) for t in enumerate_ordered_trees(n)]
    assert len(trees) == 3111
    trees += [_left_chain(n) for n in range(6, 13)]
    for t in trees:
        assert _bf_cop_labeled(t) == bf_coproduct_by_subtraction(t)


def test_bf_multiplicative():
    # Delta_BF(s / t) = Delta_BF(s) / Delta_BF(t), componentwise on tensors
    for m in range(0, 3):
        for n in range(0, 3):
            for s in enumerate_ordered_trees(m):
                for t in enumerate_ordered_trees(n):
                    tt = shift_labels(t, m)
                    lhs = Counter()
                    for (a, b), c in _bf_cop_labeled(bf_over_labeled(s, tt)).items():
                        lhs[(canonical(a), canonical(b))] += c
                    rhs = Counter()
                    for (a1, a2), ca in _bf_cop_labeled(s).items():
                        for (b1, b2), cb in _bf_cop_labeled(tt).items():
                            key = (
                                canonical(bf_over_labeled(a1, b1)),
                                canonical(bf_over_labeled(a2, b2)),
                            )
                            rhs[key] += ca * cb
                    assert lhs == rhs


def _monotone(t):
    # labels decrease from root to leaves; exactly one such ordered labeling
    # per shape, so these span a copy of the plain binary-tree algebra
    if t is None:
        return True
    for child in (t.left, t.right):
        if child is not None and not (child.label < t.label and _monotone(child)):
            return False
    return True


def test_monotone_trees_closed_under_charge_structure():
    import math

    for n in range(0, 5):
        monotone = [t for t in enumerate_ordered_trees(n) if _monotone(t)]
        assert len(monotone) == math.comb(2 * n, n) // (n + 1)
        for t in monotone:
            for (a, b) in bf_coproduct(t):
                assert _monotone(a) and _monotone(b)
    for m in range(0, 3):
        for n in range(0, 3):
            for s in enumerate_ordered_trees(m):
                for t in enumerate_ordered_trees(n):
                    if _monotone(s) and _monotone(t):
                        assert _monotone(bf_over(s, t))


# ------------------------------------------------- serialization


def test_nested_round_trip():
    t = N(3, N(2, N(1), N(4)), N(7, N(5), N(6)))
    nested = tree_to_nested(t)
    assert nested == [3, [2, [1], [4]], [7, [5], [6]]]
    assert tree_from_nested(nested) == t
    assert tree_from_nested(None) is None
    with pytest.raises(ValueError):
        tree_from_nested([1, [2]])


@pytest.mark.parametrize("label", [1.5, True, None, [1], "1"])
def test_tree_from_nested_rejects_non_integer_labels(label):
    with pytest.raises(ValueError, match="integer"):
        tree_from_nested([label])
    with pytest.raises(ValueError, match="integer"):
        tree_from_nested([2, [label], None])

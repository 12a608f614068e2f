import itertools
import math

import pytest

from freeprob import partitions
from freeprob.errors import BoundExceededError
from freeprob.partitions import (
    LatticeKind,
    LatticeMembershipError,
    LatticeOrderError,
    Partition,
    bottom_partition,
    classify,
    count_connected_pairings,
    enumerate_pairings,
    enumerate_partitions,
    moebius,
    refines,
    statistics,
    top_partition,
    _is_interval,
    _is_noncrossing,
)
from oracles import block_index, moebius_by_zeta_sweep, partitions_by_rgs

ALL = LatticeKind.ALL
NC = LatticeKind.NONCROSSING
INT = LatticeKind.INTERVAL


def bell(n):
    # brute-force Bell numbers via the triangle recurrence
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[-1] if n >= 1 else 1


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_enumerate_partitions_counts():
    assert enumerate_partitions(1, ALL) == [Partition.of(1, [[1]])]
    assert len(enumerate_partitions(3, ALL)) == 5
    for n in range(1, 9):
        assert len(enumerate_partitions(n, ALL)) == bell(n)
        assert len(enumerate_partitions(n, NC)) == catalan(n)
        assert len(enumerate_partitions(n, INT)) == 2 ** (n - 1)
    assert len(enumerate_partitions(4, NC)) == 14


def test_enumeration_is_deterministic_and_duplicate_free():
    for kind in (ALL, NC, INT):
        ps = enumerate_partitions(5, kind)
        assert ps == enumerate_partitions(5, kind)
        assert len(set(ps)) == len(ps)


def test_enumeration_bound_errors():
    with pytest.raises(BoundExceededError, match="11"):
        enumerate_partitions(12, ALL)
    with pytest.raises(BoundExceededError, match="13"):
        enumerate_partitions(14, NC)
    with pytest.raises(BoundExceededError, match="21"):
        enumerate_partitions(22, INT)
    with pytest.raises(BoundExceededError):
        enumerate_pairings(16)
    with pytest.raises(BoundExceededError, match="14"):
        count_connected_pairings(16)


def test_moebius_enumerates_no_lattice_at_n_1000(monkeypatch):
    # no size bound: the product formula reads the two partitions alone
    def no_enumeration(n, kind=ALL):
        raise AssertionError("moebius enumerated a lattice")

    monkeypatch.setattr(partitions, "enumerate_partitions", no_enumeration)
    n = 1000
    b, t = bottom_partition(n), top_partition(n)
    assert moebius(ALL, b, t) == (-1) ** (n - 1) * math.factorial(n - 1)
    assert moebius(NC, b, t) == (-1) ** (n - 1) * catalan(n - 1)
    assert moebius(INT, b, t) == (-1) ** (n - 1)
    crossing = Partition.of(n, [[1, 3], [2, 4]] + [[x] for x in range(5, n + 1)])
    with pytest.raises(LatticeMembershipError):
        moebius(NC, crossing, t)


def test_canonical_form():
    p = Partition.of(4, [[4, 2], [3, 1]])
    assert p.blocks == ((1, 3), (2, 4))
    q = Partition.of(4, [[1, 3], [2, 4]])
    assert p == q and hash(p) == hash(q)
    with pytest.raises(ValueError):
        Partition.of(3, [[1, 2]])
    with pytest.raises(ValueError):
        Partition.of(2, [[1], [1, 2]])


def test_pairing_counts_double_factorial():
    assert enumerate_pairings(2) == [Partition.of(2, [[1, 2]])]
    assert enumerate_pairings(3) == []
    for n in range(2, 15, 2):
        expected = math.prod(range(n - 1, 0, -2))
        assert len(enumerate_pairings(n)) == expected
    assert len(enumerate_pairings(4)) == 3
    assert len(enumerate_pairings(6)) == 15


def test_restricted_pairings_match_the_filter():
    # generated directly, in the order of the filtered full enumeration,
    # and already canonical
    for n in range(2, 13, 2):
        pairings = enumerate_pairings(n)
        for kind, flag in ((NC, "noncrossing"), (INT, "interval")):
            direct = enumerate_pairings(n, kind)
            assert direct == [p for p in pairings if getattr(classify(p), flag)]
            assert all(Partition(p.n, p.blocks).blocks == p.blocks for p in direct)
        assert len(enumerate_pairings(n, NC)) == math.comb(n, n // 2) // (n // 2 + 1)
    assert enumerate_pairings(3, NC) == []
    with pytest.raises(BoundExceededError):
        enumerate_pairings(16, NC)


def test_classify_examples():
    f = classify(Partition.of(4, [[1, 3], [2, 4]]))
    assert f.connected and f.irreducible and not f.noncrossing

    f = classify(Partition.of(4, [[1, 4], [2, 3]]))
    assert f.irreducible and not f.connected and f.noncrossing

    f = classify(Partition.of(4, [[1, 2], [3, 4]]))
    assert f.interval and f.noncrossing and not f.irreducible


def test_statistics_examples():
    s = statistics(Partition.of(4, [[1, 3], [2, 4]]))
    assert s.cc == 1 and s.cr == 1

    s = statistics(Partition.of(4, [[1, 2], [3, 4]]))
    assert s.cc == 2 and s.cr == 0 and s.h == 2

    s = statistics(Partition.of(6, [[1, 6], [2, 5], [3, 4]]))
    assert s.cc == 3 and s.h == 3
    assert s.ip[(1, 6)] == 4
    assert s.ip[(2, 5)] == 2
    assert s.ip[(3, 4)] == 0


def _connected_by_definition(p):
    # independent route: no proper subinterval of {1..n} is a union of blocks
    spans = {b: set(b) for b in p.blocks}
    for a in range(1, p.n + 1):
        for b in range(a, p.n + 1):
            if a == 1 and b == p.n:
                continue
            interval = set(range(a, b + 1))
            union = set()
            for blk, elems in spans.items():
                if elems <= interval:
                    union |= elems
            if union == interval:
                return False
    return True


def test_connected_matches_subinterval_definition():
    for n in range(1, 8):
        for p in enumerate_partitions(n, ALL):
            assert classify(p).connected == _connected_by_definition(p)


def test_connected_implies_irreducible():
    for n in range(1, 11):
        for p in enumerate_partitions(n, ALL):
            f = classify(p)
            if f.connected:
                assert f.irreducible
            if f.interval:
                assert f.noncrossing


def _crossings_by_quadruples(p):
    # independent route: test all C(n, 4) quadruples a<b<c<d
    owner = block_index(p)
    return sum(
        1
        for a, b, c, d in itertools.combinations(range(1, p.n + 1), 4)
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]
    )


def test_noncrossing_iff_components_are_single_blocks():
    for n in range(1, 11):
        for p in enumerate_partitions(n, ALL):
            s = statistics(p)
            noncrossing = classify(p).noncrossing
            assert noncrossing == (s.cc == len(p.blocks))
            assert noncrossing == _is_noncrossing(p)


def test_crossing_count_matches_quadruple_oracle():
    for n in range(1, 9):
        for p in enumerate_partitions(n, ALL):
            assert statistics(p).cr == _crossings_by_quadruples(p)
    for n in range(2, 11, 2):
        for p in enumerate_pairings(n):
            assert statistics(p).cr == _crossings_by_quadruples(p)


def test_refines_matches_block_containment():
    for n in range(1, 6):
        lattice = enumerate_partitions(n, ALL)
        for sigma in lattice:
            for pi in lattice:
                contained = all(any(set(b) <= set(c) for c in pi.blocks) for b in sigma.blocks)
                assert refines(sigma, pi) == contained
    assert not refines(bottom_partition(2), top_partition(3))


def test_count_connected_pairings_known_values():
    assert [count_connected_pairings(k) for k in (2, 4, 6, 8, 10)] == [1, 1, 4, 27, 248]
    assert count_connected_pairings(12) == 2830


def test_count_connected_pairings_matches_filter():
    for n in range(2, 13, 2):
        direct = sum(1 for p in enumerate_pairings(n) if classify(p).connected)
        assert count_connected_pairings(n) == direct


def test_moebius_diagonal_and_small_values():
    for n in range(1, 5):
        for kind in (ALL, NC, INT):
            for p in enumerate_partitions(n, kind):
                assert moebius(kind, p, p) == 1

    assert moebius(ALL, bottom_partition(3), top_partition(3)) == 2
    assert moebius(NC, bottom_partition(4), top_partition(4)) == -5


def test_moebius_product_formula_cross_checks():
    # full lattice: mu(0,1) = (-1)^(n-1) (n-1)!; noncrossing: signed Catalan;
    # interval: (-1)^(n-1)
    for n in range(1, 7):
        b, t = bottom_partition(n), top_partition(n)
        assert moebius(ALL, b, t) == (-1) ** (n - 1) * math.factorial(n - 1)
        assert moebius(NC, b, t) == (-1) ** (n - 1) * catalan(n - 1)
        assert moebius(INT, b, t) == (-1) ** (n - 1)


def test_moebius_sum_vanishes_below_top():
    for n in range(2, 7):
        for kind in (ALL, NC, INT):
            lattice = enumerate_partitions(n, kind)
            pi = top_partition(n)
            total = sum(moebius(kind, s, pi) for s in lattice if refines(s, pi))
            assert total == 0
    # and on a non-trivial subinterval of the full lattice
    pi = Partition.of(4, [[1, 2, 3], [4]])
    total = sum(
        moebius(ALL, s, pi) for s in enumerate_partitions(4, ALL) if refines(s, pi)
    )
    assert total == 0


def _comparable_pairs(kind, n):
    lattice = enumerate_partitions(n, kind)
    return [(s, p) for p in lattice for s in lattice if refines(s, p)]


def test_moebius_full_lattice_matches_product_formula():
    # [sigma, pi] in the full lattice is a product of full lattices, one per
    # block B of pi, each on the k_B sigma-blocks inside B
    for n in range(1, 6):
        for sigma, pi in _comparable_pairs(ALL, n):
            expected = 1
            for block in pi.blocks:
                k = sum(1 for b in sigma.blocks if b[0] in block)
                expected *= (-1) ** (k - 1) * math.factorial(k - 1)
            assert moebius(ALL, sigma, pi) == expected


def test_moebius_interval_lattice_is_boolean():
    # interval partitions <-> subsets of the n-1 gaps, so mu is a sign
    for n in range(1, 6):
        for sigma, pi in _comparable_pairs(INT, n):
            assert moebius(INT, sigma, pi) == (-1) ** (len(sigma.blocks) - len(pi.blocks))


def test_moebius_noncrossing_row_sums_vanish():
    # the fixed-sigma row identity, the dual of the column sweep's defining one
    for n in range(1, 6):
        lattice = enumerate_partitions(n, NC)
        for sigma, pi in _comparable_pairs(NC, n):
            if sigma == pi:
                continue
            row = [tau for tau in lattice if refines(sigma, tau) and refines(tau, pi)]
            assert sum(moebius(NC, sigma, tau) for tau in row) == 0


def test_moebius_matches_zeta_sweep_oracle():
    # every comparable pair: the full lattice to n = 6, noncrossing to 7, interval to 9
    pairs = 0
    for kind, top in ((ALL, 6), (NC, 7), (INT, 9)):
        for n in range(1, top + 1):
            for pi in enumerate_partitions(n, kind):
                for sigma, mu in moebius_by_zeta_sweep(kind, pi).items():
                    assert moebius(kind, sigma, pi) == mu, (kind, sigma, pi)
                    pairs += 1
    assert pairs == 22270


def test_direct_generation_matches_filtered_enumeration():
    for n in range(1, 9):
        every = enumerate_partitions(n, ALL)
        assert enumerate_partitions(n, NC) == [p for p in every if _is_noncrossing(p)]
        assert enumerate_partitions(n, INT) == [p for p in every if _is_interval(p)]


@pytest.mark.parametrize("kind, top", [(ALL, 9), (NC, 11), (INT, 14)], ids=["all", "nc", "int"])
def test_level_generation_matches_rgs_oracle(kind, top):
    for n in range(1, top + 1):
        assert enumerate_partitions(n, kind) == partitions_by_rgs(n, kind)


def test_generated_partitions_pass_full_validation():
    for kind in (ALL, NC, INT):
        for n in range(1, 8):
            for p in enumerate_partitions(n, kind):
                assert Partition.of(n, p.blocks) == p  # re-sorted and checked in full


def test_moebius_errors():
    a = Partition.of(4, [[1, 2], [3, 4]])
    b = Partition.of(4, [[1, 3], [2, 4]])
    with pytest.raises(LatticeOrderError):
        moebius(ALL, a, b)
    with pytest.raises(LatticeMembershipError):
        moebius(NC, b, top_partition(4))


def test_partition_json_round_trip():
    p = Partition.of(4, [[1, 3], [2, 4]])
    assert p.to_json() == [[1, 3], [2, 4]]

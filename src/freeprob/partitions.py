"""Set partitions of {1..n}: enumeration, crossing statistics, Moebius functions.

Partitions are kept in canonical form (each block sorted, block list sorted by
least element) so equality, hashing and enumeration order are reproducible.
Three lattices are supported, all ordered by refinement: the full partition
lattice, the noncrossing lattice and the interval lattice.

Connectivity follows the crossing graph: two blocks are adjacent iff they
cross, and the connected components of a partition are the components of that
graph.  A partition is connected iff it has a single component, which is
equivalent to "no proper subinterval of {1..n} is a union of blocks".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "Partition",
    "LatticeKind",
    "PartitionFlags",
    "PartitionStats",
    "BoundExceededError",
    "LatticeOrderError",
    "LatticeMembershipError",
    "enumerate_partitions",
    "enumerate_pairings",
    "classify",
    "statistics",
    "count_connected_pairings",
    "moebius",
    "refines",
    "top_partition",
    "bottom_partition",
]

# Enumeration cutoffs; larger requests raise BoundExceededError naming the bound.
# Each is the largest n whose enumeration fits in about 30 s and 1.5 GB
# (about 13-18 us and 0.5-0.9 KB per Partition on a 2-core machine).
MAX_ENUM_ALL = 11
MAX_ENUM_NONCROSSING = 13
MAX_ENUM_INTERVAL = 21
MAX_ENUM_PAIRING = 14

# Moebius cutoffs: one column mu(., top) costs time quadratic in the lattice
# size; each is the largest n whose top column fits in about 30 s and 1.5 GB
# (10 s / 14 s / 12 s and under 25 MB at the bound on a 2-core machine).
MAX_MOEBIUS_ALL = 8
MAX_MOEBIUS_NONCROSSING = 9
MAX_MOEBIUS_INTERVAL = 13


class BoundExceededError(Exception):
    """An enumeration request exceeded the documented resource bound."""


class LatticeOrderError(ValueError):
    """Moebius query on a pair that is not comparable in the lattice."""


class LatticeMembershipError(ValueError):
    """Partition does not belong to the requested lattice."""


class LatticeKind(Enum):
    ALL = "all"
    NONCROSSING = "noncrossing"
    INTERVAL = "interval"


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical block order."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canon)
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x in seen:
                    raise ValueError(f"element {x} repeated")
                seen.add(x)
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks do not cover 1..{self.n}: {canon}")

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(n, tuple(tuple(b) for b in blocks))

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "Partition":
        """Trusted constructor for blocks already in canonical order: no re-sort, no check."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "blocks", blocks)
        return p

    def block_index(self) -> dict[int, int]:
        """Map element -> index of its block in canonical order."""
        out: dict[int, int] = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return out

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


class PartitionFlags(NamedTuple):
    connected: bool
    irreducible: bool
    noncrossing: bool
    interval: bool


class PartitionStats(NamedTuple):
    cc: int
    cr: int
    h: int
    ip: dict


def top_partition(n: int) -> Partition:
    return Partition.of(n, [range(1, n + 1)])


def bottom_partition(n: int) -> Partition:
    # The singleton partition is the bottom of all three lattices.
    return Partition.of(n, [[i] for i in range(1, n + 1)])


def _rgs_iter(n: int, kind: LatticeKind = LatticeKind.ALL):
    """Restricted-growth strings of the partitions of the given kind, in
    lexicographic order.

    The open-block stack holds the blocks the next element may still join;
    it may always open a new block instead.  No block ever closes for ALL,
    opening a block closes every earlier one for INTERVAL, and joining a
    block closes every block above it on the stack for NONCROSSING (a later
    element in one of those would cross the joined block).
    """
    assignment = [0] * n

    def rec(i: int, opened: int, stack: tuple[int, ...]):
        if i == n:
            yield tuple(assignment)
            return
        for pos, b in enumerate(stack):
            assignment[i] = b
            yield from rec(i + 1, opened, stack[: pos + 1] if kind is LatticeKind.NONCROSSING else stack)
        assignment[i] = opened
        yield from rec(i + 1, opened + 1, (opened,) if kind is LatticeKind.INTERVAL else stack + (opened,))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 1, (0,))


def _partition_from_rgs(rgs: tuple[int, ...]) -> Partition:
    # Elements join blocks in increasing order and blocks open in order of
    # their least element, so the blocks come out canonical.
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for x, b in enumerate(rgs, 1):
        blocks[b].append(x)
    return Partition._canonical(len(rgs), tuple(map(tuple, blocks)))


def enumerate_partitions(n: int, kind: LatticeKind = LatticeKind.ALL) -> list[Partition]:
    """All partitions of {1..n} of the given kind, in a fixed deterministic order.

    The order is lexicographic in the restricted-growth string of the
    partition.  Bounds: n <= 11 (ALL), n <= 13 (NONCROSSING), n <= 21
    (INTERVAL).
    """
    if n < 1:
        raise ValueError("n must be positive")
    bound = {
        LatticeKind.ALL: MAX_ENUM_ALL,
        LatticeKind.NONCROSSING: MAX_ENUM_NONCROSSING,
        LatticeKind.INTERVAL: MAX_ENUM_INTERVAL,
    }[kind]
    if n > bound:
        raise BoundExceededError(f"enumeration bound for {kind.value} partitions is n <= {bound}")
    return [_partition_from_rgs(rgs) for rgs in _rgs_iter(n, kind)]


def enumerate_pairings(n: int) -> list[Partition]:
    """All pairings (perfect matchings) of {1..n}; empty for odd n.

    Count is (n-1)!! for even n.  Bound: n <= 14.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUM_PAIRING:
        raise BoundExceededError(f"pairing enumeration bound is n <= {MAX_ENUM_PAIRING}")
    if n % 2:
        return []

    out: list[Partition] = []
    pairs: list[tuple[int, int]] = []

    # Each pair opens at the least remaining element: the pairs come out canonical.
    def rec(remaining: tuple[int, ...]):
        if not remaining:
            out.append(Partition._canonical(n, tuple(pairs)))
            return
        first = remaining[0]
        for j in range(1, len(remaining)):
            pairs.append((first, remaining[j]))
            rec(remaining[1:j] + remaining[j + 1 :])
            pairs.pop()

    rec(tuple(range(1, n + 1)))
    return out


def _crossings(b1: tuple[int, ...], b2: tuple[int, ...]) -> int:
    """Number of quadruples a<b<c<d with a,c in one block and b,d in the other.

    One merged pass over the two sorted blocks counts the patterns XYXY and
    YXYX by their prefixes: x, xy, xyx for b1 leading, y, yx, yxy for b2.
    """
    if b1[-1] < b2[0] or b2[-1] < b1[0]:
        return 0
    total = x = y = xy = yx = xyx = yxy = i = j = 0
    while i < len(b1) or j < len(b2):
        if j == len(b2) or (i < len(b1) and b1[i] < b2[j]):
            total += yxy
            xyx += xy
            yx += y
            x += 1
            i += 1
        else:
            total += xyx
            yxy += yx
            xy += x
            y += 1
            j += 1
    return total


def _components(p: Partition) -> tuple[list[list[int]], int]:
    """Components of the crossing graph, as sorted lists of block indices,
    and the total crossing count; p is noncrossing iff that count is 0."""
    k = len(p.blocks)
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for i in range(k):
        for j in range(i + 1, k):
            cr = _crossings(p.blocks[i], p.blocks[j])
            if cr:
                total += cr
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values()), total


def _is_interval(p: Partition) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def classify(p: Partition) -> PartitionFlags:
    """Connectivity/irreducibility/noncrossing/interval flags of a partition.

    connected: single crossing-graph component (equivalently no proper
    subinterval of {1..n} is a union of blocks); irreducible: 1 and n lie in
    the same component; noncrossing: no two blocks cross; interval: every
    block is an integer interval.  connected => irreducible and
    interval => noncrossing.
    """
    comps, cr = _components(p)
    last = next(i for i, b in enumerate(p.blocks) if b[-1] == p.n)
    return PartitionFlags(
        connected=len(comps) == 1,
        irreducible=last in comps[0],  # comps[0] holds block 0, the block of 1
        noncrossing=cr == 0,
        interval=_is_interval(p),
    )


def statistics(p: Partition) -> PartitionStats:
    """Crossing statistics of a partition.

    cc: number of crossing-graph components; cr: number of quadruples
    a<b<c<d with a,c in one block and b,d in a different block; h: number of
    components consisting of exactly one 2-element block; ip: per-block count
    of inner points (elements strictly between the block minimum and maximum
    that do not belong to the block).
    """
    comps, cr = _components(p)
    h = sum(1 for comp in comps if len(comp) == 1 and len(p.blocks[comp[0]]) == 2)
    ip = {block: block[-1] - block[0] + 1 - len(block) for block in p.blocks}
    return PartitionStats(cc=len(comps), cr=cr, h=h, ip=ip)


def count_connected_pairings(two_n: int) -> int:
    """Number of connected pairings of {1..two_n}, by direct enumeration.

    These are the counts 1, 1, 4, 27, 248, 2830, ... (OEIS A000699) for
    two_n = 2, 4, 6, ...; the value is 1 for two_n = 0 and 0 for odd input.
    Bound: two_n <= 14.
    """
    if two_n == 0:
        return 1
    if two_n % 2:
        return 0
    if two_n > MAX_ENUM_PAIRING:
        raise BoundExceededError(f"connected-pairing count bound is two_n <= {MAX_ENUM_PAIRING}")
    return sum(1 for p in enumerate_pairings(two_n) if len(_components(p)[0]) == 1)


def refines(sigma: Partition, pi: Partition) -> bool:
    """True iff every block of sigma is contained in a block of pi."""
    return sigma.n == pi.n and _below(_masks(sigma)[0], _masks(pi)[1])


def _member(kind: LatticeKind, p: Partition) -> bool:
    if kind is LatticeKind.ALL:
        return True
    if kind is LatticeKind.NONCROSSING:
        return _components(p)[1] == 0
    return _is_interval(p)


def _masks(p: Partition) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(lowest element, bitmask) of each block of p, and the block mask of every element."""
    blocks = tuple((b[0] - 1, sum(1 << (x - 1) for x in b)) for b in p.blocks)
    cover = [0] * p.n
    for block, (_, mask) in zip(p.blocks, blocks):
        for x in block:
            cover[x - 1] = mask
    return blocks, tuple(cover)


def _below(blocks: tuple[tuple[int, int], ...], cover: tuple[int, ...]) -> bool:
    """Bitmask refinement test: each block lies in the block holding its lowest element."""
    return all(cover[low] & mask == mask for low, mask in blocks)


@lru_cache(maxsize=32)
def _lattice(kind: LatticeKind, n: int) -> tuple:
    """The lattice elements with their block masks, sorted by block count."""
    return tuple(sorted(((p, *_masks(p)) for p in enumerate_partitions(n, kind)), key=lambda e: len(e[1])))


@lru_cache(maxsize=128)
def _moebius_column(kind: LatticeKind, pi: Partition) -> dict[Partition, int]:
    """mu(tau, pi) for every lattice element tau <= pi, by one top-down zeta sweep.

    Elements come fewest blocks first, so pi leads and every rho with
    tau < rho <= pi precedes tau; then mu(tau, pi) is minus the sum of
    mu(rho, pi) over those rho.  (Equal block counts are comparable only
    when equal, so no rank test is needed.)
    """
    pi_cover = _masks(pi)[1]
    column: dict[Partition, int] = {}
    above: list[tuple[tuple[int, ...], int]] = []
    for tau, blocks, cover in _lattice(kind, pi.n):
        if not _below(blocks, pi_cover):
            continue
        mu = 1 if tau == pi else -sum(m for rho_cover, m in above if _below(blocks, rho_cover))
        column[tau] = mu
        above.append((cover, mu))
    return column


def moebius(kind: LatticeKind, sigma: Partition, pi: Partition) -> int:
    """Moebius function mu(sigma, pi) of the chosen lattice, by zeta inversion.

    Read off the column mu(., pi), swept top-down from mu(pi, pi) = 1 and
    sum over tau <= rho <= pi of mu(rho, pi) = 0 for tau < pi; the last
    128 columns are kept.  Bounds: n <= 8 (ALL), n <= 9 (NONCROSSING),
    n <= 13 (INTERVAL); larger n raises BoundExceededError.
    Raises LatticeMembershipError if either argument is not in the lattice
    and LatticeOrderError if sigma does not refine pi.
    """
    if sigma.n != pi.n:
        raise LatticeOrderError("partitions live on different ground sets")
    bound = {
        LatticeKind.ALL: MAX_MOEBIUS_ALL,
        LatticeKind.NONCROSSING: MAX_MOEBIUS_NONCROSSING,
        LatticeKind.INTERVAL: MAX_MOEBIUS_INTERVAL,
    }[kind]
    if pi.n > bound:
        raise BoundExceededError(f"Moebius bound for the {kind.value} lattice is n <= {bound}")
    for q in (sigma, pi):
        if not _member(kind, q):
            raise LatticeMembershipError(f"{q} is not in the {kind.value} lattice")
    if not refines(sigma, pi):
        raise LatticeOrderError(f"{sigma} does not refine {pi}")
    return _moebius_column(kind, pi)[sigma]

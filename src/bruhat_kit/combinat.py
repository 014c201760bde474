"""Partitions, compositions, descent compositions and Kostka numbers.

Partitions and compositions are plain tuples of positive integers; a
partition is weakly decreasing and never stores trailing zeros.  The
empty tuple is the unique object of weight 0.  Compositions with equal
part multisets are distinct objects (only symmetric functions collapse
them).  Inside computations a composition of n is its descent set (its
partial sums below n, as bits of an int); refining a composition adds bits.
"""

from collections import Counter
from functools import cache
from itertools import accumulate, product
from math import factorial

from .errors import EmptyChain

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x <= 0 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {p}")
    return p


def as_composition(parts) -> Composition:
    """Validate a composition given as any iterable."""
    c = tuple(map(int, parts))
    if c and min(c) <= 0:
        raise ValueError(f"composition parts must be positive: {c}")
    return c


def descent_set(comp: Composition) -> int:
    """The partial sums of comp below its weight, as the bits of an int."""
    return sum(1 << s for s in accumulate(comp[:-1]))


def from_descent_set(mask: int, n: int) -> Composition:
    """The composition of n whose descent set is mask, read off its set bits."""
    parts, prev = [], 0
    while mask:
        cut = (mask & -mask).bit_length() - 1
        parts.append(cut - prev)
        prev = cut
        mask &= mask - 1
    return tuple(parts + [n - prev]) if n else ()


def descent_mask(labels) -> int:
    """The descent set of a label sequence: bit i for labels[i-1] > labels[i]."""
    mask, bit, labels = 0, 1, iter(labels)
    last = next(labels, None)
    for label in labels:
        bit <<= 1
        if last > label:
            mask |= bit
        last = label
    return mask


def refines(alpha: Composition, beta: Composition) -> bool:
    """True iff alpha refines beta: equal weights, beta's descent set inside alpha's.

    >>> refines((1, 2, 1), (3, 1))
    True
    >>> refines((1, 3), (3, 1))
    False
    """
    b = descent_set(beta)
    return sum(alpha) == sum(beta) and descent_set(alpha) & b == b


def descent_composition(labels) -> Composition:
    """Composition of len(labels) breaking exactly at strict descents.

    >>> descent_composition((1, 2, 0))
    (2, 1)
    >>> descent_composition((3, 2, 1))
    (1, 1, 1)
    """
    labels = tuple(labels)
    if not labels:
        raise EmptyChain("descent composition of an empty label sequence")
    return from_descent_set(descent_mask(labels), len(labels))


def refinements(beta: Composition) -> list[Composition]:
    """All compositions alpha with refines(alpha, beta), by increasing descent set."""
    n, mask = sum(beta), descent_set(beta)
    return [from_descent_set(m, n) for m in range(0, 1 << n, 2) if m & mask == mask]


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of n (parts <= max_part) in decreasing lex order.

    >>> partitions_of(3)
    [(3,), (2, 1), (1, 1, 1)]
    >>> partitions_of(4, 2)
    [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = n if max_part is None else min(max_part, n)
    if n and cap < 1:
        return []
    # next partition: drop the trailing 1s, lower the last part, refill greedily under it
    out, parts, rest = [], [], n
    while True:
        while rest:
            parts.append(min(rest, parts[-1] if parts else cap))
            rest -= parts[-1]
        out.append(tuple(parts))
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return out
        parts[-1] -= 1
        rest += 1


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal weight: prefix sums of lam >= mu."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


@cache
def kostka(lam: Partition, mu: Composition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu.

    Counts tableaux by peeling the cells holding the largest letter, a
    horizontal strip lam/nu of mu[-1] cells: lam[i+1] <= nu[i] <= lam[i].
    Memoization keys on the (shape, content) pair.  Content may be any
    composition; weights must agree or the count is 0.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    rest, size = mu[:-1], sum(lam) - mu[-1]
    total = 0
    for nu in product(*(range(lo, hi + 1) for hi, lo in zip(lam, lam[1:] + (0,)))):
        if sum(nu) == size:
            total += kostka(tuple(x for x in nu if x), rest)  # zeros trail
    return total


def distinct_rearrangements(lam: Partition) -> set[Composition]:
    """All compositions with the same part multiset as lam.

    Steps through them in lexicographic order from sorted(lam) by
    next-permutation, so each one is built once.
    """
    a = sorted(lam)
    out = {tuple(a)}
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.add(tuple(a))


def rearrangement_count(lam: Partition) -> int:
    """Number of distinct rearrangements of lam: len(lam)! / prod(m_i!)."""
    count = factorial(len(lam))
    for m in Counter(lam).values():
        count //= factorial(m)
    return count

"""Weak order on 0-grassmannians, the cyclic Pieri rule and k-Schur data.

The weak order is restricted to 0-grassmannian points: a cover
u -> u*s_i needs the length to rise by one and the product to stay
grassmannian.  Pieri steps are weak chains whose generator labels are
cyclically increasing on the clock with hours 0..k.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from . import combinat, qsym
from .affineperm import (AffinePermutation, is_grassmannian, kbounded_from_core,
                         length_affine, to_core)
from .combinat import Partition
from .errors import KMismatch, MOutOfRange, NotGrassmannian, NotUnitriangular
from .interval import HasseDAG


def weak_covers(u: AffinePermutation) -> list[tuple[int, AffinePermutation]]:
    """All (i, u*s_i) raising length by one and staying 0-grassmannian."""
    if not is_grassmannian(u):
        raise NotGrassmannian(f"{u.text()} is not 0-grassmannian")
    return [(i, v) for i in range(u.k + 1) if (v := _chain_end(u, (i,))) is not None]


def is_cyclically_increasing(labels, k: int) -> bool:
    """Distinct hours read clockwise, with the smallest missing hour as the cut.

    At most k of the k+1 hours may be used, and they must stand in their
    cyclic_order, which lists each hour once, so a repeated hour fails.
    """
    labels = tuple(labels)
    if not 1 <= len(labels) <= k:
        return False
    if any(not 0 <= x <= k for x in labels):
        return False
    return labels == cyclic_order(labels, k)


def cyclic_order(hours, k: int) -> tuple[int, ...]:
    """The unique cyclically increasing arrangement of a set of hours."""
    hours = set(hours)
    if not 1 <= len(hours) <= k:
        raise ValueError(f"need between 1 and k distinct hours, got {sorted(hours)}")
    j0 = min(set(range(k + 1)) - hours)
    return tuple(sorted(hours, key=lambda x: (x - j0) % (k + 1)))


def _chain_end(u: AffinePermutation, labels) -> AffinePermutation | None:
    """Follow weak covers along the given labels; None if any step fails."""
    x = u
    for i in labels:
        if not x(i) < x(i + 1):  # needs a right ascent, so that the length goes up
            return None
        x = x.right_multiply_s(i)
        if not is_grassmannian(x):
            return None
    return x


@lru_cache(maxsize=1 << 12)
def _segment_counts(u: AffinePermutation, m: int) -> tuple:
    """Endpoint counts of cyclically increasing weak m-chains from u.

    Endpoints come in the order of their first hour set, so for m = 1 the
    items are the weak covers of u by ascending i, each counted once.
    """
    acc: dict[AffinePermutation, int] = {}
    for hours in combinations(range(u.k + 1), m):
        end = _chain_end(u, cyclic_order(hours, u.k))
        if end is not None:
            acc[end] = acc.get(end, 0) + 1
    return tuple(acc.items())


def pieri_kschur(u: AffinePermutation, m: int) -> list[AffinePermutation]:
    """Endpoints of the cyclically increasing weak chains of length m from u."""
    if not 1 <= m <= u.k:
        raise MOutOfRange(f"need 1 <= m <= k={u.k}, got {m}")
    if not is_grassmannian(u):
        raise NotGrassmannian(f"{u.text()} is not 0-grassmannian")
    return sorted((v for v, c in _segment_counts(u, m) for _ in range(c)),
                  key=lambda x: x.window)


def grassmannians_of_length(k: int, d: int) -> list[AffinePermutation]:
    """All 0-grassmannians of the given length, by breadth-first weak growth."""
    layer = {AffinePermutation.identity(k)}
    for _ in range(d):
        layer = {v for u in layer for v, _ in _segment_counts(u, 1)}
    return sorted(layer, key=lambda x: x.window)


def random_grassmannian(k: int, length: int, rng) -> AffinePermutation:
    """A random weak-order walk of the given length from the identity.

    Each step draws one of the weak covers of u listed by ascending i;
    seeded relation sweeps depend on that order.
    """
    u = AffinePermutation.identity(k)
    for _ in range(length):
        u = rng.choice(_segment_counts(u, 1))[0]
    return u


def kbounded_of(u: AffinePermutation) -> Partition:
    """The k-bounded partition attached to u through its core."""
    return kbounded_from_core(to_core(u))


class KMatrix(namedtuple("KMatrix", "k degree rows columns entries")):
    """Counts of iterated Pieri chains: row lam, column u, entry K(lam, u).

    Rows are the k-bounded partitions of the degree; columns are the
    0-grassmannians of that length, ordered through the same partitions
    by the core correspondence, which makes the matrix unitriangular.
    """

    __slots__ = ()

    def entry(self, lam: Partition, u: AffinePermutation) -> int:
        return self.entries.get((tuple(lam), u), 0)

    def is_unitriangular(self) -> bool:
        for i, lam in enumerate(self.rows):
            if self.entry(lam, self.columns[i]) != 1:
                return False
            if any(self.entry(lam, self.columns[j]) for j in range(i + 1, len(self.rows))):
                return False
        return True


def k_matrix(k: int, degree: int) -> KMatrix:
    """The triangular matrix linking h products to iterated Pieri endpoints.

    Row lam counts the endpoints of Pieri steps from the identity, one
    step for each part of lam.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    # decreasing lex extends dominance, which the back substitution relies on
    rows = combinat.partitions_of(degree, max_part=k)
    by_partition = {kbounded_of(u): u for u in grassmannians_of_length(k, degree)}
    columns = [by_partition[lam] for lam in rows]
    entries: dict[tuple[Partition, AffinePermutation], int] = {}
    for lam in rows:
        state = {AffinePermutation.identity(k): 1}
        for part in lam:
            nxt: dict[AffinePermutation, int] = {}
            for u, c in state.items():
                for v, ways in _segment_counts(u, part):
                    nxt[v] = nxt.get(v, 0) + c * ways
            state = nxt
        entries.update(((lam, u), c) for u, c in state.items())
    return KMatrix(k, degree, rows, columns, entries)


def invert_k_matrix(km: KMatrix) -> dict[Partition, qsym.SymFn]:
    """Integer h-expansions of all k-Schur functions of the matrix, by row partition.

    Back substitution along decreasing lex order (a dominance extension),
    which is exactly the order in which the matrix is unitriangular.
    """
    if not km.is_unitriangular():
        raise NotUnitriangular(f"Pieri matrix at k={km.k}, degree {km.degree} "
                               "is not unitriangular")
    exprs: dict[Partition, dict[Partition, int]] = {}
    for i, lam in enumerate(km.rows):
        expr = {lam: 1}
        for j in range(i):
            if c := km.entry(lam, km.columns[j]):
                for mu, d in exprs[km.rows[j]].items():
                    expr[mu] = expr.get(mu, 0) - c * d
        exprs[lam] = expr
    return {lam: qsym.SymFn("h", expr) for lam, expr in exprs.items()}


def kschur_in_h(u: AffinePermutation) -> qsym.SymFn:
    """Integer h-expansion of the k-Schur function indexed by u.

    Builds and inverts the whole degree-l(u) matrix on every call; for many
    columns, call invert_k_matrix(k_matrix(k, degree)) once instead.
    """
    return invert_k_matrix(k_matrix(u.k, length_affine(u)))[kbounded_of(u)]


def k_function_weak(u: AffinePermutation, w: AffinePermutation) -> qsym.QuasiSymFn:
    """The weak-order interval function, defined in the monomial basis.

    The coefficient of M_alpha counts weak chains from u to w that split
    into cyclically increasing runs of sizes alpha.  Descent sequences
    are not well defined on the weak order, so no F-basis shortcut
    exists; any F view must go through the basis change.

    A forward DP over the one-step Hasse DAG's layers counts, per vertex,
    the runs reaching it by descent set (a run from depth d > 0 sets bit d),
    looking runs up once per vertex and length.  A u that is not
    0-grassmannian gives the empty DAG: every point above u in the right
    weak order keeps u's left descents (Bjorner-Brenti 2005).
    """
    if u.k != w.k:
        raise KMismatch(f"k mismatch: {u.k} vs {w.k}")
    n = length_affine(w) - length_affine(u) if is_grassmannian(u) else -1
    dag = HasseDAG(u, w, n, lambda x, _: [(None, None, y) for y, _ in _segment_counts(x, 1)])
    alive = {x for layer in dag.layers for x in layer}
    states = {x: {0: 1} for x in dag.layers[0]}
    for depth, layer in enumerate(dag.layers[:-1]):
        cut = 1 << depth if depth else 0
        for x in layer:
            here = states.pop(x)
            for part in range(1, min(n - depth, u.k) + 1):
                for y, ways in _segment_counts(x, part):
                    if y in alive:
                        there = states.setdefault(y, {})
                        for mask, c in here.items():
                            there[mask | cut] = there.get(mask | cut, 0) + c * ways
    ends = states.get(w, {}).items()
    return qsym.from_descent_sets(qsym.M, (((n, mask), c) for mask, c in ends))

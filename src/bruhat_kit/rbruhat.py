"""Finite permutations, the r-Bruhat order and its chain calculus.

A cover in the r-Bruhat order swaps two values a < b sitting on either
side of position r while raising the length by one; the edge label is b.
The chains of an interval are read off its Hasse DAG (see interval.py),
for which this module supplies the covers.  The DAG's vertices are image
tuples padded with fixed points to the interval's size; a vertex's steps
are read off its tuple, and the positional rule shared with the affine
order (interval.nothing_between) decides whether a swap is a cover.
first_chain walks the same DAG, taking at each vertex the step whose a
stands last at or before r, then whose b stands first after r; on the
intervals of interval_from_zeta that is the greedy recursion, and it
raises EmptyInterval exactly when the interval is empty.
Chains are stored in application order (first step first).  Rendered
operator words follow the right-to-left convention, so the displayed
word lists the last step first.
"""

from collections import namedtuple

from . import qsym
from .errors import CapExceeded, EmptyInterval, IdentityInput
from .interval import DEFAULT_CAP, HasseDAG, nothing_between


class FinitePermutation:
    """A permutation of the positive integers fixing all but finitely many."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = _strip_fixed_tail(tuple(int(x) for x in images))
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {images}")
        self.images = images

    @classmethod
    def identity(cls) -> "FinitePermutation":
        return cls(())

    def __call__(self, i: int) -> int:
        if 1 <= i <= len(self.images):
            return self.images[i - 1]
        return i

    def __len__(self):
        return len(self.images)

    def inverse(self) -> "FinitePermutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return FinitePermutation(inv)

    def __mul__(self, other: "FinitePermutation") -> "FinitePermutation":
        n = max(len(self.images), len(other.images))
        return FinitePermutation(tuple(self(other(i)) for i in range(1, n + 1)))

    def position(self, value: int) -> int:
        """Position of a value (values beyond the support are fixed)."""
        if 1 <= value <= len(self.images):
            return self.images.index(value) + 1
        return value

    def __eq__(self, other):
        if not isinstance(other, FinitePermutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"FinitePermutation({list(self.images)})"

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.images) if self.images else "1"


def _strip_fixed_tail(images: tuple) -> tuple:
    """Drop the trailing fixed points, so each permutation has one image tuple."""
    n = len(images)
    while n and images[n - 1] == n:
        n -= 1
    return images[:n]


def _padded(u: FinitePermutation, n: int) -> tuple:
    """The images u(1), ..., u(max(n, len(u)))."""
    im = u.images
    return im + tuple(range(len(im) + 1, n + 1))


def parse_permutation(text: str) -> FinitePermutation:
    """Parse a space- or comma-separated one-line permutation."""
    parts = text.replace(",", " ").split()
    return FinitePermutation(int(p) for p in parts)


def length(u: FinitePermutation) -> int:
    """Coxeter length = number of inversions."""
    im = u.images
    return sum(1 for i in range(len(im)) for j in range(i + 1, len(im)) if im[i] > im[j])


def swap_values(u: FinitePermutation, a: int, b: int) -> FinitePermutation:
    """Left multiplication by the transposition of values a and b."""
    im = list(_padded(u, max(a, b)))
    pa, pb = im.index(a), im.index(b)
    im[pa], im[pb] = im[pb], im[pa]
    return FinitePermutation(im)


def is_cover(u: FinitePermutation, a: int, b: int) -> bool:
    """True when swapping the values a < b raises the length by exactly one:
    a stands left of b and no value between them stands between them."""
    pa, pb = u.position(a), u.position(b)
    return pa < pb and nothing_between(_padded(u, pb), pa - 1, pb - 1)


def apply_u(u: FinitePermutation, a: int, b: int, r: int):
    """One r-Bruhat cover step: swap values a < b across position r.

    Returns the new permutation, or None when the step is not a cover
    (None plays the role of the operator's zero).
    """
    if not a < b:
        raise ValueError("need a < b")
    if not (u.position(a) <= r < u.position(b)) or not is_cover(u, a, b):
        return None
    return swap_values(u, a, b)


class SchubertChain(namedtuple("SchubertChain", "start steps")):
    """A saturated r-Bruhat chain: start point plus value pairs in application order."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.steps)

    def end(self) -> FinitePermutation:
        u = self.start
        for a, b in self.steps:
            u = swap_values(u, a, b)
        return u

    def render_steps(self) -> str:
        return " ".join(f"t({a},{b})" for a, b in self.steps)

    def render_word(self) -> str:
        """Operator word, rightmost letter applied first."""
        return " ".join(_u_letter(a, b) for a, b in reversed(self.steps))


def _u_letter(a: int, b: int) -> str:
    if a <= 9 and b <= 9:
        return f"u{a}{b}"
    return f"u({a},{b})"


def interval_from_zeta(zeta: FinitePermutation):
    """Build the canonical nonempty interval (u, w, r) attached to zeta.

    r counts the values pulled leftward by zeta; w sorts those values
    ahead of their complement and u = zeta^{-1} w, so that w u^{-1} = zeta
    and the chain steps multiply to zeta.
    """
    if not zeta.images:
        raise IdentityInput("zeta must not be the identity")
    n = len(zeta.images)
    zinv = zeta.inverse()
    up = [a for a in range(1, n + 1) if zinv(a) < a]
    r = len(up)
    rest = [j for j in range(1, n + 1) if j not in set(up)]
    w = FinitePermutation(up + rest)
    u = zinv * w
    return u, w, r


def first_chain(u: FinitePermutation, w: FinitePermutation, r: int) -> SchubertChain:
    """The canonical chain of [u, w]_r, a greedy walk of its Hasse DAG.

    Of the steps on a chain to w, each takes a from the largest position
    i <= r, then b from the smallest position j > r.  On the intervals of
    interval_from_zeta this is the greedy recursion: i is the last position
    <= r with x(i) < w(i), j the first > r with x(j) > x(i) >= w(j).
    Raises EmptyInterval exactly when the interval is empty.
    """
    dag = interval_dag(u, w, r)
    if not dag.layers[-1]:
        raise EmptyInterval(f"no chain from {u.images} to {w.images} at r={r}")
    x, steps = dag.start, []
    for _ in range(dag.rank):
        at = x.index
        step, _, x = max(dag.succ[x], key=lambda s: (at(s[0][0]), -at(s[0][1])))
        steps.append(step)
    return SchubertChain(u, tuple(steps))


def _cover_steps(xi: tuple, wi: tuple, r: int):
    """The cover steps from x that stay entrywise between x and w, as
    ((a, b), b, y) triples sorted by (a, b), where y is xi with a and b swapped.

    xi and wi hold x(1..n) and w(1..n).  Position i <= r gains b and
    position j > r drops to a, so b <= w(i) and a >= w(j); a position i
    with x(i) >= w(i) has no step.
    """
    steps = []
    for i in range(r):
        a, top = xi[i], wi[i]
        if a >= top:
            continue
        for j in range(r, len(wi)):
            b = xi[j]
            if b <= top and a >= wi[j] and nothing_between(xi, i, j):
                y = list(xi)
                y[i], y[j] = b, a
                steps.append(((a, b), b, tuple(y)))
    steps.sort()
    return steps


def interval_dag(u: FinitePermutation, w: FinitePermutation, r: int) -> HasseDAG:
    """The Hasse DAG of [u, w]_r; steps are (a, b) pairs labeled b.

    Vertices are image tuples x(1..n) padded with fixed points to the
    interval's size n, so the DAG's start, end and layers hold tuples,
    not FinitePermutations.  The rewrite relations are deliberately not
    used here so they stay an independent check on the chain set.
    """
    n = max(len(u.images), len(w.images), r + 1)
    budget = length(w) - length(u)
    ui, wi = _padded(u, n), _padded(w, n)
    if any(ui[i] > wi[i] for i in range(r)) or any(ui[j] < wi[j] for j in range(r, n)):
        budget = -1
    return HasseDAG(ui, wi, budget, lambda xi, _: _cover_steps(xi, wi, r))


def all_chains(u: FinitePermutation, w: FinitePermutation, r: int,
               cap: int = DEFAULT_CAP) -> list[SchubertChain]:
    """Every saturated chain of [u, w]_r, sorted lexicographically by steps.

    Raises CapExceeded before listing anything when there are more than
    cap chains.
    """
    dag = interval_dag(u, w, r)
    dag.check_cap(cap, "chain")
    return [SchubertChain(u, steps) for steps in dag.walks()]


def k_function_r(u: FinitePermutation, w: FinitePermutation, r: int,
                 cap: int = DEFAULT_CAP) -> qsym.QuasiSymFn:
    """Sum of F over the descent compositions of all chain label sequences.
    Cap as in all_chains."""
    return qsym.f_sum(c.labels for c in all_chains(u, w, r, cap=cap))


# Rewrite rules on step words (application order).  The three-letter
# relations exchange a braid-like pattern; the two-letter relation
# commutes steps whose value intervals are disjoint or strictly nested.

def rewrite_schubert(word, rule: str, position: int):
    """Apply one rewrite rule at a position of a step word.

    Returns the rewritten word, or None when the rule does not match
    there.  Words are tuples of (a, b) value pairs in application order;
    both directions of each rule are recognized.
    """
    word = tuple(word)
    if rule == "R3":
        if position + 2 > len(word):
            return None
        (x1, y1), (x2, y2) = word[position], word[position + 1]
        lo, hi = sorted([(x1, y1), (x2, y2)])
        disjoint = lo[1] < hi[0]
        nested = lo[0] < hi[0] and hi[1] < lo[1]
        if not (disjoint or nested):
            return None
        return word[:position] + ((x2, y2), (x1, y1)) + word[position + 2:]
    if rule not in ("R1", "R2"):
        raise ValueError(f"unknown rewrite rule {rule!r}")
    if position + 3 > len(word):
        return None
    s1, s2, s3 = word[position:position + 3]
    repl = None
    if rule == "R1":
        # pattern (a,c)(c,d)(b,c)  <->  (b,c)(a,b)(b,d)  for a<b<c<d
        if s1[1] == s2[0] == s3[1] and s1[0] < s3[0] < s1[1] < s2[1]:
            a, b, c, d = s1[0], s3[0], s1[1], s2[1]
            repl = ((b, c), (a, b), (b, d))
        elif s1[0] == s2[1] == s3[0] and s2[0] < s1[0] < s1[1] < s3[1]:
            a, b, c, d = s2[0], s1[0], s1[1], s3[1]
            repl = ((a, c), (c, d), (b, c))
    else:
        # pattern (b,c)(c,d)(a,c)  <->  (b,d)(a,b)(b,c)  for a<b<c<d
        if s1[1] == s2[0] == s3[1] and s3[0] < s1[0] < s1[1] < s2[1]:
            a, b, c, d = s3[0], s1[0], s1[1], s2[1]
            repl = ((b, d), (a, b), (b, c))
        elif s2[1] == s1[0] == s3[0] and s2[0] < s1[0] < s3[1] < s1[1]:
            a, b, c, d = s2[0], s1[0], s3[1], s1[1]
            repl = ((b, c), (c, d), (a, c))
    if repl is None:
        return None
    return word[:position] + repl + word[position + 3:]


def rewrite_neighbours(word) -> list[tuple[tuple[int, int], ...]]:
    """All words reachable from this one by a single rewrite."""
    out = []
    for rule in ("R1", "R2", "R3"):
        for pos in range(len(word)):
            res = rewrite_schubert(word, rule, pos)
            if res is not None:
                out.append(res)
    return out


def rewrite_closure(word, cap: int = DEFAULT_CAP) -> set:
    """Transitive closure of a word under the rewrite rules."""
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        cur = stack.pop()
        for nxt in rewrite_neighbours(cur):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > cap:
                    raise CapExceeded(f"rewrite closure cap {cap} exceeded")
                stack.append(nxt)
    return seen


def is_zero_word(word) -> bool:
    """True if the word contains a factor forcing the operator product to zero.

    Two-step factors with interleaved value intervals kill every chain,
    as do the three-step palindromes sharing a middle value.
    """
    word = tuple(word)
    for i in range(len(word) - 1):
        (x1, y1), (x2, y2) = word[i], word[i + 1]
        lo, hi = sorted([(x1, y1), (x2, y2)])
        # (a,c)(b,d) with a <= b < c <= d, in either order
        if lo[0] <= hi[0] < lo[1] <= hi[1]:
            return True
    for i in range(len(word) - 2):
        s1, s2, s3 = word[i:i + 3]
        if s1 == s3:
            a1, b1 = s1
            a2, b2 = s2
            if (b2 == a1 and a2 < b2 < b1) or (a2 == b1 and a1 < a2 < b2):
                return True
    return False

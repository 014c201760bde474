"""The affine 0-Bruhat directed multigraph and its operator calculus.

Vertices are affine permutations; there is an edge u -> u*t(a,b) labeled
b for every representative pair (a, b) of a residue class with
0 < b - a <= k such that the step is a Bruhat cover and u(a) <= 0 < u(b)
(zero counts as nonpositive).  Distinct representatives of one class
give parallel edges with distinct labels but the same endpoints.

A vertex's out-edges are read off its window: _classes builds u(1..2(k+1))
once and reads every class's shift range and cover test from that tuple.

Operator words act on the right, so words apply left to right.  Path
counts, path lists and the K function are read off the interval's Hasse
DAG (see interval.py), whose vertices are windows.  Among 0-grassmannians
the order is containment of (k+1)-cores, so the DAG grows forward from u
and keeps only targets whose core fits inside the core of w; it reads each
vertex once and tests each distinct target once.
"""

from collections import namedtuple

from . import qsym
from .affineperm import (AffinePermutation, is_grassmannian, length_affine, to_core,
                         window_transpose)
from .errors import BadPair, CapExceeded, KMismatch, NotGrassmannian, PatternMismatch
from .interval import DEFAULT_CAP, HasseDAG, nothing_between
from .kschur import random_grassmannian


def _check_pair(k: int, a: int, b: int) -> None:
    if not a < b:
        raise BadPair(f"need a < b, got ({a}, {b})")
    if b - a > k:
        raise BadPair(f"gap {b - a} exceeds k={k} for ({a}, {b})")


def is_bruhat_cover(u: AffinePermutation, a: int, b: int) -> bool:
    """Cover criterion: u(a) < u(b) and no interior value lies between them."""
    _check_pair(u.k, a, b)
    return nothing_between([u(i) for i in range(a, b + 1)], 0, b - a)


def apply_t(u: AffinePermutation, a: int, b: int):
    """Right multiplication by t(a,b) when it is a 0-Bruhat cover, else None.
    Reads u(i) = window[(i-1) mod (k+1)] + (k+1) floor((i-1)/(k+1)) off the window."""
    _check_pair(u.k, a, b)
    n, window = u.k + 1, u.window
    lo = window[(a - 1) % n] + (a - 1) // n * n
    if lo > 0:
        return None
    hi = window[(b - 1) % n] + (b - 1) // n * n
    if hi <= 0:  # lo <= 0 < hi, so only the interior is left to test
        return None
    for i in range(a, b - 1):  # i + 1 runs over the positions between a and b
        if lo < window[i % n] + i // n * n < hi:
            return None
    return u.right_transpose(a, b)


def apply_word(u: AffinePermutation, word):
    """Fold apply_t over a word of pairs; None is absorbing."""
    x = u
    for a, b in word:
        x = apply_t(x, a, b)
        if x is None:
            return None
    return x


class AffineEdge(namedtuple("AffineEdge", "a b target")):
    """One multigraph edge: the chosen representative pair and its target."""

    __slots__ = ()

    @property
    def label(self) -> int:
        return self.b


def _classes(window: tuple) -> list:
    """(a0, b0, shifts) for each class of pairs (a0, b0), 1 <= a0 <= k+1 and
    0 < b0 - a0 <= k, with edges out of the u with this window, by a0, then b0.

    The representatives (a0 + s, b0 + s) with u(a0 + s) <= 0 < u(b0 + s) are
    the shifts s = m(k+1), m_lo <= m <= m_hi; the range is finite because the
    entries of each class are unbounded in both directions.  The cover
    criterion is invariant under shifting both endpoints by k+1, so it is
    tested once per class, at m = 0, on the values u(1), ..., u(2(k+1)).
    """
    n = len(window)
    vals = window + tuple(v + n for v in window)
    found = []
    for a0 in range(1, n + 1):
        m_hi = (-vals[a0 - 1]) // n
        for b0 in range(a0 + 1, a0 + n):
            m_lo = -((vals[b0 - 1] - 1) // n)
            if m_lo <= m_hi and nothing_between(vals, a0 - 1, b0 - 1):
                found.append((a0, b0, range(m_lo * n, (m_hi + 1) * n, n)))
    return found


def out_edges(u: AffinePermutation) -> list[AffineEdge]:
    """Every edge leaving u, class by class (see _classes), each in shift order."""
    edges = []
    for a0, b0, shifts in _classes(u.window):
        target = u.right_transpose(a0, b0)
        edges += [AffineEdge(a0 + s, b0 + s, target) for s in shifts]
    return edges


def edge_representatives(u: AffinePermutation, a: int, b: int) -> list[AffineEdge]:
    """All parallel edges of the residue class of (a, b), in shift order."""
    n = u.k + 1
    a0 = (a - 1) % n + 1
    _check_pair(u.k, a0, a0 + (b - a))
    return [e for e in out_edges(u) if e.b - e.a == b - a and (e.a - a0) % n == 0]


class AffinePath(namedtuple("AffinePath", "start edges")):
    """A chain in the multigraph: start vertex plus edges in order."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple([e.b for e in self.edges])

    @property
    def steps(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.a, e.b) for e in self.edges)

    def end(self) -> AffinePermutation:
        return self.edges[-1].target if self.edges else self.start


def _fits(inner, outer) -> bool:
    """Whether the Young diagram of inner lies inside that of outer."""
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def interval_dag(u: AffinePermutation, w: AffinePermutation,
                 cap: int = DEFAULT_CAP) -> HasseDAG:
    """The Hasse DAG of [u, w]; vertices are windows, steps AffineEdges labeled b.

    The DAG grows forward from u.  The 0-grassmannians are closed under
    out-edges (test_grassmannian_closure_exhaustive: k <= 4, length <= 6),
    so to_core reads u, w and every target, and raises NotGrassmannian for
    one that is not.  A target is kept when its core fits inside the core
    of w, which is exactly when it lies below w; each distinct target is
    tested once, and its edges share one AffinePermutation.  HasseDAG then
    drops what does not reach w.  At most cap vertices are expanded.
    """
    if u.k != w.k:
        raise KMismatch(f"k mismatch: {u.k} vs {w.k}")
    bottom = to_core(u).partition  # before w's, so a bad u is named first
    top = to_core(w).partition
    budget = length_affine(w) - length_affine(u)
    if budget < 0 or not _fits(bottom, top):
        return HasseDAG(u.window, w.window, -1, None)
    below = {}  # target window -> its AffinePermutation if it lies below w, else None
    expanded = 0

    def steps(x, depth):
        nonlocal expanded
        expanded += 1
        if expanded > cap:
            raise CapExceeded(f"interval vertex cap {cap} exceeded "
                              f"at depth {depth} of rank {budget}")
        found = []
        for a0, b0, shifts in _classes(x):
            y = window_transpose(x, a0, b0)
            if y not in below:
                target = AffinePermutation._trusted(y, u.k)
                below[y] = target if _fits(to_core(target).partition, top) else None
            if (target := below[y]) is not None:
                found += [(AffineEdge(a0 + s, b0 + s, target), b0 + s, y) for s in shifts]
        found.sort()  # by (a, b): one vertex's edges have distinct pairs
        return found

    return HasseDAG(u.window, w.window, budget, steps)


def paths(u: AffinePermutation, w: AffinePermutation,
          cap: int = DEFAULT_CAP) -> list[AffinePath]:
    """All paths from u to w, sorted lexicographically by step pairs.

    Raises CapExceeded when the forward sweep would expand more than cap
    vertices or, before listing anything, when there are more than cap
    paths.
    """
    dag = interval_dag(u, w, cap)
    dag.check_cap(cap, "path")
    return [AffinePath(u, edges) for edges in dag.walks()]


def path_count(u: AffinePermutation, w: AffinePermutation,
               cap: int = DEFAULT_CAP) -> int:
    """Number of paths from u to w; the cap bounds only the vertex sweep."""
    return interval_dag(u, w, cap).count()


def k_function_affine(u: AffinePermutation, w: AffinePermutation,
                      cap: int = DEFAULT_CAP) -> qsym.QuasiSymFn:
    """The interval's chain function: F summed over the paths' descent
    compositions, by DP without listing paths.  Caps as in paths."""
    dag = interval_dag(u, w, cap)
    dag.check_cap(cap, "path")
    return dag.k_function()


def dual_pieri(u: AffinePermutation, m: int) -> list[AffinePermutation]:
    """Endpoints (with multiplicity) of strictly increasing m-step paths from u,
    counted depth by depth per (vertex, last label): one out_edges per state."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not is_grassmannian(u):
        raise NotGrassmannian(f"{u.text()} is not 0-grassmannian")
    state = {(u, None): 1}
    for _ in range(m):
        nxt: dict[tuple, int] = {}
        for (x, last), c in state.items():
            for e in out_edges(x):
                if last is None or e.label > last:
                    nxt[e.target, e.label] = nxt.get((e.target, e.label), 0) + c
        state = nxt
    return sorted((x for (x, _), c in state.items() for _ in range(c)),
                  key=lambda x: x.window)


# ---------------------------------------------------------------------------
# Relation calculus
# ---------------------------------------------------------------------------

ZERO_RULES = frozenset({"B1", "B2", "F"})
X_RULES = ("X1", "X2", "X3", "X4", "X5", "X6")
ALL_RULES = ("A", "B1", "B2", "C1", "C2", "D", "E1", "E2", "F") + X_RULES


class VerificationReport(namedtuple("VerificationReport",
                                     "tag u letters lhs_word rhs_word lhs rhs holds")):
    """Outcome of evaluating both sides of a relation at one point; rhs_word,
    lhs and rhs may be None (no right word, or a side that vanishes)."""

    __slots__ = ()


def _bad(tag: str, letters, msg: str):
    raise PatternMismatch(f"{tag}: {msg} (letters {letters})")


# Word builders, one per letter shape: (tag, k+1, letters) -> (lhs_word,
# rhs_word, u_condition), once the letters fit the rule's pattern.

def _pair_words(tag: str, n: int, letters):
    (a, b), (c, d) = letters
    if tag == "B2":
        if not ((a % n == c % n and b <= d) or (b % n == d % n and c <= a)):
            _bad(tag, letters, "need matching residues with the stated inequality")
        return ((a, b), (c, d)), None, None
    if tag == "A" and len({x % n for x in (a, b, c, d)}) != 4:
        _bad(tag, letters, "residues must be distinct")
    if tag == "B1" and not (a < c < b < d or (b == c and d - a > n)):
        _bad(tag, letters, "need a<c<b<d, or b=c with d-a>k+1")
    return ((a, b), (c, d)), ((c, d), (a, b)), None


def _triple_words(tag: str, n: int, letters):
    """C1 and C2 name their letters (a, b, d), F names them (a, b, c)."""
    a, b, c = letters
    if tag == "C1":
        if c - a != n:
            _bad(tag, letters, "need d-a=k+1")
        return ((a, b), (b, c)), ((a, b), (b - n, a)), None
    if tag == "C2":
        if not (a < b < c and c - a < n):
            _bad(tag, letters, "need a<b<d with d-a<k+1")
        return ((a, b), (b, c)), ((b, c), (a, b)), None
    if not (a < b < c and c - a < n):
        _bad(tag, letters, "need a<b<c with c-a<k+1")
    return ((b, c), (a, b), (b, c)), ((a, b), (b, c), (a, b)), None


def _four_words(tag: str, n: int, letters):
    a, b, c, d = letters
    if tag == "D":
        if not (a < b < c < d and b % n == c % n
                and d % n == a % n and (b - a) + (d - c) == n):
            _bad(tag, letters, "need matched residues with gap sum k+1")
        return ((a, b), (c, d)), ((d - n, c), (b - n, a)), None
    if not a < b < c < d:
        _bad(tag, letters, "need a<b<c<d")
    if tag == "E1":
        return ((b, c), (c, d), (a, c)), ((b, d), (a, b), (b, c)), None
    return ((a, c), (c, d), (b, c)), ((b, c), (a, b), (b, d)), None


def _x_words(tag: str, n: int, letters):
    """The X rules share the two-pair shape with a gap sum r."""
    a, b, c, d = letters
    if not a < b < c < d:
        _bad(tag, letters, "need a<b<c<d")
    r = (b - a) + (d - c)
    lhs = ((a, b), (c, d))
    if tag in ("X1", "X2"):
        if not (r < n and d % n == a % n):
            _bad(tag, letters, "need r<k+1 and d = a mod k+1")
        if tag == "X1":
            return lhs, ((d, c + r), (b - r, a)), lambda u: u(c) <= 0 and u(d) <= 0
        return lhs, ((c, d), (b - r, b)), lambda u: u(d) > 0
    if tag in ("X3", "X4"):
        if not (r < n and b % n == c % n):
            _bad(tag, letters, "need r<k+1 and b = c mod k+1")
        if tag == "X3":
            return lhs, ((d - r, d), (a, b)), lambda u: u(a + r) <= 0
        return lhs, ((d - r, c), (b, a + r)), lambda u: u(b) > 0 and u(a + r) > 0
    if tag == "X5":
        if not (b % n == d % n and b - a > d - c):
            _bad(tag, letters, "need b = d mod k+1 and b-a > d-c")
        return lhs, ((c, d), (a, b + c - d)), lambda u: u(d - b + a) > 0
    if not (b % n == d % n and b - a < d - c):
        _bad(tag, letters, "need b = d mod k+1 and b-a < d-c")
    return lhs, ((c, d - b + a), (a, b)), lambda u: u(a) <= 0


def _relation_words(tag: str, k: int, letters):
    """(lhs_word, rhs_word, u_condition) for a rule; validates the letters."""
    _, _, words, shape = _rule(tag)
    try:
        return words(tag, k + 1, letters)
    except (TypeError, ValueError):  # the letters are not integers in the rule's shape
        raise PatternMismatch(f"{tag}: need letters {shape} (letters {letters})") from None


def check_relation(tag: str, u: AffinePermutation, letters,
                   require_u_conditions: bool = True) -> VerificationReport:
    """Evaluate both sides of a relation at u and report the comparison.

    Zero rules hold when every word evaluates to zero; equality rules
    when both sides agree (zero included).  The X rules carry sign
    conditions on u; these are enforced as preconditions unless
    require_u_conditions is False, which is how counterexamples beyond
    their scope are exhibited.
    """
    lhs_word, rhs_word, u_cond = _relation_words(tag, u.k, letters)
    if u_cond is not None and require_u_conditions and not u_cond(u):
        raise PatternMismatch(f"{tag}: sign conditions on u fail at {u.text()}")
    return VerificationReport(tag, u, tuple(letters), lhs_word, rhs_word,
                              *_sides(tag, u, lhs_word, rhs_word))


def _sides(tag: str, u: AffinePermutation, lhs_word, rhs_word):
    """(lhs, rhs, holds) at u: zero rules hold when every word vanishes, C2
    always (its sides are recorded, not compared), the rest when lhs == rhs."""
    lhs = apply_word(u, lhs_word)
    rhs = apply_word(u, rhs_word) if rhs_word is not None else None
    if tag in ZERO_RULES:
        return lhs, rhs, lhs is None and rhs is None
    return lhs, rhs, tag == "C2" or lhs == rhs


def rule_sampleable(tag: str, k: int) -> bool:
    """Whether the rule's letter pattern can be instantiated at this k.  An
    unknown tag passes, so that drawing its letters raises PatternMismatch."""
    return k >= (_RULES[tag][0] if tag in _RULES else 1)


def sample_letters(tag: str, k: int, rng):
    """Random letters fitting a rule's pattern, or None when k is too small;
    the comment on each sampler says why its draws fit _relation_words."""
    if not rule_sampleable(tag, k):
        return None
    _, draw, _, _ = _rule(tag)
    n = k + 1
    return draw(rng.randint(-n, n), k, n, rng)


# Samplers by rule pattern: (a, k, k+1, rng) -> letters.  Every draw starts with
# a = rng.randint(-(k+1), k+1) before the sampler runs; A redraws it.

def _draw_a(a, k, n, rng):  # residues redrawn until they differ
    while True:
        a = rng.randint(-n, n)
        b = a + rng.randint(1, k)
        c = rng.randint(-n, n)
        d = c + rng.randint(1, k)
        if len({x % n for x in (a, b, c, d)}) == 4:
            return ((a, b), (c, d))


def _draw_b1(a, k, n, rng):  # c inside (a, b) below d, or c = b and d - a >= k + 2
    if rng.random() < 0.5:
        b = a + rng.randint(2, k)
        c = rng.randint(a + 1, b - 1)
        return ((a, b), (c, c + rng.randint(b - c + 1, k)))
    b = a + rng.randint(2, k)
    return ((a, b), (b, b + rng.randint(n + 1 - (b - a), k)))


def _draw_b2(a, k, n, rng):  # a (or b) shifted by m(k+1) to c (or d)
    b = a + rng.randint(1, k)
    if rng.random() < 0.5:
        c = a + rng.randint(0, 2) * n
        return ((a, b), (c, rng.randint(max(c + 1, b), c + k)))
    d = b - rng.randint(0, 2) * n
    return ((a, b), (rng.randint(d - k, min(a, d - 1)), d))


def _draw_c1(a, k, n, rng):  # d = a + k + 1
    return (a, a + rng.randint(1, k), a + n)


def _draw_c2_f(a, k, n, rng):  # positive gaps summing to at most k
    b = a + rng.randint(1, k - 1)
    return (a, b, b + rng.randint(1, k - (b - a)))


def _draw_d(a, k, n, rng):  # residues and gap sum k + 1 built in; b - a <= k gives c < d
    b = a + rng.randint(1, k)
    m = rng.randint(1, 2)
    return (a, b, b + m * n, a + (m + 1) * n)


def _draw_e(a, k, n, rng):  # positive gaps
    b = a + rng.randint(1, k - 1)
    c = b + rng.randint(1, k - (b - a))
    return (a, b, c, c + rng.randint(1, k - (c - b)))


def _draw_x12(a, k, n, rng):  # a shifted by m(k+1) to d; gaps sum to r <= k, so b < c
    b = a + rng.randint(1, k - 1)
    gdc = rng.randint(1, k - (b - a))
    d = a + rng.randint(1, 2) * n
    return (a, b, d - gdc, d)


def _draw_x34(a, k, n, rng):  # b shifted by m(k+1) to c; gaps sum to r <= k
    b = a + rng.randint(1, k - 1)
    gcd = rng.randint(1, k - (b - a))
    c = b + rng.randint(1, 2) * n
    return (a, b, c, c + gcd)


def _draw_x5(a, k, n, rng):  # b shifted by m(k+1) to d; d - c < b - a <= k
    b = a + rng.randint(2, k)
    gdc = rng.randint(1, b - a - 1)
    d = b + rng.randint(1, 2) * n
    return (a, b, d - gdc, d)


def _draw_x6(a, k, n, rng):  # b shifted by m(k+1) to d; b - a < d - c <= k
    b = a + rng.randint(1, k - 1)
    gdc = rng.randint(b - a + 1, k)
    d = b + rng.randint(1, 2) * n
    return (a, b, d - gdc, d)


# tag: (lowest k, sampler, word builder, shape of the letters).  A needs four
# distinct residues; a pattern with a span of at least 2 (and at most k) needs k >= 2.
_PAIRS, _FOUR = "((a, b), (c, d))", "(a, b, c, d)"
_RULES = {
    "A": (3, _draw_a, _pair_words, _PAIRS),
    "B1": (2, _draw_b1, _pair_words, _PAIRS),
    "B2": (1, _draw_b2, _pair_words, _PAIRS),
    "C1": (1, _draw_c1, _triple_words, "(a, b, d)"),
    "C2": (2, _draw_c2_f, _triple_words, "(a, b, d)"),
    "D": (1, _draw_d, _four_words, _FOUR),
    "E1": (2, _draw_e, _four_words, _FOUR),
    "E2": (2, _draw_e, _four_words, _FOUR),
    "F": (2, _draw_c2_f, _triple_words, "(a, b, c)"),
    "X1": (2, _draw_x12, _x_words, _FOUR),
    "X2": (2, _draw_x12, _x_words, _FOUR),
    "X3": (2, _draw_x34, _x_words, _FOUR),
    "X4": (2, _draw_x34, _x_words, _FOUR),
    "X5": (2, _draw_x5, _x_words, _FOUR),
    "X6": (2, _draw_x6, _x_words, _FOUR),
}


def _rule(tag: str):
    """(lowest k, sampler, word builder, shape of the letters) of a rule."""
    try:
        return _RULES[tag]
    except KeyError:
        raise PatternMismatch(f"unknown relation tag {tag!r}") from None


class SweepResult(namedtuple("SweepResult", "tag k trials checked nonzero failures")):
    """Aggregate of a randomized relation sweep; failures lists VerificationReports."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


_POOL_SIZE = 400
_POOL_MAX_LENGTH = 9
_DRAWS_PER_TRIAL = 400
_X_ATTEMPTS = 20000


def _grassmannian_pool(k: int, rng) -> list:
    return [random_grassmannian(k, rng.randint(0, _POOL_MAX_LENGTH), rng)
            for _ in range(_POOL_SIZE)]


def sweep_relation(tag: str, k: int, trials: int, rng) -> SweepResult:
    """Randomized soundness sweep of one rule at a fixed k.

    Letters fit the rule's pattern (see sample_letters) and u is drawn
    from a pool of random 0-grassmannians.  An X-rule draw whose sign
    conditions on u fail is skipped before either side is evaluated.
    Zero rules record every draw (the claim is that all words vanish).
    The other rules record only draws that exercise the statement (a
    nonzero side; for X rules a nonzero left side), so `trials` counts
    real evaluations.  Sampling stops early when the budget of
    _DRAWS_PER_TRIAL draws per trial runs out, which happens at k where
    the patterns are sparse; `checked` reports what was actually
    recorded.  A VerificationReport is built only for a failing draw.
    """
    if not rule_sampleable(tag, k):
        return SweepResult(tag, k, trials, 0, 0, [])
    _, draw, words, _ = _rule(tag)
    n = k + 1
    pool = _grassmannian_pool(k, rng)
    budget = _DRAWS_PER_TRIAL * trials
    draws, checked, nonzero, failures = 0, 0, 0, []
    while checked < trials and draws < budget:
        draws += 1
        letters = draw(rng.randint(-n, n), k, n, rng)  # as sample_letters draws them
        u = rng.choice(pool)
        lhs_word, rhs_word, u_cond = words(tag, n, letters)
        if u_cond is not None and not u_cond(u):
            continue
        lhs, rhs, holds = _sides(tag, u, lhs_word, rhs_word)
        if lhs is None and u_cond is not None:  # X rules need a nonzero left side
            continue
        if lhs is None and rhs is None and tag not in ZERO_RULES:
            continue
        checked += 1
        if lhs is not None or rhs is not None:
            nonzero += 1
        if not holds:
            failures.append(check_relation(tag, u, letters))
    return SweepResult(tag, k, trials, checked, nonzero, failures)


def find_x_counterexample(tag: str, k: int, rng) -> VerificationReport | None:
    """A witness that an X rule fails once its sign condition on u is dropped.

    The witness has the condition violated and the two sides unequal;
    depending on the rule this shows up as a nonzero left side with a
    differing right side, or as a vanishing left side while the right
    side survives.  A draw that meets the condition is skipped before
    either side is evaluated, and only the witness goes through
    check_relation for its report.  Gives up after _X_ATTEMPTS draws.
    """
    if tag not in X_RULES:
        raise PatternMismatch(f"{tag} is not an X rule")
    if not rule_sampleable(tag, k):
        return None
    _, draw, words, _ = _rule(tag)
    n = k + 1
    pool = _grassmannian_pool(k, rng)
    for _ in range(_X_ATTEMPTS):
        letters = draw(rng.randint(-n, n), k, n, rng)
        u = rng.choice(pool)
        lhs_word, rhs_word, u_cond = words(tag, n, letters)
        if u_cond(u):
            continue
        _, _, holds = _sides(tag, u, lhs_word, rhs_word)
        if not holds:
            return check_relation(tag, u, letters, require_u_conditions=False)
    return None

"""Test-side oracles that share no code with bruhat_kit.

Polynomials are dicts from exponent tuples (one entry per variable
x_1..x_N) to integer coefficients; permutations are image tuples of
1..n.  Schubert polynomials come from divided differences
(Lascoux-Schutzenberger): S_{w0} = x^delta and S_{w s_i} = d_i S_w when
w(i) > w(i+1).  Schur polynomials come from semistandard tableaux, and
Schur functions in the h basis from the Jacobi-Trudi determinant.
Compositions are tuples, listed by their first part and compared by
block sums, with no descent sets.  Affine permutations are plain windows
(u(1), ..., u(k+1)), evaluated position by position.  Hook lengths are
arm + leg + 1, counted cell by cell.
"""

from collections import Counter
from functools import cache
from itertools import combinations, permutations


def divided_difference(f: dict, i: int) -> dict:
    """d_i f = (f - s_i f) / (x_i - x_{i+1}), for 1-based i, monomial by monomial:
    d_i(x_i^p x_{i+1}^q) is the sum of x_i^(p-1-t) x_{i+1}^(q+t), 0 <= t < p-q,
    negated with p and q exchanged when p < q."""
    out = {}
    for e, c in f.items():
        p, q = e[i - 1], e[i]
        sign = 1 if p > q else -1
        hi, lo = max(p, q), min(p, q)
        for t in range(hi - lo):
            m = list(e)
            m[i - 1], m[i] = hi - 1 - t, lo + t
            m = tuple(m)
            out[m] = out.get(m, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def multiply(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            m = tuple(a + b for a, b in zip(e1, e2))
            out[m] = out.get(m, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@cache
def schubert_polynomial(w: tuple, nvars: int) -> dict:
    """S_w in x_1..x_nvars for w in S_n, n <= nvars: d_i S_{w s_i} at an ascent i
    of w, down from S_{w0} = x_1^(n-1) x_2^(n-2) ... x_{n-1}."""
    n = len(w)
    ascent = next((i for i in range(1, n) if w[i - 1] < w[i]), None)
    if ascent is None:
        delta = tuple(n - 1 - i for i in range(n)) + (0,) * (nvars - n)
        return {delta: 1}
    ws = list(w)
    ws[ascent - 1], ws[ascent] = ws[ascent], ws[ascent - 1]
    return divided_difference(schubert_polynomial(tuple(ws), nvars), ascent)


def schubert_coefficient(f: dict, w: tuple) -> int:
    """The S_w-coefficient of f: the constant term of d_w f, where d_w applies
    d_i at a descent i of w and moves on to w s_i until w is the identity.
    d_i sends S_v to S_{v s_i} at a descent of v and to 0 otherwise."""
    w = list(w)
    while True:
        i = next((i for i in range(1, len(w)) if w[i - 1] > w[i]), None)
        if i is None:
            break
        f = divided_difference(f, i)
        w[i - 1], w[i] = w[i], w[i - 1]
    return sum(c for e, c in f.items() if not any(e))


def ssyt_contents(lam, letters: int):
    """The content of every SSYT of shape lam with entries 1..letters,
    filled cell by cell along the rows."""
    lam = tuple(lam)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    rows = [[0] * ln for ln in lam]
    counts = [0] * letters

    def go(idx):
        if idx == len(cells):
            yield tuple(counts)
            return
        r, c = cells[idx]
        for letter in range(1, letters + 1):
            if c > 0 and rows[r][c - 1] > letter:
                continue
            if r > 0 and rows[r - 1][c] >= letter:
                continue
            rows[r][c] = letter
            counts[letter - 1] += 1
            yield from go(idx + 1)
            counts[letter - 1] -= 1

    yield from go(0)


def ssyt_count_bruteforce(lam, mu) -> int:
    """Number of SSYT of shape lam and content mu, by explicit filling."""
    mu = tuple(mu)
    return sum(1 for content in ssyt_contents(lam, len(mu)) if content == mu)


@cache
def schur_polynomial(lam: tuple, r: int, nvars: int) -> dict:
    """s_lam(x_1..x_r) in x_1..x_nvars, r <= nvars, one monomial per SSYT."""
    pad = (0,) * (nvars - r)
    return {content + pad: c for content, c in Counter(ssyt_contents(lam, r)).items()}


def quasisymmetric_polynomial(m_terms: dict, nvars: int) -> dict:
    """The sum of c * M_alpha(x_1..x_nvars) over m_terms {alpha: c}, where
    M_alpha is the sum of x_i1^alpha_1 ... x_il^alpha_l over i1 < ... < il."""
    out = {}
    for alpha, c in m_terms.items():
        for slots in combinations(range(nvars), len(alpha)):
            e = [0] * nvars
            for i, part in zip(slots, alpha):
                e[i] = part
            e = tuple(e)
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def hall_pairing_with_h(f: dict, h_terms: dict, nvars: int) -> int:
    """<f, sum of d_nu h_nu> for a symmetric polynomial f in x_1..x_nvars of degree
    at most nvars: by <m_mu, h_nu> = delta it is the sum of d_nu [x^nu] f."""
    return sum(d * f.get(tuple(nu) + (0,) * (nvars - len(nu)), 0) for nu, d in h_terms.items())


def partitions(n: int, largest: int | None = None):
    """The partitions of n as weakly decreasing tuples, in decreasing lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def schur_in_h(lam: tuple) -> dict:
    """s_lam as {mu: c} in the h basis by Jacobi-Trudi, det(h_{lam_i - i + j}),
    expanded over the permutations of the rows; h_0 = 1 and h_m = 0 for m < 0."""
    out = {}
    for sigma in permutations(range(len(lam))):
        parts = [lam[i] - i + j for i, j in enumerate(sigma)]
        if min(parts, default=0) >= 0:
            mu = tuple(sorted((p for p in parts if p), reverse=True))
            out[mu] = out.get(mu, 0) + (-1) ** inversions(sigma)
    return {mu: c for mu, c in out.items() if c}


def schubert_times_schur(u: tuple, w: tuple, r: int) -> dict:
    """{lam: the S_w-coefficient of S_u * s_lam(x_1..x_r)} over lam of
    size l(w) - l(u), for u and w in one S_n; zeros are dropped."""
    n = len(u)
    nvars = max(n, r)
    size = inversions(w) - inversions(u)
    out = {}
    for lam in partitions(size):
        f = multiply(schubert_polynomial(u, nvars), schur_polynomial(lam, r, nvars))
        c = schubert_coefficient(f, w)
        if c:
            out[lam] = c
    return out


def greedy_first_chain(u: tuple, w: tuple, r: int):
    """The greedy chain of [u, w]_r on image tuples of one length, as (a, b)
    steps: take i as the last position <= r with x(i) < w(i) and j as the
    first position > r with x(j) > x(i) >= w(j), and swap x(i) and x(j)
    when that raises the length by one (no value between them stands
    between them).  None when some step does not exist or is not a cover."""
    x, w, steps = list(u), list(w), []
    while x != w:
        i = max((p for p in range(r) if x[p] < w[p]), default=None)
        if i is None:
            return None
        j = next((q for q in range(r, len(x)) if x[q] > x[i] >= w[q]), None)
        if j is None or any(x[i] < v < x[j] for v in x[i + 1:j]):
            return None
        steps.append((x[i], x[j]))
        x[i], x[j] = x[j], x[i]
    return tuple(steps)


def inversions(w: tuple) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def compositions(n: int) -> list:
    """All compositions of n, recursing on the first part; [()] for n = 0."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def refines_by_blocks(alpha: tuple, beta: tuple) -> bool:
    """Whether alpha cuts into consecutive blocks whose sums are the parts of beta."""
    rest = list(alpha)
    for b in beta:
        total = 0
        while total < b and rest:
            total += rest.pop(0)
        if total != b:
            return False
    return not rest


def weakly_increasing_runs(labels) -> tuple:
    """Lengths of the maximal weakly increasing runs of a label sequence."""
    runs = []
    for i, x in enumerate(labels):
        if i and labels[i - 1] <= x:
            runs[-1] += 1
        else:
            runs.append(1)
    return tuple(runs)


def window_at(window, i):
    """u(i) for the affine permutation with the given window."""
    n = len(window)
    q, r = divmod(i - 1, n)
    return window[r] + q * n


def times_t(window, a, b):
    """The window of u*t(a,b): positions a and b trade entries, and so does
    every pair shifted from them by a multiple of k+1."""
    n = len(window)
    return tuple(window_at(window, p + b - a) if (p - a) % n == 0
                 else window_at(window, p + a - b) if (p - b) % n == 0
                 else window[p - 1] for p in range(1, n + 1))


def times_s(window, i):
    """The window of u*s_i = u*t(i, i+1)."""
    return times_t(window, i, i + 1)


def grassmannian_window(window):
    """Whether the values 1..k+1 stand at increasing positions."""
    n = len(window)
    positions = []
    for v in range(1, n + 1):
        j = next(j for j in range(n) if (window[j] - v) % n == 0)
        positions.append(j + 1 + v - window[j])
    return all(a < b for a, b in zip(positions, positions[1:]))


def weak_step(window, i):
    """The window of u*s_i when that is a weak cover between grassmannians, else None."""
    if not window_at(window, i) < window_at(window, i + 1):
        return None
    out = times_s(window, i)
    return out if grassmannian_window(out) else None


def grassmannian_windows(k, top):
    """Windows of the grassmannians of each length 0..top, grown by weak steps."""
    layers = [{tuple(range(1, k + 2))}]
    for _ in range(top):
        layers.append({y for x in layers[-1] for i in range(k + 1)
                       if (y := weak_step(x, i)) is not None})
    return layers


def core_of_window(window) -> tuple:
    """The (k+1)-core of a grassmannian window, by walking its boundary path:
    each position with u(p) <= 0 after some positive entries cuts off a row
    of as many cells as there are positive entries before it."""
    reach = max(abs(x) for x in window) + len(window)  # u(p) <= 0 before, > 0 after
    rows, positives = [], 0
    for p in range(-reach, reach + 1):
        if window_at(window, p) > 0:
            positives += 1
        elif positives:
            rows.append(positives)
    return tuple(sorted(rows, reverse=True))


def hook_lengths(lam) -> tuple:
    """The hook length arm + leg + 1 of every cell of lam, one tuple per row."""
    return tuple(tuple((part - c - 1) + sum(1 for below in lam[r + 1:] if below > c) + 1
                       for c in range(part)) for r, part in enumerate(lam))


def kbounded_rows(lam, k) -> tuple:
    """lam with every cell of hook length > k deleted and the rows left-justified."""
    return tuple(sum(1 for h in row if h <= k) for row in hook_lengths(lam))


def zero_bruhat_edges(window):
    """(a, b, target window) for every edge of the affine 0-Bruhat graph at u:
    each pair of positions a < b <= a + k with u(a) <= 0 < u(b) and no u(c),
    a < c < b, between the two, found by scanning every a near the window."""
    n = len(window)
    reach = max(abs(x) for x in window) + 2 * n  # |u(i) - i| <= reach - n
    edges = []
    for a in range(-reach, reach + 1):
        lo = window_at(window, a)
        if lo > 0:
            continue
        for b in range(a + 1, a + n):
            hi = window_at(window, b)
            if hi > 0 and not any(lo < window_at(window, c) < hi for c in range(a + 1, b)):
                edges.append((a, b, times_t(window, a, b)))
    return edges


def dual_pieri_windows(window, m):
    """The sorted end windows, with multiplicity, of the m-step paths from u
    whose labels b strictly increase, by recursion on the paths."""
    out = []

    def go(x, last, left):
        if left == 0:
            out.append(x)
            return
        for _, b, y in zero_bruhat_edges(x):
            if last is None or b > last:
                go(y, b, left - 1)

    go(tuple(window), None, m)
    return sorted(out)


def block_placement(x: tuple, r: int, n: int):
    """(u' window, s) of the embedding of an interval [x, y]_r with window
    size n, by the block placement of the paper's Section 5: cut x(1..n) at
    its descents and at r; lay the blocks after r out right to left with
    downward shifts of n, then the blocks before r right to left above
    them, so that the values 1..n land left to right on the integer axis.
    A value at position p sits in window slot p mod n, and the window sum
    fixes s."""
    x = tuple(x) + tuple(range(len(x) + 1, n + 1))
    alphas = [p for p in range(1, r) if x[p - 1] > x[p]]
    betas = [p for p in range(r + 1, n) if x[p - 1] > x[p]]
    after = list(zip([r] + betas, betas + [n]))
    before = list(zip([0] + alphas, alphas + [r]))
    placement, value = {}, 1
    for q in range(len(after), 0, -1):
        lo, hi = after[q - 1]
        for j in range(lo + 1, hi + 1):
            placement[x[j - 1] - (q - 1) * n] = value
            value += 1
    for q in range(len(before), 0, -1):
        lo, hi = before[q - 1]
        for j in range(lo + 1, hi + 1):
            placement[x[j - 1] + (len(alphas) + 2 - q) * n] = value
            value += 1
    window = [None] * n
    for pos, val in placement.items():
        j = (pos - 1) % n + 1
        assert window[j - 1] is None, f"positions collide mod {n}"
        window[j - 1] = val + (j - pos)
    s, rem = divmod(n * (n + 1) // 2 - sum(window), n)
    assert rem == 0, f"window sum defect not divisible by {n}"
    return tuple(window), s

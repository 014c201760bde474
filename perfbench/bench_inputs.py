"""Seeded job lists for the benchmark workloads.

Nothing here imports bruhat_kit.  Permutation, window and rank arithmetic
is written out again below, so a refactor of the package (say, one that
reorders `out_edges` or changes `random_grassmannian`) cannot change which
jobs a seed produces.  The same arithmetic yields each job's expected
chain or path count, which the output checks compare against.

A job is a dict: `argv` (a bruhat-kit verb invocation without `--json`),
`label`, and the expectations the checks need.  Jobs are drawn to fixed
quotas per size class, so that every seed gives a job list of about the
same cost, and the classes are interleaved, so that every prefix of the
list has about the same mix.  No two seeded jobs of a list are the same
invocation, and a list holds several times the jobs one timed run gets
through, so no job runs twice in a run and a result cache would not pay.
"""

import random

# ---------------------------------------------------------------------------
# Finite permutations, as one-line tuples of 1..n
# ---------------------------------------------------------------------------


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def interval_from_zeta(zeta):
    """(u, w, r) with w u^-1 = zeta: w lists the values zeta pulls left first."""
    n = len(zeta)
    zinv = [0] * n
    for i, v in enumerate(zeta, start=1):
        zinv[v - 1] = i
    up = [a for a in range(1, n + 1) if zinv[a - 1] < a]
    rest = [a for a in range(1, n + 1) if zinv[a - 1] >= a]
    w = tuple(up + rest)
    u = tuple(zinv[v - 1] for v in w)
    return u, w, len(up)


def rbruhat_chain_count(u, w, r) -> int:
    """Saturated r-Bruhat chains from u to w, by forward counting.

    A step swaps x(i) < x(j) with i <= r < j, and is a cover exactly when
    no position strictly between holds a value between them.  Values
    only rise at positions <= r and fall after r, which prunes the sweep.
    """
    n = len(u)
    rank = inversions(w) - inversions(u)
    layer = {u: 1}
    for _ in range(rank):
        nxt = {}
        for x, c in layer.items():
            for i in range(r):
                a = x[i]
                if a >= w[i]:
                    continue
                for j in range(r, n):
                    b = x[j]
                    if b <= a or b > w[i] or a < w[j]:
                        continue
                    if any(a < x[m] < b for m in range(i + 1, j)):
                        continue
                    y = list(x)
                    y[i], y[j] = b, a
                    y = tuple(y)
                    nxt[y] = nxt.get(y, 0) + c
        layer = nxt
    return layer.get(w, 0)


def one_line(p) -> str:
    return " ".join(str(v) for v in p)


# ---------------------------------------------------------------------------
# Affine permutations, as main windows (u(1), ..., u(k+1))
# ---------------------------------------------------------------------------


def ev(win, i: int) -> int:
    n = len(win)
    j = (i - 1) % n + 1
    return win[j - 1] + (i - j)


def affine_length(win) -> int:
    """Shi's formula: sum over i < j in the window of |floor((w(j) - w(i)) / n)|."""
    n = len(win)
    return sum(abs((win[j] - win[i]) // n) for i in range(n) for j in range(i + 1, n))


def is_grassmannian(win) -> bool:
    """The values 1..n sit at increasing positions."""
    n = len(win)
    pos = {}
    for j, x in enumerate(win, start=1):
        # the value v = x + m*n sits at position j + m*n
        for v in range(1, n + 1):
            if (v - x) % n == 0:
                pos[v] = j + (v - x)
    return all(pos[v] < pos[v + 1] for v in range(1, n))


def times_s(win, i: int):
    """win * s_i: swap the entries at positions i and i+1, periodically."""
    n = len(win)
    w = list(win)
    if i % n == 0:
        w[0], w[n - 1] = win[n - 1] - n, win[0] + n
    else:
        w[i - 1], w[i] = win[i], win[i - 1]
    return tuple(w)


def weak_steps(win):
    """Targets of the weak covers win -> win*s_i that stay 0-grassmannian."""
    n = len(win)
    out = []
    for i in range(n):
        if ev(win, i) < ev(win, i + 1):
            y = times_s(win, i)
            if is_grassmannian(y):
                out.append(y)
    return out


def random_grassmannian(k: int, length: int, rng):
    win = tuple(range(1, k + 2))
    for _ in range(length):
        win = rng.choice(weak_steps(win))
    return win


def transpose(win, a: int, b: int):
    """win * t(a, b) for a < b < a + n."""
    n = len(win)
    out = list(win)
    ja, jb = (a - 1) % n, (b - 1) % n
    out[ja] = ev(win, b) - (a - 1 - ja)
    out[jb] = ev(win, a) - (b - 1 - jb)
    return tuple(out)


def _cover_classes(win, up: bool):
    """(a, b, multiplicity) of the 0-Bruhat cover classes leaving (up) or entering win.

    Positions a < b < a + n form a cover class when the smaller of win(a),
    win(b) comes first for edges leaving win (last for edges entering it)
    and no entry at the positions between lies between the two.  The
    class holds one edge per shift m with x(a + mn) <= 0 < x(b + mn),
    where x is the source of the edge.
    """
    n = len(win)
    vals = [ev(win, i) for i in range(1, 2 * n + 1)]
    out = []
    for a in range(1, n + 1):
        va = vals[a - 1]
        for b in range(a + 1, a + n):
            vb = vals[b - 1]
            lo, hi = (va, vb) if up else (vb, va)
            if lo >= hi or any(lo < v < hi for v in vals[a:b - 1]):
                continue
            mult = (-lo) // n - (-hi) // n
            if mult > 0:
                out.append((a, b, mult))
    return out


def zero_bruhat_steps(win):
    """(target, multiplicity) of every 0-Bruhat cover class leaving win."""
    return [(transpose(win, a, b), m) for a, b, m in _cover_classes(win, True)]


def zero_bruhat_preds(win):
    """(source, multiplicity) of every 0-Bruhat cover class entering win."""
    return [(transpose(win, a, b), m) for a, b, m in _cover_classes(win, False)]


def zero_bruhat_path_count(u, w) -> int:
    """Paths from u to w in the 0-Bruhat multigraph, meeting in the middle."""
    rank = affine_length(w) - affine_length(u)
    if rank < 0:
        return 0
    fwd = {u: 1}
    for _ in range(rank // 2):
        nxt = {}
        for x, c in fwd.items():
            for y, m in zero_bruhat_steps(x):
                nxt[y] = nxt.get(y, 0) + c * m
        fwd = nxt
    back = {w: 1}
    for _ in range(rank - rank // 2):
        nxt = {}
        for y, c in back.items():
            for x, m in zero_bruhat_preds(y):
                nxt[x] = nxt.get(x, 0) + c * m
        back = nxt
    return sum(c * back.get(x, 0) for x, c in fwd.items())


def zero_bruhat_walk(u, steps: int, rng):
    x = u
    for _ in range(steps):
        x = rng.choice(zero_bruhat_steps(x))[0]
    return x


def weak_chain_count(u, w) -> int:
    """Weak chains from u to w through 0-grassmannians."""
    rank = affine_length(w) - affine_length(u)
    layer = {u: 1}
    for _ in range(rank):
        nxt = {}
        for x, c in layer.items():
            for y in weak_steps(x):
                nxt[y] = nxt.get(y, 0) + c
        layer = nxt
    return layer.get(w, 0)


def window_text(win) -> str:
    return "[" + ",".join(str(x) for x in win) + "]"


# ---------------------------------------------------------------------------
# Reference jobs: the README examples and the ROADMAP baseline rows
# ---------------------------------------------------------------------------

README_ZETA = (3, 6, 2, 5, 4, 1)
RANK10_ZETA = (6, 9, 4, 8, 7, 3, 5, 1, 2)  # rank 10, 6,210 chains
README_AFFINE = ((-6, 8, 3, -1, 4, 13), (8, -6, -2, 9, 13, -1))  # k=5, 240 paths
# k=5, rank 8, 23,898 paths: u = random_grassmannian(5, 8, Random(3)), then
# eight rng.choice(out_edges(x)) steps on the same rng, at the package's
# initial commit.  Frozen here because the walk depends on package internals.
RANK8_AFFINE = ((3, -1, 0, 7, 8, 4), (3, -6, -1, 13, 4, 8))
README_WEAK = (2, (0, 2, 4), (-3, 4, 5))


def _finite_job(zeta, chains: bool, label: str) -> dict:
    u, w, r = interval_from_zeta(zeta)
    argv = ["rbruhat", "--zeta", one_line(zeta), "--schur"] + (["--chains"] if chains else [])
    return {"argv": argv, "label": label, "count": rbruhat_chain_count(u, w, r)}


def _affine_job(u, w, count_only: bool, label: str, count: int) -> dict:
    argv = ["affine", "--k", str(len(u) - 1), "--u", window_text(u), "--w", window_text(w)]
    return {"argv": argv + (["--count-only"] if count_only else []), "label": label,
            "count": count}


def _weak_job(k, u, w, label: str) -> dict:
    argv = ["weak", "--k", str(k), "--u", window_text(u), "--w", window_text(w)]
    return {"argv": argv, "label": label, "count": weak_chain_count(u, w)}


def _kschur_job(k: int, degree: int, label: str) -> dict:
    argv = ["kschur", "--k", str(k), "--degree", str(degree), "--matrix", "--invert"]
    return {"argv": argv, "label": label, "k": k, "degree": degree}


def _embed_job(zeta, label: str) -> dict:
    u, w, r = interval_from_zeta(zeta)
    return {"argv": ["embed", "--zeta", one_line(zeta), "--verify"], "label": label,
            "count": rbruhat_chain_count(u, w, r)}


def reference_jobs(workload: str) -> list[dict]:
    """Fixed jobs: the README examples and the ROADMAP baseline intervals.

    Jobs marked trace_only take seconds each, too long for the timed mix;
    only the traced run executes them.
    """
    if workload == "finite":
        return [_finite_job(README_ZETA, True, "ref:readme-zeta"),
                _finite_job(RANK10_ZETA, False, "ref:rank10-zeta")]
    if workload == "affine":
        u, w = README_AFFINE
        v, x = RANK8_AFFINE
        return [_affine_job(u, w, False, "ref:readme-240", 240),
                _affine_job(u, w, True, "ref:readme-240-count", 240),
                dict(_affine_job(v, x, False, "ref:k5-rank8", 23898), trace_only=True),
                dict(_affine_job(v, x, True, "ref:k5-rank8-count", 23898), trace_only=True)]
    if workload == "symmetric":
        k, u, w = README_WEAK
        return [_weak_job(k, u, w, "ref:readme-weak"),
                _kschur_job(2, 3, "ref:readme-kschur")]
    if workload == "operators":
        return [_embed_job(README_ZETA, "ref:readme-embed")]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Seeded jobs.  Each workload is a fixed list of size classes ("cells")
# with a fixed number of jobs each; the seed only picks the instances.
# ---------------------------------------------------------------------------


def _interleave(cells: list[list[dict]]) -> list[dict]:
    """Spread each cell evenly over the list, so every stretch has the same mix.

    Job i of cell c sits at (i + phase_c) / len(cell), with the phases of
    the cells staggered over [0, 1), so the single large jobs of small cells
    do not bunch together.  Each job records its `slot`, i / len(cell), so
    a subset with slot below some fraction reaches every cell.
    """
    keyed = []
    for c, cell in enumerate(cells):
        phase = (c + 0.5) / len(cells)
        for i, job in enumerate(cell):
            keyed.append(((i + phase) / len(cell), dict(job, slot=i / len(cell))))
    return [job for _, job in sorted(keyed, key=lambda t: t[0])]


def _random_zeta(n: int, rng):
    zeta = list(range(1, n + 1))
    while zeta == sorted(zeta):
        rng.shuffle(zeta)
    return tuple(zeta)


def _fresh(seen: set, key) -> bool:
    """True the first time key is offered; remembers it."""
    if key in seen:
        return False
    seen.add(key)
    return True


# The cells of each workload are sized so that the median and the 90th
# percentile of job latency fall inside a cell rather than between two,
# where a small change of mix would move them by a whole step.  Each list
# holds about 3.5 times the seeded jobs a 20-second run completes at the
# package's first benchmarked commit.

# finite: (low, high) chain counts of a cell and its number of jobs; every
# third job of a cell also lists its chains
FINITE_CELLS = ((1, 4, 400), (4, 16, 400), (16, 64, 600), (64, 200, 200), (256, 512, 400))


def finite_jobs(rng) -> list[dict]:
    cells = [[] for _ in FINITE_CELLS]
    seen = {README_ZETA, RANK10_ZETA}
    while any(len(cell) < size for cell, (_, _, size) in zip(cells, FINITE_CELLS)):
        zeta = _random_zeta(rng.randint(5, 9), rng)
        u, w, r = interval_from_zeta(zeta)
        if not 3 <= inversions(w) - inversions(u) <= 8 or zeta in seen:
            continue
        count = rbruhat_chain_count(u, w, r)
        for cell, (low, high, size) in zip(cells, FINITE_CELLS):
            if low <= count < high and len(cell) < size:
                seen.add(zeta)
                argv = ["rbruhat", "--zeta", one_line(zeta), "--schur"]
                if len(cell) % 3 == 0:
                    argv.append("--chains")
                cell.append({"argv": argv, "label": f"finite:chains{low}-{high}", "count": count})
    return _interleave(cells)


# affine: (k, rank, count_only, low, high, jobs) with low <= paths < high.
# Full jobs enumerate every path, so they are kept to at most 1,000 paths;
# count-only jobs go up to about the size of the k=5, rank-8 reference.
AFFINE_CELLS = (
    (3, 6, True, 0, 25000, 120), (3, 7, True, 0, 25000, 120), (4, 8, True, 0, 25000, 120),
    (3, 4, False, 0, 1000, 60), (5, 4, False, 0, 1000, 60),
    (3, 5, False, 100, 300, 45), (4, 5, False, 100, 300, 135), (4, 6, False, 300, 600, 90),
    (5, 5, False, 0, 100, 90),
    (5, 8, True, 0, 25000, 96),
    (4, 6, False, 600, 1000, 66), (5, 6, False, 300, 600, 66), (4, 7, False, 300, 1000, 66),
    (5, 7, False, 300, 600, 66),
)


def affine_jobs(rng) -> list[dict]:
    cells = []
    seen = {README_AFFINE, RANK8_AFFINE}
    for k, rank, count_only, low, high, size in AFFINE_CELLS:
        cell = []
        while len(cell) < size:
            u = random_grassmannian(k, rng.randint(2, 8), rng)
            w = zero_bruhat_walk(u, rank, rng)
            if not is_grassmannian(w) or (u, w) in seen:
                continue
            count = zero_bruhat_path_count(u, w)
            if low <= count < high:
                seen.add((u, w))
                label = f"affine:k{k}-rank{rank}" + ("-count" if count_only else "")
                cell.append(_affine_job(u, w, count_only, label, count))
        cells.append(cell)
    return _interleave(cells)


# symmetric: weak jobs per (k, rank), most at rank 8 (the median) and 9
# (the 90th percentile); every kschur (k, degree) once, in a fixed order
# that keeps the costly high degrees apart.  kschur has no other input, so
# a timed run gets through the first few of these only.
WEAK_CELLS = tuple((k, rank, size) for k in (2, 3, 4, 5)
                   for rank, size in ((7, 48), (8, 80), (9, 64), (10, 8)))
KSCHUR_CELLS = ((3, 5), (4, 8), (5, 6), (3, 7), (5, 9), (4, 5), (3, 9), (5, 7),
                (4, 6), (3, 6), (4, 9), (5, 5), (3, 8), (5, 8), (4, 7))


def symmetric_jobs(rng) -> list[dict]:
    cells = []
    seen = {README_WEAK[1:]}
    for k, rank, size in WEAK_CELLS:
        cell = []
        while len(cell) < size:
            u = random_grassmannian(k, rng.randint(0, 6), rng)
            w = u
            for _ in range(rank):
                w = rng.choice(weak_steps(w))
            if _fresh(seen, (u, w)):
                cell.append(_weak_job(k, u, w, f"weak:k{k}-rank{rank}"))
        cells.append(cell)
    cells.append([_kschur_job(k, d, f"kschur:k{k}-d{d}") for k, d in KSCHUR_CELLS])
    return _interleave(cells)


# operators: relations jobs per (k, rule), RELATION_ROUNDS rounds of the
# rules in a fixed order, each job with its own sweep seed; embed jobs per
# (n, rank) of zeta, kept to ranks whose affine interval stays small and to
# at most about half of the zetas of each class
RULES = ("A", "B1", "B2", "C1", "C2", "D", "E1", "E2", "F",
         "X1", "X2", "X3", "X4", "X5", "X6")
SWEEP_TRIALS = 25
RELATION_ROUNDS = 9
EMBED_CELLS = ((5, 2, 15), (5, 3, 15), (5, 4, 12), (5, 5, 5),
               (6, 3, 30), (6, 4, 30), (6, 5, 30), (6, 6, 30),
               (7, 3, 35), (7, 4, 35), (7, 5, 35))


def operator_jobs(rng) -> list[dict]:
    cells = []
    seen = {README_ZETA}
    for k in (2, 3, 4, 5):
        cell = []
        for _ in range(RELATION_ROUNDS):
            for rule in RULES:
                sweep_seed = rng.randrange(10**6)
                while not _fresh(seen, (k, rule, sweep_seed)):
                    sweep_seed = rng.randrange(10**6)
                cell.append({"argv": ["relations", "--k", str(k), "--rules", rule,
                                      "--sweep", str(SWEEP_TRIALS), "--seed", str(sweep_seed)],
                             "label": f"relations:k{k}"})
        cells.append(cell)
    for n, rank, size in EMBED_CELLS:
        cell = []
        while len(cell) < size:
            zeta = _random_zeta(n, rng)
            u, w, _ = interval_from_zeta(zeta)
            if inversions(w) - inversions(u) == rank and _fresh(seen, zeta):
                cell.append(_embed_job(zeta, f"embed:S{n}-rank{rank}"))
        cells.append(cell)
    return _interleave(cells)


WORKLOADS = ("finite", "affine", "symmetric", "operators")
_SEEDED = {"finite": finite_jobs, "affine": affine_jobs,
           "symmetric": symmetric_jobs, "operators": operator_jobs}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The reference jobs, then the seeded jobs, for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return reference_jobs(workload) + _SEEDED[workload](rng)

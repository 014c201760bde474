"""Placing an r-Bruhat interval inside the affine 0-Bruhat graph.

Given a nonempty interval [x, y]_r of finite permutations, a value
placement on the integer axis yields a 0-grassmannian u and a shift s
such that replacing every chain step (a, b) by the affine step
(a-s, b-s) sends each chain of the interval to a nonzero path from u,
and all images share one endpoint.
"""

from dataclasses import dataclass, field

from . import affinegraph, qsym, rbruhat
from .affineperm import AffinePermutation, is_grassmannian, window_eval
from .errors import NotGrassmannianResult
from .interval import DEFAULT_CAP
from .rbruhat import FinitePermutation, SchubertChain


@dataclass(frozen=True)
class EmbeddingData:
    """The affine picture of one finite interval."""

    k: int
    s: int
    u: AffinePermutation
    v: AffinePermutation
    source_interval: tuple[FinitePermutation, FinitePermutation, int]
    u_prime_window: tuple[int, ...]


def _segments(breaks: list[int]) -> list[tuple[int, int]]:
    """Consecutive (start, end] blocks between break positions."""
    return [(breaks[i] + 1, breaks[i + 1]) for i in range(len(breaks) - 1)]


def build_embedding(x: FinitePermutation, y: FinitePermutation, r: int) -> EmbeddingData:
    """Construct (k, s, u, v) for a nonempty interval [x, y]_r.

    k+1 is the least window size fixing everything beyond it.  The
    window [1, k+1] splits into the runs of x cut at its descents and at
    r; runs after r are laid out right to left with downward shifts of
    k+1, runs before r right to left above them, so the values 1..k+1
    land left to right in distinct residues.  The window sum then
    dictates the shift s that renormalizes u' into a group element u.
    Degenerate runs (no descent on one side of r) just produce fewer
    blocks.
    """
    n1 = max(len(x.images), len(y.images), r + 1, 2)  # this is k+1
    k = n1 - 1
    alphas = [p for p in range(1, r) if x(p) > x(p + 1)]
    betas = [p for p in range(r + 1, n1) if x(p) > x(p + 1)]
    ell = len(alphas)

    # placement: position -> value, walking value 1..k+1 from the last block up
    placement: dict[int, int] = {}
    after = _segments([r] + betas + [n1])
    before = _segments([0] + alphas + [r])
    value = 1
    for q in range(len(after), 0, -1):
        lo, hi = after[q - 1]
        shift = -(q - 1) * n1
        for j in range(lo, hi + 1):
            placement[x(j) + shift] = value
            value += 1
    for q in range(len(before), 0, -1):
        lo, hi = before[q - 1]
        shift = (ell + 2 - q) * n1
        for j in range(lo, hi + 1):
            placement[x(j) + shift] = value
            value += 1

    window = [None] * n1
    for pos, val in placement.items():
        j = (pos - 1) % n1 + 1
        if window[j - 1] is not None:
            raise NotGrassmannianResult(f"positions collide mod {n1} for {x.images}")
        window[j - 1] = val + (j - pos)
    u_prime = tuple(window)
    target = n1 * (n1 + 1) // 2
    s, rem = divmod(target - sum(window), n1)
    if rem:
        raise NotGrassmannianResult(f"window sum defect not divisible by {n1}")
    u = AffinePermutation((window_eval(u_prime, i + s) for i in range(1, n1 + 1)), k)
    if not is_grassmannian(u):
        raise NotGrassmannianResult(f"construction for {x.images} left W^0")

    if x == y:
        v = u
    else:
        chain = rbruhat.first_chain(x, y, r)
        image = _map_steps(chain.steps, s, u)
        if image is None:
            raise NotGrassmannianResult("canonical chain mapped to zero")
        v = image.end()
    return EmbeddingData(k, s, u, v, (x, y, r), u_prime)


def _map_steps(steps, s: int, u: AffinePermutation):
    edges = []
    cur = u
    for a, b in steps:
        nxt = affinegraph.apply_t(cur, a - s, b - s)
        if nxt is None:
            return None
        edges.append(affinegraph.AffineEdge(a - s, b - s, nxt))
        cur = nxt
    return affinegraph.AffinePath(u, tuple(edges))


def map_chain(chain: SchubertChain, e: EmbeddingData):
    """Image of a finite chain under (a, b) -> t(a-s, b-s), or None on zero."""
    return _map_steps(chain.steps, e.s, e.u)


@dataclass
class EmbeddingReport:
    """Chain-by-chain verification of one embedding."""

    data: EmbeddingData
    chains_total: int
    mapped_nonzero: int
    common_endpoint: bool
    k_schubert: qsym.QuasiSymFn
    k_affine: qsym.QuasiSymFn
    dominated: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.mapped_nonzero == self.chains_total
                and self.common_endpoint and self.dominated)


def verify_embedding(e: EmbeddingData, cap: int = DEFAULT_CAP) -> EmbeddingReport:
    """Map every chain of the source interval and compare the K functions;
    one finite DAG, capped as in rbruhat.all_chains, gives the chains and K."""
    x, y, r = e.source_interval
    dag = rbruhat.interval_dag(x, y, r)
    dag.check_cap(cap, "chain")
    chains = [SchubertChain(x, steps) for steps in dag.walks()]
    failures = []
    nonzero = 0
    endpoints = set()
    for c in chains:
        img = map_chain(c, e)
        if img is None:
            failures.append(("zero image", c))
            continue
        nonzero += 1
        endpoints.add(img.end())
    common = len(endpoints) == 1 and (not chains or endpoints == {e.v})
    k_schub = dag.k_function()
    # the cap bounds the affine vertex sweep only, never the path count
    k_aff = affinegraph.interval_dag(e.u, e.v, cap).k_function()
    dominated = k_aff.dominates(k_schub)
    if not common:
        failures.append(("endpoints differ", sorted(w.window for w in endpoints)))
    if not dominated:
        failures.append(("no coefficientwise domination", None))
    return EmbeddingReport(e, len(chains), nonzero, common, k_schub, k_aff,
                           dominated, failures)

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

    image = _map_steps(rbruhat.first_chain(x, y, r).steps, s, u)  # empty when x == y
    if image is None:
        raise NotGrassmannianResult("canonical chain mapped to zero")
    return EmbeddingData(k, s, u, image.end(), (x, y, r), u_prime)


def _map_steps(steps, s: int, u: AffinePermutation):
    edges, cur = [], u
    for a, b in steps:
        cur = affinegraph.apply_t(cur, a - s, b - s)
        if cur is None:
            return None
        edges.append(affinegraph.AffineEdge(a - s, b - s, cur))
    return affinegraph.AffinePath(u, tuple(edges))


def map_chain(chain: SchubertChain, e: EmbeddingData):
    """Image of a finite chain under (a, b) -> t(a-s, b-s), or None on zero."""
    return _map_steps(chain.steps, e.s, e.u)


@dataclass
class EmbeddingReport:
    """Edge-by-edge verification of one embedding; a failure names the
    finite edge (vertex, (a, b)) where an image was zero or differed."""

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
    """Map each edge of the source interval once and compare the K functions;
    one finite DAG, capped as in rbruhat.all_chains, gives the edges and K.

    Steps t_1, ..., t_m from x swap values, so they reach z = t_m ... t_1 x
    and map to u psi(t_1) ... psi(t_m) = u psi(x z^-1), where psi(t(a, b))
    = t(a-s, b-s) is the shift-conjugated inclusion of S_{k+1} in the affine
    group.  So the image at z, and whether a step from z maps to zero,
    depend on z alone: one image per vertex and a forward count of the
    chains with no zero step are exact.  An in-edge whose image differs
    from the stored one is a failure and denies the common endpoint.
    """
    x, y, r = e.source_interval
    dag = rbruhat.interval_dag(x, y, r)
    dag.check_cap(cap, "chain")
    image, ways = {dag.start: e.u}, {dag.start: 1}
    failures, parted = [], False
    for layer in dag.layers[:-1]:
        for z in (z for z in layer if z in image):  # no image: each chain to z has a zero
            for (a, b), _, above in dag.succ[z]:
                img = affinegraph.apply_t(image[z], a - e.s, b - e.s)
                if img is None:
                    failures.append(("zero image", (z, (a, b))))
                    continue
                if image.setdefault(above, img) != img:
                    parted = True
                    failures.append(("images differ", (z, (a, b))))
                ways[above] = ways.get(above, 0) + ways[z]
    nonzero = ways.get(dag.end, 0)
    common = not parted and nonzero > 0 and image[dag.end] == e.v
    k_schub = dag.k_function()
    # the cap bounds the affine vertex sweep only, never the path count
    k_aff = affinegraph.interval_dag(e.u, e.v, cap).k_function()
    dominated = k_aff.dominates(k_schub)
    if not common:
        failures.append(("endpoint is not v", image.get(dag.end)))
    if not dominated:
        failures.append(("no coefficientwise domination", None))
    return EmbeddingReport(e, dag.count(), nonzero, common, k_schub, k_aff,
                           dominated, failures)

"""Placing an r-Bruhat interval inside the affine 0-Bruhat graph.

Given a nonempty interval [x, y]_r of finite permutations, one integer
shift per position of x, read off x's descent runs, yields a
0-grassmannian u and a shift s such that replacing every chain step
(a, b) by the affine step (a-s, b-s) sends each chain of the interval
to a nonzero path from u, and all images share one endpoint.
"""

from collections import namedtuple

from . import affinegraph, rbruhat
from .affineperm import AffinePermutation, is_grassmannian, window_eval
from .errors import NotGrassmannianResult
from .interval import DEFAULT_CAP
from .rbruhat import FinitePermutation, SchubertChain


class EmbeddingData(namedtuple("EmbeddingData", "k s u v source_interval u_prime_window")):
    """The affine picture of one finite interval; source_interval is (x, y, r)."""

    __slots__ = ()


def build_embedding(x: FinitePermutation, y: FinitePermutation, r: int) -> EmbeddingData:
    """Construct (k, s, u, v) for a nonempty interval [x, y]_r.

    k+1 is the least window size fixing everything beyond it.  Each
    position j = 1..k+1 gets a shift c_j: c_1 = l+1, where l counts the
    descents of x below r; c_j drops by one at each descent x(j-1) > x(j)
    and resets to 0 at j = r+1.  So c_j is constant on each run of x cut
    at its descents and at r, and falls from run to run.  With rank_j the
    1-based position of (c_j, j) in lexicographic order, u' has the entry
    rank_j - c_j(k+1) at index x(j), and s = sum of the c_j.

    x permutes 1..k+1, so each index gets one entry.  The entries are
    congruent to the ranks 1..k+1 mod k+1, so their residues are
    distinct, and their sum is (k+1)(k+2)/2 - (k+1)s, so u(i) = u'(i+s)
    has the window sum of a group element.  The validating
    AffinePermutation constructor checks both facts again.
    """
    n1 = max(len(x.images), len(y.images), r + 1, 2)  # this is k+1
    k = n1 - 1
    c = 1 + sum(x(j) > x(j + 1) for j in range(1, r))
    pairs = []
    for j in range(1, n1 + 1):
        c = 0 if j == r + 1 else c - (j > 1 and x(j - 1) > x(j))
        pairs.append((c, j))
    window = [0] * n1
    for rank, (c, j) in enumerate(sorted(pairs), 1):
        window[x(j) - 1] = rank - c * n1
    u_prime, s = tuple(window), sum(c for c, _ in pairs)
    u = AffinePermutation((window_eval(u_prime, i + s) for i in range(1, n1 + 1)), k)
    if not is_grassmannian(u):
        raise NotGrassmannianResult(f"construction for {x.images} left W^0")

    steps = rbruhat.first_chain(x, y, r).steps  # empty when x == y
    v = affinegraph.apply_word(u, ((a - s, b - s) for a, b in steps))
    if v is None:
        raise NotGrassmannianResult("canonical chain mapped to zero")
    return EmbeddingData(k, s, u, v, (x, y, r), u_prime)


def map_chain(chain: SchubertChain, e: EmbeddingData):
    """Image of a finite chain under (a, b) -> t(a-s, b-s), or None on zero."""
    edges, cur = [], e.u
    for a, b in chain.steps:
        cur = affinegraph.apply_t(cur, a - e.s, b - e.s)
        if cur is None:
            return None
        edges.append(affinegraph.AffineEdge(a - e.s, b - e.s, cur))
    return affinegraph.AffinePath(e.u, tuple(edges))


class EmbeddingReport(namedtuple("EmbeddingReport", "data chains_total mapped_nonzero "
                                   "common_endpoint k_schubert k_affine dominated failures")):
    """Edge-by-edge verification of one embedding; a failure names the
    finite edge (vertex, (a, b)) where an image was zero or differed."""

    __slots__ = ()

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

"""The Hasse DAG of a graded interval, the chain functions read off it,
and the positional cover rule that both orders share.

An adapter supplies the out-steps of a vertex; the DAG asks for them once
per vertex, rank by rank from the start, then prunes what cannot reach
the end.  The chain count and K, keyed by descent sets, come from DPs
over the layers; chains are listed on request, without recursion.
"""

from . import qsym
from .errors import CapExceeded

DEFAULT_CAP = 10**6


def nothing_between(vals, i: int, j: int) -> bool:
    """The cover rule at 0-based positions i < j of a run of values:
    vals[i] < vals[j] and no entry strictly between the two positions
    has a value strictly between theirs."""
    lo, hi = vals[i], vals[j]
    if lo >= hi:
        return False
    for v in vals[i + 1:j]:
        if lo < v < hi:
            return False
    return True


class HasseDAG:
    """The saturated chains of [start, end] as a layered DAG.

    `out_steps(x, depth)` returns the steps leaving a vertex x of the
    given depth as (step, label, target) triples, in the order in which
    chains are to be listed.  A negative rank gives the empty interval.
    """

    __slots__ = ("start", "end", "rank", "layers", "succ")

    def __init__(self, start, end, rank: int, out_steps):
        self.start, self.end, self.rank = start, end, rank
        self.succ = {}
        if rank < 0:
            self.layers = [[]]
            return
        layers = [[start]]
        for depth in range(rank):
            reached = {}
            for x in layers[-1]:
                steps = self.succ[x] = list(out_steps(x, depth))
                for _, _, y in steps:
                    reached[y] = None
            layers.append(list(reached))
        # keep only what lies on a chain to end, walking back from it
        layers[-1] = [end] if end in layers[-1] else []
        alive = set(layers[-1])
        for layer in reversed(layers[:-1]):
            for x in layer:
                self.succ[x] = [s for s in self.succ[x] if s[2] in alive]
            layer[:] = [x for x in layer if self.succ[x]]
            alive = set(layer)
        self.layers = layers

    def count(self) -> int:
        """Number of saturated chains, by a forward DP over the layers."""
        ways = dict.fromkeys(self.layers[0], 1)
        for layer in self.layers[:-1]:
            for x in layer:
                for _, _, y in self.succ[x]:
                    ways[y] = ways.get(y, 0) + ways[x]
        return ways.get(self.end, 0)

    def check_cap(self, cap: int, noun: str) -> None:
        """Raise CapExceeded when more than cap chains of positive rank exist."""
        if self.rank > 0 and self.count() > cap:
            raise CapExceeded(f"{noun} cap {cap} exceeded")

    def k_function(self) -> qsym.QuasiSymFn:
        """Sum of F over the descent compositions of the chains' label sequences.

        The DP state at a vertex maps (last label, descent set so far) to
        the number of partial chains that reach it that way; a strict
        descent before the step at depth d sets bit d.
        """
        states = {self.start: {(None, 0): 1}}
        for depth, layer in enumerate(self.layers[:-1]):
            for x in layer:
                here = states.pop(x)
                for _, label, y in self.succ[x]:
                    there = states.setdefault(y, {})
                    for (last, mask), c in here.items():
                        if last is not None and last > label:
                            mask |= 1 << depth
                        there[label, mask] = there.get((label, mask), 0) + c
        ends = states.get(self.end, {}).items()
        return qsym.from_descent_sets(qsym.F, (((self.rank, m), c) for (_, m), c in ends))

    def walks(self) -> list[tuple]:
        """Every chain as a tuple of steps, in the order out_steps lists them;
        one step iterator per depth stands in for recursion."""
        if not self.rank or not self.layers[0]:
            return [()] * len(self.layers[0])  # the empty chain, if start is end
        last = self.rank - 1
        found = []
        chain = [None] * self.rank
        pending = [iter(self.succ[self.start])] + [None] * last
        depth = 0
        while depth >= 0:
            for step, _, y in pending[depth]:
                chain[depth] = step
                if depth == last:
                    found.append(tuple(chain))
                else:
                    depth += 1
                    pending[depth] = iter(self.succ[y])
                    break
            else:
                depth -= 1
        return found

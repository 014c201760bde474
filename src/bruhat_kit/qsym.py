"""Integer quasisymmetric functions (M and F bases) and symmetric functions.

Coefficients are Python ints, so enumeration counts never overflow.
Sums collect on (weight, descent set) keys and build each index tuple once.
Equality of quasisymmetric functions compares M-basis normal forms, so a
function is equal to itself regardless of the basis it is held in.
"""

from . import combinat
from .combinat import Composition, Partition
from .errors import NotSymmetric

M = "M"
F = "F"


class _Combination:
    """A finitely supported integer combination in one basis.

    Subclasses set _bases, the basis names they accept, _kind, their
    name in errors, and _index, which validates one index.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms: dict | None = None):
        if basis not in self._bases:
            raise ValueError(f"unknown {self._kind} basis {basis!r}")
        self.basis = basis
        out: dict = {}
        for i, c in (terms or {}).items():  # indices that canonicalize alike add up
            i = self._index(i) if i else ()
            out[i] = out.get(i, 0) + int(c)
        self.terms = {i: c for i, c in out.items() if c}

    def coeff(self, index) -> int:
        return self.terms.get(tuple(index), 0)

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("cannot add functions held in different bases")
        out = dict(self.terms)
        for i, c in other.terms.items():
            out[i] = out.get(i, 0) + c
        return type(self)(self.basis, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar: int):
        return type(self)(self.basis, {i: scalar * c for i, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        body = " + ".join(f"{c}*{self.basis}{list(i)}"
                          for i, c in sorted(self.terms.items(), reverse=True))
        return body or "0"

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [{"index": list(i), "coeff": c}
                      for i, c in sorted(self.terms.items(), reverse=True)],
        }


class QuasiSymFn(_Combination):
    """A finitely supported integer combination of M- or F-basis elements."""

    __slots__ = ()
    _bases = (M, F)
    _kind = "quasisymmetric"
    _index = staticmethod(combinat.as_composition)

    def degrees(self) -> set[int]:
        return {sum(i) for i in self.terms}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiSymFn):
            return NotImplemented
        return to_m(self).terms == to_m(other).terms

    def __hash__(self):
        return hash((QuasiSymFn, frozenset(to_m(self).terms.items())))

    def dominates(self, other: "QuasiSymFn") -> bool:
        """Coefficientwise >= comparison, taken in this function's basis."""
        other = to_m(other) if self.basis == M else to_f(other)
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(i, 0) >= other.terms.get(i, 0) for i in keys)


class SymFn(_Combination):
    """A finitely supported integer combination in the m, h or s basis."""

    __slots__ = ()
    _bases = ("m", "h", "s")
    _kind = "symmetric"
    _index = staticmethod(combinat.as_partition)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFn):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self):
        return hash((SymFn, self.basis, frozenset(self.terms.items())))


def from_descent_sets(basis: str, pairs) -> QuasiSymFn:
    """Sum c*B_alpha over pairs ((weight, descent set of alpha), c)."""
    out: dict[tuple[int, int], int] = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return QuasiSymFn(basis, {combinat.from_descent_set(mask, n): c
                              for (n, mask), c in out.items()})


def f_sum(label_sequences) -> QuasiSymFn:
    """Sum of F over the descent compositions of the given label sequences."""
    return from_descent_sets(F, (((len(labels), combinat.descent_mask(labels)), 1)
                                 for labels in label_sequences))


def _refinement_sum(q: QuasiSymFn, basis: str, sign: int) -> QuasiSymFn:
    """q in basis: each c*B_beta becomes sign^(bits added) * c on each refinement of beta.

    A subset-sum transform on (weight, descent set) keys, one bit at a
    time (Yates): for bit i = 1, 2, ..., each key of weight n > i lacking
    bit i adds sign times its coefficient to the same key with bit i set.
    """
    if q.basis == basis:
        raise ValueError(f"the function is already in the {basis} basis")
    out = {(sum(beta), combinat.descent_set(beta)): c for beta, c in q.terms.items()}
    for i in range(1, max((n for n, _ in out), default=0)):
        bit = 1 << i
        for (n, mask), c in list(out.items()):
            if n > i and not mask & bit:
                out[n, mask | bit] = out.get((n, mask | bit), 0) + sign * c
    return from_descent_sets(basis, out.items())


def m_to_f(q: QuasiSymFn) -> QuasiSymFn:
    """Re-express an M-basis function in the F basis.

    Uses M_alpha = sum over compositions beta refining alpha of
    (-1)^(len(beta) - len(alpha)) F_beta, the inclusion-exclusion inverse
    of the refinement-sum rule implemented by :func:`f_to_m`.
    """
    return _refinement_sum(q, F, -1)


def f_to_m(q: QuasiSymFn) -> QuasiSymFn:
    """Re-express an F-basis function in the M basis: F_beta = sum of M over refinements."""
    return _refinement_sum(q, M, 1)


def to_m(q: QuasiSymFn) -> QuasiSymFn:
    return q if q.basis == M else f_to_m(q)


def to_f(q: QuasiSymFn) -> QuasiSymFn:
    return q if q.basis == F else m_to_f(q)


def is_symmetric(q: QuasiSymFn) -> bool:
    """True iff M-coefficients are constant on compositions with equal part multisets.

    Terms hold no zeros, so a class of rearrangements is full exactly when
    it has as many members as lam has rearrangements; none is listed.
    """
    classes: dict[Partition, list[int]] = {}
    for alpha, c in to_m(q).terms.items():
        entry = classes.setdefault(tuple(sorted(alpha, reverse=True)), [c, 0])
        if entry[0] != c:
            return False
        entry[1] += 1
    return all(members == combinat.rearrangement_count(lam)
               for lam, (_, members) in classes.items())


def schur_expand(q: QuasiSymFn) -> SymFn:
    """Expand a symmetric quasisymmetric function in Schur functions.

    Solves the unitriangular system c_mu = sum_lam d_lam * K(lam, mu)
    degree by degree, walking partitions in decreasing lex order (a
    linear extension of dominance, which carries the Kostka
    triangularity).  Coefficients may be negative.
    """
    mq = to_m(q)
    if not is_symmetric(mq):
        raise NotSymmetric("input has no Schur expansion")
    out: dict[Partition, int] = {}
    for n in sorted(mq.degrees()):
        if n == 0:
            out[()] = mq.terms.get((), 0)
            continue
        solved: dict[Partition, int] = {}
        for mu in combinat.partitions_of(n):
            c = mq.terms.get(mu, 0)
            for lam, d in solved.items():
                c -= d * combinat.kostka(lam, mu)
            if c:
                solved[mu] = c
        out.update(solved)
    return SymFn("s", out)


def h_expand_to_schur(lam: Partition) -> SymFn:
    """Schur expansion of the complete homogeneous product indexed by lam."""
    lam = combinat.as_partition(lam)
    n = sum(lam)
    terms = {}
    for mu in combinat.partitions_of(n):
        k = combinat.kostka(mu, lam)
        if k:
            terms[mu] = k
    return SymFn("s", terms)


def schur_to_m(f: SymFn) -> QuasiSymFn:
    """Expand an s-basis function into the monomial quasisymmetric basis."""
    if f.basis != "s":
        raise ValueError("schur_to_m expects an s-basis function")
    out: dict[Composition, int] = {}
    for lam, d in f.terms.items():
        if not lam:
            out[()] = out.get((), 0) + d
            continue
        for mu in combinat.partitions_of(sum(lam)):
            k = combinat.kostka(lam, mu)
            if not k:
                continue
            for alpha in combinat.distinct_rearrangements(mu):
                out[alpha] = out.get(alpha, 0) + d * k
    return QuasiSymFn(M, out)

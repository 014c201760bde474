"""Affine permutations in window notation and the core bijection.

An affine permutation for a given k is a bijection of the integers with
u(i + k+1) = u(i) + k+1, stored by its main window (u(1), ..., u(k+1)).
The window entries are pairwise distinct modulo k+1 and sum to the fixed
value (k+2 choose 2).  An entry of 0 counts as nonpositive everywhere.

Everything about 0-grassmannians and (k+1)-cores is read off one abacus
(James-Kerber): in each residue class of positions mod k+1 the entries are
<= 0 up to one position, the class *top*, and positive after it.  u is
0-grassmannian when its tops, read left to right, carry -k, ..., 0, and the
tops, read as beads (beta-numbers), draw the boundary path of the core.  A
partition's beads also give its hooks, so the core test and the k-bounded
rows are read off them.
"""

from collections import namedtuple
from functools import lru_cache

from . import combinat
from .combinat import Partition
from .errors import BadPair, KMismatch, NotACore, NotGrassmannian


class AffinePermutation:
    """An element of the affine symmetric group, given by k and a main window."""

    __slots__ = ("k", "window")

    def __init__(self, window, k: int | None = None):
        window = tuple(int(x) for x in window)
        if k is None:
            k = len(window) - 1
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if len(window) != k + 1:
            raise ValueError(f"window must have length k+1: {window}")
        n = k + 1
        residues = [w % n for w in window]
        if len(set(residues)) != n:
            raise ValueError(f"window entries must be distinct mod {n}: {window}")
        if sum(window) != n * (n + 1) // 2:
            raise ValueError(
                f"window sum must be {n * (n + 1) // 2}, got {sum(window)}: {window}")
        self.k = k
        self.window = window

    @classmethod
    def _trusted(cls, window: tuple, k: int) -> "AffinePermutation":
        """Build from a window of ints that is valid by construction; no checks."""
        self = object.__new__(cls)
        self.k = k
        self.window = window
        return self

    @classmethod
    def identity(cls, k: int) -> "AffinePermutation":
        return cls(range(1, k + 2), k)

    @classmethod
    def generator(cls, k: int, i: int) -> "AffinePermutation":
        """The simple reflection s_i, 0 <= i <= k."""
        if not 0 <= i <= k:
            raise ValueError(f"generator index out of range: {i}")
        w = list(range(1, k + 2))
        if i == 0:
            w[0] = 0
            w[k] = k + 2
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return cls(w, k)

    def __call__(self, i: int) -> int:
        n = self.k + 1
        j = (i - 1) % n + 1
        return self.window[j - 1] + (i - j)

    def position(self, value: int) -> int:
        """The unique position p with u(p) = value."""
        n = self.k + 1
        for j, w in enumerate(self.window, 1):
            if (value - w) % n == 0:
                return j + (value - w)

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        if self.k != other.k:
            raise KMismatch(f"k mismatch: {self.k} vs {other.k}")
        return AffinePermutation(
            (self(other(i)) for i in range(1, self.k + 2)), self.k)

    def right_transpose(self, a: int, b: int) -> "AffinePermutation":
        """u * t(a,b), where t(a,b) swaps positions a + m(k+1) and b + m(k+1) for all m."""
        return AffinePermutation._trusted(window_transpose(self.window, a, b), self.k)

    def right_multiply_s(self, i: int) -> "AffinePermutation":
        """u * s_i without building the generator: s_i = t(i, i+1)."""
        return self.right_transpose(i, i + 1)

    def __eq__(self, other):
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        return self.k == other.k and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"AffinePermutation({list(self.window)})"

    def text(self) -> str:
        return "[" + ",".join(str(x) for x in self.window) + "]"


def parse_window(text: str, k: int | None = None) -> AffinePermutation:
    """Parse "[-6,8,3,-1,4,13]" or a bare comma/space separated list."""
    body = text.strip().lstrip("[").rstrip("]")
    parts = [p for p in body.replace(",", " ").split() if p]
    return AffinePermutation((int(p) for p in parts), k)


def window_eval(window, i: int) -> int:
    """Periodic evaluation of a raw window that need not be normalized.

    Useful for intermediate windows whose sum invariant only holds after
    a shift of positions.
    """
    n = len(window)
    j = (i - 1) % n + 1
    return window[j - 1] + (i - j)


def window_transpose(window: tuple, a: int, b: int) -> tuple:
    """The window of u * t(a,b), for the u with this window (see right_transpose)."""
    n = len(window)
    ja, jb = (a - 1) % n, (b - 1) % n  # 0-based window slots of positions a, b
    if ja == jb:
        raise BadPair(f"({a}, {b}) lie in one residue class mod {n}")
    # slot ja gets u(b) - (a - 1 - ja): shifting a position by n shifts its value by n
    shift = (b - jb) - (a - ja)
    w = list(window)
    w[ja], w[jb] = window[jb] + shift, window[ja] - shift
    return tuple(w)


def length_affine(u: AffinePermutation) -> int:
    """Inversion count by Shi's formula: sum over i < j of |floor((u(j) - u(i))/(k+1))|."""
    n = u.k + 1
    w = u.window
    return sum(abs((w[j] - w[i]) // n) for i in range(n) for j in range(i + 1, n))


def _tops(u: AffinePermutation) -> list[int]:
    """The top of each residue class, by window slot: the last position p = j mod k+1
    with u(p) <= 0, for slot j = 1..k+1.  The entry there is -((-u(j)) mod (k+1))."""
    n = u.k + 1
    return [j + (-w) // n * n for j, w in enumerate(u.window, 1)]


@lru_cache(maxsize=1 << 16)
def is_grassmannian(u: AffinePermutation) -> bool:
    """True iff the values 1, ..., k+1 appear at increasing positions.

    Shifted down by k+1 that says the values -k, ..., 0 do, and those are
    the entries at the class tops: read left to right, the tops carry -k, ..., 0.
    """
    n = u.k + 1
    tops = sorted(zip(_tops(u), u.window))
    return all((-w) % n == n - 1 - i for i, (_, w) in enumerate(tops))


class CorePartition(namedtuple("CorePartition", "partition modulus")):
    """A partition with no hook of length n, the modulus: no bead b > n has a gap at b - n."""

    __slots__ = ()

    def __new__(cls, partition, modulus: int):
        self = super().__new__(cls, combinat.as_partition(partition), modulus)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        beads = set(_beads(self.partition))
        if any(b > modulus and b - modulus not in beads for b in beads):
            raise NotACore(f"{self.text()} has a hook of length {modulus}")
        return self

    def text(self) -> str:
        return "(" + ",".join(str(x) for x in self.partition) + ")"


def _beads(lam: Partition) -> list[int]:
    """The beta-numbers lam_i + len(lam) - i of lam, rising; every position
    <= 0 counts as a bead too.  Each hook of lam joins a bead b to a gap
    g < b, a position >= 1 with no bead, and has length b - g."""
    return [part + i for i, part in enumerate(reversed(lam), 1)]


@lru_cache(maxsize=1 << 16)
def to_core(u: AffinePermutation) -> CorePartition:
    """Read the (k+1)-core off the window's sign sequence.

    Walking positions left to right, an entry <= 0 (at or before the top of
    its class) is a vertical step of the core's boundary path and a positive
    entry a horizontal step.  The row cut off by a vertical step has as many
    cells as there are positive entries before it, which anchors the path
    without any absolute index convention.
    """
    if not is_grassmannian(u):
        raise NotGrassmannian(f"{u.text()} is not 0-grassmannian")
    n = u.k + 1
    tops = _tops(u)
    rows = []
    positives = 0
    for p in range(min(tops), max(tops) + 1):
        if p > tops[(p - 1) % n]:
            positives += 1
        elif positives:
            rows.append(positives)
    return CorePartition(tuple(reversed(rows)), n)  # rows come out shortest first


def from_core(core: CorePartition, k: int) -> AffinePermutation:
    """The 0-grassmannian whose boundary path draws the given (k+1)-core.

    Anchored at position 1, the vertical steps are every position <= 0 and
    the beads of the core.  The top of each class is its last vertical step,
    grassmannianity forces the tops to carry -k, ..., 0 left to right, and a
    shift of positions by s restores the sum invariant.  Nothing needs a
    check: the n = k+1 tops carry -k..0, which sum to -n(n-1)/2, so the sum
    defect is n(n + the sum of floor((p-1)/n) over the tops p), a multiple of
    n.  With f the raw window extended periodically, each top p has f(p) = v
    in -k..0, so f(p) <= 0 < f(p+n) = v + n: p is its class's top, and the
    tops carry -k..0 from left to right.  The shift by s keeps both facts.
    """
    if core.modulus != k + 1:
        raise NotACore(f"core modulus {core.modulus} does not match k+1={k + 1}")
    n = k + 1
    steps = [*range(1 - n, 1), *_beads(core.partition)]
    tops = {(p - 1) % n: p for p in steps}  # steps rise, so each class keeps its last
    window = [0] * n
    for val, p in zip(range(-k, 1), sorted(tops.values())):
        window[(p - 1) % n] = val - (p - 1) // n * n
    s = (n * (n + 1) // 2 - sum(window)) // n
    return AffinePermutation((window_eval(window, i + s) for i in range(1, n + 1)), k)


def kbounded_from_core(core: CorePartition) -> Partition:
    """Delete the cells of hook length > k and left-justify the rows: the row with
    bead b has the hooks b - g over the gaps g < b, and keeps those with b - k <= g."""
    k = core.modulus - 1
    beads = _beads(core.partition)
    taken = set(beads)
    return combinat.as_partition(
        sum(1 for g in range(max(b - k, 1), b) if g not in taken) for b in reversed(beads))

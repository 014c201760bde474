"""Exception types shared across the package.

Operator evaluations that hit the zero of the monoid return ``None``
rather than raising; these exceptions are reserved for genuine contract
violations (bad input, empty intervals, blown enumeration caps) and for
verifications that ran and found their claim false.
"""


class BruhatKitError(Exception):
    """Base class for all package errors."""


class EmptyChain(BruhatKitError):
    """A label sequence was empty where a nonempty one is required."""


class NotSymmetric(BruhatKitError):
    """A quasisymmetric function is not symmetric, so it has no Schur expansion."""


class IdentityInput(BruhatKitError):
    """The identity permutation was passed where a nontrivial one is needed."""


class EmptyInterval(BruhatKitError):
    """The requested interval contains no chain."""


class CapExceeded(BruhatKitError):
    """An enumeration exceeded the configured cap."""


class VerificationFailed(BruhatKitError):
    """A verification ran to the end and found a claim false."""


class NotGrassmannian(BruhatKitError):
    """An affine permutation is not 0-grassmannian."""


class NotACore(BruhatKitError):
    """A partition has a hook of the forbidden length."""


class KMismatch(BruhatKitError):
    """Two affine permutations live in groups with different k."""


class BadPair(BruhatKitError):
    """A transposition pair (a, b) violates the residue or gap constraints."""


class MOutOfRange(BruhatKitError):
    """A Pieri degree m lies outside 1..k."""


class PatternMismatch(BruhatKitError):
    """Letters passed to a relation check do not fit the relation's pattern."""


class NotGrassmannianResult(BruhatKitError):
    """Internal consistency failure: a construction promised a 0-grassmannian."""


class NotUnitriangular(BruhatKitError):
    """Internal consistency failure: the Pieri matrix lost its unit triangle."""

"""Exception taxonomy shared by all voltlift modules."""


class VoltliftError(Exception):
    """Base class for all voltlift errors."""


class MismatchedGroups(VoltliftError):
    """Operands belong to different groups."""


class IncompleteRepresentation(VoltliftError):
    """A representation is missing matrices for some group elements."""


class IdentityInS(VoltliftError):
    """A Cayley connection set contains the identity."""


class NotInverseClosed(VoltliftError):
    """An undirected Cayley connection set is not closed under inverses."""


class LoopsUnsupported(VoltliftError):
    """The operation is undefined on graphs with loops."""


class KOutOfRange(VoltliftError):
    """A token/subset count k lies outside 1..n."""


class InvalidPairing(VoltliftError):
    """Arcs cannot be paired into digons with inverse voltages."""


class NotFreeAction(VoltliftError):
    """A translation orbit of k-subsets is smaller than the group."""

    def __init__(self, message, subset=None):
        super().__init__(message)
        self.subset = subset


class NotCoprime(VoltliftError):
    """johnson_base needs gcd(n, k) = 1; otherwise some k-subset of Z_n is
    fixed by a nontrivial rotation and the translation action is not free."""


class InvalidGenerators(VoltliftError):
    """Circulant generator list violates 0 < a_1 < ... < a_s or m < 2*a_s + 1."""


class DimensionTooLarge(VoltliftError):
    """Matrix dimension exceeds the supported dense eigensolver cap."""


class NoConvergence(VoltliftError):
    """The eigensolver failed to converge or returned bad residuals."""


class NonAbelianGroup(VoltliftError):
    """Character-based spectra need an abelian group; use rep_spectrum."""


class IncompleteIrreps(VoltliftError):
    """Supplied irreducible representations do not cover the group."""


class NotRegularSpectrum(VoltliftError):
    """Spectrum does not belong to a k-regular graph with the stated counts."""


class LengthMismatch(VoltliftError):
    """Vector length does not match the number of base vertices."""

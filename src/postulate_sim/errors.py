"""Exception types and process exit codes shared across the package."""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOCKED = 2  # teleportation under strict von Neumann semantics


class PostulateSimError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(PostulateSimError):
    """Matrix fails the Hermiticity tolerance."""


class DimensionMismatch(PostulateSimError):
    """Operands live on incompatible spaces."""


class IndexOutOfRange(PostulateSimError):
    """Subsystem or eigenvalue index outside the valid range."""


class UnresolvedDegeneracy(PostulateSimError):
    """Eigenvalues chain within the merge tolerance but span more than it."""


class InvalidOracle(PostulateSimError):
    """Oracle table violates its declared class (constant/balanced or 2-to-1)."""


class InvalidMarkedSet(PostulateSimError):
    """Grover marked set is empty or covers the whole search space."""


class RankDeficient(PostulateSimError):
    """Sampling budget exhausted before the linear system reached full usable rank."""


class FullRank(PostulateSimError):
    """GF(2) system admits no nonzero nullspace vector."""

"""Exception types raised across the library."""


class DdrError(Exception):
    """Base class for all library errors."""


class ParseError(DdrError):
    """Malformed mesh file or unreadable input."""


class TopologyError(DdrError):
    """Invalid mesh connectivity (non-manifold edge, open cell loop, ...)."""


class GeometryError(DdrError):
    """Degenerate geometry (zero-area cell, zero-length edge, bad fan triangle)."""


class SingularGram(DdrError):
    """Basis numerically rank deficient; Gram matrix not positive definite."""


class SingularLocalSystem(DdrError):
    """Local reconstruction system is singular or too ill-conditioned."""


class SolverFailure(DdrError):
    """Global sparse factorization failed or residual above tolerance."""


class ConfigError(DdrError):
    """Invalid run configuration."""


class DegenerateRate(DdrError):
    """Convergence rate undefined (repeated mesh size)."""


class ZeroNormError(DdrError):
    """Relative error undefined: a zero or non-finite (overflowing) energy norm."""

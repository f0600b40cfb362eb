"""Error hierarchy.

``BlsError`` is the root; the CLI maps these to exit code 2 (numerical
failure) while argparse usage errors exit with 1.
"""

from __future__ import annotations

__all__ = [
    "BlsError",
    "DomainError",
    "IntegrationError",
    "RootFindingError",
    "ZeroProbabilityError",
    "SingularInformationError",
    "ParseError",
    "PositivityError",
]


class BlsError(Exception):
    """Base class for all library-raised failures."""


class DomainError(BlsError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(BlsError, RuntimeError):
    """The fixed-panel integration engine could not resolve its integrand."""


class RootFindingError(BlsError, RuntimeError):
    """Bracketing or root refinement failed."""


class ZeroProbabilityError(BlsError, ValueError):
    """Conditioning event has numerically zero probability."""


class SingularInformationError(BlsError, RuntimeError):
    """Observed information matrix is singular or not positive definite."""


class ParseError(BlsError, ValueError):
    """Malformed input data; message carries the 1-based data row number."""


class PositivityError(ParseError):
    """Nonpositive observation in data that must be strictly positive."""

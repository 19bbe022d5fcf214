"""The failures every layer shares: ProblemFormatError for bad input (and
the rank check that raises it), and certificate re-checks that also run
under ``python -O``.

This module imports nothing from jkvkit, so every layer can use it.
"""

from __future__ import annotations

from operator import index


class ProblemFormatError(ValueError):
    """A value read from a problem file or flag is malformed: the user's
    fault, never a bug.  Raised where the value is checked."""


class CertificateError(Exception):
    """A certificate failed its re-check: an internal error, never a verdict."""


def require(cond: bool, msg: str) -> None:
    """Raise CertificateError(msg) unless cond.  Unlike assert, the check
    also runs under python -O."""
    if not cond:
        raise CertificateError(msg)


def read_rank(rank) -> int:
    """rank read with ``operator.index``; ProblemFormatError unless it is an
    integer >= 0 (rank 0 is valid)."""
    try:
        rank = index(rank)
    except TypeError:
        raise ProblemFormatError("rank must be an integer") from None
    if rank < 0:
        raise ProblemFormatError("rank must be >= 0")
    return rank

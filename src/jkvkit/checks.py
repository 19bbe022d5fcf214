"""Certificate re-checks that also run under ``python -O``.

This module imports nothing from jkvkit, so every layer can use it.
"""

from __future__ import annotations


class CertificateError(Exception):
    """A certificate failed its re-check: an internal error, never a verdict."""


def require(cond: bool, msg: str) -> None:
    """Raise CertificateError(msg) unless cond.  Unlike assert, the check
    also runs under python -O."""
    if not cond:
        raise CertificateError(msg)

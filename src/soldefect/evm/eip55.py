"""EIP-55 mixed-case address checksums.

An address literal is acceptable when it is all-lowercase or all-uppercase
(checksum-agnostic spellings) or when its mixed-case form matches the
canonical checksum exactly.
"""

from __future__ import annotations

import string
from functools import lru_cache

from .keccak import keccak256

_HEX_DIGITS = set(string.hexdigits)


class AddressError(ValueError):
    """Raised for literals that are not 40 hex characters."""


def _strip_prefix(address: str) -> str:
    body = address[2:] if address[:2].lower() == "0x" else address
    if len(body) != 40 or any(ch not in _HEX_DIGITS for ch in body):
        raise AddressError(f"not a 40-hex-digit address: {address!r}")
    return body


def checksum_address(address: str) -> str:
    """Return the canonical mixed-case form, 0x-prefixed.

    A hex letter is uppercased iff the corresponding nibble of
    keccak256(lowercase ascii address body) is >= 8.
    """
    return "0x" + _checksum_body(_strip_prefix(address).lower())


@lru_cache(maxsize=1024)
def _checksum_body(body: str) -> str:
    """The checksummed spelling of a lowercase body; memoised, since every
    case spelling of one address hashes the same lowercase body."""
    digest = keccak256(body.encode("ascii")).hex()
    out = []
    for ch, nibble in zip(body, digest):
        out.append(ch.upper() if ch.isalpha() and int(nibble, 16) >= 8 else ch)
    return "".join(out)


def is_valid_address(literal: str) -> bool:
    """True for well-formed literals that pass the checksum rule."""
    try:
        body = _strip_prefix(literal)
    except AddressError:
        return False
    letters = [ch for ch in body if ch.isalpha()]
    if all(ch.islower() for ch in letters) or all(ch.isupper() for ch in letters):
        return True  # checksum-agnostic spellings (includes all-digit addresses)
    return checksum_address(body) == "0x" + body

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from soldefect.eip55 import (AddressError, checksum_address,
                                 is_valid_address)

# The four canonical mixed-case examples from the checksum standard.
OFFICIAL_VECTORS = [
    "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
    "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
    "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
    "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
]


@pytest.mark.parametrize("vector", OFFICIAL_VECTORS)
def test_official_vectors_canonicalize(vector):
    assert checksum_address(vector.lower()) == vector
    assert is_valid_address(vector)


@pytest.mark.parametrize("vector", OFFICIAL_VECTORS)
def test_case_agnostic_spellings_validate(vector):
    body = vector[2:]
    assert is_valid_address("0x" + body.lower())
    assert is_valid_address("0x" + body.upper())


def test_canonicalize_idempotent():
    for vector in OFFICIAL_VECTORS:
        once = checksum_address(vector)
        assert checksum_address(once) == once


def test_single_case_flip_invalidates():
    # brute-force every flippable character of one canonical address
    canonical = checksum_address(OFFICIAL_VECTORS[0])[2:]
    flips = 0
    for i, ch in enumerate(canonical):
        if not ch.isalpha():
            continue
        flipped = canonical[:i] + ch.swapcase() + canonical[i + 1:]
        assert not is_valid_address("0x" + flipped), flipped
        flips += 1
    assert flips > 0


@pytest.mark.parametrize("bad", [
    "0x1234",                                      # too short
    "0x" + "f" * 39,                               # 39 digits
    "0x" + "f" * 41,                               # 41 digits
    "0x" + "g" * 40,                               # not hex
    "",
])
def test_malformed_literals(bad):
    assert not is_valid_address(bad)
    with pytest.raises(AddressError):
        checksum_address(bad)


def test_prefix_optional_for_canonicalization():
    body = OFFICIAL_VECTORS[0][2:]
    assert checksum_address(body) == OFFICIAL_VECTORS[0]


@given(st.integers(min_value=0, max_value=(1 << 160) - 1))
def test_random_addresses_roundtrip(value):
    body = format(value, "040x")
    canonical = checksum_address(body)
    assert checksum_address(canonical) == canonical
    assert is_valid_address(canonical)
    assert is_valid_address("0x" + body)


def test_listing_owner_address_is_invalid():
    # the golden corpus owner literal: the intended address checksums to a
    # final 'F', the typed literal ends in 'D', so the checksum fails
    literal = "0xDCaD000000000000000000000000000005D1d3aD"
    intended = literal[:-1].lower() + "f"
    assert checksum_address(intended) == literal[:-1] + "F"
    assert not is_valid_address(literal)

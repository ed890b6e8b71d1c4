from __future__ import annotations

from hypothesis import given, settings, strategies as st

from soldefect.evm.keccak import keccak256

from conftest import function_selector, keccak256_hex

# Reference digests computed with the standard Keccak-256 (independent of
# this code base).
KNOWN_DIGESTS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"transfer(address,uint256)":
        "a9059cbb2ab09eb219583f4a59a5d0623ade346d962bcd4e46b11da047c9049b",
}

# The canonical ERC-20 selector table (independently known constants).
ERC20_SELECTORS = {
    "totalSupply()": "18160ddd",
    "balanceOf(address)": "70a08231",
    "transfer(address,uint256)": "a9059cbb",
    "transferFrom(address,address,uint256)": "23b872dd",
    "approve(address,uint256)": "095ea7b3",
    "allowance(address,address)": "dd62ed3e",
}


def test_known_digests():
    for data, digest in KNOWN_DIGESTS.items():
        assert keccak256_hex(data) == digest


def test_transfer_selector_is_a9059cbb():
    assert function_selector("transfer(address,uint256)").hex() == "a9059cbb"


def test_all_erc20_selectors():
    for signature, selector in ERC20_SELECTORS.items():
        assert function_selector(signature).hex() == selector


def test_determinism():
    assert keccak256(b"same input") == keccak256(b"same input")


def test_rejects_str():
    import pytest
    with pytest.raises(TypeError):
        keccak256("text")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Cross-check against an independent bit-level implementation (state held
# as 1600 individual bits rather than 25 64-bit lanes).

_RC = [0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
       0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
       0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
       0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
       0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
       0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
       0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
       0x8000000000008080, 0x0000000080000001, 0x8000000080008008]


def _bit(state, x, y, z):
    return state[64 * (5 * y + x) + z]


def _set(state, x, y, z, v):
    state[64 * (5 * y + x) + z] = v


def _bit_keccak_f(state: list[int]) -> list[int]:
    for rnd in range(24):
        # theta
        c = [[0] * 64 for _ in range(5)]
        for x in range(5):
            for z in range(64):
                c[x][z] = (_bit(state, x, 0, z) ^ _bit(state, x, 1, z)
                           ^ _bit(state, x, 2, z) ^ _bit(state, x, 3, z)
                           ^ _bit(state, x, 4, z))
        d = [[c[(x - 1) % 5][z] ^ c[(x + 1) % 5][(z - 1) % 64]
              for z in range(64)] for x in range(5)]
        for x in range(5):
            for y in range(5):
                for z in range(64):
                    _set(state, x, y, z, _bit(state, x, y, z) ^ d[x][z])
        # rho and pi
        b = [0] * 1600
        x, y = 1, 0
        offsets = {(0, 0): 0}
        t_x, t_y, off = 1, 0, 0
        for t in range(24):
            off = ((t + 1) * (t + 2) // 2) % 64
            offsets[(t_x, t_y)] = off
            t_x, t_y = t_y, (2 * t_x + 3 * t_y) % 5
        for x in range(5):
            for y in range(5):
                off = offsets[(x, y)]
                for z in range(64):
                    nx, ny = y, (2 * x + 3 * y) % 5
                    b[64 * (5 * ny + nx) + z] = _bit(state, x, y, (z - off) % 64)
        # chi
        for x in range(5):
            for y in range(5):
                for z in range(64):
                    _set(state, x, y, z,
                         b[64 * (5 * y + x) + z]
                         ^ ((b[64 * (5 * y + (x + 1) % 5) + z] ^ 1)
                            & b[64 * (5 * y + (x + 2) % 5) + z]))
        # iota
        rc = _RC[rnd]
        for z in range(64):
            if (rc >> z) & 1:
                _set(state, 0, 0, z, _bit(state, 0, 0, z) ^ 1)
    return state


def _bit_keccak256(data: bytes) -> bytes:
    rate = 136
    padded = bytearray(data)
    pad_len = rate - (len(padded) % rate)
    padded.append(0x01)
    padded.extend(b"\x00" * (pad_len - 1))
    padded[-1] ^= 0x80
    state = [0] * 1600
    for start in range(0, len(padded), rate):
        for i in range(rate):
            byte = padded[start + i]
            for bit in range(8):
                idx = 8 * i + bit
                state[idx] ^= (byte >> bit) & 1
        state = _bit_keccak_f(state)
    out = bytearray(32)
    for i in range(32):
        byte = 0
        for bit in range(8):
            byte |= state[8 * i + bit] << bit
        out[i] = byte
    return bytes(out)


def test_bit_oracle_agrees_on_vectors():
    assert _bit_keccak256(b"").hex() == KNOWN_DIGESTS[b""]


@settings(max_examples=12, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_cross_implementation_agreement(data):
    # exercises single- and multi-block absorption (rate is 136 bytes)
    assert keccak256(data) == _bit_keccak256(data)

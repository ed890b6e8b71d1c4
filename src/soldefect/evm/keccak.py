"""Keccak-256 (the pre-NIST-padding variant used by Ethereum).

Pure-Python sponge over keccak-f[1600], and slow: about 0.5 ms per
permutation, so a 40-character address string costs about as much as
disassembling 500 instructions. Callers keep it off their hot paths: the
ERC-20 selectors that D10 matches are written out as literals, and EIP-55
checksums are memoised by lowercase body. Correctness is pinned by
reference vectors in the test suite.
"""

from __future__ import annotations

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offset for lane (x, y), flattened as x + 5*y.
_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

_MASK = (1 << 64) - 1

_RATE_BYTES = 136  # 1088-bit rate, 512-bit capacity


def _rol(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (64 - shift))) & _MASK


def _keccak_f(lanes: list[int]) -> None:
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
             for x in range(5)]
        for x in range(5):
            d = c[(x - 1) % 5] ^ _rol(c[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                lanes[x + y] ^= d
        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rol(lanes[x + 5 * y],
                                                        _ROTATIONS[5 * y + x])
        # chi
        for y in range(0, 25, 5):
            for x in range(5):
                lanes[y + x] = b[y + x] ^ (~b[y + (x + 1) % 5] & b[y + (x + 2) % 5])
        # iota
        lanes[0] ^= rc


def keccak256(data: bytes) -> bytes:
    """Digest ``data`` with Keccak-256 (0x01 domain padding, not SHA3's 0x06)."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
    lanes = [0] * 25
    buf = bytearray(data)
    # multi-rate padding: 0x01 ... 0x80 (single byte 0x81 when one pad byte fits)
    pad_len = _RATE_BYTES - (len(buf) % _RATE_BYTES)
    buf.append(0x01)
    buf.extend(b"\x00" * (pad_len - 1))
    buf[-1] ^= 0x80

    for block_start in range(0, len(buf), _RATE_BYTES):
        block = buf[block_start:block_start + _RATE_BYTES]
        for i in range(0, _RATE_BYTES, 8):
            lanes[i // 8] ^= int.from_bytes(block[i:i + 8], "little")
        _keccak_f(lanes)

    out = bytearray()
    for lane in lanes[:4]:
        out += lane.to_bytes(8, "little")
    return bytes(out)

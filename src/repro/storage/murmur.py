"""MurmurHash3 (x86, 32-bit) — the hash RAMCloud-style stores use to
partition keys across storage servers (paper §4.1 names MurmurHash3).

Pure-Python reference implementation; verified against the canonical
test vectors in the test suite. :func:`hash_node_ids` is the same hash of
a whole id array in ``uint32`` lanes, checked against the reference.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK32 = 0xFFFFFFFF
_C1 = 0xCC9E2D51
_C2 = 0x1B873593


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _fmix32(h: int) -> int:
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """32-bit MurmurHash3 of ``data``."""
    length = len(data)
    h = seed & _MASK32
    rounded = length & ~0x3

    for offset in range(0, rounded, 4):
        k = struct.unpack_from("<I", data, offset)[0]
        k = (k * _C1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * _C2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    k = 0
    tail = length & 0x3
    if tail >= 3:
        k ^= data[rounded + 2] << 16
    if tail >= 2:
        k ^= data[rounded + 1] << 8
    if tail >= 1:
        k ^= data[rounded]
        k = (k * _C1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * _C2) & _MASK32
        h ^= k

    return _fmix32(h ^ length)


def hash_node_id(node_id: int, seed: int = 0) -> int:
    """Hash an integer node id (little-endian 8-byte encoding)."""
    return murmur3_32(struct.pack("<q", node_id), seed)


def hash_node_ids(ids: np.ndarray) -> np.ndarray:
    """:func:`hash_node_id` (seed 0) of every id in an ``int64`` array.

    The 8-byte little-endian key is two body blocks (its ``uint32``
    halves) and no tail; ``uint32`` arrays wrap modulo 2**32 by themselves.
    """
    keys = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    h = np.zeros(keys.shape, dtype=np.uint32)
    for k in (keys.astype(np.uint32), (keys >> 32).astype(np.uint32)):
        h ^= _rotl32(k * _C1, 15) * _C2
        h = _rotl32(h, 13) * 5 + 0xE6546B64
    return _fmix32(h ^ 8)  # 8 = key length

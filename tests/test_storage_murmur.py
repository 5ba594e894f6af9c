"""MurmurHash3 verified against the canonical test vectors."""

import numpy as np
import pytest

from repro.core import GraphAssets
from repro.datasets import webgraph_like
from repro.storage import hash_node_id, hash_node_ids, murmur3_32


# Canonical vectors for MurmurHash3 x86 32-bit (from the reference
# implementation's test suite and widely cross-checked ports).
VECTORS = [
    (b"", 0, 0x00000000),
    (b"", 1, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"a", 0, 0x3C2569B2),
    (b"aaaa", 0x9747B28C, 0x5A97808A),
    (b"abc", 0, 0xB3DD93FA),
    (b"Hello, world!", 0, 0xC0363E43),
    (b"Hello, world!", 0x9747B28C, 0x24884CBA),
    (b"The quick brown fox jumps over the lazy dog", 0x9747B28C, 0x2FA826CD),
]


@pytest.mark.parametrize("data,seed,expected", VECTORS)
def test_reference_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


def test_output_is_32_bit():
    for i in range(100):
        value = murmur3_32(str(i).encode())
        assert 0 <= value < 2**32


def test_deterministic():
    assert murmur3_32(b"stable") == murmur3_32(b"stable")


def test_seed_changes_output():
    assert murmur3_32(b"key", 0) != murmur3_32(b"key", 1)


def test_hash_node_id_spreads_sequential_ids():
    # Sequential node ids must not collapse onto few buckets: measure
    # bucket spread over 4 servers for 10k sequential ids.
    buckets = [0] * 4
    for node in range(10_000):
        buckets[hash_node_id(node) % 4] += 1
    for count in buckets:
        assert 2200 <= count <= 2800  # within ~12% of the 2500 ideal


def test_hash_node_id_negative_ids():
    # Node ids are signed; hashing must accept the full int64 range.
    assert 0 <= hash_node_id(-1) < 2**32
    assert hash_node_id(-1) != hash_node_id(1)


def test_hash_node_ids_equals_the_scalar_reference():
    rng = np.random.default_rng(5)
    ids = np.concatenate([
        np.array([0, 1, -1, -2**63, 2**63 - 1, 2**32 - 1, 2**32, -2**32]),
        rng.integers(-2**63, 2**63 - 1, size=2000, endpoint=True),
        rng.integers(0, 100_000, size=500),
    ]).astype(np.int64)
    hashed = hash_node_ids(ids)
    assert hashed.dtype == np.uint32
    assert hashed.tolist() == [hash_node_id(n) for n in ids.tolist()]
    assert hash_node_ids(np.empty(0, dtype=np.int64)).shape == (0,)
    # Strided input: the lanes are computed from values, not from memory.
    assert hash_node_ids(ids[::3]).tolist() == hashed[::3].tolist()


def test_owner_array_equals_scalar_hash_mod_servers():
    assets = GraphAssets(webgraph_like(scale=0.05, seed=1))
    owners = assets.owner_array(4)
    assert owners.dtype == np.int32
    assert owners.tolist() == [
        hash_node_id(n) % 4 for n in assets.node_ids.tolist()
    ]

"""Hierarchical, reproducible seed derivation.

Every random stream in the package is addressed by a root seed plus a path of
integers (experiment seed -> sequence index -> trajectory index -> stream id).
The same (root, path) always yields the same generator, independent of the
order in which streams are created, so parallel and serial execution produce
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream ids appended as the last path element by the simulator.
STREAM_INJECTED = 0
STREAM_NATIVE = 1
STREAM_PULSE_JITTER = 2
STREAM_MEASUREMENT = 3

# numpy's SeedSequence hashing constants (NEP 19), stable across releases.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an integer."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_keys(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant, as (xor key, multiplier) per hash step."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hash(value: np.ndarray, keys: Iterator[tuple[int, int]]) -> np.ndarray:
    # uint32 arrays wrap modulo 2**32, as SeedSequence's C arithmetic does
    xor, mult = next(keys)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


class _RowState(ISeedSequence):
    """One row's ``generate_state(4, uint64)`` words, handed to numpy's PCG64 seeding."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class SeedLineage:
    """Root seed plus the derivation path that produced a stream."""

    root: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *indices: int) -> "SeedLineage":
        return SeedLineage(self.root, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.root, spawn_key=self.path)
        return np.random.default_rng(seq)

    def row_generators(
        self, n_rows: int, *suffix: int
    ) -> Iterator[tuple[int, np.random.Generator]]:
        """Yield ``(r, rng)`` for ``r < n_rows``, ``rng`` in the state of
        ``self.child(r, *suffix).generator()``.

        SeedSequence's entropy mixing and ``generate_state(4, uint64)`` run over
        all rows at once on uint32 arrays; numpy's PCG64 then seeds each row's
        own Generator from its four words.
        """
        run = _uint32_words(int(self.root))
        # a spawn key is present, so SeedSequence zero-pads the root to the pool size
        run += [0] * (_POOL_SIZE - len(run))
        head = run + [w for i in self.path for w in _uint32_words(int(i))]
        tail = [w for i in suffix for w in _uint32_words(int(i))]
        entropy = np.repeat(np.array(head + [0] + tail, np.uint32)[:, None], n_rows, axis=1)
        entropy[len(head)] = np.arange(n_rows)  # r < 2**32 is one word

        keys = _hash_keys(_INIT_A, _MULT_A)
        pool = [_hash(word, keys) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], keys))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hash(word, keys))
        keys = _hash_keys(_INIT_B, _MULT_B)
        state = np.stack([_hash(pool[i % _POOL_SIZE], keys) for i in range(8)], axis=1)
        # as SeedSequence does: little-endian word pairs, then native byte order
        for r, words in enumerate(state.astype("<u4").view("<u8").astype(np.uint64)):
            yield r, np.random.Generator(np.random.PCG64(_RowState(words)))


def as_lineage(seed: "int | SeedLineage") -> SeedLineage:
    if isinstance(seed, SeedLineage):
        return seed
    return SeedLineage(int(seed))

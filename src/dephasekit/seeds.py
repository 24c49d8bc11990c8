"""Hierarchical, reproducible seed derivation.

Every random stream in the package is addressed by a root seed plus a path of
integers, and one address opens one generator.  The simulator opens each stream of a
sequence at (experiment seed -> sequence label -> 0 -> stream id) and draws its rows,
gate trajectories or SDR shots, from that one generator in row order; the bootstrap
draws every resample from the root's own generator.  The same (root, path) always
yields the same generator, independent of the order in which streams are created, so
parallel and serial execution produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Bumped whenever a stream draws different numbers for the same seed; version 2 draws gate
# trajectories and bootstrap resamples as rows of one generator per stream.
STREAM_VERSION = 2

# Stream ids appended as the last path element by the simulator.
STREAM_INJECTED = 0
STREAM_NATIVE = 1
STREAM_PULSE_JITTER = 2
STREAM_MEASUREMENT = 3


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


def as_lineage(seed: "int | SeedLineage") -> SeedLineage:
    if isinstance(seed, SeedLineage):
        return seed
    return SeedLineage(int(seed))

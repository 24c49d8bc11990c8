"""Seed derivation: the batched per-row streams equal numpy's own construction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasekit.seeds import STREAM_MEASUREMENT, SeedLineage


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    root=st.integers(min_value=0, max_value=2**128 - 1),
    prefix=st.lists(st.integers(min_value=2**32, max_value=2**128), max_size=3),
    n_rows=st.integers(min_value=1, max_value=300),
    suffix=st.lists(st.integers(min_value=0, max_value=2**40), max_size=1),
)
@example(root=0, prefix=[], n_rows=1, suffix=[])
@example(root=2**32, prefix=[], n_rows=300, suffix=[STREAM_MEASUREMENT])
def test_row_generators_equal_child_generators(root, prefix, n_rows, suffix):
    lineage = SeedLineage(root, tuple(prefix))
    rows = 0
    for r, rng in lineage.row_generators(n_rows, *suffix):
        ref = lineage.child(r, *suffix).generator()
        assert r == rows
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
        # p varies by row, as in the gate measurement
        p = (r % 7 + 1) / 8
        assert rng.binomial(100, p) == ref.binomial(100, p)
        rows += 1
    assert rows == n_rows
    # each row has its own generator, so rows collected first stay independent
    collected = list(lineage.row_generators(n_rows, *suffix))
    for r, rng in collected:
        ref = lineage.child(r, *suffix).generator()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))


@pytest.mark.parametrize(
    "lineage, suffix",
    [(SeedLineage(-1), ()), (SeedLineage(1, (-2,)), ()), (SeedLineage(1), (-3,))],
    ids=["root", "path", "suffix"],
)
def test_row_generators_reject_negative_entries(lineage, suffix):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        lineage.child(0, *suffix).generator()
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(lineage.row_generators(2, *suffix))

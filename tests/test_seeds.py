"""Seed derivation: a lineage opens numpy's own SeedSequence at its path."""

import pytest

from dephasekit.seeds import SeedLineage


@pytest.mark.parametrize(
    "lineage, suffix",
    [(SeedLineage(-1), ()), (SeedLineage(1, (-2,)), ()), (SeedLineage(1), (-3,))],
    ids=["root", "path", "suffix"],
)
def test_lineage_rejects_negative_entries(lineage, suffix):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        lineage.child(0, *suffix).generator()

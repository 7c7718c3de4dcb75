"""Fixtures shared by several test modules."""

import pytest

import calbounds.binning as binning_mod


@pytest.fixture()
def assign_calls(monkeypatch):
    """(scheme, block size) of every block that ``binning._blocks`` numbers during the test.

    Every bin index is taken there: by ``assign``, the per-bin reduction
    ``binning._sums``, ``ece_reformulated`` and ``apply_recalibrator``.
    """
    calls = []
    real = binning_mod._blocks

    def counting(scheme, scores):
        for lo, s, j in real(scheme, scores):
            calls.append((scheme, int(s.size)))
            yield lo, s, j

    monkeypatch.setattr(binning_mod, "_blocks", counting)
    return calls

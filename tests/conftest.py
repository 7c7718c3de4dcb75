"""Fixtures shared by several test modules."""

import numpy as np
import pytest

import calbounds.binning as binning_mod


@pytest.fixture()
def assign_calls(monkeypatch):
    """(scheme, score count) of every bin index taken during the test.

    Counts calls of ``binning._bin_index``, which ``assign`` calls once, and the
    per-bin reduction ``binning._sums`` and ``ece_reformulated`` once per block.
    """
    calls = []
    real = binning_mod._bin_index

    def counting(scheme, scores):
        calls.append((scheme, int(np.size(scores))))
        return real(scheme, scores)

    monkeypatch.setattr(binning_mod, "_bin_index", counting)
    return calls

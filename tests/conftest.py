"""Fixtures shared by several test modules."""

import numpy as np
import pytest

import calbounds.binning as binning_mod


@pytest.fixture()
def assign_calls(monkeypatch):
    """(scheme, score count) of every ``binning.assign`` call made during the test."""
    calls = []
    real = binning_mod.assign

    def counting(scheme, score):
        calls.append((scheme, int(np.size(score))))
        return real(scheme, score)

    monkeypatch.setattr(binning_mod, "assign", counting)
    return calls

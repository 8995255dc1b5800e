"""Fixtures shared by the test modules."""

import pytest

from reference_twins import ReferencePaths


@pytest.fixture
def reference_paths(monkeypatch):
    """Puts the hot path's reference twins in place on request (see
    :mod:`reference_twins`); every patch is undone after the test."""
    return ReferencePaths(monkeypatch)

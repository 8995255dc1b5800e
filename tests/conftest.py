"""Fixtures shared by the test modules, and ``benchmarks/`` on the path:
tests import its harness modules (``common``, ``mutants``, the bench
scripts) by their bare names."""

import os
import sys

import pytest

from reference_twins import ReferencePaths

_BENCHMARKS = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)


@pytest.fixture
def reference_paths(monkeypatch):
    """Puts the hot path's reference twins in place on request (see
    :mod:`reference_twins`); every patch is undone after the test."""
    return ReferencePaths(monkeypatch)

"""Fixtures shared by the test modules."""

import pytest

from cybundle import search


@pytest.fixture
def pool_on_small_boxes(monkeypatch):
    """Let `run_search` hand a require-free box of any size to its process
    pool, as it does a box of `_POOL_MIN_MODELS` models or more, so that a
    small box still tests the chunks and their merge."""
    monkeypatch.setattr(search, "_POOL_MIN_MODELS", 1)


@pytest.fixture
def pool_on_required_boxes(monkeypatch, pool_on_small_boxes):
    """`pool_on_small_boxes` for required boxes too, which `run_search`
    otherwise always scans in the calling process."""
    monkeypatch.setattr(search, "_pool_pays", lambda config, models: models >= search._POOL_MIN_MODELS)

"""Fixtures shared by the test modules."""

import pytest

from clusteralg import bipartite


@pytest.fixture
def fresh_belt():
    """An empty shared belt (`bipartite.belt_of`) before and after the test,
    so that work counted on the belt path does not depend on test order."""
    bipartite._shared_belt.cache_clear()
    yield
    bipartite._shared_belt.cache_clear()

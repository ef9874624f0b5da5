"""Fixtures shared by the test modules."""

import pytest

from footprint_lab import varieties


@pytest.fixture
def fresh_row_tables():
    """An empty row-table cache, emptied again afterwards, so that a table
    built under a patched CHUNK_CAP or RowTable reaches no other test."""
    varieties.projective_row_table.cache_clear()
    yield
    varieties.projective_row_table.cache_clear()

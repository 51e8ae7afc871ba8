import pytest

import kostka_forge


@pytest.fixture
def cold_caches():
    """Empty memo tables on entry and on exit: the test builds every value
    it reads, and no value built under its monkeypatches outlives it."""
    kostka_forge.clear_caches()
    yield
    kostka_forge.clear_caches()

import pytest

from veronese import classify, geometry


@pytest.fixture(autouse=True)
def fresh_determinant_memo():
    """Every test starts and ends with an empty determinant memo, so no
    test sees curve rows or chirotope signs memoized by another (a
    patched function would not reach rows made before the patch)."""
    geometry._determinant_memo.cache_clear()
    yield
    geometry._determinant_memo.cache_clear()


@pytest.fixture(autouse=True)
def fresh_classify_references():
    """Every test starts and ends with empty reference caches in
    `classify`, so a test that counts facet counts does not depend on
    which (d, nv) the test before it classified."""
    classify._reference_keys.cache_clear()
    classify._cyclic_facets.cache_clear()
    yield
    classify._reference_keys.cache_clear()
    classify._cyclic_facets.cache_clear()

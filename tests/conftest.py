import pytest

from veronese import geometry


@pytest.fixture(autouse=True)
def fresh_determinant_memo():
    """Every test starts and ends with an empty determinant memo, so no
    test sees curve rows or chirotope signs memoized by another (a
    patched function would not reach rows made before the patch)."""
    geometry._determinant_memo.cache_clear()
    yield
    geometry._determinant_memo.cache_clear()

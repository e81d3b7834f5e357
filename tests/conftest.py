import pytest

from kroncalc import memo


@pytest.fixture(autouse=True, scope="module")
def cold_memos():
    """Each test module starts with every memo empty and leaves them empty,
    so no module's results depend on which modules ran before it."""
    memo.clear()
    yield
    memo.clear()

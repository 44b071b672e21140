import pytest

from pcentropy.catalog import get as catalog_get


@pytest.fixture(scope="module")
def tent():
    return catalog_get("tent").map


@pytest.fixture(scope="module")
def identity():
    return catalog_get("identity").map

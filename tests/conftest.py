"""Suite-wide fixtures."""

import pytest

from zerosum import cache


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_dir(tmp_path_factory):
    """Point the search cache at a fresh directory, never the user's own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(cache.ENV_VAR, str(tmp_path_factory.mktemp("zs-cache")))
        yield

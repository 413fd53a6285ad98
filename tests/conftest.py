import pytest

from uncplan import scenario


@pytest.fixture(scope="session", autouse=True)
def _tests_cache_dir(tmp_path_factory):
    """The tests' decode cache, module-scoped fixtures included, so that no test writes to the home directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "CACHE_DIR", tmp_path_factory.mktemp("home") / "cache")
        yield


@pytest.fixture
def cache_dir(tmp_path_factory, monkeypatch):
    """This test's own decode cache, empty and not yet made."""
    path = tmp_path_factory.mktemp("home") / "cache"
    monkeypatch.setattr(scenario, "CACHE_DIR", path)
    return path

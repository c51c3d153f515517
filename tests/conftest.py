# Anchors the tests directory on sys.path so shared helpers
# (oracles.py, synth_benchmark.py) import as plain modules.

import pytest


@pytest.fixture(autouse=True)
def _private_cache_home(tmp_path_factory, monkeypatch):
    """Point XDG_CACHE_HOME at a directory of this test's own, so that no
    test reads or writes the user's vector-file cache or another test's
    entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))

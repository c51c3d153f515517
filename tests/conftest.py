# Anchors the tests directory on sys.path so shared helpers
# (oracles.py, synth_benchmark.py) import as plain modules.

import pytest


@pytest.fixture(autouse=True)
def _private_cache_home(tmp_path_factory, monkeypatch):
    """Point XDG_CACHE_HOME at a directory of this test's own, so that no
    test reads or writes the user's input caches (the vector-file and the
    records entries) or another test's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


@pytest.fixture()
def count_parses(monkeypatch):
    """One item per records file that was parsed, not read from the cache."""
    from nameblind import data

    calls = []
    for name in ("_read_tabular", "_read_text"):
        parse = getattr(data, name)
        monkeypatch.setattr(data, name,
                            lambda *args, parse=parse: calls.append(1) or parse(*args))
    return calls

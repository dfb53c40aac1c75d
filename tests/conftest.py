import sys
from pathlib import Path

import pytest

# Test helpers (oracles, fault injection) live beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def graph_cache(tmp_path, monkeypatch):
    """Each test's own empty graph cache: the CLI's first load of a topology
    in a test is a miss, and a later load of the same text a hit."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "zonesim"

"""The scrape endpoint's collector list."""

from repro.service.collectors import COLLECTORS


def test_builtins_are_discovered():
    names = [name for name, _ in COLLECTORS]
    assert names == ["jobs", "resilience", "service"]
    assert all(callable(collect) for _, collect in COLLECTORS)

"""The package root's public surface."""

import nansde as nd


def test_every_exported_name_resolves_once():
    assert len(nd.__all__) == len(set(nd.__all__))
    assert [name for name in nd.__all__ if not hasattr(nd, name)] == []

"""The package's public names."""

import types

import mselast


def test_all_names_resolve_and_none_is_a_module():
    assert len(mselast.__all__) == len(set(mselast.__all__))
    for name in mselast.__all__:
        assert not isinstance(getattr(mselast, name), types.ModuleType), name
    assert "schwarz" not in mselast.__all__ and "build_preconditioner" in mselast.__all__

"""The package namespace exports only names that exist."""

import vacmin


def test_every_exported_name_resolves():
    missing = [name for name in vacmin.__all__ if not hasattr(vacmin, name)]
    assert missing == []

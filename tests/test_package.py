"""The package's public name list."""

import clasplab


def test_all_names_exist_once():
    assert len(clasplab.__all__) == len(set(clasplab.__all__))
    missing = [n for n in clasplab.__all__ if not hasattr(clasplab, n)]
    assert missing == []

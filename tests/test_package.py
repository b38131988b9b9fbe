"""Package surface tests."""

import lincoder


def test_every_exported_name_resolves():
    missing = [name for name in lincoder.__all__ if not hasattr(lincoder, name)]
    assert missing == []
    assert len(set(lincoder.__all__)) == len(lincoder.__all__)

"""The package's public surface."""

import adsbplace


def test_every_exported_name_resolves():
    missing = [name for name in adsbplace.__all__ if not hasattr(adsbplace, name)]
    assert missing == []
    assert len(set(adsbplace.__all__)) == len(adsbplace.__all__)

"""The package's export list."""

import supportsize


def test_every_export_resolves_once():
    names = supportsize.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(supportsize, name)]
    assert missing == []

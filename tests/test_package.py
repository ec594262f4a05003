import rtkit


def test_every_export_resolves():
    missing = [name for name in rtkit.__all__ if not hasattr(rtkit, name)]
    assert missing == []

"""Package surface: every exported name resolves."""

import roelab


def test_all_exports_resolve():
    missing = [name for name in roelab.__all__ if not hasattr(roelab, name)]
    assert missing == []
    assert len(set(roelab.__all__)) == len(roelab.__all__)

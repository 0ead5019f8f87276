import pigeonproof


def test_every_export_resolves():
    missing = [name for name in pigeonproof.__all__ if not hasattr(pigeonproof, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(pigeonproof.__all__) == len(set(pigeonproof.__all__))

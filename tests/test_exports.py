import ringpiv


def test_every_exported_name_resolves_once():
    assert len(ringpiv.__all__) == len(set(ringpiv.__all__))
    missing = [name for name in ringpiv.__all__ if not hasattr(ringpiv, name)]
    assert missing == []

"""The package's public names all resolve."""
import gmrank


def test_every_exported_name_resolves():
    missing = [name for name in gmrank.__all__ if not hasattr(gmrank, name)]
    assert missing == []
    assert len(set(gmrank.__all__)) == len(gmrank.__all__)

"""The package's public surface."""
import secopt


def test_every_exported_name_resolves() -> None:
    missing = [name for name in secopt.__all__ if not hasattr(secopt, name)]
    assert not missing
    assert len(set(secopt.__all__)) == len(secopt.__all__)

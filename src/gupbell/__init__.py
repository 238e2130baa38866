"""Two-qubit CHSH laboratory with minimal-length (GUP) corrections."""

__version__ = "0.1.0"


def main() -> None:
    """The ``gupbell`` console script: run ``gupbell.cli`` as ``__main__``,
    as ``python -m gupbell.cli`` does, so that both entries set up the
    process the same way before numpy loads."""
    import runpy

    runpy.run_module("gupbell.cli", run_name="__main__", alter_sys=True)

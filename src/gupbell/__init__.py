"""Two-qubit CHSH laboratory with minimal-length (GUP) corrections."""

__version__ = "0.1.0"

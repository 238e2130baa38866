"""Dense complex linear algebra for small Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (2, 2) or
(4, 4).  Matrices are dense and row-major; the dimensions involved are
tiny, so clarity wins over cleverness throughout.

No command loads this module.  It remains because the benchmark's tracer
and the tests' dense oracles still name ``eig_hermitian``; it goes once
they call ``np.linalg.eigh`` themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError, NumericError
from .quantum import is_hermitian


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix: ``(values, vectors)`` as
    ``np.linalg.eigh`` returns them, eigenvalues ascending and
    ``vectors[:, k]`` the eigenvector for ``values[k]``, in the phase
    ``eigh`` gives it.

    Raises
    ------
    HermiticityError
        if the input is not ``is_hermitian``.
    NumericError
        if the underlying iteration fails to converge.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"m must be square, got shape {m.shape}")
    if not is_hermitian(m):
        raise HermiticityError("eig_hermitian requires a Hermitian matrix")
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


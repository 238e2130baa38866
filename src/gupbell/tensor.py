"""Dense complex linear algebra for small Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (2, 2) or
(4, 4).  Matrices are dense and row-major; the dimensions involved are
tiny, so clarity wins over cleverness throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError, NumericError

#: the largest |m - m^dagger| entry of a Hermitian jp, hp or observable
HERMITIAN_TOL = 1e-12


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and \
        np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL


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


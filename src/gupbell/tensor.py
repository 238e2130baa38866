"""Dense complex linear algebra for small Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (2, 2) or
(4, 4).  Matrices are dense and row-major; the dimensions involved are
tiny, so clarity wins over cleverness throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, NumericError

HERMITIAN_TOL = 1e-12
EIG_HERMITIAN_TOL = 1e-10


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and \
        np.max(np.abs(m - m.conj().T)) <= tol


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order with orthonormal eigenvectors.

    ``vectors[:, k]`` is the eigenvector for ``values[k]``, with the phase
    ``np.linalg.eigh`` gives it: a phase carries over to the first-order
    correction and cancels in every density operator built from them.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(m: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    Raises
    ------
    HermiticityError
        if the input deviates from Hermiticity by more than 1e-10.
    NumericError
        if the underlying iteration fails to converge.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"m must be square, got shape {m.shape}")
    if not is_hermitian(m, tol=EIG_HERMITIAN_TOL):
        raise HermiticityError("eig_hermitian requires a Hermitian matrix")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return EigenSystem(values=values, vectors=vectors)


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


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order with orthonormal eigenvectors.

    ``vectors[:, k]`` is the eigenvector for ``values[k]``.  The phase of
    each column is fixed so that its largest-magnitude component is real
    and positive, which makes the decomposition deterministic.
    """

    values: np.ndarray
    vectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor acting on Alice's qubit."""
    a = _require_square(a, "a")
    b = _require_square(b, "b")
    return np.kron(a, b)


def eig_hermitian(m: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian matrix with a fixed phase convention.

    Raises
    ------
    HermiticityError
        if the input deviates from Hermiticity by more than 1e-10.
    NumericError
        if the underlying iteration fails to converge.
    """
    m = _require_square(m, "m")
    if not is_hermitian(m, tol=EIG_HERMITIAN_TOL):
        raise HermiticityError("eig_hermitian requires a Hermitian matrix")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        i = int(np.argmax(np.abs(col)))
        phase = col[i] / abs(col[i])
        vectors[:, k] = col * phase.conjugate()
    return EigenSystem(values=values, vectors=vectors)


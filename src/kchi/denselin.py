"""Dense complex linear algebra at desk scale.

Wraps LAPACK (through numpy) for the decompositions and adds the exact
conventions the rest of the package relies on:

* ``svd(a)`` returns ``(u, s, v)`` with ``a = u @ diag(s) @ v.conj().T``.
* ``polar(t)`` returns ``(p, w)`` with ``p = t @ w``, ``p`` Hermitian
  positive semidefinite and ``w`` unitary, so the eigenvalues of ``p`` are
  the singular values of ``t``.
* ``gram_schmidt`` orthonormalizes columns and reports the upper
  triangular coefficient matrix ``b`` with ``ortho = vectors @ b``.

Matrices are numpy arrays of complex128.  The Kronecker product is capped
by ``dimension_cap()`` so accidental blowups fail fast; the cap can be
lowered through the ``KCHI_MAX_DIM`` environment variable.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .errors import DomainError, NumericError, ResourceError

__all__ = [
    "as_matrix",
    "svd",
    "singular_values",
    "polar",
    "spectral_norm",
    "hermitian_eigenvalues",
    "kron",
    "gram_schmidt",
    "matrix_to_pairs",
    "matrix_from_pairs",
    "dimension_cap",
    "MAX_SVD_DIM",
    "DEFAULT_DIMENSION_CAP",
    "GRAM_SCHMIDT_PIVOT_TOL",
]

MAX_SVD_DIM = 400
DEFAULT_DIMENSION_CAP = 4096
GRAM_SCHMIDT_PIVOT_TOL = 1e-9


def dimension_cap() -> int:
    """Largest admissible matrix dimension for Kronecker-power work.

    ``KCHI_MAX_DIM`` may lower (never raise) the built-in cap.
    """
    raw = os.environ.get("KCHI_MAX_DIM")
    if raw is None:
        return DEFAULT_DIMENSION_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"KCHI_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError(f"KCHI_MAX_DIM must be positive, got {value}")
    return min(value, DEFAULT_DIMENSION_CAP)


def as_matrix(obj, *, square: bool = False, n: int | None = None) -> np.ndarray:
    """Coerce to a 2-D complex128 array, checking finiteness.

    ``square`` requires a square matrix; ``n`` requires an operator on C^n,
    that is shape ``(n, n)``.
    """
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if n is not None and a.shape != (n, n):
        raise DomainError(f"matrix of shape {a.shape} does not act on C^{n}")
    return a


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = u @ diag(s) @ v.conj().T``.

    ``s`` is weakly decreasing and nonnegative; ``u`` and ``v`` are unitary.
    """
    a = as_matrix(a, square=True)
    if a.shape[0] > MAX_SVD_DIM:
        raise ResourceError(
            f"svd capped at dimension {MAX_SVD_DIM}, got {a.shape[0]}"
        )
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    return u, s, vh.conj().T


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, sorted descending."""
    a = as_matrix(a, square=True)
    if a.shape[0] > MAX_SVD_DIM:
        raise ResourceError(
            f"svd capped at dimension {MAX_SVD_DIM}, got {a.shape[0]}"
        )
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc


def polar(t) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``t = p @ w.conj().T`` as ``p = t @ w`` with p PSD, w unitary.

    ``p`` is the Hermitian positive semidefinite square root of ``t t*``
    (always unique); for singular ``t`` the unitary ``w`` is one valid
    completion, inherited from the SVD factors.
    """
    u, s, v = svd(t)
    w = v @ u.conj().T
    p = (u * s) @ u.conj().T
    p = (p + p.conj().T) / 2.0
    return p, w


def spectral_norm(a) -> float:
    """Operator norm: the largest singular value."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    try:
        return float(np.linalg.norm(a, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"spectral norm did not converge: {exc}") from exc


def hermitian_eigenvalues(a, *, hermitian_tol: float = 1e-9) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending."""
    a = as_matrix(a, square=True)
    skew = spectral_norm(a - a.conj().T)
    scale = max(1.0, spectral_norm(a))
    if skew > hermitian_tol * scale:
        raise DomainError(
            f"matrix is not Hermitian (skew part {skew:.3e} at scale {scale:.3e})"
        )
    vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return vals[::-1]


def kron(a, b) -> np.ndarray:
    """Kronecker product with ``(a (x) b)(x (x) y) = a x (x) b y``."""
    a = as_matrix(a)
    b = as_matrix(b)
    cap = dimension_cap()
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > cap or cols > cap:
        raise ResourceError(
            f"kron result would be {rows}x{cols}, above the cap {cap}"
        )
    return np.kron(a, b)


def _distinct_arrangements(mats) -> list[list[np.ndarray]]:
    """The distinct orderings of a multiset of matrices (equal ones share a label).

    Averaging a multilinear expression over them equals averaging it over all
    m! permutations; they come in sorted label order, so sums are bit-stable.
    """
    reps: list[np.ndarray] = []
    labels: list[int] = []
    for mat in mats:
        for i, rep in enumerate(reps):
            if np.array_equal(mat, rep):
                labels.append(i)
                break
        else:
            labels.append(len(reps))
            reps.append(mat)
    return [
        [reps[i] for i in arrangement]
        for arrangement in sorted(set(itertools.permutations(labels)))
    ]


def _require_finite(value, what: str):
    """Return ``value``, or raise NumericError if any entry overflowed."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"{what} is not finite: the computation overflowed")
    return value


def gram_schmidt(
    vectors, *, pivot_tol: float = GRAM_SCHMIDT_PIVOT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the columns of ``vectors`` in order.

    Returns ``(ortho, coeffs)`` where ``ortho`` has orthonormal columns,
    ``coeffs`` is upper triangular with positive real diagonal, and
    ``ortho = vectors @ coeffs`` (so column j of ``coeffs`` expresses the
    j-th orthonormal vector in terms of the input ones).  A pivot below
    ``pivot_tol`` means the inputs are linearly dependent.
    """
    m = as_matrix(vectors)
    if m.shape[1] == 0:
        return m.copy(), np.zeros((0, 0), dtype=np.complex128)
    if m.shape[1] > m.shape[0]:
        raise DomainError(
            f"{m.shape[1]} vectors of dimension {m.shape[0]} cannot be independent"
        )
    q, r = np.linalg.qr(m, mode="reduced")
    diag = np.diagonal(r).copy()
    if np.any(np.abs(diag) < pivot_tol):
        bad = int(np.argmax(np.abs(diag) < pivot_tol))
        raise DomainError(
            f"input vectors are linearly dependent (pivot {abs(diag[bad]):.3e} "
            f"at column {bad})"
        )
    phases = diag / np.abs(diag)
    q = q * phases.conj()
    r = phases.conj()[:, None] * r
    return q, _invert_upper(r)


def _invert_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular matrix by back substitution.

    Stays exactly upper triangular, which a general-purpose solve would not
    guarantee at the last bit.
    """
    d = r.shape[0]
    inv = np.zeros_like(r)
    for j in range(d):
        inv[j, j] = 1.0 / r[j, j]
        for i in range(j - 1, -1, -1):
            inv[i, j] = -np.dot(r[i, i + 1 : j + 1], inv[i + 1 : j + 1, j]) / r[i, i]
    return inv


def matrix_to_pairs(a) -> list[list[list[float]]]:
    """Row-major nested lists with each entry as an [re, im] pair."""
    a = as_matrix(a)
    return [
        [[float(entry.real), float(entry.imag)] for entry in row] for row in a
    ]


def matrix_from_pairs(obj) -> np.ndarray:
    """Parse the row-major [re, im] pair format back into a matrix."""
    if not isinstance(obj, list) or not obj:
        raise DomainError("matrix JSON must be a nonempty list of rows")
    n_cols = None
    rows = []
    for row in obj:
        if not isinstance(row, list) or not row:
            raise DomainError("each matrix row must be a nonempty list of [re, im] pairs")
        if n_cols is None:
            n_cols = len(row)
        elif len(row) != n_cols:
            raise DomainError("matrix rows have inconsistent lengths")
        entries = []
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise DomainError(f"matrix entry {pair!r} is not an [re, im] pair")
            entries.append(complex(pair[0], pair[1]))
        rows.append(entries)
    out = np.array(rows, dtype=np.complex128)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise DomainError("matrix entries must be finite")
    return out

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
at ``DEFAULT_DIMENSION_CAP`` rows and columns so accidental blowups fail
fast.
"""

from __future__ import annotations

import itertools

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
    "MAX_SVD_DIM",
    "DEFAULT_DIMENSION_CAP",
    "GRAM_SCHMIDT_PIVOT_TOL",
]

MAX_SVD_DIM = 400
DEFAULT_DIMENSION_CAP = 4096
GRAM_SCHMIDT_PIVOT_TOL = 1e-9


def as_matrix(obj, *, square: bool = False, n: int | None = None) -> np.ndarray:
    """Coerce to a 2-D complex128 array, checking finiteness.

    ``square`` requires a square matrix; ``n`` requires an operator on C^n,
    that is shape ``(n, n)``.
    """
    try:
        a = np.asarray(obj, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot read a complex matrix: {exc}") from None
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if n is not None and a.shape != (n, n):
        raise DomainError(f"matrix of shape {a.shape} does not act on C^{n}")
    return a


def _square_svd(a, compute_uv: bool):
    """LAPACK's SVD of a square matrix of dimension at most ``MAX_SVD_DIM``."""
    a = as_matrix(a, square=True)
    if a.shape[0] > MAX_SVD_DIM:
        raise ResourceError(
            f"svd capped at dimension {MAX_SVD_DIM}, got {a.shape[0]}"
        )
    try:
        result = np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    _require_finite(result[1] if compute_uv else result, "svd")
    return result


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = u @ diag(s) @ v.conj().T``.

    ``s`` is weakly decreasing and nonnegative; ``u`` and ``v`` are unitary.
    """
    u, s, vh = _square_svd(a, compute_uv=True)
    return u, s, vh.conj().T


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, sorted descending."""
    return _square_svd(a, compute_uv=False)


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
    return float(_spectral_norms(a))


def hermitian_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending."""
    a = as_matrix(a, square=True)
    skew = spectral_norm(a - a.conj().T)
    scale = max(1.0, spectral_norm(a))
    if skew > 1e-9 * scale:
        raise DomainError(
            f"matrix is not Hermitian (skew part {skew:.3e} at scale {scale:.3e})"
        )
    vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return vals[::-1]


def kron(a, b) -> np.ndarray:
    """Kronecker product with ``(a (x) b)(x (x) y) = a x (x) b y``."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > DEFAULT_DIMENSION_CAP or cols > DEFAULT_DIMENSION_CAP:
        raise ResourceError(
            f"kron result would be {rows}x{cols}, above the cap {DEFAULT_DIMENSION_CAP}"
        )
    return np.kron(a, b)


def _distinct_factors(mats) -> tuple[list[np.ndarray], list[int]]:
    """The distinct factors of a multiset of matrices and their multiplicities.

    Returns ``(reps, counts)``: equal factors share one entry of ``reps``,
    listed in order of first appearance, and ``counts[i]`` is how often
    ``reps[i]`` occurs.  Factors may be stacks of matrices; stacks of
    another shape never match.
    """
    reps: list[np.ndarray] = []
    counts: list[int] = []
    for mat in mats:
        for i, rep in enumerate(reps):
            if np.array_equal(mat, rep):
                counts[i] += 1
                break
        else:
            reps.append(mat)
            counts.append(1)
    return reps, counts


def _distinct_arrangements(mats) -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
    """The distinct factors of a multiset of matrices and their distinct orderings.

    Returns ``(reps, orders)`` with ``reps`` from ``_distinct_factors``;
    each order lists, slot by slot, the index into ``reps``.  Averaging a
    multilinear expression over the orders equals averaging it over all
    m! permutations; they come in sorted order, so sums are bit-stable.
    """
    reps, counts = _distinct_factors(mats)
    labels = [i for i, count in enumerate(counts) for _ in range(count)]
    return reps, sorted(set(itertools.permutations(labels)))


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack ``(..., r, c)``."""
    try:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"spectral norm did not converge: {exc}") from exc


# Relative slack on both Gram bounds of _largest_spectral_norm.  Their
# rounding errors, and LAPACK's on a top singular value, are a few hundred
# ulps at every dimension the package reaches, far inside it.
_GRAM_MARGIN = 1e-8


def _largest_spectral_norm(stack: np.ndarray, floor: float) -> float:
    """``max(floor, float(np.max(_spectral_norms(stack))))``, bit for bit.

    LAPACK runs only on the samples of the stack ``(S, d, d)`` that can
    reach that value.  With ``G = X* X``, each sample's top singular value
    s_1 lies between ``(||G^2||_F / ||G||_F)^{1/2}`` and ``||G^2||_F^{1/4}``.
    A sample whose upper bound, widened by _GRAM_MARGIN, stays below the
    floor or below another sample's narrowed lower bound cannot hold the
    maximum.  The bounds are taken on each sample scaled by the power of
    two of its largest entry, so they neither overflow nor underflow.
    """
    flat = stack.reshape(len(stack), -1).view(np.float64)
    peak = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    # A subnormal peak keeps the finite scale 2**1021, which still lifts it
    # to at least 2**-53, so the bounds stay normal.
    exponent = np.maximum(np.frexp(peak)[1], -1021)
    scale = np.ldexp(1.0, -exponent)[:, None, None]
    gram_sq = np.empty(len(stack))
    square_sq = np.empty(len(stack))
    # A third of the samples at a time: the block's scaled samples, their
    # conjugates and Gram matrices together take about as much as the stack.
    step = -(-len(stack) // 3)
    for lo in range(0, len(stack), step):
        block = slice(lo, lo + step)
        gram_sq[block], square_sq[block] = _gram_squares(stack[block] * scale[block])
    ratio = np.divide(square_sq, gram_sq, out=np.zeros_like(gram_sq), where=gram_sq > 0)
    upper = np.ldexp(square_sq**0.125 * (1.0 + _GRAM_MARGIN), exponent)
    lower = np.ldexp(ratio**0.25 * (1.0 - _GRAM_MARGIN), exponent)
    # "Not below" rather than "at least", so a NaN sample reaches LAPACK.
    keep = ~(upper < max(floor, float(np.max(lower))))
    if not keep.any():
        return floor
    return max(floor, float(np.max(_spectral_norms(stack[keep]))))


def _gram_squares(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ||G||_F^2 and ||G^2||_F^2 for G = X* X of each X in a stack (S, d, d);
    # G^2 overwrites the stack, and G is freed before the next block's.
    gram = np.matmul(stack.conj().swapaxes(-1, -2), stack)
    return _squared_frobenius(gram), _squared_frobenius(np.matmul(gram, gram, out=stack))


def _squared_frobenius(stack: np.ndarray) -> np.ndarray:
    # Sum of |entry|^2 over each matrix of a complex stack.
    flat = stack.reshape(len(stack), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _require_finite(value, what: str):
    """Return ``value``, or raise NumericError if any entry overflowed."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"{what} is not finite: the computation overflowed")
    return value


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the columns of ``vectors`` in order.

    Returns ``(ortho, coeffs)`` where ``ortho`` has orthonormal columns,
    ``coeffs`` is upper triangular with positive real diagonal, and
    ``ortho = vectors @ coeffs`` (so column j of ``coeffs`` expresses the
    j-th orthonormal vector in terms of the input ones).  A pivot below
    ``GRAM_SCHMIDT_PIVOT_TOL`` means the inputs are linearly dependent.
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
    small = np.abs(diag) < GRAM_SCHMIDT_PIVOT_TOL
    if small.any():
        bad = int(np.argmax(small))
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

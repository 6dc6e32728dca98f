"""Dense complex linear algebra at desk scale.

Wraps LAPACK (through numpy) for the decompositions and adds the exact
conventions the rest of the package relies on:

* ``svd(a)`` returns ``(u, s, v)`` with ``a = u @ diag(s) @ v.conj().T``.
* ``polar(t)`` returns ``(p, w)`` with ``p = t @ w``, ``p`` Hermitian
  positive semidefinite and ``w`` unitary, so the eigenvalues of ``p`` are
  the singular values of ``t``.
* ``gram_schmidt`` orthonormalizes columns and reports the upper
  triangular coefficient matrix ``b`` with ``ortho = vectors @ b``.
* ``spectral_norm(a)`` is ``sqrt(lambda_max(G))`` for the Gram matrix ``G``
  of ``a`` on its smaller side, with ``a`` first scaled by the power of two
  of its largest entry; not an SVD but LAPACK's eigenvalues of ``G``, or
  from ``_KRYLOV_MIN_DIM`` on a Lanczos value proved by a Cholesky
  factorization (``_top_singular_values``).  It is the one-matrix case of
  ``_spectral_norms``, which norms each matrix of a stack with the same
  bits; ``_largest_spectral_norm`` gives the largest over a stack and sends
  to the eigensolver only the samples whose bound can beat the running
  best.

Matrices are numpy arrays of complex128.  The Kronecker product is capped
at ``DEFAULT_DIMENSION_CAP`` rows and columns so accidental blowups fail
fast.  Every result is finite or raises ``NumericError`` (``_checked``), so
``spectral_norm`` past the largest double raises, as ``svd`` does, not inf.
"""

from __future__ import annotations

import numpy as np

from .combinat import _shown
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot read a complex matrix: {exc}") from None
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if n is not None and a.shape != (n, n):
        raise DomainError(f"matrix of shape {a.shape} does not act on C^{_shown(n)}")
    return a


def _matrices(objs, *, square: bool = False, n: int | None = None) -> list[np.ndarray]:
    # Each item of the sequence ``objs`` through as_matrix.
    try:
        items = list(objs)
    except TypeError:
        raise DomainError(f"expected a sequence of matrices, got {type(objs).__name__}") from None
    return [as_matrix(obj, square=square, n=n) for obj in items]


def _square_svd(a, compute_uv: bool):
    """LAPACK's SVD of a square matrix of dimension at most ``MAX_SVD_DIM``."""
    a = as_matrix(a, square=True)
    if a.shape[0] > MAX_SVD_DIM:
        raise ResourceError(
            f"svd capped at dimension {MAX_SVD_DIM}, got {a.shape[0]}"
        )
    return _checked("svd", np.linalg.svd, a, compute_uv=compute_uv)


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
    # Halved before the sum, which is exact, so a singular value near the
    # largest double does not overflow in p + p*.
    p = (u * (s / 2.0)) @ u.conj().T
    p = p + p.conj().T
    return p, w


def spectral_norm(a) -> float:
    """Operator norm: the largest singular value.

    Below ``_KRYLOV_MIN_DIM`` columns and rows it is LAPACK's, to a few ulps
    per dimension.  From that width on it is a Lanczos value proved to lie
    within ``delta / 2`` (relative, up to the rounding of a Cholesky
    factorization) of the largest singular value, ``delta = _KRYLOV_SLACK *
    dim * eps`` for the smaller side ``dim``; ``delta / 2`` is far below the
    ``64 * dim * eps`` the tests allow against a full SVD.  See
    _top_singular_values.
    """
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(_spectral_norms(a[None])[0])


def hermitian_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The skew test and LAPACK see ``a`` scaled exactly by the power of two
    of its largest entry, so a matrix near the largest double neither
    overflows in ``a + a*`` nor hides its skew part behind an infinite norm.
    """
    a = as_matrix(a, square=True)
    exponent = _peak_exponents(a[None])[0] if a.size else 0
    a = a * np.ldexp(1.0, -exponent)
    skew = spectral_norm(a - a.conj().T)
    # The skew part may reach 1e-9 * max(1, ||a||) at the unscaled size.
    scale = max(np.ldexp(1.0, -exponent), spectral_norm(a))
    if skew > 1e-9 * scale:
        raise DomainError(
            f"matrix is not Hermitian (skew part {skew / scale:.3e} of its scale)"
        )
    vals = lambda: np.ldexp(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1], exponent)
    return _checked("eigenvalue", vals)


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
    return _checked("kron", np.kron, a, b)


def _distinct_factors(mats) -> tuple[list[np.ndarray], list[int]]:
    """The distinct factors of a sequence of matrices and each factor's label.

    Returns ``(reps, labels)``: equal factors share one entry of ``reps``,
    listed in order of first appearance, and ``labels[j]`` is the index in
    ``reps`` of the j-th factor, so ``labels.count(i)`` is how often
    ``reps[i]`` occurs.  Factors may be stacks of matrices; stacks of
    another shape never match.
    """
    reps: list[np.ndarray] = []
    labels: list[int] = []
    for mat in mats:
        label = next((i for i, rep in enumerate(reps) if np.array_equal(mat, rep)), len(reps))
        if label == len(reps):
            reps.append(mat)
        labels.append(label)
    return reps, labels


def _peak_exponents(stack: np.ndarray) -> np.ndarray:
    # The binary exponent e of each matrix's largest real or imaginary part,
    # so that the matrix times 2**-e peaks in [1/2, 1) and its Gram matrix
    # neither overflows nor underflows.  A subnormal peak keeps e = -1021,
    # whose finite scale 2**1021 still lifts it to at least 2**-53.
    flat = np.ascontiguousarray(stack).reshape(stack.shape[:-2] + (-1,)).view(np.float64)
    peak = np.maximum(flat.max(axis=-1), -flat.min(axis=-1))
    return np.maximum(np.frexp(peak)[1], -1021)


# Bytes of one matrix's conjugated columns that _gram copies at a time.
_GRAM_BLOCK_BYTES = 1 << 20


def _gram(stack: np.ndarray) -> np.ndarray:
    # G = X* X of each X in a stack (..., r, c), or for r < c the conjugate
    # of X X*, which has the same eigenvalues: the Gram matrix on the smaller
    # side.  It is built a block of rows at a time, so only that block of
    # X*, not all of it, is copied beside X and G.  A block multiplies only
    # the columns from its own first one on, and its part right of the
    # diagonal block, conjugated, fills the rows below it in its columns.
    # The blocks depend on one matrix's shape, not on the stack's size, so a
    # matrix gets the same bits alone or in a stack.
    if stack.shape[-2] < stack.shape[-1]:
        stack = stack.swapaxes(-1, -2)
    cols = stack.shape[-1]
    gram = np.empty(stack.shape[:-2] + (cols, cols), dtype=np.complex128)
    step = max(1, _GRAM_BLOCK_BYTES // (stack.itemsize * stack.shape[-2]))
    for lo in range(0, cols, step):
        hi = lo + step
        np.matmul(stack[..., lo:hi].conj().swapaxes(-1, -2), stack[..., lo:], out=gram[..., lo:hi, lo:])
        np.conjugate(gram[..., lo:hi, hi:].swapaxes(-1, -2), out=gram[..., hi:, lo:hi])
    return gram


def _top_singular_values(gram: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``2**exponent * sqrt(lambda_max(G))`` for each Gram matrix of a stack.

    The matrices were scaled by _peak_exponents, so these are their top
    singular values.  Below ``_KRYLOV_MIN_DIM`` the whole stack goes to
    LAPACK's batched ``eigvalsh``, which computes every eigenvalue of each
    ``G``.  From that width on each ``G`` takes _krylov_top: a Lanczos value
    ``theta`` proved by a Cholesky factorization of ``theta (1 + delta) I -
    G``, so the value returned is within ``delta / 2`` (relative, up to the
    rounding of that factorization) of the true top singular value, where
    ``delta = _KRYLOV_SLACK * dim * eps`` and ``delta / 2`` is far below
    the ``64 * dim * eps`` the tests allow against a full SVD.  When the
    proof fails the value is ``eigvalsh``'s.  The wide route overwrites each
    ``G`` while it factors it and restores it exactly, so the stack must be
    the caller's own.
    """
    if gram.shape[-1] < _KRYLOV_MIN_DIM:
        tops = lambda: np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    else:
        tops = lambda: np.array([_krylov_top(g) for g in gram])
    return _checked("spectral norm", lambda: np.ldexp(tops(), exponent))


# The Gram width from which _top_singular_values takes the Lanczos route.
# Best of 5 at one BLAS thread on a 2-CPU x86-64 host with OpenBLAS 0.3.31:
# on Gram matrices of D^1 K_chi, _krylov_top took 0.58 ms against
# eigvalsh's 0.51 ms at dim 80, 0.85 against 1.64 ms at 135 and 4.9 against
# 13.7 ms at 315; on Gaussian ones, whose top eigenvalue lies close to the
# rest, 3.5 against 2.8 ms at 160 and even at 256.  Two threads read alike.
_KRYLOV_MIN_DIM = 160
# Lanczos steps before _krylov_top gives up; class_ladder's evaluations
# settle in 10-29, Gaussian Gram matrices in 30-46.
_KRYLOV_STEPS = 64
# delta = _KRYLOV_SLACK * dim * eps, the relative margin of the proof.
_KRYLOV_SLACK = 8


def _krylov_top(gram: np.ndarray) -> float:
    # sqrt(lambda_max(G)) of one PSD Gram matrix G: the Lanczos value theta
    # once a Cholesky factorization of theta (1 + delta) I - G shows that no
    # eigenvalue lies above theta (1 + delta), else LAPACK's eigvalsh of G.
    # The factorization's LinAlgError is the proof's "no", not a failure.
    dim = len(gram)
    delta = _KRYLOV_SLACK * dim * np.finfo(np.float64).eps
    theta = _lanczos_top(gram, delta)
    if theta > 0 and _factors_below(gram, theta * (1.0 + delta)):
        return np.sqrt(theta)
    return np.sqrt(np.linalg.eigvalsh(gram)[-1])


def _krylov_start(dim: int) -> np.ndarray:
    # Lanczos's fixed start, a pseudo-random complex unit vector.  Not a
    # column of G: K_chi of a block-diagonal T is block-diagonal, and such a
    # start could stay inside one block.
    z = np.random.default_rng(0).standard_normal((2, dim))
    z = z[0] + 1j * z[1]
    return z / np.linalg.norm(z)


def _lanczos_top(gram: np.ndarray, delta: float) -> float:
    # The top Ritz value theta of Lanczos on G, with full reorthogonalization
    # (classical Gram-Schmidt twice), from _krylov_start.  It stops once the
    # Ritz pair's residual r has r^2 <= delta/4 * theta * (theta - theta_2),
    # theta_2 the next Ritz value, so that theta lies within about delta/4
    # of the eigenvalue it settles on, or once the Krylov space is
    # invariant.  NaN if G is not finite or theta does not settle within
    # _KRYLOV_STEPS steps.
    basis = np.empty((_KRYLOV_STEPS + 1, len(gram)), dtype=np.complex128)
    basis[0] = _krylov_start(len(gram))
    alpha = np.empty(_KRYLOV_STEPS)
    beta = np.empty(_KRYLOV_STEPS)
    for j in range(_KRYLOV_STEPS):
        w = gram @ basis[j]
        alpha[j] = np.vdot(basis[j], w).real
        for _ in range(2):
            w -= np.conj(basis[: j + 1] @ np.conj(w)) @ basis[: j + 1]
        beta[j] = np.linalg.norm(w)
        if not np.isfinite(alpha[j] + beta[j]):
            return np.nan
        ritz, vecs = np.linalg.eigh(np.diag(alpha[: j + 1]) + np.diag(beta[:j], -1))
        theta = ritz[-1]
        gap = theta - (ritz[-2] if j else 0.0)
        if (beta[j] * vecs[-1, -1]) ** 2 <= delta / 4 * theta * gap or not beta[j] > 0:
            return theta
        basis[j + 1] = w / beta[j]
    return np.nan


def _factors_below(gram: np.ndarray, ceiling: float) -> bool:
    # Whether Cholesky factors ceiling * I - G, that is, whether no
    # eigenvalue of G reaches ceiling, up to the factorization's backward
    # error (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    # ch. 10).  The difference is formed in G itself, not in a copy, and G
    # is restored exactly: negation is exact, and its diagonal is kept.
    diag = gram.diagonal().copy()
    np.negative(gram, out=gram)
    np.fill_diagonal(gram, ceiling - diag)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.negative(gram, out=gram)
        np.fill_diagonal(gram, diag)
    return True


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    # The top singular value of each matrix of an (S, r, c) stack, with
    # spectral_norm's bits for each: the same scaling by _peak_exponents,
    # Gram matrix and eigensolver, one batched call of each.
    exponent = _peak_exponents(stack)
    return _top_singular_values(_gram(stack * np.ldexp(1.0, -exponent)[:, None, None]), exponent)


# Relative slack on the Gram bound of _largest_spectral_norm.  Its rounding
# error, and the eigensolver's on a top singular value, are a few hundred
# ulps at every dimension the package reaches, far inside it.
_GRAM_MARGIN = 1e-8


def _largest_spectral_norm(stack: np.ndarray, floor: float) -> float:
    """The larger of ``floor`` and each top singular value in ``(S, r, c)``.

    The value has the bits of ``max(floor, spectral_norm(x) for x in
    stack)``.  A third of the samples at a time is scaled by
    _peak_exponents and its Gram matrices ``G = X* X`` built once.  A
    sample whose upper bound ``||G^2||_F^{1/4}`` on its top singular value,
    widened by _GRAM_MARGIN, stays below a positive running best cannot
    raise it; the others reach the eigensolver.  A third of several samples
    with no positive best yet takes one first, the sample of the largest
    bound.
    """
    exponent = _peak_exponents(stack)
    scale = np.ldexp(1.0, -exponent)[:, None, None]
    best = floor
    step = -(-len(stack) // 3)
    for lo in range(0, len(stack), step):
        block = slice(lo, lo + step)
        gram, powers = _gram(stack[block] * scale[block]), exponent[block]
        if best > 0 or len(gram) > 1:
            bounds = _upper_bounds(gram, powers)
            keep = np.ones(len(gram), dtype=bool)
            if not best > 0:
                keep[np.argmax(bounds)] = False
                best = max(best, float(_top_singular_values(gram[~keep], powers[~keep])[0]))
            # "Not below" rather than "at least", so a NaN sample is kept.
            keep &= ~(bounds < best)
            gram, powers = gram[keep], powers[keep]
        if len(gram):
            best = max(best, float(np.max(_top_singular_values(gram, powers))))
        # Freed before the next third's are built, so the scaled block, its
        # Gram matrices and those sent to LAPACK take about one stack.
        del gram
    return best


def _upper_bounds(gram: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    # ||G^2||_F^{1/4}, widened by _GRAM_MARGIN and scaled back by 2**exponent,
    # for each Gram matrix G of a scaled stack: s_1^8 <= sum s_i^8 = ||G^2||_F^2.
    flat = np.matmul(gram, gram).reshape(len(gram), -1).view(np.float64)
    square_sq = np.einsum("ij,ij->i", flat, flat)
    # A bound past the largest double is inf, which keeps its sample.
    with np.errstate(over="ignore"):
        return np.ldexp(square_sq**0.125 * (1.0 + _GRAM_MARGIN), exponent)


def _checked(what: str, compute, *args, **kwargs):
    """``compute(*args, **kwargs)``, finite, or a NumericError.

    The package's one numeric-failure rule.  numpy's overflow and invalid
    warnings are silenced for the call, a ``LinAlgError`` becomes "<what>
    did not converge", and a result holding inf or NaN, in any array of a
    tuple too, becomes "<what> is not finite".
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = compute(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what} did not converge: {exc}") from exc
    for value in result if isinstance(result, tuple) else (result,):
        _require_finite(value, what)
    return result


def _require_finite(value, what: str):
    """Return ``value``, or raise NumericError if any entry overflowed."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"{what} is not finite: the computation overflowed")
    return value


def gram_schmidt(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the columns of ``vectors`` in order.

    Returns ``(ortho, coeffs)`` where ``ortho`` has orthonormal columns,
    ``coeffs`` is exactly upper triangular with positive real diagonal, and
    ``ortho = vectors @ coeffs`` (so column j of ``coeffs`` expresses the
    j-th orthonormal vector in terms of the input ones).  ``coeffs`` is
    LAPACK's inverse of the QR factor ``r``, cut to its upper triangle.  A
    pivot below ``GRAM_SCHMIDT_PIVOT_TOL`` means the inputs are linearly
    dependent.
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
    return q, np.triu(np.linalg.inv(r))


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
            try:
                entries.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise DomainError(f"matrix entry {pair!r} is past the double range") from None
        rows.append(entries)
    return as_matrix(rows)

"""Norm formulas for derivatives of symmetric tensor maps and immanants.

The central identity: for T with singular values nu_1 >= ... >= nu_n and
polar decomposition into a PSD factor P and a unitary,

    || D^k K_chi(T) || = k! * p_{m-k}(nu_{omega(chi)})

where p_t is the elementary symmetric polynomial and nu_{omega(chi)}
repeats nu_i exactly chi_i times.  The immanant d_chi inherits the bound
|| D^k d_chi(A) || <= k! * p_{n-k}(nu_{omega(chi)}), sharp for the
determinant.  This module evaluates the closed forms, the sampling
verifiers that compare them against the operators from ``symclass``, and
the immanant routes that factor K_chi(A) through submatrix immanants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .combinat import MultiIndex, Partition, _check_partition, _positive_size
from .denselin import _distinct_factors, _largest_spectral_norm, _require_finite
from .denselin import as_matrix, polar, singular_values, spectral_norm
from .errors import DomainError, NumericError, ResourceError
from .symclass import SymmetryClass, _arrangement_sum, _dk_stack, _live_states
from .symclass import build_symmetry_class, dk_kchi
from .symgroup import _permutation_characters, degree

__all__ = [
    "elementary_symmetric",
    "nu_omega",
    "dk_norm_formula",
    "lambda_eigenvalue",
    "DerivReport",
    "dk_norm_verify",
    "immanant",
    "mixed_immanant",
    "dk_immanant",
    "immanant_matrix",
    "mixed_immanant_matrix",
    "dk_kchi_via_immanants",
    "dk_immanant_via_power",
    "dk_immanant_bound",
    "ImmanantReport",
    "immanant_bound_verify",
    "perturbation_bounds",
    "sample_rng",
    "random_matrix",
    "random_unit_matrix",
    "MAX_IMMANANT_SIZE",
    "MAX_MIXED_SIZE",
]

MAX_IMMANANT_SIZE = 8
MAX_MIXED_SIZE = 6

REPORT_TOL = 1e-7

# Random unit tuples are drawn and evaluated at most SAMPLE_CHUNK at a
# time, so the sampling verifiers' memory does not grow with the sample
# count, and only as many as keep the largest per-chunk array within
# SAMPLE_CHUNK_BYTES, so it does not grow with the class either.  That array
# is one (S, n^m, dim) complex state of the compression kernel, which holds
# at most three such arrays' worth at once, or 1 MiB if that is more
# (symclass._column_block splits the columns of V to keep it so).  The
# immanant sum keeps all it holds at once within SAMPLE_CHUNK_BYTES: its
# live (S, n!) complex states, a product and its gathered entries (see
# _immanant_sup).  A class too large for two tuples is evaluated one tuple
# at a time.  Every class `run_verify` samples, and the (2,1)/4
# `kchi norm`, has n^m * dim at most 2560 and gets the full chunk.  A
# derivative supremum that contracts each chunk against the base
# point's (n^{2k}, dim^2) tensor (see _dk_norm_sup) keeps the same chunks,
# and takes that route only when the tensor and a chunk's (S, n^{2k}) outer
# products also fit SAMPLE_CHUNK_BYTES.  Reducing a chunk's (S, dim, dim)
# values to their largest spectral norm takes about one more array of that
# size (denselin._largest_spectral_norm), less than a state since dim <= n^m.
SAMPLE_CHUNK = 64
SAMPLE_CHUNK_BYTES = 1 << 22
# A supremum whose samples pass more than this through that array in all is
# refused: at the 1e7 to 1e8 B/s both routes reach on a 2-CPU box, 16 GiB
# is 3 to 30 minutes.  100 samples of (2,1,1)/8 at the cap take 7.4 GB.
SAMPLE_BUDGET_BYTES = 1 << 34


def elementary_symmetric(t: int, values) -> float:
    """The elementary symmetric polynomial p_t of the given values.

    p_0 = 1 and p_t = 0 when t exceeds the number of values.
    """
    if t < 0:
        raise DomainError(f"elementary symmetric degree must be >= 0, got {t}")
    vals = [float(v) for v in values]
    if t > len(vals):
        return 0.0
    coeffs = [1.0] + [0.0] * t
    for used, v in enumerate(vals, start=1):
        for j in range(min(t, used), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[t]


def _check_nu(nu) -> tuple[float, ...]:
    vals = tuple(float(v) for v in nu)
    if not vals:
        raise DomainError("need at least one singular value")
    for i, v in enumerate(vals):
        if not np.isfinite(v) or v < 0.0:
            raise DomainError(f"singular values must be finite and >= 0, got {v}")
        if i and vals[i - 1] < v:
            raise DomainError("singular values must be sorted descending")
    return vals


def nu_omega(chi: Partition, nu) -> tuple[float, ...]:
    """The selection (nu_1 repeated chi_1 times, nu_2 repeated chi_2 times, ...)."""
    _check_partition(chi)
    return _nu_omega(chi, _check_nu(nu))


def _nu_omega(chi: Partition, vals: tuple[float, ...]) -> tuple[float, ...]:
    # nu_omega on singular values that _check_nu has already validated
    if chi.length > len(vals):
        raise DomainError(
            f"chi={chi} has {chi.length} parts but only {len(vals)} singular values given"
        )
    return tuple(vals[i] for i, part in enumerate(chi.parts) for _ in range(part))


def dk_norm_formula(chi: Partition, k: int, nu, n: int | None = None) -> float:
    """The norm k! * p_{m-k}(nu_{omega(chi)}) of the k-th derivative at T.

    ``nu`` holds the singular values of T sorted descending; requires
    1 <= k <= m <= len(nu) (the equality needs as many singular values as
    tensor factors).
    """
    _check_partition(chi)
    m = chi.size
    vals = _check_nu(nu)
    if n is not None and len(vals) != n:
        raise DomainError(f"expected {n} singular values, got {len(vals)}")
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m={m}, got k={k}")
    if m > len(vals):
        raise DomainError(
            f"m={m} exceeds the number of singular values {len(vals)}; "
            "the norm identity requires m <= n"
        )
    value = math.factorial(k) * elementary_symmetric(m - k, _nu_omega(chi, vals))
    return _require_finite(value, "derivative norm formula")


def lambda_eigenvalue(alpha: MultiIndex, k: int, nu) -> float:
    """The eigenvalue k! * p_{m-k}(nu_alpha) of the derivative at a PSD point.

    ``nu_alpha`` picks entry alpha(i) of nu for each i; the value depends
    on alpha only through its orbit under slot permutations.
    """
    m = alpha.m
    vals = _check_nu(nu)
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m={m}, got k={k}")
    if alpha.n > len(vals):
        raise DomainError(
            f"alpha takes values up to {alpha.n} but only {len(vals)} singular values given"
        )
    selection = [vals[e - 1] for e in alpha.entries]
    return math.factorial(k) * elementary_symmetric(m - k, selection)


@dataclass(frozen=True)
class DerivReport:
    """Comparison of the derivative-norm formula against direct evaluation.

    ``identity_value`` is the spectral norm at the PSD polar factor with
    identity directions; ``attained_value`` evaluates at the inverse of
    the unitary polar factor, where the supremum is attained;
    ``sample_max`` is a Monte Carlo lower bound from random unit tuples.
    """

    chi: Partition
    m: int
    n: int
    k: int
    formula_value: float
    identity_value: float
    attained_value: float
    sample_max: float
    samples: int
    seed: int
    tolerance: float = REPORT_TOL

    @property
    def ok(self) -> bool:
        return (
            self.sample_max <= self.formula_value + self.tolerance
            and _relative_error(self.identity_value, self.formula_value) <= self.tolerance
            and _relative_error(self.attained_value, self.formula_value) <= self.tolerance
        )

    def to_json_obj(self) -> dict:
        return {**asdict(self), "chi": list(self.chi.parts), "ok": self.ok}


def _relative_error(observed, expected) -> float:
    # |observed - expected| / max(1, |expected|): abs on scalars, Frobenius on matrices
    size = np.linalg.norm if np.ndim(expected) else abs
    return float(size(observed - expected) / max(1.0, size(expected)))


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Seeded generator number ``index`` of a run with seed ``seed``.

    The seed and the index each lie in [0, 2**64) and together form the
    128-bit key of a Philox counter-based generator: key word 0 is the
    seed, key word 1 the index, and the counter starts at 0.
    """
    seed, index = int(seed), int(index)
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise DomainError(
            f"seed and sample index must lie in [0, 2**64), got seed {seed}, index {index}"
        )
    return np.random.Generator(np.random.Philox(key=seed + (index << 64)))


def random_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Square matrix with independent standard complex Gaussian entries."""
    n = _positive_size(n)
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return (real + 1j * imag) / math.sqrt(2.0)


def random_unit_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary n x n matrix, of spectral norm one."""
    return _unit_stack(_positive_size(n), 1, rng, 1)[0, 0]


def _unit_stack(n: int, k: int, rng: np.random.Generator, count: int) -> np.ndarray:
    # count Haar unitary k-tuples from rng, as one (count, k, n, n) stack
    # equal to count * k random_unit_matrix calls on rng.  Q of each complex
    # Gaussian's QR, its columns times the phases of R's diagonal, is Haar
    # distributed (Mezzadri, Notices AMS 54, 2007); a zero pivot's phase is
    # 1, so no draw is rejected.
    normals = rng.standard_normal((count, k, 2, n, n))
    q, r = np.linalg.qr(normals[:, :, 0] + 1j * normals[:, :, 1])
    return q * np.exp(1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))[..., None, :]


def _sample_chunk(tuple_bytes: int) -> int:
    # Tuples per chunk when one tuple's largest working array takes
    # ``tuple_bytes``: SAMPLE_CHUNK, fewer for large arrays, at least one.
    return max(1, min(SAMPLE_CHUNK, SAMPLE_CHUNK_BYTES // tuple_bytes))


def _check_samples(samples: int, tuple_bytes: int) -> None:
    # Before any draw: a count outside [1, 2**64) is a domain error, and one
    # past SAMPLE_BUDGET_BYTES at ``tuple_bytes`` per sample a resource error.
    if not 1 <= samples < 2**64:
        raise DomainError(f"samples must lie in [1, 2**64), got {samples}")
    if samples * tuple_bytes > SAMPLE_BUDGET_BYTES:
        raise ResourceError(
            f"sampling capped at {SAMPLE_BUDGET_BYTES} bytes of evaluated tuples; "
            f"{samples} samples of {tuple_bytes} bytes each exceed it"
        )


def _sampled_max(
    reduce, n: int, k: int, samples: int, rng: np.random.Generator, chunk: int
) -> float:
    # Largest value over ``samples`` random unit k-tuples of n x n matrices,
    # read in order from rng ``chunk`` at a time, so the tuples do not
    # depend on the chunk size.  ``reduce(xs, best)`` takes the k direction
    # stacks (S, n, n) of one chunk and the largest value so far, and
    # returns the largest value including the chunk's.
    best = 0.0
    for lo in range(0, samples, chunk):
        units = _unit_stack(n, k, rng, min(chunk, samples - lo))
        best = reduce(list(units.swapaxes(0, 1)), best)
    return best


def _tensor_route(n: int, dim: int, k: int, samples: int, chunk: int) -> bool:
    # Whether _dk_norm_sup contracts against the derivative tensor: its
    # n^{2k} matrix-unit tuples must take fewer kernel evaluations than the
    # samples, and its largest arrays, the (n^{2k}, dim^2) tensor and a
    # chunk's (S, n^{2k}) outer products, must fit SAMPLE_CHUNK_BYTES.
    units = n ** (2 * k)
    return units < samples and 16 * units * max(dim * dim, chunk) <= SAMPLE_CHUNK_BYTES


def _derivative_tensor(sc: SymmetryClass, t: np.ndarray, k: int, chunk: int) -> np.ndarray:
    # D^k K_chi(t) on every k-tuple of matrix units, as the (n^{2k}, dim^2)
    # tensor L: row r holds the value on (E_1, ..., E_k) where E_i is unit
    # d_i, the i-th most significant base-n^2 digit of r, and unit a n + b is
    # E_ab.  The tuples go through the kernel ``chunk`` at a time.
    units = np.eye(sc.n**2, dtype=np.complex128).reshape(-1, sc.n, sc.n)
    digits = np.indices((sc.n**2,) * k).reshape(k, -1)
    blocks = [
        _dk_stack(sc, t, [units[d[lo : lo + chunk]] for d in digits])
        for lo in range(0, digits.shape[1], chunk)
    ]
    return np.concatenate(blocks).reshape(digits.shape[1], -1)


def _contract(tensor: np.ndarray, xs: list[np.ndarray], dim: int) -> np.ndarray:
    # D^k K_chi(t)(X_1, ..., X_k) for each sample of the k direction stacks
    # (S, n, n), by multilinearity: the (S, n^{2k}) outer products of the
    # directions' entries, ordered as the tensor's rows, times the tensor.
    outer = xs[0].reshape(len(xs[0]), -1)
    for x in xs[1:]:
        outer = (outer[:, :, None] * x.reshape(len(x), 1, -1)).reshape(len(x), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (outer @ tensor).reshape(-1, dim, dim)
    return _require_finite(value, "derivative")


def _dk_norm_sup(
    sc: SymmetryClass, t: np.ndarray, k: int, samples: int, rng: np.random.Generator
) -> float:
    # Sampled sup of ||D^k K_chi(t)(X_1, ..., X_k)|| over random unit tuples.
    # The chunk is sized for the kernel's (S, n^m, dim) array.  When
    # _tensor_route allows, the kernel runs only on the n^{2k} matrix-unit
    # tuples, once per base point, and each chunk of drawn tuples is one
    # GEMM against that tensor; otherwise each chunk is one kernel call.
    # Either way only the chunk's samples that can beat the running
    # maximum reach LAPACK.
    tuple_bytes = 16 * sc.n**sc.m * sc.dim
    _check_samples(samples, tuple_bytes)
    chunk = _sample_chunk(tuple_bytes)
    if _tensor_route(sc.n, sc.dim, k, samples, chunk):
        tensor = _derivative_tensor(sc, t, k, chunk)
        evaluate = lambda xs: _contract(tensor, xs, sc.dim)
    else:
        evaluate = lambda xs: _dk_stack(sc, t, xs)
    return _sampled_max(
        lambda xs, best: _largest_spectral_norm(evaluate(xs), best),
        sc.n, k, samples, rng, chunk,
    )


def dk_norm_verify(
    sc: SymmetryClass, t, k: int, samples: int = 100, seed: int = 0
) -> DerivReport:
    """Check the derivative-norm formula for one operator from four sides.

    Evaluates the closed form, the identity-direction value at the polar
    PSD factor, the value at the attaining unitary directions, and a
    sampled supremum over random unit tuples.
    """
    t_mat = as_matrix(t, n=sc.n)
    nu = singular_values(t_mat)
    formula = dk_norm_formula(sc.chi, k, nu, n=sc.n)
    sample_max = _dk_norm_sup(sc, t_mat, k, samples, sample_rng(seed, 0))
    p, w = polar(t_mat)
    eye = np.eye(sc.n, dtype=np.complex128)
    identity_value = spectral_norm(dk_kchi(sc, p, [eye] * k))
    attained_value = spectral_norm(dk_kchi(sc, t_mat, [w.conj().T] * k))
    return DerivReport(
        chi=sc.chi,
        m=sc.m,
        n=sc.n,
        k=k,
        formula_value=float(formula),
        identity_value=float(identity_value),
        attained_value=float(attained_value),
        sample_max=float(sample_max),
        samples=samples,
        seed=seed,
    )


def immanant(chi: Partition, a) -> complex:
    """The immanant d_chi(A) = sum over sigma of chi(sigma) prod a_{i,sigma(i)}.

    chi = (1,...,1) gives the determinant and chi = (n) the permanent.
    """
    _check_partition(chi)
    n = chi.size
    if n > MAX_IMMANANT_SIZE:
        raise ResourceError(
            f"immanants capped at n <= {MAX_IMMANANT_SIZE}, got n={n}"
        )
    mat = as_matrix(a, n=n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_mixed_immanant_raw(chi, [mat], [n]))
    return _require_finite(value, "immanant")


def _mixed_immanant_raw(chi: Partition, reps, counts):
    # Mean of d_chi over the distinct assignments of its columns to the
    # arguments, reps[i] filling counts[i] of them (from _distinct_factors);
    # arguments are (n, n) matrices or (..., n, n) stacks.  The kernel's
    # sub-multiset sum runs over the columns: a state holds, for each
    # permutation p, the products of the entries (p(j), j) so far, and
    # chi(p) = chi(p^-1) makes their sum against chi d_chi.
    images, values = _permutation_characters(chi)
    gather = lambda rep, state, j: state * rep[..., images[:, j], j]
    start = np.ones(len(values))
    total = _arrangement_sum(gather, start, list(zip(reps, counts)), range(chi.size))
    return total @ values / (math.factorial(chi.size) // math.prod(map(math.factorial, counts)))


def _dk_immanant_raw(chi: Partition, a: np.ndarray, xs: list[np.ndarray]):
    # D^k d_chi(a) on k = len(xs) <= n directions, each an (n, n) matrix or
    # an (S, n, n) stack of per-sample directions.
    n, k = chi.size, len(xs)
    if n > MAX_MIXED_SIZE:
        raise ResourceError(
            f"immanant derivatives capped at n <= {MAX_MIXED_SIZE}, got n={n}"
        )
    factor = math.factorial(n) // math.factorial(n - k)
    mats = [a] * (n - k) + list(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        value = factor * _mixed_immanant_raw(chi, *_distinct_factors(mats))
    return _require_finite(value, "immanant derivative")


def mixed_immanant(chi: Partition, xs) -> complex:
    """The symmetrized immanant with column j drawn from the sigma(j)-th argument.

    Takes n = |chi| matrices; fully symmetric and multilinear, and equal
    to d_chi(A) when every argument is A.
    """
    _check_partition(chi)
    n = chi.size
    if n > MAX_MIXED_SIZE:
        raise ResourceError(
            f"mixed immanants capped at n <= {MAX_MIXED_SIZE}, got n={n}"
        )
    mats = [as_matrix(x, n=n) for x in xs]
    if len(mats) != n:
        raise DomainError(f"chi={chi} needs {n} matrices, got {len(mats)}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_mixed_immanant_raw(chi, *_distinct_factors(mats)))
    return _require_finite(value, "mixed immanant")


def dk_immanant(chi: Partition, a, xs) -> complex:
    """k-th directional derivative of the immanant map at ``a``.

    Equals (n!/(n-k)!) times the mixed immanant with a in n-k slots and
    the directions in the rest; for k = n the value no longer depends on
    ``a``.  k = 0 returns d_chi(a).
    """
    _check_partition(chi)
    n = chi.size
    mat = as_matrix(a, n=n)
    x_mats = [as_matrix(x, n=n) for x in xs]
    k = len(x_mats)
    if k > n:
        raise DomainError(f"derivative order {k} exceeds n={n}")
    if k == 0:
        return immanant(chi, mat)
    return complex(_dk_immanant_raw(chi, mat, x_mats))


def immanant_matrix(sc: SymmetryClass, a) -> np.ndarray:
    """Matrix of submatrix immanants d_chi(A[gamma|delta]) over the basis index set.

    Row gamma and column delta run over delta_hat; the selection repeats
    rows and columns of ``a`` as prescribed by the multi-indices.
    """
    return mixed_immanant_matrix(sc, a, [])


def mixed_immanant_matrix(sc: SymmetryClass, a, xs) -> np.ndarray:
    """Matrix of mixed immanants of submatrices, a in m-k slots per entry."""
    mat = as_matrix(a, n=sc.n)
    x_mats = [as_matrix(x, n=sc.n) for x in xs]
    k = len(x_mats)
    if k > sc.m:
        raise DomainError(f"derivative order {k} exceeds m={sc.m}")
    reps, counts = _distinct_factors([mat] * (sc.m - k) + x_mats)
    index = np.array([alpha.entries for alpha in sc.delta_hat]) - 1
    out = np.empty((sc.dim, sc.dim), dtype=np.complex128)
    # One row gamma at a time, so each state of the sum holds dim * m! entries.
    for i, gamma in enumerate(index):
        # A[gamma|delta] for every delta in delta_hat, as a (dim, m, m) stack
        at = (gamma[:, None], index[:, None, :])
        out[i] = _mixed_immanant_raw(sc.chi, [rep[at] for rep in reps], counts)
    return out


def dk_kchi_via_immanants(sc: SymmetryClass, a, xs) -> np.ndarray:
    """Derivative of the induced operator assembled from submatrix immanants.

    Independent route to dk_kchi: the operator in the orthonormal basis is
    (chi(id)/(m-k)!) * B* M B with M the mixed-immanant matrix and B the
    triangular change of basis.
    """
    mat = as_matrix(a, n=sc.n)
    x_mats = [as_matrix(x, n=sc.n) for x in xs]
    k = len(x_mats)
    if k > sc.m:
        return np.zeros((sc.dim, sc.dim), dtype=np.complex128)
    mixed = mixed_immanant_matrix(sc, mat, x_mats)
    coeff = degree(sc.chi) / math.factorial(sc.m - k)
    return coeff * (sc.basis_b.conj().T @ mixed @ sc.basis_b)


def dk_immanant_via_power(chi: Partition, a, xs) -> complex:
    """Immanant derivative extracted from the induced-operator derivative.

    Builds the symmetry class with n = |chi| and reads off the diagonal
    entry at gamma = (1,...,n):
    D^k d_chi(A)(Xs) = (n!/chi(id)) * c* D^k K_chi(A)(Xs) c with
    c the gamma column of the inverse change of basis.
    """
    _check_partition(chi)
    n = chi.size
    mat = as_matrix(a, n=n)
    sc = build_symmetry_class(chi, n)
    gamma = MultiIndex(tuple(range(1, n + 1)), n)
    pos = sc.delta_hat.index(gamma)
    unit = np.zeros(sc.dim, dtype=np.complex128)
    unit[pos] = 1.0
    c = np.linalg.solve(sc.basis_b, unit)
    deriv = dk_kchi(sc, mat, xs)
    value = c.conj() @ deriv @ c
    return complex(value * math.factorial(n) / degree(chi))


def dk_immanant_bound(chi: Partition, k: int, nu) -> float:
    """The bound k! * p_{n-k}(nu_{omega(chi)}) on the immanant derivative norm.

    Sharp for the determinant; can be strict otherwise.
    """
    _check_partition(chi)
    n = chi.size
    vals = _check_nu(nu)
    if len(vals) != n:
        raise DomainError(f"chi={chi} needs {n} singular values, got {len(vals)}")
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n={n}, got k={k}")
    value = math.factorial(k) * elementary_symmetric(n - k, _nu_omega(chi, vals))
    return _require_finite(value, "immanant derivative bound")


@dataclass(frozen=True)
class ImmanantReport:
    """Sampled check of the immanant derivative bound for one matrix."""

    chi: Partition
    n: int
    k: int
    bound_value: float
    sample_sup: float
    samples: int
    seed: int
    tolerance: float = REPORT_TOL

    @property
    def ok(self) -> bool:
        return self.sample_sup <= self.bound_value + self.tolerance

    def to_json_obj(self) -> dict:
        return {**asdict(self), "chi": list(self.chi.parts), "ok": self.ok}


def _immanant_sup(
    chi: Partition, a: np.ndarray, k: int, samples: int, rng: np.random.Generator
) -> float:
    # Sampled sup of |D^k d_chi(a)(X_1, ..., X_k)| over random unit tuples
    # read in order from rng.  A tuple takes 16 n! bytes for each live state
    # of the sum, the product being formed and the entries it gathers.
    n = chi.size
    tuple_bytes = 16 * math.factorial(n) * (_live_states([n - k] + [1] * k) + 2)
    _check_samples(samples, tuple_bytes)
    chunk = _sample_chunk(tuple_bytes)
    return _sampled_max(
        lambda xs, best: max(best, float(np.max(np.abs(_dk_immanant_raw(chi, a, xs))))),
        n, k, samples, rng, chunk,
    )


def immanant_bound_verify(
    chi: Partition, a, k: int, samples: int = 100, seed: int = 0
) -> ImmanantReport:
    """Sample |D^k d_chi(A)| over random unit tuples against the closed bound."""
    _check_partition(chi)
    n = chi.size
    mat = as_matrix(a, n=n)
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n={n}, got k={k}")
    nu = singular_values(mat)
    bound = dk_immanant_bound(chi, k, nu)
    return ImmanantReport(
        chi=chi,
        n=n,
        k=k,
        bound_value=float(bound),
        sample_sup=_immanant_sup(chi, mat, k, samples, sample_rng(seed, 0)),
        samples=samples,
        seed=seed,
    )


def perturbation_bounds(chi: Partition, nu, delta: float) -> float:
    """Lipschitz-type bound on K_chi and d_chi under a perturbation of norm delta.

    The Taylor tail Sum_{k=1}^{m} p_{m-k}(nu_{omega(chi)}) * delta^k bounds
    both the operator difference ||K_chi(T) - K_chi(T+X)|| and, where the
    matrix size equals |chi|, the scalar |d_chi(A) - d_chi(A+Y)|.
    """
    _check_partition(chi)
    delta = float(delta)
    if not np.isfinite(delta) or delta < 0.0:
        raise DomainError(f"perturbation norm must be finite and >= 0, got {delta}")
    m = chi.size
    vals = _check_nu(nu)
    if m > len(vals):
        raise DomainError(
            f"m={m} exceeds the number of singular values {len(vals)}; "
            "the Taylor terms are derivative norms, which need m <= n"
        )
    selection = _nu_omega(chi, vals)
    total = 0.0
    try:
        for k in range(1, m + 1):
            total += elementary_symmetric(m - k, selection) * delta**k
    except OverflowError as exc:
        raise NumericError(f"perturbation bound overflowed: {exc}") from exc
    return _require_finite(total, "perturbation bound")

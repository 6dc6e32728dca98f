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
from typing import NamedTuple

import numpy as np

from .combinat import MultiIndex, Partition
from .denselin import _distinct_arrangements, _require_finite, _spectral_norms
from .denselin import as_matrix, polar, singular_values, spectral_norm
from .errors import DomainError, NumericError, ResourceError
from .symclass import SymmetryClass, _dk_stack, build_symmetry_class, dk_kchi
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
    "PerturbationBounds",
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
# is (S, n^m, dim) complex in the compression kernel and (S, n!, n) complex
# in the immanant sum.  A class too large for two tuples is evaluated one
# tuple at a time.  Every class `run_verify` samples, and the (2,1)/4
# `kchi norm`, has n^m * dim at most 2560 and gets the full chunk.
SAMPLE_CHUNK = 64
SAMPLE_CHUNK_BYTES = 1 << 22


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
        scale = max(1.0, self.formula_value)
        return (
            self.sample_max <= self.formula_value + self.tolerance
            and abs(self.identity_value - self.formula_value) <= self.tolerance * scale
            and abs(self.attained_value - self.formula_value) <= self.tolerance * scale
        )

    def to_json_obj(self) -> dict:
        return {**asdict(self), "chi": list(self.chi.parts), "ok": self.ok}


def _check_stream(seed: int, index: int) -> tuple[int, int]:
    seed = int(seed)
    index = int(index)
    if seed < 0 or index < 0:
        raise DomainError(f"seed and sample index must be >= 0, got ({seed}, {index})")
    return seed, index


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one sample, derived from (seed, sample index).

    Each sample owns an independent stream, so sampling loops can be
    reordered or parallelized without changing any draw.
    """
    return np.random.default_rng(_check_stream(seed, index))


def random_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Square matrix with independent standard complex Gaussian entries."""
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return (real + 1j * imag) / math.sqrt(2.0)


def random_unit_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian matrix rescaled to spectral norm one."""
    while True:
        g = random_matrix(n, rng)
        s = spectral_norm(g)
        if s > 1e-12:
            return g / s


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding
# constants, which sample_rng's default_rng((seed, index)) goes through.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(value: int) -> list[int]:
    # The little-endian 32-bit words SeedSequence reads from a non-negative
    # int; 0 is one word.
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_keys(init: int, mult: int, calls: int) -> np.ndarray:
    # The running hash constant of ``calls`` successive hashmix calls: call
    # c xors with key c and multiplies by key c + 1.
    return np.cumprod(np.array([init] + [mult] * calls, dtype=np.uint32), dtype=np.uint32)


def _hashmix(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix of column j of ``values`` with keys j and j + 1,
    # wrapping in uint32 as the C code does.
    mixed = (values ^ keys[:-1]) * keys[1:]
    return mixed ^ (mixed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _stream_states(seed: int, start: int, count: int) -> list[tuple[int, int]]:
    # The PCG64 (state, inc) of sample_rng(seed, start + i) for i < count,
    # seeded as one chunk: SeedSequence's pool hash and generate_state(4,
    # uint64) run down the chunk's column of each entropy word at once.  The
    # entropy of a stream is the words of seed followed by those of its
    # index; words past the pool's four are mixed into every pool word, and
    # only on the streams that have them.
    seed_words = _words(seed)
    entropy = [seed_words + _words(start + i) for i in range(count)]
    lengths = np.array([len(e) for e in entropy])
    width = max(4, int(lengths.max()))
    words = np.array([e + [0] * (width - len(e)) for e in entropy], dtype=np.uint32)
    keys = _hash_keys(_INIT_A, _MULT_A, 4 * width)
    pool = _hashmix(words[:, :4], keys[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[:, [src]], keys[4 + 3 * src : 8 + 3 * src])
        pool[:, dst] = _mix(pool[:, dst], hashed)
    for src in range(4, width):
        mixed = _mix(pool, _hashmix(words[:, [src]], keys[4 * src : 4 * src + 5]))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    generated = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _hash_keys(_INIT_B, _MULT_B, 8))
    # generate_state(4, uint64) joins its eight words little-endian; PCG64
    # reads initstate and initseq from them as (high, low) pairs, and its
    # srandom step sets inc = 2 initseq + 1, state = (initstate + inc) * MULT + inc.
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in (
        np.ascontiguousarray(generated, dtype="<u4").view("<u8").tolist()
    ):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((init_hi << 64 | init_lo) + inc) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def _gaussian_stack(n: int, k: int, seed: int, start: int, count: int) -> np.ndarray:
    # The k random_matrix draws of each sample start + i (0 <= i < count)
    # from sample_rng(seed, start + i), as one (count, k, n, n) stack.  One
    # standard_normal call per sample reads its (k, 2, n, n) normals from
    # the stream in the order random_matrix's 2k calls read them.
    bit_generator = np.random.PCG64()
    gen = np.random.Generator(bit_generator)
    normals = np.empty((count, k, 2, n, n))
    for out, (state, inc) in zip(normals, _stream_states(seed, start, count)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=out)
    return (normals[:, :, 0] + 1j * normals[:, :, 1]) / math.sqrt(2.0)


def _unit_stack(n: int, k: int, seed: int, start: int, count: int) -> np.ndarray:
    # The k random_unit_matrix draws of each sample start + i (0 <= i < count)
    # from sample_rng(seed, start + i), as one (count, k, n, n) stack
    # normalized by one batched SVD.  A sample with a draw of norm at most
    # 1e-12 is redrawn one matrix at a time, as random_unit_matrix redraws.
    seed, start = _check_stream(seed, start)
    gauss = _gaussian_stack(n, k, seed, start, count)
    norms = _spectral_norms(gauss)
    rejected = (norms <= 1e-12).any(axis=1)
    norms[rejected] = 1.0
    units = gauss / norms[..., None, None]
    for i in np.flatnonzero(rejected):
        rng = sample_rng(seed, start + i)
        units[i] = [random_unit_matrix(n, rng) for _ in range(k)]
    return units


def _sample_chunk(tuple_bytes: int) -> int:
    # Tuples per chunk when one tuple's largest working array takes
    # ``tuple_bytes``: SAMPLE_CHUNK, fewer for large arrays, at least one.
    return max(1, min(SAMPLE_CHUNK, SAMPLE_CHUNK_BYTES // tuple_bytes))


def _sampled_max(
    evaluate, n: int, k: int, samples: int, seed: int, chunk: int, start: int = 0
) -> float:
    # Largest value of ``evaluate`` over random unit k-tuples of n x n
    # matrices, tuple i (0 <= i < samples) from sample_rng(seed, start + i).
    # The tuples are drawn ``chunk`` at a time; ``evaluate`` takes the k
    # direction stacks (S, n, n) of one chunk and returns S values.
    best = 0.0
    for lo in range(0, samples, chunk):
        units = _unit_stack(n, k, seed, start + lo, min(chunk, samples - lo))
        best = max(best, float(np.max(evaluate(list(units.swapaxes(0, 1))))))
    return best


def _dk_norm_sup(
    sc: SymmetryClass, t: np.ndarray, k: int, samples: int, seed: int, start: int = 0
) -> float:
    # Sampled sup of ||D^k K_chi(t)(X_1, ..., X_k)|| over random unit tuples.
    chunk = _sample_chunk(16 * sc.n**sc.m * sc.dim)
    return _sampled_max(
        lambda xs: _spectral_norms(_dk_stack(sc, t, xs)), sc.n, k, samples, seed, chunk, start
    )


def dk_norm_verify(
    sc: SymmetryClass, t, k: int, samples: int = 100, seed: int = 0
) -> DerivReport:
    """Check the derivative-norm formula for one operator from four sides.

    Evaluates the closed form, the identity-direction value at the polar
    PSD factor, the value at the attaining unitary directions, and a
    sampled supremum over random unit tuples.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    t_mat = as_matrix(t, n=sc.n)
    nu = singular_values(t_mat)
    formula = dk_norm_formula(sc.chi, k, nu, n=sc.n)
    p, w = polar(t_mat)
    eye = np.eye(sc.n, dtype=np.complex128)
    identity_value = spectral_norm(dk_kchi(sc, p, [eye] * k))
    attained_value = spectral_norm(dk_kchi(sc, t_mat, [w.conj().T] * k))
    sample_max = _dk_norm_sup(sc, t_mat, k, samples, seed)
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


def _immanant_raw(chi: Partition, a: np.ndarray):
    # d_chi of an (n, n) matrix, or of each matrix in a stack (..., n, n).
    images, values = _permutation_characters(chi)
    return a[..., np.arange(chi.size), images].prod(axis=-1) @ values


def immanant(chi: Partition, a) -> complex:
    """The immanant d_chi(A) = sum over sigma of chi(sigma) prod a_{i,sigma(i)}.

    chi = (1,...,1) gives the determinant and chi = (n) the permanent.
    """
    n = chi.size
    if n > MAX_IMMANANT_SIZE:
        raise ResourceError(
            f"immanants capped at n <= {MAX_IMMANANT_SIZE}, got n={n}"
        )
    mat = as_matrix(a, n=n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_immanant_raw(chi, mat))
    return _require_finite(value, "immanant")


def _mixed_immanant_raw(chi: Partition, reps, orders):
    # Average of d_chi over column assignments, one term per distinct
    # arrangement (reps, orders) of the arguments from
    # ``_distinct_arrangements``: column j comes from reps[order[j]].  Each
    # argument is an (n, n) matrix or a stack (..., n, n), and stacks give
    # one value per matrix.
    total = 0.0
    for order in orders:
        columns = np.broadcast_arrays(*(reps[i][..., :, j] for j, i in enumerate(order)))
        total = total + _immanant_raw(chi, np.stack(columns, axis=-1))
    return total / len(orders)


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
        value = factor * _mixed_immanant_raw(chi, *_distinct_arrangements(mats))
    return _require_finite(value, "immanant derivative")


def mixed_immanant(chi: Partition, xs) -> complex:
    """The symmetrized immanant with column j drawn from the sigma(j)-th argument.

    Takes n = |chi| matrices; fully symmetric and multilinear, and equal
    to d_chi(A) when every argument is A.
    """
    n = chi.size
    if n > MAX_MIXED_SIZE:
        raise ResourceError(
            f"mixed immanants capped at n <= {MAX_MIXED_SIZE}, got n={n}"
        )
    mats = [as_matrix(x, n=n) for x in xs]
    if len(mats) != n:
        raise DomainError(f"chi={chi} needs {n} matrices, got {len(mats)}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_mixed_immanant_raw(chi, *_distinct_arrangements(mats)))
    return _require_finite(value, "mixed immanant")


def dk_immanant(chi: Partition, a, xs) -> complex:
    """k-th directional derivative of the immanant map at ``a``.

    Equals (n!/(n-k)!) times the mixed immanant with a in n-k slots and
    the directions in the rest; for k = n the value no longer depends on
    ``a``.  k = 0 returns d_chi(a).
    """
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
    reps, orders = _distinct_arrangements([mat] * (sc.m - k) + x_mats)
    index = np.array([alpha.entries for alpha in sc.delta_hat]) - 1
    out = np.empty((sc.dim, sc.dim), dtype=np.complex128)
    # One row gamma at a time, so memory stays at dim * m! * m entries.
    for i, gamma in enumerate(index):
        # A[gamma|delta] for every delta in delta_hat, as a (dim, m, m) stack
        at = (gamma[:, None], index[:, None, :])
        out[i] = _mixed_immanant_raw(sc.chi, [rep[at] for rep in reps], orders)
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


def immanant_bound_verify(
    chi: Partition, a, k: int, samples: int = 100, seed: int = 0
) -> ImmanantReport:
    """Sample |D^k d_chi(A)| over random unit tuples against the closed bound."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    n = chi.size
    mat = as_matrix(a, n=n)
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n={n}, got k={k}")
    nu = singular_values(mat)
    bound = dk_immanant_bound(chi, k, nu)
    chunk = _sample_chunk(16 * math.factorial(n) * n)
    sup = _sampled_max(
        lambda xs: np.abs(_dk_immanant_raw(chi, mat, xs)), n, k, samples, seed, chunk
    )
    return ImmanantReport(
        chi=chi,
        n=n,
        k=k,
        bound_value=float(bound),
        sample_sup=float(sup),
        samples=samples,
        seed=seed,
    )


class PerturbationBounds(NamedTuple):
    kchi_bound: float
    imm_bound: float


def perturbation_bounds(chi: Partition, nu, delta: float) -> PerturbationBounds:
    """Lipschitz-type bounds on K_chi and d_chi under a perturbation of norm delta.

    Both read Sum_{k=1}^{m} p_{m-k}(nu_{omega(chi)}) * delta^k from the
    Taylor expansion; the first bounds the operator difference
    ||K_chi(T) - K_chi(T+X)||, the second the scalar |d_chi(A) - d_chi(A+Y)|
    (where the matrix size equals |chi|).
    """
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
    _require_finite(total, "perturbation bound")
    return PerturbationBounds(kchi_bound=total, imm_bound=total)

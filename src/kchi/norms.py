"""Norm formulas for derivatives of symmetric tensor maps and immanants.

The central identity: for T with singular values nu_1 >= ... >= nu_n and
polar decomposition into a PSD factor P and a unitary,

    || D^k K_chi(T) || = k! * p_{m-k}(nu_{omega(chi)})

where p_t is the elementary symmetric polynomial and nu_{omega(chi)}
repeats nu_i exactly chi_i times.  As d_chi(A) = chi(1) <K_chi(A) u, u> for
the unit vector u along e*_(1..n), || D^k d_chi(A) || <= chi(1) * k! *
p_{n-k}(nu_{omega(chi)}), attained at A = X_i = I for every chi and at the
unitary polar directions for the determinant.  This module evaluates the
closed forms, the sampling verifiers that compare them against the
operators from ``symclass``, and the immanant routes that factor K_chi(A)
through submatrix immanants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .combinat import MultiIndex, Partition, _check_type, _integer, _positive_size, _real, _reals
from .combinat import _shown
from .denselin import _checked, _distinct_factors, _largest_spectral_norm, _require_finite
from .denselin import _matrices, as_matrix, polar, singular_values, spectral_norm
from .errors import DomainError, NumericError, ResourceError
from .symclass import SymmetryClass, _dk_copy, _operators, dk_kchi
from .symgroup import _permutation_characters, degree

__all__ = [
    "nu_omega",
    "dk_norm_formula",
    "lambda_eigenvalue",
    "DerivReport",
    "dk_norm_verify",
    "immanant",
    "dk_immanant",
    "mixed_immanant_matrix",
    "dk_kchi_via_immanants",
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

# Random unit tuples are drawn and evaluated a chunk at a time, each of as
# many tuples as keep all the arrays the chunk holds at once within
# SAMPLE_CHUNK_BYTES, and at least one, so a supremum's memory grows
# neither with the sample count nor, beyond one tuple, with the class (see
# _sampled_max).  A tuple's draw holds at most four arrays of the size of
# its k directions, its normals, its unitaries and one column's temporaries
# (tracemalloc read 2.8 to 4.0 of them at n = 1..8), and then the
# directions stay beside its evaluation.  A derivative supremum evaluates
# and norms each sample on the kernel's one Schur-module copy, M_W of
# symclass._partial_trace, (w, w) with w = dim / f^chi, never lifted to the
# class (symclass._lift), and a tuple holds two such complex arrays: its
# value and, a third of the chunk at a time, the norm's scaled copy, Gram
# matrix and Gram square (denselin._largest_spectral_norm).  Through the
# partial trace a tuple also holds three (n^m, w) complex states (the copy
# columns V Z are the class's).  A supremum over more tuples than its
# n^{2k} matrix-unit tuples contracts each chunk against the base point's
# (n^{2k}, w^2) tensor instead (see _dk_norm_sup): a tuple then holds at
# most two rows of (n^{2k}) outer products beside the tensor, and the route
# is taken only when the tensor and the values it is gathered from fit the
# budget.  The immanant sum holds, per tuple, its live (n!) complex states,
# a product and its gathered entries (see _immanant_sup).  Every class
# `run_verify` samples takes the tensor route, in chunks of 150 to 1000
# tuples at n = 3 and of 69 at n = 4; (3,1) on C^6 is evaluated one tuple
# at a time.
SAMPLE_CHUNK_BYTES = 1 << 20
# A supremum whose samples pass more than this through their largest
# per-tuple array in all is refused: at the 1e7 to 1e8 B/s both routes
# reach on a 2-CPU box, 16 GiB is 3 to 30 minutes.  100 samples of
# (2,1,1)/8 at the cap take 2.5 GB through the kernel's (n^m, w) state.
SAMPLE_BUDGET_BYTES = 1 << 34


def _coefficients(values) -> list[float]:
    # p_0, ..., p_len(values) of validated reals, one value at a time; p_j
    # never reads a higher one, so its bits do not depend on how many are taken.
    coeffs = [1.0] + [0.0] * len(values)
    for used, v in enumerate(values, start=1):
        for j in range(used, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs


def _closed_form(selection, k: int, what: str, scale: int = 1) -> float:
    # scale * k! * p_{m-k}(selection), m = len(selection): the norm of D^k K_chi
    # at the selection nu_omega(chi), and the immanant bound at scale chi(1).
    value = scale * math.factorial(k) * _coefficients(selection)[len(selection) - k]
    return _require_finite(value, what)


def _check_nu(nu) -> tuple[float, ...]:
    vals = _reals(nu, "singular values")
    if not vals:
        raise DomainError("need at least one singular value")
    for i, v in enumerate(vals):
        if not np.isfinite(v) or v < 0.0:
            raise DomainError(f"singular values must be finite and >= 0, got {v}")
        if i and vals[i - 1] < v:
            raise DomainError("singular values must be sorted descending")
    return vals


def _check_order(k, low: int, top: int, name: str) -> int:
    # The derivative order ``k`` as an int in [low, top], ``top`` being m or n.
    k = _integer(k, "k")
    if not low <= k <= top:
        raise DomainError(f"need {low} <= k <= {name}={top}, got k={_shown(k)}")
    return k


def nu_omega(chi: Partition, nu) -> tuple[float, ...]:
    """The selection (nu_1 repeated chi_1 times, nu_2 repeated chi_2 times, ...)."""
    _check_type(Partition, chi)
    return _nu_omega(chi, _check_nu(nu))


def _nu_omega(chi: Partition, vals) -> tuple[float, ...]:
    # nu_omega on singular values that are already validated
    if chi.length > len(vals):
        raise DomainError(
            f"chi={chi} has {chi.length} parts but only {len(vals)} singular values given"
        )
    return tuple(vals[i] for i, part in enumerate(chi.parts) for _ in range(part))


def _selection(chi: Partition, vals, n: int | None = None) -> tuple[float, ...]:
    # nu_omega(chi) for the closed forms, on validated singular values: there
    # must be n of them when n is given, and at least m = |chi|.
    if n is not None and len(vals) != n:
        raise DomainError(f"expected {n} singular values, got {len(vals)}")
    if chi.size > len(vals):
        raise DomainError(
            f"m={_shown(chi.size)} exceeds the number of singular values {len(vals)}; "
            "the closed forms need m <= n"
        )
    return _nu_omega(chi, vals)


def dk_norm_formula(chi: Partition, k: int, nu, n: int | None = None) -> float:
    """The norm k! * p_{m-k}(nu_{omega(chi)}) of the k-th derivative at T.

    ``nu`` holds the singular values of T sorted descending; requires
    1 <= k <= m <= len(nu) (the equality needs as many singular values as
    tensor factors).
    """
    _check_type(Partition, chi)
    selection = _selection(chi, _check_nu(nu), n)
    k = _check_order(k, 1, chi.size, "m")
    return _closed_form(selection, k, "derivative norm formula")


def lambda_eigenvalue(alpha: MultiIndex, k: int, nu) -> float:
    """The eigenvalue k! * p_{m-k}(nu_alpha) of the derivative at a PSD point.

    ``nu_alpha`` picks entry alpha(i) of nu for each i; the value depends
    on alpha only through its orbit under slot permutations.
    """
    _check_type(MultiIndex, alpha)
    vals = _check_nu(nu)
    k = _check_order(k, 1, alpha.m, "m")
    if alpha.n > len(vals):
        raise DomainError(
            f"alpha takes values up to {_shown(alpha.n)} but only {len(vals)} singular values given"
        )
    return _closed_form([vals[e - 1] for e in alpha.entries], k, "derivative eigenvalue")


class _Report:
    # The JSON form of a sampled report, with the tolerance its ``ok`` applies.
    def to_json_obj(self) -> dict:
        fields = {**asdict(self), "chi": list(self.chi.parts)}
        return {**fields, "tolerance": REPORT_TOL, "ok": self.ok}


@dataclass(frozen=True)
class DerivReport(_Report):
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

    @property
    def ok(self) -> bool:
        return (
            self.sample_max <= self.formula_value + REPORT_TOL
            and _relative_error(self.identity_value, self.formula_value) <= REPORT_TOL
            and _relative_error(self.attained_value, self.formula_value) <= REPORT_TOL
        )


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
    seed, index = _integer(seed, "seed"), _integer(index, "sample index")
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        got = f"seed {_shown(seed)}, index {_shown(index)}"
        raise DomainError(f"seed and sample index must lie in [0, 2**64), got {got}")
    return np.random.Generator(np.random.Philox(key=seed + (index << 64)))


def random_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Square matrix with independent standard complex Gaussian entries."""
    n = _positive_size(n)
    _check_type(np.random.Generator, rng)
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return (real + 1j * imag) / math.sqrt(2.0)


def random_unit_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary n x n matrix, of spectral norm one."""
    n = _positive_size(n)
    _check_type(np.random.Generator, rng)
    return _haar_units(rng.standard_normal((2, n, n)))


def _haar_units(normals: np.ndarray) -> np.ndarray:
    # The unitaries of the complex Gaussians re + i im of a (..., 2, n, n)
    # stack of normals (re, im), in its shape: Q of each one's QR whose R has
    # a real positive diagonal, which is Haar distributed (Mezzadri, Notices
    # AMS 54, 2007).  Classical Gram-Schmidt, columns in order, takes each
    # column off the ones before it twice, which keeps Q unitary to rounding
    # (Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005).  Every
    # sum is an einsum over one matrix's rows, with no BLAS call, so a
    # matrix's bits depend neither on how many share the stack nor on the
    # thread count.
    q = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=np.complex128)
    q.real, q.imag = np.moveaxis(normals, -3, 0)
    for j in range(q.shape[-1]):
        x, done = q[..., j], q[..., :j]
        for _ in range(2):
            x -= np.einsum("...ij,...j->...i", done, np.einsum("...ij,...i->...j", done.conj(), x))
        x /= np.sqrt(np.einsum("...i,...i->...", x.conj(), x).real)[..., None]
    return q


def _sample_chunk(tuple_bytes: int, held: int = 0) -> int:
    # Tuples per chunk when each tuple holds ``tuple_bytes`` at once beside
    # ``held`` bytes: as many as fit SAMPLE_CHUNK_BYTES, at least one.
    return max(1, (SAMPLE_CHUNK_BYTES - held) // tuple_bytes)


def _check_samples(samples: int, tuple_bytes: int) -> int:
    # ``samples`` as an int, before any draw: a count that is not an integer
    # or lies outside [1, 2**64) is a domain error, and one past
    # SAMPLE_BUDGET_BYTES at ``tuple_bytes`` per sample a resource error.
    samples = _integer(samples, "samples")
    if not 1 <= samples < 2**64:
        raise DomainError(f"samples must lie in [1, 2**64), got {_shown(samples)}")
    if samples * tuple_bytes > SAMPLE_BUDGET_BYTES:
        raise ResourceError(
            f"sampling capped at {SAMPLE_BUDGET_BYTES} bytes of evaluated tuples; "
            f"{samples} samples of {tuple_bytes} bytes each exceed it"
        )
    return samples


def _sampled_max(
    reduce, n: int, k: int, samples: int, rng: np.random.Generator, tuple_bytes: int,
    held: int = 0,
) -> float:
    # Largest value over ``samples`` random unit k-tuples of n x n matrices,
    # read in order from rng a chunk at a time, each chunk's tuples equal to
    # as many random_unit_matrix calls on rng, so the tuples do not depend
    # on the chunk size.  ``reduce(xs, best)`` takes the k direction stacks
    # (S, n, n) of one chunk and the largest value so far, and returns the
    # largest value including the chunk's.  A tuple holds its draw, at most
    # four arrays of the size of its directions (_haar_units), and then its
    # directions beside the ``tuple_bytes`` its evaluation holds; a chunk
    # holds ``held`` more bytes besides (see SAMPLE_CHUNK_BYTES).
    directions = 16 * k * n * n
    chunk = _sample_chunk(max(4 * directions, directions + tuple_bytes), held)
    best = 0.0
    for lo in range(0, samples, chunk):
        units = _haar_units(rng.standard_normal((min(chunk, samples - lo), k, 2, n, n)))
        best = reduce(list(units.swapaxes(0, 1)), best)
        # Freed before the next chunk is drawn.
        del units
    return best


def _tensor_route(n: int, width: int, k: int, samples: int) -> bool:
    # Whether _dk_norm_sup contracts against the derivative tensor: the
    # samples must outnumber its n^{2k} matrix-unit tuples, as the expanded
    # tensor and each sample's contraction against it scale with n^{2k}
    # (only the C(n^2 + k - 1, k) sorted tuples go through the kernel), and
    # the (n^{2k}, w^2) tensor and the values it is gathered from must fit
    # SAMPLE_CHUNK_BYTES.
    units = n ** (2 * k)
    return units < samples and 2 * 16 * units * width * width <= SAMPLE_CHUNK_BYTES


def _derivative_tensor(sc: SymmetryClass, t: np.ndarray, k: int, chunk: int) -> np.ndarray:
    # D^k K_chi(t) on the one copy (symclass._dk_copy) at every k-tuple of
    # matrix units, as the (n^{2k}, w^2) tensor L: row r holds the value on
    # (E_1, ..., E_k) where E_i is unit d_i, the i-th most significant
    # base-n^2 digit of r, and unit a n + b is E_ab.  The derivative is
    # symmetric in its directions, so only the C(n^2 + k - 1, k) tuples with
    # non-decreasing digits go through the kernel, ``chunk`` at a time, and
    # every row is read from its sorted tuple.
    units = np.eye(sc.n**2, dtype=np.complex128).reshape(-1, sc.n, sc.n)
    digits = np.indices((sc.n**2,) * k).reshape(k, -1)
    ordered = np.sort(digits, axis=0)
    sorted_rows = np.flatnonzero((digits == ordered).all(axis=0))
    reps = digits[:, sorted_rows]
    width = sc.copy_columns.shape[1]
    values = np.empty((reps.shape[1], width * width), dtype=np.complex128)
    for lo in range(0, reps.shape[1], chunk):
        value = _dk_copy(sc, t, [units[d[lo : lo + chunk]] for d in reps])
        values[lo : lo + chunk] = value.reshape(len(value), -1)
    codes = np.ravel_multi_index(tuple(ordered), (sc.n**2,) * k)
    return values[np.searchsorted(sorted_rows, codes)]


def _contract(tensor: np.ndarray, xs: list[np.ndarray], width: int) -> np.ndarray:
    # D^k K_chi(t)(X_1, ..., X_k) on the one copy for each sample of the k
    # direction stacks (S, n, n), by multilinearity: the (S, n^{2k}) outer
    # products of the directions' entries, ordered as the tensor's rows,
    # times the tensor.  The product is taken a block of rows at a time, of
    # at most 2^16 multiply-adds, which OpenBLAS runs on one thread (on a
    # 2-CPU box its zgemm took a second thread from about 1.5e5): waking a
    # second one for a GEMM this small between the draws and the norms took
    # longer than the GEMM, 0.22-0.26 ms rather than 0.1 ms for a (69, 16)
    # by (16, 400) product, and a time slice when the other CPU was busy.
    outer = xs[0].reshape(len(xs[0]), -1)
    for x in xs[1:]:
        outer = (outer[:, :, None] * x.reshape(len(x), 1, -1)).reshape(len(x), -1)
    step = max(1, (1 << 16) // tensor.size)

    def product():
        out = np.empty((len(outer), tensor.shape[1]), dtype=np.complex128)
        for lo in range(0, len(outer), step):
            np.matmul(outer[lo : lo + step], tensor, out=out[lo : lo + step])
        return out

    return _checked("derivative", product).reshape(-1, width, width)


def _dk_norm_sup(
    sc: SymmetryClass, t: np.ndarray, k: int, samples: int, rng: np.random.Generator
) -> float:
    # Sampled sup of ||D^k K_chi(t)(X_1, ..., X_k)|| over random unit tuples,
    # each evaluated and normed on the one copy, whose norm is the class's
    # (symclass._dk_copy).  When _tensor_route allows, the kernel runs only
    # on the n^{2k} matrix-unit tuples, once per base point, and each chunk
    # of drawn tuples is one GEMM against that tensor; otherwise each chunk
    # is one kernel call.  Either way only the chunk's samples that can beat
    # the running maximum reach LAPACK.  Chunks are sized as set out at
    # SAMPLE_CHUNK_BYTES.
    n, width = sc.n, sc.copy_columns.shape[1]
    samples = _check_samples(samples, 16 * n**sc.m * width)
    values = 2 * 16 * width * width
    kernel = 3 * 16 * n**sc.m * width + values
    if _tensor_route(n, width, k, samples):
        held = 16 * n ** (2 * k) * width * width
        tensor = _derivative_tensor(sc, t, k, _sample_chunk(kernel, held))
        evaluate = lambda xs: _contract(tensor, xs, width)
        tuple_bytes = 2 * 16 * n ** (2 * k) + values
    else:
        evaluate, held, tuple_bytes = lambda xs: _dk_copy(sc, t, xs), 0, kernel
    return _sampled_max(
        lambda xs, best: _largest_spectral_norm(evaluate(xs), best),
        n, k, samples, rng, tuple_bytes, held,
    )


def dk_norm_verify(
    sc: SymmetryClass, t, k: int, samples: int = 100, seed: int = 0
) -> DerivReport:
    """Check the derivative-norm formula for one operator from four sides.

    Evaluates the closed form, the identity-direction value at the polar
    PSD factor, the value at the attaining unitary directions, and a
    sampled supremum over random unit tuples.
    """
    (t_mat,) = _operators(sc, [t])
    k = _check_order(k, 1, sc.m, "m")
    selection = _selection(sc.chi, singular_values(t_mat).tolist())
    formula = _closed_form(selection, k, "derivative norm formula")
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
        samples=_integer(samples, "samples"),
        seed=_integer(seed, "seed"),
    )


def immanant(chi: Partition, a) -> complex:
    """The immanant d_chi(A) = sum over sigma of chi(sigma) prod a_{i,sigma(i)}.

    chi = (1,...,1) gives the determinant and chi = (n) the permanent.
    """
    _check_type(Partition, chi)
    n = chi.size
    if n > MAX_IMMANANT_SIZE:
        raise ResourceError(
            f"immanants capped at n <= {MAX_IMMANANT_SIZE}, got n={_shown(n)}"
        )
    mat = as_matrix(a, n=n)
    return complex(_checked("immanant", _mixed_immanant_raw, chi, [mat], [0] * n))


def _mixed_immanant_raw(chi: Partition, reps, labels):
    # Mean of d_chi over the distinct assignments of its columns to the
    # arguments, reps[i] filling as many of them as ``labels`` holds i (from
    # _distinct_factors); arguments are (n, n) matrices or (..., n, n)
    # stacks.  A state holds, for each permutation p, the products of the
    # entries (p(j), j) over the columns j so far, and chi(p) = chi(p^-1)
    # makes their sum against chi d_chi.  After the first j columns the sum
    # of the states over the arrangements depends only on the sub-multiset
    # of arguments used, so one state is kept per sub-multiset; each column
    # gathers every argument with copies left and adds the results that
    # reach the same sub-multiset.
    counts = [labels.count(i) for i in range(len(reps))]
    images, values = _permutation_characters(chi)
    states = {(0,) * len(reps): np.ones(len(values))}
    for j in range(chi.size):
        step: dict[tuple[int, ...], np.ndarray] = {}
        for used in list(states):
            state = states.pop(used)
            for i, rep in enumerate(reps):
                if used[i] < counts[i]:
                    key = used[:i] + (used[i] + 1,) + used[i + 1 :]
                    term = state * rep[..., images[:, j], j]
                    if key in step:
                        step[key] += term
                    else:
                        step[key] = term
        states = step
    (total,) = states.values()
    return total @ values / (math.factorial(chi.size) // math.prod(map(math.factorial, counts)))


def _live_states(counts) -> int:
    # Most sub-multisets of two consecutive sizes: the states
    # _mixed_immanant_raw holds at once over arguments of multiplicities ``counts``.
    sizes = [1]
    for copies in counts:
        sizes = [sum(sizes[max(0, j - copies) : j + 1]) for j in range(len(sizes) + copies)]
    return max(map(sum, zip(sizes, sizes[1:])), default=1)


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
    value = lambda: factor * _mixed_immanant_raw(chi, *_distinct_factors(mats))
    return _checked("immanant derivative", value)


def dk_immanant(chi: Partition, a, xs) -> complex:
    """k-th directional derivative of the immanant map at ``a``.

    Equals (n!/(n-k)!) times the mixed immanant with a in n-k slots and
    the directions in the rest; for k = n the value no longer depends on
    ``a``.  k = 0 returns d_chi(a).
    """
    _check_type(Partition, chi)
    n = chi.size
    mat = as_matrix(a, n=n)
    x_mats = _matrices(xs, n=n)
    k = len(x_mats)
    if k > n:
        raise DomainError(f"derivative order {k} exceeds n={n}")
    if k == 0:
        return immanant(chi, mat)
    return complex(_dk_immanant_raw(chi, mat, x_mats))


def mixed_immanant_matrix(sc: SymmetryClass, a, xs) -> np.ndarray:
    """Matrix of mixed immanants of submatrices, a in m-k slots per entry."""
    mat, *x_mats = _operators(sc, [a], xs)
    k = len(x_mats)
    if k > sc.m:
        raise DomainError(f"derivative order {k} exceeds m={sc.m}")
    reps, labels = _distinct_factors([mat] * (sc.m - k) + x_mats)
    index = np.array([alpha.entries for alpha in sc.delta_hat]) - 1
    # One row gamma at a time, so each state of the sum holds dim * m! entries;
    # a row's arguments are A[gamma|delta] for every delta in delta_hat, (dim, m, m).
    row = lambda gamma: [rep[gamma[:, None], index[:, None, :]] for rep in reps]
    rows = lambda: np.stack([_mixed_immanant_raw(sc.chi, row(g), labels) for g in index])
    return _checked("mixed immanant matrix", rows)


def dk_kchi_via_immanants(sc: SymmetryClass, a, xs) -> np.ndarray:
    """Derivative of the induced operator assembled from submatrix immanants.

    Independent route to dk_kchi: the operator in the orthonormal basis is
    (chi(id)/(m-k)!) * B* M B with M the mixed-immanant matrix and B the
    triangular change of basis.
    """
    mat, *x_mats = _operators(sc, [a], xs)
    k = len(x_mats)
    if k > sc.m:
        return np.zeros((sc.dim, sc.dim), dtype=np.complex128)
    mixed = mixed_immanant_matrix(sc, mat, x_mats)
    coeff = degree(sc.chi) / math.factorial(sc.m - k)
    return _checked("immanant route", lambda: coeff * (sc.basis_b.T @ mixed @ sc.basis_b))


def dk_immanant_bound(chi: Partition, k: int, nu) -> float:
    """The bound chi(1) * k! * p_{n-k}(nu_{omega(chi)}) on the immanant derivative norm.

    Attained at A = X_i = I for every chi and at the unitary polar
    directions for the determinant; can be strict otherwise.
    """
    _check_type(Partition, chi)
    selection = _selection(chi, _check_nu(nu), chi.size)
    k = _check_order(k, 0, chi.size, "n")
    return _closed_form(selection, k, "immanant derivative bound", degree(chi))


@dataclass(frozen=True)
class ImmanantReport(_Report):
    """Sampled check of the immanant derivative bound for one matrix."""

    chi: Partition
    n: int
    k: int
    bound_value: float
    sample_sup: float
    samples: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.sample_sup <= self.bound_value + REPORT_TOL


def _immanant_sup(
    chi: Partition, a: np.ndarray, k: int, samples: int, rng: np.random.Generator
) -> float:
    # Sampled sup of |D^k d_chi(a)(X_1, ..., X_k)| over random unit tuples
    # read in order from rng.  A tuple takes 16 n! bytes for each live state
    # of the sum, the product being formed and the entries it gathers.
    n = chi.size
    tuple_bytes = 16 * math.factorial(n) * (_live_states([n - k] + [1] * k) + 2)
    samples = _check_samples(samples, tuple_bytes)
    return _sampled_max(
        lambda xs, best: max(best, float(np.max(np.abs(_dk_immanant_raw(chi, a, xs))))),
        n, k, samples, rng, tuple_bytes,
    )


def immanant_bound_verify(
    chi: Partition, a, k: int, samples: int = 100, seed: int = 0
) -> ImmanantReport:
    """Sample |D^k d_chi(A)| over random unit tuples against the closed bound."""
    _check_type(Partition, chi)
    n = chi.size
    mat = as_matrix(a, n=n)
    k = _check_order(k, 1, n, "n")
    selection = _nu_omega(chi, singular_values(mat).tolist())
    bound = _closed_form(selection, k, "immanant derivative bound", degree(chi))
    return ImmanantReport(
        chi=chi,
        n=n,
        k=k,
        bound_value=float(bound),
        sample_sup=_immanant_sup(chi, mat, k, samples, sample_rng(seed, 0)),
        samples=_integer(samples, "samples"),
        seed=_integer(seed, "seed"),
    )


def perturbation_bounds(chi: Partition, nu, delta: float) -> float:
    """Lipschitz-type bound on K_chi under a perturbation of norm delta.

    The Taylor tail Sum_{k=1}^{m} p_{m-k}(nu_{omega(chi)}) * delta^k bounds
    ||K_chi(T) - K_chi(T+X)||, and chi(1) times it |d_chi(A) - d_chi(A+Y)|
    where the matrix size is |chi|; both are equalities at I and delta * I.
    """
    _check_type(Partition, chi)
    delta = _real(delta, "perturbation norm")
    if not np.isfinite(delta) or delta < 0.0:
        raise DomainError(f"perturbation norm must be finite and >= 0, got {delta}")
    m = chi.size
    coeffs = _coefficients(_selection(chi, _check_nu(nu)))
    total = 0.0
    try:
        for k in range(1, m + 1):
            total += coeffs[m - k] * delta**k
    except OverflowError as exc:
        raise NumericError(f"perturbation bound overflowed: {exc}") from exc
    return _require_finite(total, "perturbation bound")

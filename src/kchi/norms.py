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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .combinat import MultiIndex, Partition
from .denselin import _distinct_arrangements, _require_finite, as_matrix, polar
from .denselin import singular_values, spectral_norm
from .errors import DomainError, NumericError, ResourceError
from .symclass import SymmetryClass, build_symmetry_class, dk_kchi
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
    vals = _check_nu(nu)
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
    return math.factorial(k) * elementary_symmetric(m - k, nu_omega(chi, vals))


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
        return {
            "chi": list(self.chi.parts),
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "formula_value": self.formula_value,
            "identity_value": self.identity_value,
            "attained_value": self.attained_value,
            "sample_max": self.sample_max,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one sample, derived from (seed, sample index).

    Each sample owns an independent stream, so sampling loops can be
    reordered or parallelized without changing any draw.
    """
    seed = int(seed)
    index = int(index)
    if seed < 0 or index < 0:
        raise DomainError(f"seed and sample index must be >= 0, got ({seed}, {index})")
    return np.random.default_rng((seed, index))


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
    sample_max = 0.0
    for i in range(samples):
        rng = sample_rng(seed, i)
        xs = [random_unit_matrix(sc.n, rng) for _ in range(k)]
        sample_max = max(sample_max, spectral_norm(dk_kchi(sc, t_mat, xs)))
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


def _immanant_raw(chi: Partition, a: np.ndarray) -> complex:
    images, values = _permutation_characters(chi)
    products = a[np.arange(chi.size), images].prod(axis=1)
    return complex(values @ products)


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
        value = _immanant_raw(chi, mat)
    return _require_finite(value, "immanant")


def _mixed_immanant_raw(chi: Partition, mats: list[np.ndarray]) -> complex:
    # Average of d_chi over column assignments, one term per distinct
    # arrangement of the arguments.
    n = chi.size
    arrangements = _distinct_arrangements(mats)
    total = 0.0 + 0.0j
    scratch = np.empty((n, n), dtype=np.complex128)
    for arrangement in arrangements:
        for j, mat in enumerate(arrangement):
            scratch[:, j] = mat[:, j]
        total += _immanant_raw(chi, scratch)
    return total / len(arrangements)


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
        value = _mixed_immanant_raw(chi, mats)
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
    if n > MAX_MIXED_SIZE:
        raise ResourceError(
            f"immanant derivatives capped at n <= {MAX_MIXED_SIZE}, got n={n}"
        )
    factor = math.factorial(n) // math.factorial(n - k)
    with np.errstate(over="ignore", invalid="ignore"):
        value = factor * _mixed_immanant_raw(chi, [mat] * (n - k) + x_mats)
    return _require_finite(value, "immanant derivative")


def _submatrix(a: np.ndarray, gamma: MultiIndex, delta: MultiIndex) -> np.ndarray:
    rows = [e - 1 for e in gamma.entries]
    cols = [e - 1 for e in delta.entries]
    return a[np.ix_(rows, cols)]


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
    d = sc.dim
    out = np.empty((d, d), dtype=np.complex128)
    for i, gamma in enumerate(sc.delta_hat):
        for j, delta in enumerate(sc.delta_hat):
            slots = [_submatrix(mat, gamma, delta)] * (sc.m - k) + [
                _submatrix(x, gamma, delta) for x in x_mats
            ]
            out[i, j] = _mixed_immanant_raw(sc.chi, slots)
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
    return math.factorial(k) * elementary_symmetric(n - k, nu_omega(chi, vals))


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
        return {
            "chi": list(self.chi.parts),
            "n": self.n,
            "k": self.k,
            "bound_value": self.bound_value,
            "sample_sup": self.sample_sup,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


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
    sup = 0.0
    for i in range(samples):
        rng = sample_rng(seed, i)
        xs = [random_unit_matrix(n, rng) for _ in range(k)]
        sup = max(sup, abs(dk_immanant(chi, mat, xs)))
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
    selection = nu_omega(chi, vals)
    total = 0.0
    try:
        for k in range(1, m + 1):
            total += elementary_symmetric(m - k, selection) * delta**k
    except OverflowError as exc:
        raise NumericError(f"perturbation bound overflowed: {exc}") from exc
    _require_finite(total, "perturbation bound")
    return PerturbationBounds(kchi_bound=total, imm_bound=total)

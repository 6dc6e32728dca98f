"""Symmetry classes of tensors and derivatives of the induced operator.

For an irreducible character chi of S_m and V = C^n, the symmetrizer

    K_chi = (chi(id)/m!) * sum_sigma chi(sigma) P(sigma)

is an orthogonal projection of the m-fold tensor power onto the symmetry
class V_chi, where P(sigma) permutes Kronecker factors,
``P(sigma)(v_1 (x) ... (x) v_m) = v_{sigma^{-1}(1)} (x) ... (x) v_{sigma^{-1}(m)}``.
Its columns are the decomposable symmetrized tensors e*_alpha in
product-basis coordinates.  P(sigma) maps each S_m-orbit of multi-indices
to itself, so K_chi is block diagonal over the orbits: the class is built
one orbit block at a time and the n^m x n^m symmetrizer is never formed.

The class carries three distinguished index sets:

* omega: alpha whose e*_alpha is nonzero (equivalently, chi majorizes the
  multiplicity partition of alpha);
* delta_bar: the weakly increasing members of omega (one per orbit);
* delta_hat: a basis extension delta_bar <= delta_hat <= omega, chosen by
  a greedy lexicographic rank sweep within each orbit, so
  {e*_alpha : alpha in delta_hat} is a basis of V_chi.

All operators on V_chi are returned as matrices in the orthonormal basis
obtained by Gram-Schmidt from that e*-basis, so operator norms equal
spectral norms of coordinate matrices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .combinat import (
    MultiIndex,
    Partition,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
)
from .denselin import _distinct_arrangements, _require_finite, as_matrix, dimension_cap
from .denselin import gram_schmidt, kron
from .errors import DomainError, NumericError, ResourceError
from .symgroup import _permutation_characters, character_sum_over_stabilizer, degree

__all__ = [
    "SymmetryClass",
    "build_symmetry_class",
    "symmetrized_kron",
    "sym_op_product",
    "k_chi_matrix",
    "dk_kchi",
    "MAX_TENSOR_FACTORS",
    "RANK_EXTENSION_TOL",
]

MAX_TENSOR_FACTORS = 6
RANK_EXTENSION_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryClass:
    """The symmetry class of C^n associated with an irreducible character.

    ``inclusion`` holds the orthonormal basis of the class as columns in
    product-basis coordinates; ``basis_b`` is the upper triangular change
    of basis expressing those orthonormal vectors through the e*-basis
    indexed by ``delta_hat``.
    """

    chi: Partition
    n: int
    domain: tuple[MultiIndex, ...]
    omega: tuple[MultiIndex, ...]
    delta_bar: tuple[MultiIndex, ...]
    delta_hat: tuple[MultiIndex, ...]
    basis_b: np.ndarray
    inclusion: np.ndarray
    _position: dict = field(repr=False)

    @property
    def m(self) -> int:
        return self.chi.size

    @property
    def dim(self) -> int:
        """Dimension of the symmetry class."""
        return len(self.delta_hat)

    def index_of(self, alpha: MultiIndex) -> int:
        """Position of ``alpha`` in the lexicographic listing of the domain."""
        try:
            return self._position[alpha]
        except KeyError:
            raise DomainError(
                f"{alpha} is not a multi-index of this class (m={self.m}, n={self.n})"
            ) from None

    def estar_coords(self, alpha: MultiIndex) -> np.ndarray:
        """Coordinates of e*_alpha in the product basis (a symmetrizer column)."""
        self.index_of(alpha)
        rows = np.arange(self.n**self.m)
        column = _estar_columns(self.chi, self.n, [alpha.entries], rows)[:, 0]
        return column.astype(np.complex128)


def build_symmetry_class(chi: Partition, n: int) -> SymmetryClass:
    """Assemble the symmetry class of C^n for the character labeled by chi."""
    m = chi.size
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if m > MAX_TENSOR_FACTORS:
        raise ResourceError(
            f"tensor power capped at m <= {MAX_TENSOR_FACTORS}, got m={m}"
        )
    cap = dimension_cap()
    if n**m > cap:
        raise ResourceError(f"n^m = {n**m} exceeds the dimension cap {cap}")
    if chi.length > n:
        raise DomainError(
            f"symmetry class is zero: chi={chi} has {chi.length} parts but n={n}"
        )

    domain = enumerate_maps("gamma", m, n)
    omega = []
    for alpha in domain:
        by_sum = character_sum_over_stabilizer(chi, alpha) != 0
        by_majorization = majorizes(chi, multiplicity_partition(alpha))
        if by_sum != by_majorization:
            raise NumericError(
                f"membership routes disagree at alpha={alpha}: "
                f"character sum says {by_sum}, majorization says {by_majorization}"
            )
        if by_sum:
            omega.append(alpha)
    if not omega:
        raise NumericError("no surviving symmetrized tensors despite l(chi) <= n")

    delta_bar = tuple(a for a in omega if a.is_weakly_increasing())
    orbits = [_orbit_basis(chi, a) for a in delta_bar]
    kept = np.sort(np.concatenate([rows[cols] for rows, cols, _, _ in orbits]))
    delta_hat = tuple(domain[i] for i in kept)
    if not set(delta_bar) <= set(delta_hat):
        raise NumericError("basis sweep dropped an orbit representative")

    # Distinct orbits are orthogonal, so Gram-Schmidt over delta_hat in
    # lexicographic order is the per-orbit Gram-Schmidt, scattered.
    inclusion = np.zeros((n**m, len(kept)), dtype=np.complex128)
    basis_b = np.zeros((len(kept), len(kept)), dtype=np.complex128)
    for rows, cols, ortho, coeffs in orbits:
        at = np.searchsorted(kept, rows[cols])
        inclusion[np.ix_(rows, at)] = ortho
        basis_b[np.ix_(at, at)] = coeffs

    return SymmetryClass(
        chi=chi,
        n=n,
        domain=domain,
        omega=tuple(omega),
        delta_bar=delta_bar,
        delta_hat=delta_hat,
        basis_b=basis_b,
        inclusion=inclusion,
        _position={alpha: i for i, alpha in enumerate(domain)},
    )


def _estar_columns(chi: Partition, n: int, alphas, rows: np.ndarray) -> np.ndarray:
    # e*_alpha for each alpha in ``alphas``, restricted to the sorted
    # product-basis positions ``rows``, which must cover their orbits.
    # The symmetrizer sums chi(sigma) e_{alpha o sigma^-1} over S_m; reindexed
    # by sigma^-1 it reads the rows themselves, as chi(sigma) = chi(sigma^-1).
    images, values = _permutation_characters(chi)
    images, values = images[values != 0], values[values != 0]
    codes = (np.array(alphas) - 1)[:, images] @ n ** np.arange(chi.size - 1, -1, -1)
    out = np.zeros((len(rows), len(alphas)))
    np.add.at(out, (np.searchsorted(rows, codes), np.arange(len(alphas))[:, None]), values)
    return out * (degree(chi) / math.factorial(chi.size))


def _orbit_basis(chi: Partition, a: MultiIndex):
    # Greedy lexicographic sweep over the e*-columns of the orbit of ``a``,
    # up to the orbit's rank from characters, and Gram-Schmidt of the kept
    # ones.  Returns the orbit's product-basis positions, the kept columns
    # and gram_schmidt's (ortho, coeffs).
    orbit = sorted(set(itertools.permutations(a.entries)))
    rows = (np.array(orbit) - 1) @ a.n ** np.arange(a.m - 1, -1, -1)
    block = _estar_columns(chi, a.n, orbit, rows)
    stabilizer_size = math.prod(math.factorial(c) for c in multiplicity_partition(a).parts)
    rank = degree(chi) * character_sum_over_stabilizer(chi, a) // stabilizer_size
    basis = np.zeros((len(orbit), 0))
    cols = []
    for j, v in enumerate(block.T):
        if len(cols) == rank:
            break
        w = v - basis @ (basis.T @ v)
        w = w - basis @ (basis.T @ w)
        norm = float(np.linalg.norm(w))
        if norm > RANK_EXTENSION_TOL * float(np.linalg.norm(v)):
            cols.append(j)
            basis = np.hstack([basis, (w / norm)[:, None]])
    if len(cols) != rank:
        raise NumericError(
            f"rank sweep found {len(cols)} basis tensors in the orbit of {a}, "
            f"the character formula gives {rank}"
        )
    return (rows, cols, *gram_schmidt(block[:, cols]))


def symmetrized_kron(ops) -> np.ndarray:
    """The symmetrized tensor product (1/m!) sum_sigma X^{sigma(1)} (x) ... (x) X^{sigma(m)}.

    Sums one Kronecker product per distinct arrangement of the factors
    (see ``_distinct_arrangements``).  The class kernels below compute its
    compression without forming this n^m x n^m matrix.
    """
    mats = [as_matrix(op, square=True) for op in ops]
    if not mats:
        raise DomainError("symmetrized product needs at least one factor")
    arrangements = _distinct_arrangements(mats)
    total = None
    for arrangement in arrangements:
        term = functools.reduce(kron, arrangement)
        total = term if total is None else total + term
    return total / len(arrangements)


def _compress(sc: SymmetryClass, mats: list[np.ndarray]) -> np.ndarray:
    # V* (mean over distinct arrangements of A_1 (x) ... (x) A_m) V, with
    # each factor applied to its own tensor axis of the inclusion V.
    n, m, v = sc.n, sc.m, sc.inclusion
    arrangements = _distinct_arrangements(mats)
    total = np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        for arrangement in arrangements:
            w = v
            for i, mat in enumerate(arrangement):
                w = mat @ w.reshape(n**i, n, -1)
            total += w.reshape(n**m, sc.dim)
        out = (v.conj().T @ total) / len(arrangements)
    return _require_finite(out, "compressed operator")


def sym_op_product(sc: SymmetryClass, ops) -> np.ndarray:
    """The compression of the symmetrized tensor product to the class.

    Takes m operators on C^n and returns the |delta_hat| x |delta_hat|
    matrix of X^1 * ... * X^m in the orthonormal basis; the result is
    invariant under permuting the operators.
    """
    mats = [as_matrix(op, n=sc.n) for op in ops]
    if len(mats) != sc.m:
        raise DomainError(f"expected {sc.m} operators, got {len(mats)}")
    return _compress(sc, mats)


def k_chi_matrix(sc: SymmetryClass, a) -> np.ndarray:
    """Matrix of the induced operator on the class in the orthonormal basis.

    The class is invariant under the m-fold Kronecker power of ``a``, so
    the compression of that power is exactly the induced operator; the
    map is multiplicative in ``a``.
    """
    return _compress(sc, [as_matrix(a, n=sc.n)] * sc.m)


def dk_kchi(sc: SymmetryClass, t, xs) -> np.ndarray:
    """k-th directional derivative of the induced-operator map at ``t``.

    With k = len(xs) directions the value is
    ``(m!/(m-k)!) * t * ... * t * x^1 * ... * x^k`` (m-k copies of t in the
    symmetrized compressed product); it vanishes identically for k > m,
    and for k = m it does not depend on ``t``.  k = 0 returns the induced
    operator itself.
    """
    t_mat, *x_mats = [as_matrix(op, n=sc.n) for op in [t, *xs]]
    k = len(x_mats)
    if k > sc.m:
        return np.zeros((sc.dim, sc.dim), dtype=np.complex128)
    factor = math.factorial(sc.m) // math.factorial(sc.m - k)
    with np.errstate(over="ignore", invalid="ignore"):
        value = factor * _compress(sc, [t_mat] * (sc.m - k) + x_mats)
    return _require_finite(value, "derivative")

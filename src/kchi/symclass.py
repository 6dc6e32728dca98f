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
from dataclasses import dataclass

import numpy as np

from .combinat import (
    MultiIndex,
    Partition,
    _check_partition,
    _positive_size,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
)
from .denselin import DEFAULT_DIMENSION_CAP, _distinct_arrangements, _distinct_factors
from .denselin import _require_finite
from .denselin import as_matrix, gram_schmidt, kron
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
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SymmetryClass:
    """The symmetry class of C^n associated with an irreducible character.

    ``inclusion`` holds the orthonormal basis of the class as real columns
    in product-basis coordinates; ``basis_b`` is the upper triangular change
    of basis expressing those orthonormal vectors through the e*-basis
    indexed by ``delta_hat``.
    """

    chi: Partition
    n: int
    omega: tuple[MultiIndex, ...]
    delta_bar: tuple[MultiIndex, ...]
    delta_hat: tuple[MultiIndex, ...]
    basis_b: np.ndarray
    inclusion: np.ndarray

    @property
    def m(self) -> int:
        return self.chi.size

    @property
    def dim(self) -> int:
        """Dimension of the symmetry class."""
        return len(self.delta_hat)

    def index_of(self, alpha: MultiIndex) -> int:
        """Position of ``alpha`` in the lexicographic listing of all n^m multi-indices."""
        if not isinstance(alpha, MultiIndex) or (alpha.m, alpha.n) != (self.m, self.n):
            raise DomainError(
                f"{alpha} is not a multi-index of this class (m={self.m}, n={self.n})"
            )
        return int(_encode(np.array(alpha.entries), self.n))

    def estar_coords(self, alpha: MultiIndex) -> np.ndarray:
        """Coordinates of e*_alpha in the product basis (a symmetrizer column)."""
        self.index_of(alpha)
        rows = np.arange(self.n**self.m)
        column = _estar_columns(self.chi, self.n, [alpha.entries], rows)[:, 0]
        return column.astype(np.complex128)


def build_symmetry_class(chi: Partition, n: int) -> SymmetryClass:
    """Assemble the symmetry class of C^n for the character labeled by chi."""
    _check_partition(chi)
    n = _positive_size(n)
    m = chi.size
    if m > MAX_TENSOR_FACTORS:
        raise ResourceError(
            f"tensor power capped at m <= {MAX_TENSOR_FACTORS}, got m={m}"
        )
    if n**m > DEFAULT_DIMENSION_CAP:
        raise ResourceError(
            f"n^m = {n**m} exceeds the dimension cap {DEFAULT_DIMENSION_CAP}"
        )
    if chi.length > n:
        raise DomainError(
            f"symmetry class is zero: chi={chi} has {chi.length} parts but n={n}"
        )

    # Membership of alpha in omega depends only on its multiplicity
    # partition, so it is decided once per orbit, at the weakly increasing
    # representative; the survivors are delta_bar.
    delta_bar, orbits = [], []
    for a in enumerate_maps("increasing", m, n):
        total = character_sum_over_stabilizer(chi, a)
        by_majorization = majorizes(chi, multiplicity_partition(a))
        if (total != 0) != by_majorization:
            raise NumericError(
                f"membership routes disagree at alpha={a}: "
                f"character sum says {total != 0}, majorization says {by_majorization}"
            )
        if by_majorization:
            delta_bar.append(a)
            orbits.append(_orbit_basis(chi, a, total))
    if not orbits:
        raise NumericError("no surviving symmetrized tensors despite l(chi) <= n")

    kept = np.sort(np.concatenate([rows[cols] for rows, cols, _, _ in orbits]))
    delta_hat = _decode(kept, m, n)
    if not set(delta_bar) <= set(delta_hat):
        raise NumericError("basis sweep dropped an orbit representative")

    # Distinct orbits are orthogonal, so Gram-Schmidt over delta_hat in
    # lexicographic order is the per-orbit Gram-Schmidt, scattered.  The
    # e*-columns are real and Gram-Schmidt keeps them real, so V is stored
    # real and V* is V.T.
    inclusion = np.zeros((n**m, len(kept)))
    basis_b = np.zeros((len(kept), len(kept)), dtype=np.complex128)
    for rows, cols, ortho, coeffs in orbits:
        if np.any(ortho.imag):
            raise NumericError("the orthonormal basis of the class is not real")
        at = np.searchsorted(kept, rows[cols])
        inclusion[np.ix_(rows, at)] = ortho.real
        basis_b[np.ix_(at, at)] = coeffs

    return SymmetryClass(
        chi=chi,
        n=n,
        omega=_decode(np.sort(np.concatenate([rows for rows, *_ in orbits])), m, n),
        delta_bar=tuple(delta_bar),
        delta_hat=delta_hat,
        basis_b=basis_b,
        inclusion=inclusion,
    )


def _encode(entries: np.ndarray, n: int) -> np.ndarray:
    # Lexicographic positions of the multi-indices whose entries (1..n) run
    # along the last axis: base-n numbers, most significant entry first.
    dims = (n,) * entries.shape[-1]
    return np.ravel_multi_index(tuple(np.moveaxis(entries - 1, -1, 0)), dims)


def _decode(codes: np.ndarray, m: int, n: int) -> tuple[MultiIndex, ...]:
    entries = np.stack(np.unravel_index(codes, (n,) * m), axis=-1) + 1
    return tuple(MultiIndex._trusted(tuple(row), n) for row in entries.tolist())


def _estar_columns(chi: Partition, n: int, alphas, rows: np.ndarray) -> np.ndarray:
    # e*_alpha for each alpha in ``alphas``, restricted to the sorted
    # product-basis positions ``rows``, which must cover their orbits.
    # The symmetrizer sums chi(sigma) e_{alpha o sigma^-1} over S_m; reindexed
    # by sigma^-1 it reads the rows themselves, as chi(sigma) = chi(sigma^-1).
    images, values = _permutation_characters(chi)
    images, values = images[values != 0], values[values != 0]
    codes = _encode(np.array(alphas)[:, images], n)
    out = np.zeros((len(rows), len(alphas)))
    np.add.at(out, (np.searchsorted(rows, codes), np.arange(len(alphas))[:, None]), values)
    return out * (degree(chi) / math.factorial(chi.size))


def _orbit_basis(chi: Partition, a: MultiIndex, total: int):
    # Greedy lexicographic sweep over the e*-columns of the orbit of ``a``,
    # up to the orbit's rank from characters (``total`` is the character sum
    # over the stabilizer of ``a``), and Gram-Schmidt of the kept ones.
    # Returns the orbit's product-basis positions, the kept columns and
    # gram_schmidt's (ortho, coeffs).
    orbit = sorted(set(itertools.permutations(a.entries)))
    rows = _encode(np.array(orbit), a.n)
    block = _estar_columns(chi, a.n, orbit, rows)
    stabilizer_size = math.prod(math.factorial(c) for c in multiplicity_partition(a).parts)
    rank = degree(chi) * total // stabilizer_size
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
    reps, orders = _distinct_arrangements(mats)
    total = None
    for order in orders:
        term = functools.reduce(kron, [reps[i] for i in order])
        total = term if total is None else total + term
    return total / len(orders)


def _compress(sc: SymmetryClass, mats: list[np.ndarray]) -> np.ndarray:
    # V* (mean over distinct arrangements of A_1 (x) ... (x) A_m) V for S
    # samples at once, with each factor applied to its own tensor axis of
    # the inclusion V.  A factor is one (n, n) matrix that every sample
    # shares or an (S, n, n) stack.  For each placement of the stacked
    # factors on the axes, the shared factors are summed over their
    # arrangements on the other axes first, without the sample axis, and
    # the stacked ones then on the placed axes.  Column j of the result
    # depends only on column j of V, so the sums run over blocks of columns
    # sized by _column_block.  Returns the (S, dim, dim) stack; S = 1
    # without stacks.
    m, v = sc.m, sc.inclusion
    reps, counts = _distinct_factors(mats)
    shared = [(rep, c) for rep, c in zip(reps, counts) if rep.ndim == 2]
    stacked = [(rep, c) for rep, c in zip(reps, counts) if rep.ndim == 3]
    samples = max((len(rep) for rep, _ in stacked), default=1)
    placements = list(itertools.combinations(range(m), sum(c for _, c in stacked)))
    block = _column_block(sc, samples, len(placements), shared, stacked)
    product = functools.partial(_axis_product, sc.n)
    out = np.empty((samples, sc.dim, sc.dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, sc.dim, block):
            cols = v[None, :, lo : lo + block]
            total = None
            for placed in placements:
                rest = [axis for axis in range(m) if axis not in placed]
                w = _arrangement_sum(product, cols, shared, rest)
                w = _arrangement_sum(product, w, stacked, placed)
                if total is None:
                    total = w
                else:
                    total += w
            # V is real: V* times the complex sums is one real GEMM on
            # their interleaved (re, im) entries.
            block_out = out[..., lo : lo + block].view(np.float64)
            np.matmul(v.T, total.view(np.float64), out=block_out)
        out /= math.factorial(m) // math.prod(math.factorial(c) for c in counts)
    return _require_finite(out, "compressed operator")


def _arrangement_sum(apply, w: np.ndarray, factors, slots) -> np.ndarray:
    # The sum over the distinct arrangements of the multiset ``factors``
    # ((matrix, multiplicity) pairs) on ``slots``, in order, applied to w,
    # where ``apply(mat, state, slot)`` applies one factor at one slot (a
    # tensor axis in _compress).  After the first j slots the sum of the
    # partial products depends only on the sub-multiset of factors used, so
    # one state is kept per sub-multiset; each step applies every factor
    # with copies left and adds the results that reach the same sub-multiset.
    states = {(0,) * len(factors): w}
    for slot in slots:
        step: dict[tuple[int, ...], np.ndarray] = {}
        for used in list(states):
            state = states.pop(used)
            for i, (mat, copies) in enumerate(factors):
                if used[i] < copies:
                    key = used[:i] + (used[i] + 1,) + used[i + 1 :]
                    term = apply(mat, state, slot)
                    if key in step:
                        step[key] += term
                    else:
                        step[key] = term
        states = step
    (w,) = states.values()
    return w


def _axis_product(n: int, mat: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    # ``mat``, an (n, n) matrix or an (S, n, n) stack, applied to tensor
    # axis ``axis`` of each (n^m, cols) slice of w, of shape (1 or S, n^m, cols).
    out = mat[..., None, :, :] @ w.reshape(len(w), n**axis, n, -1)
    return out.reshape(len(out), w.shape[1], -1)


def _column_block(sc: SymmetryClass, samples: int, placements: int, shared, stacked) -> int:
    # Columns of V per block.  Per column the sums hold at most two levels
    # of sub-multiset states and one new product for each multiset (see
    # _live_states), the stacked ones with a sample axis, and the total
    # over placements.  Blocks keep that within three (S, n^m, dim) arrays,
    # what summing the arrangements one at a time holds (the running total,
    # a product and its input), or within _BLOCK_BYTES if that is larger,
    # so calls that small run as one block.
    column_states = _live_states([c for _, c in shared]) + 1
    column_states += samples * (_live_states([c for _, c in stacked]) + 1 + (placements > 1))
    state_bytes = 16 * sc.n**sc.m * sc.dim
    blocks = -(-column_states * state_bytes // max(_BLOCK_BYTES, 3 * samples * state_bytes))
    return -(-sc.dim // blocks)


def _live_states(counts) -> int:
    # Most sub-multisets of two consecutive sizes: the states
    # _arrangement_sum holds at once over factors of multiplicities ``counts``.
    sizes = [1]
    for copies in counts:
        sizes = [sum(sizes[max(0, j - copies) : j + 1]) for j in range(len(sizes) + copies)]
    return max(map(sum, zip(sizes, sizes[1:])), default=1)


def _dk_stack(sc: SymmetryClass, t: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    # D^k K_chi(t) on k = len(xs) <= m directions, each an (n, n) matrix or
    # an (S, n, n) stack of per-sample directions; returns (S, dim, dim).
    k = len(xs)
    factor = math.factorial(sc.m) // math.factorial(sc.m - k)
    with np.errstate(over="ignore", invalid="ignore"):
        value = factor * _compress(sc, [t] * (sc.m - k) + list(xs))
    return _require_finite(value, "derivative")


def sym_op_product(sc: SymmetryClass, ops) -> np.ndarray:
    """The compression of the symmetrized tensor product to the class.

    Takes m operators on C^n and returns the |delta_hat| x |delta_hat|
    matrix of X^1 * ... * X^m in the orthonormal basis; the result is
    invariant under permuting the operators.
    """
    mats = [as_matrix(op, n=sc.n) for op in ops]
    if len(mats) != sc.m:
        raise DomainError(f"expected {sc.m} operators, got {len(mats)}")
    return _compress(sc, mats)[0]


def k_chi_matrix(sc: SymmetryClass, a) -> np.ndarray:
    """Matrix of the induced operator on the class in the orthonormal basis.

    The class is invariant under the m-fold Kronecker power of ``a``, so
    the compression of that power is exactly the induced operator; the
    map is multiplicative in ``a``.
    """
    return _compress(sc, [as_matrix(a, n=sc.n)] * sc.m)[0]


def dk_kchi(sc: SymmetryClass, t, xs) -> np.ndarray:
    """k-th directional derivative of the induced-operator map at ``t``.

    With k = len(xs) directions the value is
    ``(m!/(m-k)!) * t * ... * t * x^1 * ... * x^k`` (m-k copies of t in the
    symmetrized compressed product); it vanishes identically for k > m,
    and for k = m it does not depend on ``t``.  k = 0 returns the induced
    operator itself.
    """
    t_mat, *x_mats = [as_matrix(op, n=sc.n) for op in [t, *xs]]
    if len(x_mats) > sc.m:
        return np.zeros((sc.dim, sc.dim), dtype=np.complex128)
    return _dk_stack(sc, t_mat, x_mats)[0]

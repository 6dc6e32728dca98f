"""Symmetry classes of tensors and derivatives of the induced operator.

For an irreducible character chi of S_m and V = C^n, the symmetrizer

    K_chi = (chi(id)/m!) * sum_sigma chi(sigma) P(sigma)

is an orthogonal projection of the m-fold tensor power onto the symmetry
class V_chi, where P(sigma) permutes Kronecker factors,
``P(sigma)(v_1 (x) ... (x) v_m) = v_{sigma^{-1}(1)} (x) ... (x) v_{sigma^{-1}(m)}``.
Its columns are the decomposable symmetrized tensors e*_alpha in
product-basis coordinates.  P(sigma) maps each S_m-orbit of multi-indices
to itself, so K_chi is block diagonal over the orbits, and an orbit's block
depends only on the composition of its weakly increasing representative
(the run lengths of its equal entries).  The class is built from one
template block per composition, relabelled onto every orbit that shares
it; the n^m x n^m symmetrizer is never formed.  A template depends on chi
and its composition alone, so it is computed once per process and shared,
read-only, by every class of that chi (see _template).  The operator
kernels take the S_m-average of a Kronecker product as 1/chi(1) times its
partial trace over the Specht factor of the class: one plain product per
standard tableau on one of the chi(1) Schur-module copies in the class,
with the rest of the operator read from the copy's translates under S_m.
One function, _partial_trace, forms that copy's operator M_W at a point
and directions, and _lift writes the whole operator from it.

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

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .combinat import MultiIndex, Partition, _check_type, _positive_size, _shown, majorizes
from .denselin import DEFAULT_DIMENSION_CAP, _distinct_factors
from .denselin import _checked, _matrices, gram_schmidt, kron
from .errors import DomainError, NumericError, ResourceError
from .symgroup import _permutation_characters, _permutation_classes, _stabilizer_sum, degree

__all__ = [
    "SymmetryClass",
    "build_symmetry_class",
    "symmetrized_kron",
    "k_chi_matrix",
    "dk_kchi",
    "MAX_TENSOR_FACTORS",
    "RANK_EXTENSION_TOL",
]

MAX_TENSOR_FACTORS = 6
RANK_EXTENSION_TOL = 1e-9


# The template arrays that every orbit block of a composition shares.
_SHARED = ("cols", "ortho_t", "coeffs", "copy", "binv", "dual", "frame")
# One composition's orbits; see SymmetryClass.
_OrbitBlock = collections.namedtuple("_OrbitBlock", ("rows", "at", "z") + _SHARED)
# One composition's n-independent part, shared by every class of its chi;
# see _template.
_Template = collections.namedtuple("_Template", _SHARED + ("words",))
# The orbit blocks of one shape, stacked for the lift; see
# SymmetryClass.column_groups.
_ColumnGroup = collections.namedtuple("_ColumnGroup", ("at", "z", "binv"))


@dataclass(frozen=True)
class SymmetryClass:
    """The symmetry class of C^n associated with an irreducible character.

    The class stores only its orbit blocks, one per composition of the
    orbit representatives, and is equal to another class of the same
    ``chi`` and ``n``.  ``rows[:, g]`` are the product-basis positions
    of the composition's g-th orbit, ``cols`` the orbit rows whose
    e*-vectors it keeps, ``at[:, g]`` the basis columns they carry, and
    ``ortho_t`` the shared ``(rank, orbit size)`` block of the orthonormal
    basis, with ``coeffs`` the ``(rank, rank)`` block of its change of
    basis.  The rest serve the kernel's one Schur-module copy, whose
    operator M_W ``_partial_trace`` forms and ``_lift`` lifts to the class:
    ``copy`` is the orbit's ``(orbit size, rank / f^chi)`` block of the
    copy columns V Z, ``z[:, g]`` are the g-th orbit's ``rank / f^chi``
    copy columns among all dim / f^chi (its rows and columns of M_W too),
    ``binv`` is the ``(rank, rank)`` inverse of the translates'
    coordinates B, ``dual[t]`` the
    ``(rank / f^chi, orbit size)`` product D_t V* P(sigma_t) of B^-1's
    t-th block of rows with the basis block read through the t-th
    standard tableau's permutation, and ``frame[t]`` the
    ``(rank, rank / f^chi)`` t-th block of B's columns.  ``cols``,
    ``ortho_t``, ``coeffs``, ``copy``, ``binv``, ``dual`` and ``frame``
    do not depend on ``n``: they are the composition's template arrays,
    computed once per process and shared, read-only, by every class of
    the same ``chi``.

    The index sets, ``inclusion`` (the orthonormal basis as real columns
    in product-basis coordinates) and ``basis_b`` (the real upper
    triangular change of basis expressing those columns through the
    e*-basis indexed by ``delta_hat``) are decoded or scattered from the
    blocks on first access, and so is ``copy_columns``, the copy columns
    V Z of the whole class; all three arrays are float64.  The lift's
    ``column_groups``, the blocks of one shape stacked, are also formed on
    first access.
    """

    chi: Partition
    n: int
    orbit_blocks: tuple[_OrbitBlock, ...] = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.chi.size

    @functools.cached_property
    def dim(self) -> int:
        """Dimension of the symmetry class."""
        return sum(block.at.size for block in self.orbit_blocks)

    @functools.cached_property
    def omega(self) -> tuple[MultiIndex, ...]:
        return _decode([b.rows for b in self.orbit_blocks], self.m, self.n)

    @functools.cached_property
    def delta_bar(self) -> tuple[MultiIndex, ...]:
        return _decode([b.rows[0] for b in self.orbit_blocks], self.m, self.n)

    @functools.cached_property
    def delta_hat(self) -> tuple[MultiIndex, ...]:
        return _decode([b.rows[b.cols] for b in self.orbit_blocks], self.m, self.n)

    @functools.cached_property
    def inclusion(self) -> np.ndarray:
        out = np.zeros((self.n**self.m, self.dim))
        for block in self.orbit_blocks:
            out[block.rows[:, None, :], block.at] = block.ortho_t.T[:, :, None]
        return out

    @functools.cached_property
    def basis_b(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for block in self.orbit_blocks:
            out[block.at[:, None], block.at] = block.coeffs[:, :, None]
        return out

    @functools.cached_property
    def copy_columns(self) -> np.ndarray:
        # V Z, the (n^m, dim / f^chi) real columns of the kernel's one
        # Schur-module copy, scattered from each orbit block's ``copy``;
        # read-only, as every kernel call shares it.
        out = np.zeros((self.n**self.m, sum(b.z.size for b in self.orbit_blocks)))
        for block in self.orbit_blocks:
            out[block.rows[:, :, None], block.z.T] = block.copy[:, None, :]
        out.setflags(write=False)
        return out

    @functools.cached_property
    def column_groups(self) -> tuple[_ColumnGroup, ...]:
        # The lift's column side (see _lift): the orbit blocks whose
        # compositions share their rank, copy width and orbit count, with
        # ``at`` and ``z`` stacked to (C, rank, G) and (C, width, G) and
        # ``binv`` as (f^chi, C width rank): each composition's rows of B^-1
        # for the t-th tableau, the compositions side by side.
        shapes: dict[tuple[int, ...], list[_OrbitBlock]] = {}
        for block in self.orbit_blocks:
            shapes.setdefault(block.at.shape + block.z.shape, []).append(block)
        f = len(self.orbit_blocks[0].frame)
        return tuple(
            _ColumnGroup(
                np.array([b.at for b in blocks]),
                np.array([b.z for b in blocks]),
                np.concatenate([b.binv.reshape(f, -1) for b in blocks], axis=1),
            )
            for blocks in shapes.values()
        )


def build_symmetry_class(chi: Partition, n: int) -> SymmetryClass:
    """Assemble the symmetry class of C^n for the character labeled by chi."""
    _check_type(Partition, chi)
    n = _positive_size(n)
    m = chi.size
    if m > MAX_TENSOR_FACTORS:
        raise ResourceError(
            f"tensor power capped at m <= {MAX_TENSOR_FACTORS}, got m={_shown(m)}"
        )
    if n**m > DEFAULT_DIMENSION_CAP:
        raise ResourceError(
            f"n^m = {_shown(n**m)} exceeds the dimension cap {DEFAULT_DIMENSION_CAP}"
        )
    if chi.length > n:
        raise DomainError(
            f"symmetry class is zero: chi={chi} has {chi.length} parts but n={n}"
        )

    # An orbit's block depends only on its representative's composition,
    # the run lengths of its equal entries in value order (see _template),
    # so each composition c with r <= n parts is placed on the orbits of
    # all r-sets of values at once.
    blocks = []
    for r in range(1, min(m, n) + 1):
        values = np.array(list(itertools.combinations(range(1, n + 1), r)))
        for cuts in itertools.combinations(range(1, m), r - 1):
            template = _template(chi, tuple(b - a for a, b in zip((0, *cuts), (*cuts, m))))
            if template is not None:
                # The template orbit read through each r-set of values: one
                # (G, orbit size) array of positions.
                blocks.append((_encode(values[:, template.words], n), template))
    if not blocks:
        raise NumericError("no surviving symmetrized tensors despite l(chi) <= n")

    # Distinct orbits are orthogonal, so Gram-Schmidt over delta_hat in
    # lexicographic order is the per-orbit Gram-Schmidt, scattered.  The
    # copy columns are numbered in the order of each orbit's first
    # rank / f^chi basis columns, so with f^chi = 1 they are the basis.
    kept = np.sort(np.concatenate([rows[:, tp.cols] for rows, tp in blocks], axis=None))
    leads = [rows[:, tp.cols[: tp.copy.shape[1]]] for rows, tp in blocks]
    leads = np.sort(np.concatenate(leads, axis=None))
    # Stored with the orbit axis first, the layout _partial_trace reads.
    orbit_blocks = tuple(
        _OrbitBlock(
            rows.T.copy(),
            np.searchsorted(kept, rows[:, tp.cols].T),
            np.searchsorted(leads, rows[:, tp.cols[: tp.copy.shape[1]]].T),
            *tp[: len(_SHARED)],
        )
        for rows, tp in blocks
    )
    return SymmetryClass(chi=chi, n=n, orbit_blocks=orbit_blocks)


@functools.cache
def _template(chi: Partition, c: tuple[int, ...]):
    # The n-independent part of the orbit block of composition c, or None
    # when its orbits are not in the class.  An order-preserving
    # relabelling of the values maps one orbit's lexicographic order onto
    # another's with the same composition, so membership, the rank, the
    # sweep, Gram-Schmidt and the copy run once per (chi, c) per process,
    # on the template 1^c_1 ... r^c_r over the letters 1..r, and every class
    # of chi shares the result; its arrays are read-only.  Membership
    # depends only on mu, the sorted composition; the orbit's rank is
    # chi(1) times the character sum over the stabilizer S_mu, over |S_mu|.
    # A template that raises is not cached.
    m, r = chi.size, len(c)
    mu = Partition(tuple(sorted(c, reverse=True)))
    total = _stabilizer_sum(chi.parts, mu.parts)
    by_majorization = majorizes(chi, mu)
    if (total != 0) != by_majorization:
        raise NumericError(
            f"membership routes disagree at composition {c}: "
            f"character sum says {total != 0}, majorization says {by_majorization}"
        )
    if not by_majorization:
        return None
    chi_one = degree(chi)
    # The template orbit as its 0-based words in lexicographic order; with
    # no index asked for, np.unique imports numpy.ma (9 ms, 1.2 MB).
    orbit = np.repeat(np.arange(r), c)[_permutation_classes(m)[0]]
    words = np.unique(orbit, axis=0, return_index=True)[0]
    rank = chi_one * total // math.prod(math.factorial(k) for k in c)
    cols, ortho, coeffs = _orbit_basis(chi, words, rank, chi_one / math.factorial(m))
    # Row 0 of an orbit is its weakly increasing representative.
    if 0 not in cols:
        raise NumericError("basis sweep dropped an orbit representative")
    # The e*-columns are real and Gram-Schmidt keeps them real, so V and B
    # are stored real and V* is V.T.
    if np.any(ortho.imag) or np.any(coeffs.imag):
        raise NumericError("the orthonormal basis of the class is not real")
    symmetrizer, tableaux = _young_symmetrizer(chi)
    basis = _copy_basis(words, ortho.real, symmetrizer, tableaux, rank // chi_one)
    template = _Template(cols, ortho.real.T.copy(), coeffs.real.copy(), *basis, words)
    for array in template:
        array.setflags(write=False)
    return template


def _encode(entries: np.ndarray, n: int) -> np.ndarray:
    # Lexicographic positions of the multi-indices whose entries (1..n) run
    # along the last axis: base-n numbers, most significant entry first.
    dims = (n,) * entries.shape[-1]
    return np.ravel_multi_index(tuple(np.moveaxis(entries - 1, -1, 0)), dims)


def _decode(positions, m: int, n: int) -> tuple[MultiIndex, ...]:
    # The multi-indices at the product-basis positions of the arrays in
    # ``positions``, in lexicographic order.
    codes = np.sort(np.concatenate(positions, axis=None))
    entries = np.stack(np.unravel_index(codes, (n,) * m), axis=-1) + 1
    return tuple(MultiIndex._trusted(tuple(row), n) for row in entries.tolist())


def _orbit_basis(chi: Partition, words: np.ndarray, rank: int, scale: float):
    # Greedy lexicographic sweep over the e*-columns of the template orbit
    # ``words`` up to the orbit's ``rank``, and Gram-Schmidt of the kept
    # ones.  The e*-column of beta sums chi(sigma) e_{beta o sigma} over
    # S_m, as chi(sigma) = chi(sigma^-1), scaled by ``scale`` = chi(1)/m!;
    # the sums are of integers, so exact.  Column j is kept when its part
    # orthogonal to the columns before it, |R_jj| of one Householder QR,
    # exceeds RANK_EXTENSION_TOL times its norm: the dropped columns lie in
    # the span of the kept ones, so that part is the sweep's residual.
    # Returns the kept columns and gram_schmidt's (ortho, coeffs).
    images, values = _permutation_characters(chi)
    images, values = images[values != 0], values[values != 0]
    block = np.zeros((len(words), len(words)))
    np.add.at(block, (_relabel(words, images), np.arange(len(words))), values[:, None])
    block *= scale
    residuals = np.abs(np.diagonal(np.linalg.qr(block, mode="r")))
    cols = np.flatnonzero(residuals > RANK_EXTENSION_TOL * np.linalg.norm(block, axis=0))
    if len(cols) < rank:
        raise NumericError(
            f"rank sweep found {len(cols)} basis tensors in the orbit of "
            f"{tuple(words[0] + 1)}, the character formula gives {rank}"
        )
    cols = cols[:rank]
    return (cols, *gram_schmidt(block[:, cols]))


@functools.cache
def _young_symmetrizer(chi: Partition):
    # The Young symmetrizer c_T0 = a_T0 b_T0 of the row-reading tableau T0
    # (positions 0..m-1 filled row by row) as the factors it applies in
    # turn, b_T0's signed column sums and then a_T0's row sums: one
    # ((P, m) permutations of the positions, (P,) signs) pair per column or
    # row of more than one box.  Also the standard tableaux T as the
    # (f^chi, m) rows sigma_T with sigma_T T0 = T, i.e. their row reading
    # words, in lexicographic order, so T0 (the identity) comes first.
    # Computed once per chi; the arrays are read-only, as the cache shares
    # them.
    m, parts = chi.size, chi.parts
    starts = itertools.accumulate((0, *parts[:-1]))
    rows = [list(range(start, start + part)) for start, part in zip(starts, parts)]
    columns = [[row[j] for row in rows if len(row) > j] for j in range(parts[0])]
    # The sign is the character of (1^k), and the trivial one that of (k).
    factors = []
    for boxes_list, shape in ((columns, lambda k: (1,) * k), (rows, lambda k: (k,))):
        for boxes in boxes_list:
            if len(boxes) > 1:
                images, signs = _permutation_characters(Partition(shape(len(boxes))))
                perms = np.tile(np.arange(m), (len(images), 1))
                perms[:, boxes] = np.array(boxes)[images]
                perms.setflags(write=False)
                factors.append((perms, signs))
    # A word is standard when it increases along every row and column.
    words = _permutation_classes(m)[0]
    for boxes in (*rows, *columns):
        words = words[np.all(np.diff(words[:, boxes], axis=1) > 0, axis=1)]
    words.setflags(write=False)
    return tuple(factors), words


def _relabel(words: np.ndarray, perms: np.ndarray) -> np.ndarray:
    # Row gathers of P(sigma) on one template orbit, for each row sigma of
    # ``perms``: (P(sigma) x)[p] = x[out[i, p]], as P(sigma) e_beta is
    # e_{beta o sigma^-1}.  ``words`` are the orbit's 0-based words in
    # lexicographic order, so their base-r codes, most significant letter
    # first, are sorted.
    digits = (int(words.max()) + 1) ** np.arange(words.shape[1] - 1, -1, -1)
    return np.searchsorted(words @ digits, words[:, perms] @ digits).T


def _copy_basis(words, ortho, symmetrizer, tableaux, width: int):
    # One orbit's share of one Schur-module copy of the class (see
    # _partial_trace), from its (orbit size, rank) basis block ``ortho``.  The
    # Young symmetrizer maps V_chi onto one copy, so its image on the
    # orbit, in the orbit's basis coordinates, must have rank ``width`` =
    # rank / f^chi; Z is an orthonormal basis of it.  The translates
    # Q_sigma_T Z, Q_sigma = V* P(sigma) V, one per standard tableau, must
    # span the orbit's basis.  Returns V Z on the orbit, the inverse of
    # B = [Q_sigma_1 Z ... Q_sigma_f Z], the (f, width, orbit size) products
    # D_t V* P(sigma_t) with its row blocks D_t, and its column blocks B_t.
    image = ortho
    for perms, signs in symmetrizer:
        image = signs @ image[_relabel(words, perms)].swapaxes(0, 1)
    u, sv, _ = np.linalg.svd(ortho.T @ image)
    found = int(np.sum(sv > RANK_EXTENSION_TOL * sv[0]))
    if found != width:
        raise NumericError(
            f"a Young symmetrizer's image has rank {found} on an orbit of rank "
            f"{len(sv)}, the character formula gives {width}"
        )
    # Each column's largest entry is made positive, so Z does not depend on
    # LAPACK's signs, and Z = [[1.0]] on an orbit of rank 1 when f^chi = 1.
    z = u[:, :width]
    z = z * np.sign(z[np.abs(z).argmax(axis=0), np.arange(width)])
    copy = ortho @ z
    translates = _relabel(words, tableaux)
    # sigma_1 is the identity, and Q_id Z is Z itself.
    b = np.hstack([z] + [ortho.T @ copy[gather] for gather in translates[1:]])
    sv = np.linalg.svd(b, compute_uv=False)
    found = int(np.sum(sv > RANK_EXTENSION_TOL * sv[0]))
    if found != len(b):
        raise NumericError(
            f"the {len(translates)} translates of a Young symmetrizer's image "
            f"span {found} of an orbit's {len(b)} basis vectors"
        )
    binv = np.linalg.inv(b)
    # (P(sigma_t) x)[p] = x[translates[t, p]]: V* P(sigma_t) inverts the gather.
    dual = binv.reshape(len(translates), width, -1) @ ortho[np.argsort(translates)].swapaxes(1, 2)
    frame = b.reshape(len(b), len(translates), width).transpose(1, 0, 2).copy()
    return copy, binv, dual, frame


def symmetrized_kron(ops) -> np.ndarray:
    """The symmetrized tensor product (1/m!) sum_sigma X^{sigma(1)} (x) ... (x) X^{sigma(m)}.

    Sums one Kronecker product per distinct arrangement of the factors:
    equal factors share a label (``_distinct_factors``), and the distinct
    orderings of the labels come in sorted order, so the sum is bit-stable.
    The class kernels below compute its compression without forming this
    n^m x n^m matrix.  More than MAX_TENSOR_FACTORS factors are refused
    before any arrangement is listed.
    """
    mats = _matrices(ops, square=True)
    if not mats:
        raise DomainError("symmetrized product needs at least one factor")
    if len(mats) > MAX_TENSOR_FACTORS:
        raise ResourceError(
            f"tensor power capped at m <= {MAX_TENSOR_FACTORS}, got m={len(mats)}"
        )
    reps, labels = _distinct_factors(mats)
    orders = sorted(set(itertools.permutations(labels)))
    total = None
    for order in orders:
        term = functools.reduce(kron, [reps[i] for i in order])
        total = term if total is None else total + term
    return total / len(orders)


def _partial_trace(sc: SymmetryClass, t: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    # D^k K_chi(t) on k = len(xs) <= m directions, each an (n, n) matrix or
    # an (S, n, n) stack of per-sample directions, on the kernel's one
    # Schur-module copy: m!/(m-k)! times M_W as an (S, w, w) complex stack,
    # w = dim / f^chi; S = 1 without stacks.  The derivative is m!/(m-k)!
    # times M = V* S V, S the mean over S_m of the conjugates
    # P(s) A P(s)^-1 of A = A_1 (x) ... (x) A_m, with m-k factors t and the
    # directions, each factor applied to its own tensor axis.  As a module
    # of GL(n) x S_m the class is W (x) S^chi (Schur-Weyl duality), and the
    # translates B = [Q_sigma_1 Z ... Q_sigma_f Z] of each orbit block
    # (_copy_basis) are I (x) F for a basis F of S^chi.  S commutes with
    # every Q_sigma = V* P(sigma) V, so M = B (I (x) M_W) B^-1 (see _lift),
    # and averaging over S_m is 1/f^chi times the partial trace over S^chi:
    # with D_t the t-th row block of B^-1,
    # M_W = (1/f^chi) sum_t D_t V* A P(sigma_t) V Z.  As V B_t = P(sigma_t) V Z
    # and A P(sigma) = P(sigma) A_sigma, A_sigma the product with factor
    # sigma(a) on axis a, each standard tableau takes one plain chain of m
    # axis products on the dim / f^chi copy columns V Z, and tableaux whose
    # chains name the same factors share one, with one gather of its result
    # per composition (see _dual_product).  M Z = Z M_W for the orthonormal
    # copy columns Z, and in an orthonormal frame of V_chi = W (x) S^chi the
    # operator is (a unitary image of M_W) (x) I, so M's singular values are
    # M_W's, each f^chi times: a norm needs only M_W, which the lift would
    # make f^chi times wider.
    k = len(xs)
    reps, labels = _distinct_factors([t] * (sc.m - k) + list(xs))
    samples = max((len(rep) for rep in reps if rep.ndim == 3), default=1)
    tableaux = _young_symmetrizer(sc.chi)[1]
    chains: dict[tuple[int, ...], list[int]] = {}
    for tableau, order in enumerate(np.array(labels)[tableaux].tolist()):
        chains.setdefault(tuple(order), []).append(tableau)
    copy = sc.copy_columns
    width = copy.shape[1]
    # Rows, samples and interleaved (re, im) columns, the layout the duals'
    # GEMMs write.
    m_w = np.zeros((width, samples, 2 * width))
    for order, ts in chains.items():
        # Shared factors first, so only the stacked ones carry the sample axis.
        w = copy[None]
        for axis in sorted(range(sc.m), key=lambda a: reps[order[a]].ndim):
            w = _axis_product(sc.n, reps[order[axis]], w, axis)
        _dual_product(sc, w, ts, m_w)
    m_w *= math.factorial(sc.m) // math.factorial(sc.m - k) / len(tableaux)
    return np.ascontiguousarray(m_w.view(np.complex128).transpose(1, 0, 2))


def _dual_product(sc: SymmetryClass, w: np.ndarray, ts: list[int], m_w: np.ndarray) -> None:
    # m_w += sum_t D_t V* P(sigma_t) w over the tableaux t in ts, for an
    # (S, n^m, dim / f^chi) w, one orbit block at a time: row j of V* is
    # nonzero only on its orbit's <= m! rows, and rows outside omega are
    # never read.  Each composition's D_t V* P(sigma_t) is its template's
    # (width, orbit size) ``dual[t]``, so the sum is one gather of its
    # orbits' rows and one real GEMM with the summed duals, on interleaved
    # (re, im) entries, with the orbits, samples and columns side by side.
    # A chain of one tableau, as every chain is at f^chi = 1, reads its dual
    # as a view.
    flat = w.view(np.float64).swapaxes(0, 1)
    for b in sc.orbit_blocks:
        dual = b.dual[ts[0]] if len(ts) == 1 else b.dual[ts].sum(axis=0)
        part = dual @ flat[b.rows].reshape(len(b.rows), -1)
        m_w[b.z] += part.reshape(b.z.shape + m_w.shape[1:])


def _lift(sc: SymmetryClass, m_w: np.ndarray) -> np.ndarray:
    # M = B (I (x) M_W) B^-1, (S, dim, dim), from the (S, w, w) stack M_W of
    # _partial_trace.  B and B^-1 are block diagonal over the orbits, so the
    # block of M on orbit g of composition c (rows) and orbit g' of
    # composition c' (columns) is sum_t F_t X D_t: F_t is the template's
    # (rank, width) ``frame[t]`` of c, D_t the t-th (width', rank') block of
    # rows of the ``binv`` of c', and X = M_W[z_c[:, g], z_c'[:, g']].  Read
    # row-major, that is X times the pair kernel K = sum_t F_t (x) D_t^T,
    # (rank rank', width width').  For each c and each column group (see
    # SymmetryClass.column_groups), one GEMM of the frame with the group's
    # binv forms the kernels of every c' of the group, one gather takes X
    # for every orbit pair and sample, one real GEMM per c' multiplies, with
    # the (re, im) parts side by side, and one scatter writes the result
    # into M, the only (S, dim, dim) array.  The kernels are formed on every
    # call: kept for every class under the caps they would take 65.7 MB,
    # three times the templates.  With f^chi = 1, for (m) and (1^m), each
    # orbit's z is its at and B = B^-1 = [[1.0]], so M is M_W itself.
    samples, f = len(m_w), len(sc.orbit_blocks[0].frame)
    if f == 1:
        return m_w
    copies = m_w.transpose(1, 0, 2)
    out = np.empty((samples, sc.dim, sc.dim), dtype=np.complex128)
    samples_last = out.transpose(1, 2, 0)
    for b in sc.orbit_blocks:
        (rank, orbits), width = b.at.shape, len(b.z)
        frame = b.frame.transpose(1, 2, 0).reshape(rank * width, f)
        rows, z = b.at[:, None, :, None], b.z[:, None, :, None]
        for group in sc.column_groups:
            count, rank2, orbits2 = group.at.shape
            width2 = group.z.shape[1]
            kernel = (frame @ group.binv).reshape(rank, width, count, width2, rank2)
            kernel = kernel.transpose(2, 0, 4, 1, 3).reshape(count, rank * rank2, -1)
            # (count, width, width2, orbits, orbits2, S) entries of M_W.
            x = copies[z, :, group.z[:, None, :, None, :]]
            part = kernel @ x.reshape(count, width * width2, -1).view(np.float64)
            part = part.view(np.complex128).reshape(count, rank, rank2, orbits, orbits2, samples)
            samples_last[rows, group.at[:, None, :, None, :]] = part
    return out


def _axis_product(n: int, mat: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    # ``mat``, an (n, n) matrix or an (S, n, n) stack, applied to tensor
    # axis ``axis`` of each (n^m, cols) slice of w, of shape (1 or S, n^m, cols).
    out = mat[..., None, :, :] @ w.reshape(len(w), n**axis, n, -1)
    return out.reshape(len(out), w.shape[1], -1)


def _dk_stack(sc: SymmetryClass, t: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    # D^k K_chi(t) as an (S, dim, dim) stack: the lift of _partial_trace.
    return _checked("compressed operator", lambda: _lift(sc, _partial_trace(sc, t, xs)))


def _dk_copy(sc: SymmetryClass, t: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    # D^k K_chi(t) on the one copy, M_W as an (S, w, w) stack; see _partial_trace.
    return _checked("compressed operator", _partial_trace, sc, t, xs)


def _operators(sc: SymmetryClass, *groups) -> list[np.ndarray]:
    # The boundary check of every public function that takes a class and
    # sequences of operators on its C^n: the class, then each operator of
    # each sequence, in order, as an (n, n) matrix.
    _check_type(SymmetryClass, sc)
    return [mat for ops in groups for mat in _matrices(ops, n=sc.n)]


def k_chi_matrix(sc: SymmetryClass, a) -> np.ndarray:
    """Matrix of the induced operator on the class in the orthonormal basis.

    The class is invariant under the m-fold Kronecker power of ``a``, so
    the compression of that power is exactly the induced operator; the
    map is multiplicative in ``a``.
    """
    (a_mat,) = _operators(sc, [a])
    return _dk_stack(sc, a_mat, [])[0]


def dk_kchi(sc: SymmetryClass, t, xs) -> np.ndarray:
    """k-th directional derivative of the induced-operator map at ``t``.

    With k = len(xs) directions the value is
    ``(m!/(m-k)!) * t * ... * t * x^1 * ... * x^k`` (m-k copies of t in the
    symmetrized compressed product); it vanishes identically for k > m,
    and for k = m it does not depend on ``t``.  k = 0 returns the induced
    operator itself.
    """
    t_mat, *x_mats = _operators(sc, [t], xs)
    if len(x_mats) > sc.m:
        return np.zeros((sc.dim, sc.dim), dtype=np.complex128)
    return _dk_stack(sc, t_mat, x_mats)[0]

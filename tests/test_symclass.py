"""Tests for symmetry class construction and the induced operators."""

import collections
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kchi.symclass
from kchi import (
    DomainError,
    MultiIndex,
    NumericError,
    Partition,
    ResourceError,
    all_permutations,
    build_symmetry_class,
    character,
    character_sum_over_stabilizer,
    degree,
    dk_kchi,
    enumerate_maps,
    k_chi_matrix,
    multiplicity_partition,
    symmetrized_kron,
)

PROJECTOR_TOL = 1e-9
EXACT_TOL = 1e-12
PRODUCT_TOL = 1e-9
FD_STEP = 1e-4
FD_REL_TOL = 1e-5
PROPERTY_TOL = 1e-12

SMALL_CLASSES = [
    (Partition((1, 1)), 2),
    (Partition((2,)), 2),
    (Partition((2, 1)), 2),
    (Partition((1, 1)), 3),
    (Partition((2,)), 3),
    (Partition((3,)), 2),
    (Partition((1, 1, 1)), 3),
    (Partition((2, 1)), 3),
    (Partition((3,)), 3),
]


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def index_of(sc, alpha):
    """Position of ``alpha`` among all n^m multi-indices, by the class's encoding."""
    return int(kchi.symclass._encode(np.array(alpha.entries), sc.n))


@functools.cache
def permutation_characters(chi):
    """Every sigma of S_m as 0-based image rows, and chi(sigma) on each."""
    sigmas = list(all_permutations(chi.size))
    images = np.array([sigma.images for sigma in sigmas]) - 1
    return images, np.array([float(character(chi, sigma.cycle_type())) for sigma in sigmas])


def estar_columns(chi, n, alphas):
    """Product-basis coordinates of e*_alpha for each alpha of ``alphas``, one
    column each: (chi(1)/m!) sum_sigma chi(sigma) e_{alpha o sigma}, which is
    the symmetrizer's column as chi(sigma) = chi(sigma^-1)."""
    images, values = permutation_characters(chi)
    m = chi.size
    positions = (np.asarray(alphas)[:, images] - 1) @ n ** np.arange(m - 1, -1, -1)
    out = np.zeros((n**m, len(alphas)))
    np.add.at(out, (positions, np.arange(len(alphas))[:, None]), values)
    return out * (degree(chi) / math.factorial(m))


def estar_coords(sc, alpha):
    """Coordinates of e*_alpha in the product basis."""
    return estar_columns(sc.chi, sc.n, [alpha.entries])[:, 0]


def vec_index(entries, n):
    out = 0
    for e in entries:
        out = out * n + (e - 1)
    return out


def permutation_operator(sigma, n):
    """Matrix of the factor permutation sending the alpha basis tensor to
    the one indexed by alpha composed with sigma inverse."""
    m = sigma.degree
    inv = [0] * m
    for i, j in enumerate(sigma.images):
        inv[j - 1] = i
    dim = n**m
    mat = np.zeros((dim, dim))
    for alpha in itertools.product(range(1, n + 1), repeat=m):
        beta = tuple(alpha[i] for i in inv)
        mat[vec_index(beta, n), vec_index(alpha, n)] = 1.0
    return mat


def brute_force_projector(chi, n):
    """Assemble the symmetrizer from explicit permutation operators."""
    m = chi.size
    deg = degree(chi)
    total = np.zeros((n**m, n**m), dtype=np.complex128)
    for sigma in all_permutations(m):
        total += character(chi, sigma.cycle_type()) * permutation_operator(sigma, n)
    return deg / math.factorial(m) * total


@pytest.fixture
def cold_templates():
    """Empty the per-process template caches before and after the test.

    A build reads each composition's template from a cache (see
    ``symclass._template``), so a test that patches or counts the template
    steps must make them run, and no template made under a patch may
    outlive the test.
    """
    caches = (kchi.symclass._template, kchi.symclass._young_symmetrizer)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_wedge_square_frozen():
    sc = build_symmetry_class(Partition((1, 1)), 2)
    assert sc.dim == 1
    assert [a.entries for a in sc.delta_hat] == [(1, 2)]
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, -0.5, 0.0],
            [0.0, -0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    q = sc.inclusion
    np.testing.assert_allclose(q @ q.conj().T, expected, atol=EXACT_TOL)


def test_symmetric_square_frozen():
    sc = build_symmetry_class(Partition((2,)), 2)
    assert sc.dim == 3
    assert [a.entries for a in sc.delta_hat] == [(1, 1), (1, 2), (2, 2)]
    assert sc.delta_bar == sc.delta_hat


def test_hook_class_sizes():
    sc2 = build_symmetry_class(Partition((2, 1)), 2)
    assert sc2.dim == 4
    assert len(sc2.delta_bar) == 2
    assert len(sc2.delta_hat) == 4

    sc3 = build_symmetry_class(Partition((2, 1)), 3)
    assert sc3.dim == 16
    assert len(sc3.delta_bar) == 7


def test_dimension_matches_orbital_formula():
    # dim = deg(chi) * sum over weakly increasing alpha in Omega of the
    # average of chi over the stabilizer of alpha
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        total = 0
        for alpha in sc.delta_bar:
            stab_order = math.prod(
                math.factorial(c) for c in multiplicity_partition(alpha).parts
            )
            total += character_sum_over_stabilizer(chi, alpha) / stab_order
        assert sc.dim == round(degree(chi) * total)


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_projector_matches_brute_force(chi, n):
    sc = build_symmetry_class(chi, n)
    q = sc.inclusion
    np.testing.assert_allclose(
        q @ q.conj().T, brute_force_projector(chi, n), atol=EXACT_TOL
    )


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_projector_is_an_orthogonal_projection(chi, n):
    sc = build_symmetry_class(chi, n)
    k = brute_force_projector(chi, n)
    np.testing.assert_allclose(k @ k, k, atol=PROJECTOR_TOL)
    np.testing.assert_allclose(k.conj().T, k, atol=PROJECTOR_TOL)
    assert round(float(np.trace(k).real)) == sc.dim


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_inclusion_spans_the_range(chi, n):
    sc = build_symmetry_class(chi, n)
    q = sc.inclusion
    np.testing.assert_allclose(q.conj().T @ q, np.eye(sc.dim), atol=PROJECTOR_TOL)
    np.testing.assert_allclose(
        q @ q.conj().T, brute_force_projector(chi, n), atol=PROJECTOR_TOL
    )


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_inclusion_is_real(chi, n):
    # The e*-columns are real and Gram-Schmidt keeps them real, so the
    # class stores V and the change of basis B real, and the kernels apply
    # V.T as V*.
    sc = build_symmetry_class(chi, n)
    assert sc.inclusion.dtype == np.float64
    assert sc.basis_b.dtype == np.float64


def test_a_complex_orbit_basis_is_a_numeric_error(monkeypatch, cold_templates):
    # A phase on the orthonormal vectors, or on their coefficients alone,
    # is refused rather than dropped.
    gram_schmidt = kchi.symclass.gram_schmidt
    phase = np.exp(0.1j)
    for ortho_phase, coeffs_phase in [(phase, 1.0), (1.0, phase)]:

        def rotated(vectors):
            ortho, coeffs = gram_schmidt(vectors)
            return ortho * ortho_phase, coeffs * coeffs_phase

        monkeypatch.setattr(kchi.symclass, "gram_schmidt", rotated)
        with pytest.raises(NumericError, match="not real"):
            build_symmetry_class(Partition((2, 1)), 3)


def test_the_build_computes_each_orbit_quantity_once(monkeypatch, cold_templates):
    # (2,1,1) on C^8 has 330 weakly increasing representatives, 238 of them
    # in the class, but only the 8 compositions of 4.  Membership is decided
    # once per composition, and the orbit basis and copy are computed once
    # for each of the 4 member compositions (1,1,1,1), (2,1,1), (1,2,1),
    # (1,1,2), each taking chi(1) from the cached character values; the
    # validating stabilizer sum and multiplicity partition are never taken.  A second build reads every
    # template from the cache and computes none of them again.
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name, None)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted, raising=False)

    names = ("multiplicity_partition", "majorizes", "degree", "character_sum_over_stabilizer")
    for name in (*names, "_orbit_basis", "_copy_basis"):
        count(kchi.symclass, name)
    count(kchi.symgroup, "character_sum_over_stabilizer")
    sc = build_symmetry_class(Partition((2, 1, 1)), 8)
    assert len(sc.delta_bar) == 238
    assert calls == {"majorizes": 8, "_orbit_basis": 4, "_copy_basis": 4, "degree": 4}
    calls.clear()
    assert len(build_symmetry_class(Partition((2, 1, 1)), 8).delta_bar) == 238
    assert calls == {}


def class_arrays(sc):
    """Every array a class holds or derives, and K_chi and D^1 K_chi of it at
    fixed inputs, in a fixed order."""
    rng = np.random.default_rng(sc.n)
    a, x = random_complex(rng, sc.n), random_complex(rng, sc.n)
    blocks = [array for block in sc.orbit_blocks for array in block]
    return [*blocks, sc.inclusion, sc.basis_b, k_chi_matrix(sc, a), dk_kchi(sc, a, [x])]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def cold_arrays(chi, n):
    kchi.symclass._template.cache_clear()
    return class_arrays(build_symmetry_class(chi, n))


# The five class_ladder rungs and the two cap classes.
CACHED_CLASSES = [
    (Partition((2, 1)), 5),
    (Partition((3, 1)), 5),
    (Partition((2, 2, 1)), 4),
    (Partition((2, 1, 1)), 6),
    (Partition((3, 1)), 6),
    (Partition((2, 1, 1)), 8),
    (Partition((3, 2, 1)), 4),
]


@pytest.mark.parametrize("chi,n", CACHED_CLASSES)
def test_a_warm_build_has_the_cold_bits(cold_templates, chi, n):
    # A template is the same numbers for every class of its chi, so a
    # class built from cached templates equals one that computed them.
    cold = cold_arrays(chi, n)
    assert_same_bits(class_arrays(build_symmetry_class(chi, n)), cold)


@pytest.mark.parametrize("first,second", [(5, 6), (6, 5)])
def test_templates_cached_at_one_size_serve_another(cold_templates, first, second):
    # Every template of (3,1) has at most 4 letters, so the class on C^5
    # and on C^6 read the same ones, whichever is built first.
    chi = Partition((3, 1))
    cold = cold_arrays(chi, second)
    kchi.symclass._template.cache_clear()
    build_symmetry_class(chi, first)
    misses = kchi.symclass._template.cache_info().misses
    assert_same_bits(class_arrays(build_symmetry_class(chi, second)), cold)
    assert kchi.symclass._template.cache_info().misses == misses


def compositions(m):
    for r in range(1, m + 1):
        for cuts in itertools.combinations(range(1, m), r - 1):
            yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, m)))


@pytest.mark.parametrize("chi", [Partition((2, 1)), Partition((2, 2, 1)), Partition((3, 2, 1))])
def test_the_shared_template_arrays_are_read_only(chi):
    # Templates and the Young symmetrizer are shared by every class of
    # their chi, and so are the blocks' template arrays: none may be
    # written through a class.
    shared = [array for factor in kchi.symclass._young_symmetrizer(chi)[0] for array in factor]
    shared.append(kchi.symclass._young_symmetrizer(chi)[1])
    for c in compositions(chi.size):
        template = kchi.symclass._template(chi, c)
        shared.extend(template or ())
    for block in build_symmetry_class(chi, chi.length).orbit_blocks:
        shared.extend(getattr(block, name) for name in kchi.symclass._SHARED)
    assert len(shared) > 7
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def test_a_template_that_raised_is_not_cached(monkeypatch, cold_templates):
    # The copy of the second member composition fails; the first one's
    # template is kept, and once the fault is gone the next build computes
    # the second and has the cold bits.
    chi, n = Partition((2, 1, 1)), 5
    cold = cold_arrays(chi, n)
    kchi.symclass._template.cache_clear()
    copy_basis = kchi.symclass._copy_basis
    calls = []

    def faulty(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NumericError("injected fault")
        return copy_basis(*args)

    monkeypatch.setattr(kchi.symclass, "_copy_basis", faulty)
    with pytest.raises(NumericError, match="injected fault"):
        build_symmetry_class(chi, n)
    monkeypatch.undo()
    assert kchi.symclass._template.cache_info().currsize >= 1
    assert_same_bits(class_arrays(build_symmetry_class(chi, n)), cold)


def test_classes_compare_and_hash_by_character_and_size():
    # A class is its chi and n; the arrays it holds are derived from them.
    sc = build_symmetry_class(Partition((2, 1)), 3)
    same = build_symmetry_class(Partition((2, 1)), 3)
    assert sc == same and hash(sc) == hash(same)
    assert len({sc, same}) == 1
    assert sc != build_symmetry_class(Partition((2, 1)), 4)
    assert sc != build_symmetry_class(Partition((1, 1, 1)), 3)


def test_the_class_stores_only_its_orbit_blocks():
    # The kernel reads the orbit blocks alone: building the class and
    # applying K_chi decodes no index set and scatters neither V nor B.
    sc = build_symmetry_class(Partition((2, 1, 1)), 6)
    k_chi_matrix(sc, np.eye(6))
    derived = ("inclusion", "basis_b", "omega", "delta_bar", "delta_hat")
    assert not set(derived) & set(vars(sc))
    assert sc.inclusion is sc.inclusion and "inclusion" in vars(sc)


def reference_class(chi, n):
    """The class arrays built one weakly increasing representative at a time.

    The orbit of each member representative, its e*-columns, the greedy
    rank sweep and Gram-Schmidt of the kept columns, scattered into the
    n^m x dim inclusion and the dim x dim change of basis; returns
    (omega, delta_bar, delta_hat, inclusion, basis_b).
    """
    m = chi.size
    delta_bar, orbits = [], []
    for entries in itertools.combinations_with_replacement(range(1, n + 1), m):
        a = MultiIndex(entries, n)
        stabilizer = math.prod(math.factorial(c) for c in multiplicity_partition(a).parts)
        rank = degree(chi) * character_sum_over_stabilizer(chi, a) // stabilizer
        if rank == 0:
            continue
        delta_bar.append(a)
        orbit = sorted(set(itertools.permutations(a.entries)))
        rows = kchi.symclass._encode(np.array(orbit), n)
        block = estar_columns(chi, n, orbit)[rows]
        basis = np.zeros((len(orbit), 0))
        cols = []
        for j, v in enumerate(block.T):
            if len(cols) == rank:
                break
            w = v - basis @ (basis.T @ v)
            w = w - basis @ (basis.T @ w)
            norm = float(np.linalg.norm(w))
            if norm > kchi.symclass.RANK_EXTENSION_TOL * float(np.linalg.norm(v)):
                cols.append(j)
                basis = np.hstack([basis, (w / norm)[:, None]])
        assert len(cols) == rank
        orbits.append((rows, rows[cols], *kchi.gram_schmidt(block[:, cols])))
    kept = np.sort(np.concatenate([at for _, at, _, _ in orbits]))
    inclusion = np.zeros((n**m, len(kept)))
    basis_b = np.zeros((len(kept), len(kept)))
    for rows, at, ortho, coeffs in orbits:
        at = np.searchsorted(kept, at)
        inclusion[np.ix_(rows, at)] = ortho.real
        basis_b[np.ix_(at, at)] = coeffs.real
    omega = np.sort(np.concatenate([rows for rows, *_ in orbits]))
    decode = kchi.symclass._decode
    return decode(omega, m, n), tuple(delta_bar), decode(kept, m, n), inclusion, basis_b


TEMPLATE_CLASSES = [
    (Partition((1, 1)), 5),
    (Partition((2,)), 4),
    (Partition((2, 1)), 5),
    (Partition((1, 1, 1)), 4),
    (Partition((3, 1)), 6),
    (Partition((2, 2)), 4),
    (Partition((2, 1, 1)), 5),
    (Partition((2, 2, 1)), 4),
    (Partition((4, 1)), 3),
    (Partition((3, 2, 1)), 4),
    (Partition((2, 2, 2)), 3),
]


@pytest.mark.parametrize("chi,n", TEMPLATE_CLASSES)
def test_the_template_build_matches_the_per_orbit_reference_bit_for_bit(chi, n):
    # Each orbit's block is computed once per composition and relabelled;
    # the relabelling moves no floating-point operation, so every array
    # has the bits of the per-representative reference.
    sc = build_symmetry_class(chi, n)
    omega, delta_bar, delta_hat, inclusion, basis_b = reference_class(chi, n)
    assert (sc.omega, sc.delta_bar, sc.delta_hat) == (omega, delta_bar, delta_hat)
    assert np.array_equal(sc.inclusion, inclusion)
    assert np.array_equal(sc.basis_b, basis_b)


@pytest.mark.parametrize("chi,n", TEMPLATE_CLASSES)
def test_the_orbit_blocks_scatter_to_the_inclusion(chi, n):
    # The blocks the kernel reads hold all of V: scattered, they give its
    # bits; their rows cover omega once and their columns delta_hat once.
    sc = build_symmetry_class(chi, n)
    inclusion = np.zeros_like(sc.inclusion)
    basis_b = np.zeros_like(sc.basis_b)
    rows_seen, kept_seen, columns_seen = [], [], []
    for block in sc.orbit_blocks:
        rows, at = block.rows, block.at
        assert rows.shape[1] == at.shape[1]
        assert block.ortho_t.shape == (len(at), len(rows))
        assert block.coeffs.shape == (len(at), len(at))
        inclusion[rows[:, None, :], at[None, :, :]] = block.ortho_t.T[:, :, None]
        basis_b[at[:, None, :], at[None, :, :]] = block.coeffs[:, :, None]
        rows_seen += rows.ravel().tolist()
        kept_seen += rows[block.cols].ravel().tolist()
        columns_seen += at.ravel().tolist()
    assert np.array_equal(inclusion, sc.inclusion)
    assert np.array_equal(basis_b, sc.basis_b)
    assert sorted(rows_seen) == [index_of(sc, alpha) for alpha in sc.omega]
    assert sorted(kept_seen) == [index_of(sc, alpha) for alpha in sc.delta_hat]
    assert sorted(columns_seen) == list(range(sc.dim))


def standard_reading_words(chi):
    # Every filling of the shape by 0..m-1, in row reading order, whose
    # rows and columns increase.
    parts = chi.parts
    starts = [sum(parts[:i]) for i in range(len(parts))]
    words = []
    for word in itertools.permutations(range(chi.size)):
        rows = all(
            word[s + j] < word[s + j + 1] for s, p in zip(starts, parts) for j in range(p - 1)
        )
        columns = all(
            word[starts[i] + j] < word[starts[i + 1] + j]
            for i in range(len(parts) - 1)
            for j in range(parts[i + 1])
        )
        if rows and columns:
            words.append(word)
    return words


def position_permutations(positions, n, m, sigmas):
    # P(sigma) on the span of the product-basis vectors at ``positions``
    # (an orbit) as dense matrices: P(sigma) e_beta = e_{beta o sigma^-1}.
    words = np.stack(np.unravel_index(positions, (n,) * m), axis=-1)
    index = {int(p): i for i, p in enumerate(positions)}
    mats = []
    for sigma in sigmas:
        mat = np.zeros((len(positions), len(positions)))
        for i, word in enumerate(words):
            mat[i, index[int(np.ravel_multi_index(tuple(word[list(sigma)]), (n,) * m))]] = 1.0
        mats.append(mat)
    return mats


def group_sum(chi, n, m, positions, boxes_of, signed):
    # The sum of P(sigma), signed for the columns, over the permutations
    # that keep each row (or column) of the row-reading tableau.
    parts = chi.parts
    starts = [sum(parts[:i]) for i in range(len(parts))]
    blocks = boxes_of(parts, starts)
    total = 0
    for choice in itertools.product(*[itertools.permutations(b) for b in blocks]):
        sigma = list(range(m))
        sign = 1
        for block, image in zip(blocks, choice):
            for box, target in zip(block, image):
                sigma[box] = target
            sign *= permutation_sign(block, image)
        (mat,) = position_permutations(positions, n, m, [sigma])
        total = total + (sign if signed else 1) * mat
    return total


def permutation_sign(block, image):
    order = [block.index(x) for x in image]
    return (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])


def row_boxes(parts, starts):
    return [list(range(s, s + p)) for s, p in zip(starts, parts)]


def column_boxes(parts, starts):
    return [[starts[i] + j for i in range(len(parts)) if parts[i] > j] for j in range(parts[0])]


@pytest.mark.parametrize("chi,n", TEMPLATE_CLASSES)
def test_each_copy_is_a_young_symmetrizer_image_whose_translates_span(chi, n):
    # On the first orbit of each composition, by dense permutation
    # matrices: c_T0 = a_T0 b_T0 maps the orbit's part of V_chi onto a space
    # of rank exactly rank / f^chi, the stored copy columns span it, and
    # their translates P(sigma_T) V Z over the standard tableaux span the
    # orbit's basis.
    sc = build_symmetry_class(chi, n)
    m, f = chi.size, degree(chi)
    sigmas = standard_reading_words(chi)
    assert len(sigmas) == f
    for block in sc.orbit_blocks:
        positions, copy = block.rows[:, 0], block.copy
        basis = sc.inclusion[positions][:, block.at[:, 0]]
        rank = basis.shape[1]
        a = group_sum(chi, n, m, positions, row_boxes, signed=False)
        b = group_sum(chi, n, m, positions, column_boxes, signed=True)
        image = a @ b @ basis
        assert np.linalg.matrix_rank(image) == rank // f
        assert copy.shape[1] == rank // f
        assert np.linalg.matrix_rank(np.hstack([image, copy])) == rank // f
        translates = np.hstack([p @ copy for p in position_permutations(positions, n, m, sigmas)])
        assert np.linalg.matrix_rank(translates) == rank
        assert np.linalg.matrix_rank(np.hstack([basis, translates])) == rank


@pytest.mark.parametrize(
    "chi,n",
    [
        (Partition((2, 1)), 3),
        (Partition((3, 1)), 4),
        (Partition((2, 2, 1)), 3),
        (Partition((3, 2, 1)), 3),
    ],
)
def test_each_dual_reads_the_orbit_through_its_tableau(chi, n):
    # On the first orbit of each composition, which its template's words
    # label in the same order, by dense permutation matrices: dual[t] is
    # D_t V.T P(sigma_t), with D_t the t-th block of rows of B^-1 and V the
    # orbit's basis block, relative to its largest entry.
    sc = build_symmetry_class(chi, n)
    m, f = chi.size, degree(chi)
    sigmas = standard_reading_words(chi)
    for block in sc.orbit_blocks:
        positions = block.rows[:, 0]
        rank = len(block.binv)
        d = block.binv.reshape(f, rank // f, rank)
        for t, p in enumerate(position_permutations(positions, n, m, sigmas)):
            want = d[t] @ block.ortho_t @ p
            assert block.dual[t].shape == want.shape
            assert np.abs(block.dual[t] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("chi,n", [(Partition((2, 1)), 3), (Partition((2, 2, 1)), 3)])
def test_too_few_translates_or_a_wrong_image_is_a_numeric_error(
    monkeypatch, cold_templates, chi, n
):
    # Dropping any one standard tableau leaves translates that cannot span
    # an orbit; a symmetrizer that does nothing leaves an image of the
    # orbit's full rank rather than rank / f^chi.  The build refuses both.
    young = kchi.symclass._young_symmetrizer
    for dropped in range(degree(chi)):
        monkeypatch.setattr(
            kchi.symclass,
            "_young_symmetrizer",
            lambda chi: (young(chi)[0], np.delete(young(chi)[1], dropped, axis=0)),
        )
        with pytest.raises(NumericError, match="translates"):
            build_symmetry_class(chi, n)
    monkeypatch.setattr(kchi.symclass, "_young_symmetrizer", lambda chi: ([], young(chi)[1]))
    with pytest.raises(NumericError, match="Young symmetrizer's image has rank"):
        build_symmetry_class(chi, n)


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_decoded_indices_equal_validated_ones(chi, n):
    # omega and delta_hat are decoded from base-n positions without
    # re-validation; every position decodes to the validated multi-index
    # and back through _encode.
    sc = build_symmetry_class(chi, n)
    codes = np.arange(n**sc.m)
    decoded = kchi.symclass._decode([codes], sc.m, n)
    for alphas in (decoded, sc.omega, sc.delta_hat):
        assert alphas == tuple(MultiIndex(alpha.entries, alpha.n) for alpha in alphas)
        assert all(type(e) is int for alpha in alphas for e in alpha.entries)
    assert [index_of(sc, alpha) for alpha in decoded] == codes.tolist()
    assert list(decoded) == sorted(decoded)


@pytest.mark.parametrize("chi,n", SMALL_CLASSES)
def test_estar_coords_are_brute_force_projector_columns(chi, n):
    sc = build_symmetry_class(chi, n)
    k = brute_force_projector(chi, n)
    for alpha in enumerate_maps(sc.m, sc.n):
        np.testing.assert_allclose(
            estar_coords(sc, alpha), k[:, index_of(sc, alpha)], atol=EXACT_TOL
        )


def test_cap_class_dimension_and_multiplicativity():
    # (2,1,1) on C^8 sits at the n^m = 4096 cap; its dimension is
    # chi(1)/m! * sum_sigma chi(sigma) n^{c(sigma)}, c counting cycles
    chi, n = Partition((2, 1, 1)), 8
    sc = build_symmetry_class(chi, n)
    expected = sum(
        character(chi, sigma.cycle_type()) * n ** len(sigma.cycle_type().parts)
        for sigma in all_permutations(chi.size)
    ) * degree(chi) // math.factorial(chi.size)
    assert sc.dim == expected == 1134
    rng = np.random.default_rng(29)
    a, b = random_complex(rng, n), random_complex(rng, n)
    ka, kb, kab = k_chi_matrix(sc, a), k_chi_matrix(sc, b), k_chi_matrix(sc, a @ b)
    assert np.abs(ka @ kb - kab).max() <= PRODUCT_TOL * np.abs(kab).max()


def test_index_chain_and_order():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        omega = set(sc.omega)
        assert set(sc.delta_bar) <= set(sc.delta_hat) <= omega
        assert list(sc.delta_hat) == sorted(sc.delta_hat)
        increasing = [a for a in sc.omega if list(a.entries) == sorted(a.entries)]
        assert list(sc.delta_bar) == increasing


def test_extreme_characters_have_closed_form_bases():
    # alternating: strictly increasing maps; principal: weakly increasing maps
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        wedge = build_symmetry_class(Partition((1,) * m), n)
        strict = itertools.combinations(range(1, n + 1), m)
        assert [a.entries for a in wedge.delta_hat] == list(strict)
        assert wedge.dim == math.comb(n, m)
        power = build_symmetry_class(Partition((m,)), n)
        weak = itertools.combinations_with_replacement(range(1, n + 1), m)
        assert [a.entries for a in power.delta_hat] == list(weak)
        assert power.dim == math.comb(n + m - 1, m)


def test_tensor_norms_follow_stabilizer_sums():
    # squared norm of each symmetrized basis tensor, for every index alpha
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        scale = degree(chi) / math.factorial(sc.m)
        for alpha in enumerate_maps(sc.m, sc.n):
            coords = estar_coords(sc, alpha)
            norm_sq = float(np.real(coords.conj() @ coords))
            expected = scale * character_sum_over_stabilizer(chi, alpha)
            assert abs(norm_sq - expected) < PROJECTOR_TOL
            if alpha not in set(sc.omega):
                assert np.linalg.norm(coords) < 1e-12


def test_basis_b_converts_tensors_to_orthonormal_basis():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        estar = np.column_stack([estar_coords(sc, a) for a in sc.delta_hat])
        np.testing.assert_allclose(estar @ sc.basis_b, sc.inclusion, atol=EXACT_TOL)
        np.testing.assert_allclose(sc.basis_b, np.triu(sc.basis_b), atol=0)


def test_build_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_symmetry_class(Partition((1, 1, 1)), 2)
    with pytest.raises(DomainError):
        build_symmetry_class(Partition((2,)), 0)
    with pytest.raises(ResourceError):
        build_symmetry_class(Partition((7,)), 2)


def test_omega_is_exactly_the_support():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        support = {
            alpha
            for alpha in enumerate_maps(sc.m, sc.n)
            if np.linalg.norm(estar_coords(sc, alpha)) > 1e-12
        }
        assert set(sc.omega) == support


def test_a_missed_rank_is_a_numeric_error(monkeypatch, cold_templates):
    # A sweep that keeps fewer columns than the character formula's rank
    # is refused rather than returned as a smaller class.
    monkeypatch.setattr(kchi.symclass, "RANK_EXTENSION_TOL", 2.0)
    with pytest.raises(NumericError, match="rank sweep found 0"):
        build_symmetry_class(Partition((2, 1)), 3)


def test_membership_routes_are_cross_checked(monkeypatch, cold_templates):
    # one route flipped: the build must refuse rather than pick one
    majorizes = kchi.symclass.majorizes
    monkeypatch.setattr(kchi.symclass, "majorizes", lambda lam, mu: not majorizes(lam, mu))
    with pytest.raises(NumericError, match="membership routes disagree"):
        build_symmetry_class(Partition((2, 1)), 3)


def test_build_respects_dimension_cap():
    # 5^6 = 15625 > 4096: refused before anything of that size is allocated
    with pytest.raises(ResourceError):
        build_symmetry_class(Partition((3, 3)), 5)


def test_index_of_is_the_lexicographic_position():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        positions = [index_of(sc, a) for a in enumerate_maps(sc.m, sc.n)]
        assert positions == list(range(n**sc.m))


# ---------------------------------------------------------------------------
# Symmetrized products.
# ---------------------------------------------------------------------------


def test_symmetrized_kron_small_cases():
    rng = np.random.default_rng(31)
    a, b = random_complex(rng, 2), random_complex(rng, 2)
    np.testing.assert_allclose(symmetrized_kron([a]), a)
    np.testing.assert_allclose(
        symmetrized_kron([a, b]), (np.kron(a, b) + np.kron(b, a)) / 2.0, atol=EXACT_TOL
    )


def test_symmetrized_kron_grouping_matches_full_average():
    # repeated factors are grouped; the plain average over all m!
    # arrangements must agree
    rng = np.random.default_rng(37)
    p = random_complex(rng, 2)
    x = random_complex(rng, 2)
    ops = [p, p, x]
    full = sum(
        np.kron(np.kron(ops[i], ops[j]), ops[k])
        for i, j, k in itertools.permutations(range(3))
    ) / math.factorial(3)
    np.testing.assert_allclose(symmetrized_kron(ops), full, atol=EXACT_TOL)


def test_symmetrized_kron_refuses_more_factors_than_the_cap(monkeypatch):
    # 7! arrangements of seven 1 x 1 factors would be listed before any
    # Kronecker product checked its size; the cap is checked before the
    # factors are even labelled.
    ops = [np.eye(1)] * kchi.symclass.MAX_TENSOR_FACTORS
    np.testing.assert_allclose(symmetrized_kron(ops), np.eye(1))
    monkeypatch.setattr(kchi.symclass, "_distinct_factors", None)
    with pytest.raises(ResourceError):
        symmetrized_kron(ops + [np.eye(1)])


def symmetrized_product(sc, ops):
    # The compressed symmetrized product X^1 * ... * X^m of m operators:
    # D^m K_chi at any point, here the first operator, over m!.
    return dk_kchi(sc, ops[0], ops) / math.factorial(sc.m)


def test_sym_op_product_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(41)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    ops = [random_complex(rng, 3) for _ in range(3)]
    base = symmetrized_product(sc, ops)
    for perm in itertools.permutations(ops):
        np.testing.assert_allclose(symmetrized_product(sc, list(perm)), base, atol=EXACT_TOL)
    # At k = m the derivative does not depend on the point.
    np.testing.assert_allclose(dk_kchi(sc, np.eye(3), ops) / 6, base, atol=EXACT_TOL)


def test_sym_op_product_with_equal_factors_is_the_power_map():
    rng = np.random.default_rng(43)
    for chi, n in [(Partition((2,)), 2), (Partition((2, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        t = random_complex(rng, n)
        np.testing.assert_allclose(
            symmetrized_product(sc, [t] * sc.m), k_chi_matrix(sc, t), atol=EXACT_TOL
        )


@pytest.mark.parametrize("chi,n", SMALL_CLASSES + [(Partition((2, 1)), 5)])
def test_kernels_match_the_symmetrized_kron_reference(chi, n):
    # the factor-by-factor kernels against the explicit n^m x n^m route
    rng = np.random.default_rng(83)
    sc = build_symmetry_class(chi, n)
    q = sc.inclusion

    def reference(ops):
        return q.conj().T @ symmetrized_kron(ops) @ q

    def check(value, expected):
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(value, expected, rtol=0, atol=EXACT_TOL * scale)

    ops = [random_complex(rng, n) for _ in range(sc.m)]
    check(symmetrized_product(sc, ops), reference(ops))
    t = random_complex(rng, n)
    check(k_chi_matrix(sc, t), reference([t] * sc.m))
    for k in range(1, sc.m + 1):
        xs = [random_complex(rng, n) for _ in range(k)]
        factor = math.factorial(sc.m) // math.factorial(sc.m - k)
        check(dk_kchi(sc, t, xs), factor * reference([t] * (sc.m - k) + xs))


def test_sym_op_product_rejects_wrong_shapes():
    # Operators on another space, at the point or among the directions.
    sc = build_symmetry_class(Partition((2,)), 2)
    with pytest.raises(DomainError):
        dk_kchi(sc, np.eye(2), [np.eye(3), np.eye(3)])
    with pytest.raises(DomainError):
        dk_kchi(sc, np.eye(3), [np.eye(2), np.eye(2)])


# ---------------------------------------------------------------------------
# The induced power map.
# ---------------------------------------------------------------------------


def test_power_map_of_identity():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        np.testing.assert_allclose(
            k_chi_matrix(sc, np.eye(n)), np.eye(sc.dim), atol=PROJECTOR_TOL
        )


def test_wedge_power_map_is_the_determinant():
    rng = np.random.default_rng(47)
    for n in (2, 3):
        sc = build_symmetry_class(Partition((1,) * n), n)
        a = random_complex(rng, n)
        value = k_chi_matrix(sc, a)
        assert value.shape == (1, 1)
        assert np.isclose(value[0, 0], np.linalg.det(a), atol=1e-10)


def test_power_map_is_multiplicative():
    rng = np.random.default_rng(53)
    for chi, n in [(Partition((2,)), 3), (Partition((2, 1)), 3), (Partition((1, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        a, b = random_complex(rng, n), random_complex(rng, n)
        np.testing.assert_allclose(
            k_chi_matrix(sc, a @ b),
            k_chi_matrix(sc, a) @ k_chi_matrix(sc, b),
            atol=PRODUCT_TOL,
        )
        np.testing.assert_allclose(
            k_chi_matrix(sc, a.conj().T), k_chi_matrix(sc, a).conj().T, atol=PRODUCT_TOL
        )
        np.testing.assert_allclose(
            k_chi_matrix(sc, np.linalg.inv(a)),
            np.linalg.inv(k_chi_matrix(sc, a)),
            atol=1e-8,
        )


# ---------------------------------------------------------------------------
# Derivatives.
# ---------------------------------------------------------------------------


def test_derivative_edge_orders():
    rng = np.random.default_rng(59)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_complex(rng, 3)
    np.testing.assert_allclose(dk_kchi(sc, t, []), k_chi_matrix(sc, t), atol=EXACT_TOL)
    xs = [random_complex(rng, 3) for _ in range(sc.m + 1)]
    np.testing.assert_allclose(dk_kchi(sc, t, xs), np.zeros((sc.dim, sc.dim)), atol=0)


def test_derivative_is_multilinear_and_symmetric():
    rng = np.random.default_rng(61)
    sc = build_symmetry_class(Partition((2,)), 3)
    t = random_complex(rng, 3)
    x, y, z = (random_complex(rng, 3) for _ in range(3))
    np.testing.assert_allclose(
        dk_kchi(sc, t, [x, y]), dk_kchi(sc, t, [y, x]), atol=EXACT_TOL
    )
    np.testing.assert_allclose(
        dk_kchi(sc, t, [2.0 * x + z, y]),
        2.0 * dk_kchi(sc, t, [x, y]) + dk_kchi(sc, t, [z, y]),
        atol=EXACT_TOL,
    )


def test_top_derivative_ignores_the_base_point():
    rng = np.random.default_rng(67)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    xs = [random_complex(rng, 3) for _ in range(sc.m)]
    t1, t2 = random_complex(rng, 3), random_complex(rng, 3)
    np.testing.assert_allclose(
        dk_kchi(sc, t1, xs), dk_kchi(sc, t2, xs), atol=EXACT_TOL
    )


def test_taylor_expansion_is_exact():
    # the power map is a polynomial of degree m, so its Taylor series stops
    rng = np.random.default_rng(71)
    for chi, n in [(Partition((2,)), 2), (Partition((2, 1)), 3), (Partition((1, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        t, x = random_complex(rng, n), random_complex(rng, n)
        total = np.zeros((sc.dim, sc.dim), dtype=np.complex128)
        for k in range(sc.m + 1):
            total += dk_kchi(sc, t, [x] * k) / math.factorial(k)
        np.testing.assert_allclose(k_chi_matrix(sc, t + x), total, atol=PRODUCT_TOL)


def central_difference(sc, t, xs):
    """Finite-difference directional derivative of the power map."""
    if len(xs) == 1:
        plus = k_chi_matrix(sc, t + FD_STEP * xs[0])
        minus = k_chi_matrix(sc, t - FD_STEP * xs[0])
        return (plus - minus) / (2.0 * FD_STEP)
    if len(xs) == 2:
        x, y = xs
        pp = k_chi_matrix(sc, t + FD_STEP * (x + y))
        pm = k_chi_matrix(sc, t + FD_STEP * (x - y))
        mp = k_chi_matrix(sc, t - FD_STEP * (x - y))
        mm = k_chi_matrix(sc, t - FD_STEP * (x + y))
        return (pp - pm - mp + mm) / (4.0 * FD_STEP**2)
    raise ValueError("only first and second differences are implemented")


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(73)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_complex(rng, 3)
    xs = [random_complex(rng, 3) for _ in range(2)]
    for k in (1, 2):
        exact = dk_kchi(sc, t, xs[:k])
        approx = central_difference(sc, t, xs[:k])
        scale = max(1.0, float(np.abs(exact).max()))
        assert np.abs(exact - approx).max() / scale < FD_REL_TOL


@st.composite
def derivative_points(draw):
    # A small class, an order 0 <= k <= m, a base point and k directions.
    chi, n = draw(st.sampled_from(SMALL_CLASSES))
    k = draw(st.integers(0, chi.size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sc = build_symmetry_class(chi, n)
    return sc, random_complex(rng, n), [random_complex(rng, n) for _ in range(k)], rng


def derivative_scale(sc, t, xs):
    # m!/(m-k)! ||t||^(m-k) prod ||x_i||, which bounds ||D^k K_chi(t)(xs)||
    # and sets the size of its rounding error.
    k = len(xs)
    norms = [np.linalg.norm(t, 2)] * (sc.m - k) + [np.linalg.norm(x, 2) for x in xs]
    return math.factorial(sc.m) // math.factorial(sc.m - k) * math.prod(norms)


@settings(deadline=None, derandomize=True)
@given(derivative_points(), st.floats(1e-8, 1e8), st.floats(0.0, 2 * math.pi))
def test_derivative_is_homogeneous_in_the_base_point(point, size, phase):
    sc, t, xs, _ = point
    c = size * np.exp(1j * phase)
    got = dk_kchi(sc, c * t, xs)
    want = c ** (sc.m - len(xs)) * dk_kchi(sc, t, xs)
    scale = size ** (sc.m - len(xs)) * derivative_scale(sc, t, xs)
    assert np.abs(got - want).max() <= PROPERTY_TOL * scale


@settings(deadline=None, derandomize=True)
@given(derivative_points())
def test_derivative_norm_is_unitarily_invariant(point):
    sc, t, xs, rng = point
    u, v = random_unitary(rng, sc.n), random_unitary(rng, sc.n)
    got = np.linalg.norm(dk_kchi(sc, u @ t @ v, [u @ x @ v for x in xs]), 2)
    want = np.linalg.norm(dk_kchi(sc, t, xs), 2)
    assert abs(got - want) <= PROPERTY_TOL * derivative_scale(sc, t, xs)


def test_derivative_at_psd_arguments_is_psd():
    # every arrangement compresses a Kronecker product of PSD factors
    rng = np.random.default_rng(79)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    g = [random_complex(rng, 3) for _ in range(3)]
    psd = [x @ x.conj().T for x in g]
    result = dk_kchi(sc, psd[0], psd[1:])
    np.testing.assert_allclose(result, result.conj().T, atol=PROJECTOR_TOL)
    assert np.linalg.eigvalsh(result).min() > -PROJECTOR_TOL


def test_derivative_eigenvectors_at_diagonal_base():
    # at a PSD diagonal base point with identity directions, each basis
    # tensor is an eigenvector with eigenvalue k! e_{m-k}(nu restricted to
    # the index)
    nu = np.array([3.0, 2.0, 1.0])
    for chi in (Partition((2,)), Partition((1, 1)), Partition((2, 1)), Partition((3,))):
        if chi.length > 3:
            continue
        sc = build_symmetry_class(chi, 3)
        p = np.diag(nu)
        for k in range(1, sc.m + 1):
            mat = dk_kchi(sc, p, [np.eye(3)] * k)
            for alpha in sc.delta_hat:
                w = sc.inclusion.conj().T @ estar_coords(sc, alpha)
                values = [nu[i - 1] for i in alpha.entries]
                lam = math.factorial(k) * elementary(len(values) - k, values)
                assert np.linalg.norm(mat @ w - lam * w) <= 1e-8 * np.linalg.norm(w)


def elementary(t, values):
    return float(
        sum(math.prod(c) for c in itertools.combinations(values, t))
    )


def test_derivative_rejects_mismatched_directions():
    sc = build_symmetry_class(Partition((2,)), 2)
    with pytest.raises(DomainError):
        dk_kchi(sc, np.eye(2), [np.eye(3)])
    with pytest.raises(DomainError):
        dk_kchi(sc, np.eye(3), [np.eye(2)])

"""The stacked sampling route against the one-sample-at-a-time reference.

A sampled supremum reads its random unitary tuples in order from one
generator, in chunks sized by the bytes they hold, and evaluates each chunk
through the batched compression kernel or immanant sum, or, for a
derivative supremum over more tuples than the derivative has matrix-unit
tuples, through one product with its k-linear tensor.  A derivative
supremum evaluates and norms each sample on the kernel's one Schur-module
copy; the tests below also compare it with the full class.  The reference
route below is the per-sample loop they replaced: one ``random_unit_matrix``
call per direction on the same generator, one kernel call per tuple, with
the factors applied to the tensor axes (or immanant columns) in order, one
distinct arrangement at a time.  The kernel sums one plain product per
standard tableau, and the mixed immanants sum over sub-multisets of the
factors; the tests below also compare them with that per-arrangement sum,
count their products and bound their memory.
"""

import collections
import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

import kchi.norms
import kchi.symclass
import kchi.verify
from kchi import (
    DomainError,
    Partition,
    build_symmetry_class,
    degree,
    dk_immanant,
    dk_kchi,
    dk_norm_verify,
    immanant_bound_verify,
    k_chi_matrix,
    matrix_to_pairs,
    mixed_immanant,
    mixed_immanant_matrix,
    partitions_of,
    random_matrix,
    random_unit_matrix,
    sample_rng,
    spectral_norm,
    sym_op_product,
)
from kchi.cli import main
from kchi.denselin import _distinct_arrangements, _spectral_norms
from kchi.norms import (
    SAMPLE_CHUNK_BYTES,
    _contract,
    _derivative_tensor,
    _haar_units,
    _sample_chunk,
    _tensor_route,
    _unit_stack,
)
from kchi.symclass import _dk_copy, _dk_factors, _dk_stack
from kchi.symgroup import _permutation_characters
from test_symclass import SMALL_CLASSES

KERNEL_TOL = 1e-12


def reference_compress(sc, mats):
    # V* (mean over distinct arrangements of A_1 (x) ... (x) A_m) V for one
    # tuple of (n, n) factors, each applied to its own tensor axis in order.
    # The arrangements are summed pairwise, through a binary counter of
    # partial sums, so the reference's own rounding grows with the log of
    # their number: a running sum of the 720 arrangements of six distinct
    # factors drifts by 1.5e-14 (relative) at (6)/1, against a rational
    # evaluation.
    n, m, v = sc.n, sc.m, sc.inclusion
    reps, orders = _distinct_arrangements(mats)
    partial = []
    for order in orders:
        w = v
        for i, label in enumerate(order):
            w = reps[label] @ w.reshape(n**i, n, -1)
        count, term = 1, w.reshape(n**m, sc.dim)
        while partial and partial[-1][0] == count:
            count, term = 2 * count, partial.pop()[1] + term
        partial.append((count, term))
    total = sum(term for _, term in reversed(partial))
    return (v.conj().T @ total) / len(orders)


def reference_dk_kchi(sc, t, xs):
    k = len(xs)
    factor = math.factorial(sc.m) // math.factorial(sc.m - k)
    return factor * reference_compress(sc, [t] * (sc.m - k) + list(xs))


def reference_mixed_immanant(chi, mats):
    # The mean over every distinct column assignment of the permutation sum,
    # on (n, n) matrices or on (..., n, n) stacks of equal shape.
    n = chi.size
    images, values = _permutation_characters(chi)
    reps, orders = _distinct_arrangements(mats)
    total = 0.0
    for order in orders:
        scratch = np.stack([reps[label][..., :, j] for j, label in enumerate(order)], axis=-1)
        total = total + scratch[..., np.arange(n), images].prod(axis=-1) @ values
    return total / len(orders)


def reference_dk_immanant(chi, a, xs):
    # D^k d_chi(a)(xs) from the mixed immanant over every column assignment.
    n, k = chi.size, len(xs)
    factor = math.factorial(n) // math.factorial(n - k)
    return factor * reference_mixed_immanant(chi, [a] * (n - k) + list(xs))


def reference_draws(n, k, rng, count):
    return np.array([[random_unit_matrix(n, rng) for _ in range(k)] for _ in range(count)])


def full_svd_reducer(stack, floor):
    # The chunk reduction without pruning: every evaluated sample's top
    # singular value, one matrix at a time.
    return max(floor, *(spectral_norm(x) for x in stack))


def reference_sup(evaluate, n, k, samples, seed):
    rng = sample_rng(seed, 0)
    best = 0.0
    for _ in range(samples):
        best = max(best, evaluate([random_unit_matrix(n, rng) for _ in range(k)]))
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_draws_equal_sequential_draws(n, k):
    # Chunk sizes that do not divide the 197 tuples: each chunk continues
    # the generator where the last one stopped.
    rng = sample_rng(5, 17)
    got = np.concatenate([_unit_stack(n, k, rng, count) for count in (64, 1, 63, 64, 5)])
    assert np.array_equal(got, reference_draws(n, k, sample_rng(5, 17), 197))


@pytest.mark.parametrize(
    "seed, index, raw",
    [
        (0, 1, [15003734204198539638, 13859618513508960101]),
        (1, 0, [5599841837815857887, 15655913098571550255]),
        (2**64 - 1, 2**64 - 1, [7874205360917102206, 10542541251131640768]),
    ],
)
def test_sample_rng_keys_philox_with_the_seed_then_the_index(seed, index, raw):
    # The first two raw Philox4x64 outputs of each stream, pinned: they
    # change if the key words swap or numpy's Philox changes.  Generator
    # distribution methods carry no such stability promise, raw output does.
    assert sample_rng(seed, index).bit_generator.random_raw(2).tolist() == raw


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 6, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2**32 - 3, 10**12, 2**63, 2**64 - 6])
def test_sample_rng_key_words_across_word_boundaries(seed, index):
    # Key word 0 is the seed and key word 1 the index, with the counter at
    # 0.  The cases take each word at its ends, at its top bit and on both
    # sides of its 32-bit halves; the reference generator is keyed by the
    # two words directly, not by the 128-bit integer sample_rng builds.
    words = np.array([seed, index], dtype=np.uint64)
    state = sample_rng(seed, index).bit_generator.state["state"]
    assert np.array_equal(state["key"], words)
    assert not state["counter"].any()
    want = reference_draws(2, 2, np.random.Generator(np.random.Philox(key=words)), 6)
    assert np.array_equal(_unit_stack(2, 2, sample_rng(seed, index), 6), want)


def test_seeds_and_indices_from_2_to_the_64_are_rejected():
    with pytest.raises(DomainError):
        sample_rng(2**64, 0)
    with pytest.raises(DomainError):
        sample_rng(0, 2**64)
    sc = build_symmetry_class(Partition((2, 1)), 2)
    with pytest.raises(DomainError):
        dk_norm_verify(sc, np.eye(2), 1, samples=3, seed=2**64)
    with pytest.raises(DomainError):
        immanant_bound_verify(Partition((2, 1)), np.eye(3), 1, samples=3, seed=2**100)


def test_negative_seeds_are_rejected_by_the_sampling_verifiers():
    sc = build_symmetry_class(Partition((2, 1)), 2)
    with pytest.raises(DomainError):
        dk_norm_verify(sc, np.eye(2), 1, samples=3, seed=-1)
    with pytest.raises(DomainError):
        immanant_bound_verify(Partition((2, 1)), np.eye(3), 1, samples=3, seed=-1)


@pytest.mark.parametrize("samples", [0, 2**64])
def test_sample_counts_outside_1_to_2_to_the_64_are_rejected(monkeypatch, samples):
    # Refused before any tuple is drawn: 2**64 tuples would never finish.
    def no_draws(*args):
        raise AssertionError("tuples were drawn")

    monkeypatch.setattr(kchi.norms, "_unit_stack", no_draws)
    sc = build_symmetry_class(Partition((2, 1)), 2)
    with pytest.raises(DomainError):
        dk_norm_verify(sc, np.eye(2), 1, samples=samples)
    with pytest.raises(DomainError):
        immanant_bound_verify(Partition((2, 1)), np.eye(3), 1, samples=samples)


HAAR_TOL = 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 64])
def test_draws_are_the_haar_factors_of_their_gaussians(n, k, chunk):
    # Each draw U is unitary, and U* G is upper triangular with a real
    # positive diagonal for the complex Gaussian G read from the same
    # normals: U is the Q of G's QR decomposition with that normalisation,
    # which makes it Haar distributed.
    count = 65
    rng = sample_rng(21, n * 10 + k)
    units = np.concatenate(
        [_unit_stack(n, k, rng, min(chunk, count - lo)) for lo in range(0, count, chunk)]
    )
    normals = sample_rng(21, n * 10 + k).standard_normal((count, k, 2, n, n))
    gauss = normals[:, :, 0] + 1j * normals[:, :, 1]
    adjoint = units.conj().swapaxes(-1, -2)
    assert np.abs(adjoint @ units - np.eye(n)).max() <= HAAR_TOL
    r = adjoint @ gauss
    scale = np.abs(gauss).max(axis=(-1, -2), keepdims=True)
    assert (np.abs(np.tril(r, -1)) <= HAAR_TOL * scale).all()
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    assert (np.abs(diagonal.imag) <= HAAR_TOL * scale[..., 0]).all()
    assert (diagonal.real > 0).all()


LAPACK_TOL = 1e-13


def lapack_factors(normals):
    # LAPACK's QR of the complex Gaussians of (count, 2, n, n) normals: Q
    # and the phases of R's diagonal.
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    return q, np.exp(1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_draws_match_lapack_qr_with_the_phases_of_r(n):
    # 10^4 draws against LAPACK's QR of the same Gaussians, with Q's columns
    # times the phases of R's diagonal, the rule that makes R's diagonal
    # real and positive as Gram-Schmidt's is.
    count = 10_000
    units = _unit_stack(n, 1, sample_rng(26, n), count)[:, 0]
    q, phases = lapack_factors(sample_rng(26, n).standard_normal((count, 2, n, n)))
    assert np.abs(units - q * phases[:, None, :]).max() <= LAPACK_TOL


def haar_moments_hold(units):
    # Moments of a Haar unitary, each within 6 standard errors of its
    # sample: E tr U = 0, E |tr U|^2 = 1 and E |U_11|^2 = 1/n (Diaconis and
    # Shahshahani, J. Appl. Probab. 31A, 1994).  The 1e-13 covers rounding
    # where a statistic has no spread, as at n = 1.
    n = units.shape[-1]
    trace = np.trace(units, axis1=-2, axis2=-1)
    cases = [(trace, 0.0), (np.abs(trace) ** 2, 1.0), (np.abs(units[:, 0, 0]) ** 2, 1.0 / n)]
    return all(
        abs(values.mean() - want) <= 6 * values.std() / math.sqrt(len(values)) + 1e-13
        for values, want in cases
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_draws_have_the_haar_moments(n):
    # A check of the distribution that takes no QR: 2 * 10^4 draws pass,
    # and LAPACK's Q of the same Gaussians without the phase rule, which is
    # not Haar distributed, fails (its mean trace is real and away from 0).
    count = 20_000
    units = _unit_stack(n, 1, sample_rng(28, n), count)[:, 0]
    assert haar_moments_hold(units)
    q, _ = lapack_factors(sample_rng(28, n).standard_normal((count, 2, n, n)))
    assert not haar_moments_hold(q)


def test_rank_deficient_stacks_still_give_unitaries():
    # A repeated column leaves a pivot of rounding size: every matrix still
    # gives a unitary with no NaN.
    parts = sample_rng(27, 0).standard_normal((2, 4, 4, 30))
    parts[:, :, 2] = parts[:, :, 0]
    units = _haar_units(np.moveaxis(parts, -1, 0))
    assert np.isfinite(units).all()
    assert np.abs(units.conj().swapaxes(1, 2) @ units - np.eye(4)).max() <= HAAR_TOL


def test_batched_kernel_matches_the_per_sample_loop():
    rng = sample_rng(3, 0)
    samples = 5
    for m in range(1, 4):
        for n in range(1, 4):
            for chi in partitions_of(m):
                if chi.length > n:
                    continue
                sc = build_symmetry_class(chi, n)
                t = random_matrix(n, rng)
                for k in range(0, m + 1):
                    xs = np.array([[random_matrix(n, rng) for _ in range(k)] for _ in range(samples)])
                    stacked = _dk_stack(sc, t, list(xs.swapaxes(0, 1)))
                    assert stacked.shape == ((samples if k else 1), sc.dim, sc.dim)
                    for s, tup in enumerate(xs if k else [[]]):
                        want = reference_dk_kchi(sc, t, tup)
                        scale = np.abs(want).max()
                        assert np.abs(stacked[s] - want).max() <= KERNEL_TOL * scale
                        assert np.abs(dk_kchi(sc, t, tup) - want).max() <= KERNEL_TOL * scale


KERNEL_CLASSES = SMALL_CLASSES + [(Partition((2, 2, 1)), 4)]
REFERENCE_TOL = 1e-13


def close_to_reference(got, want):
    return np.abs(got - want).max() <= REFERENCE_TOL * max(1.0, np.abs(want).max())


def direction_kinds(k, draw):
    # k distinct directions and, for k >= 2, one direction k times and one
    # k - 1 times beside another.
    xs = [draw() for _ in range(k)]
    if k < 2:
        return [xs]
    return [xs, xs[:1] * k, xs[:1] * (k - 1) + xs[1:2]]


@pytest.mark.parametrize("chi, n", KERNEL_CLASSES)
def test_sub_multiset_kernel_matches_the_per_arrangement_sum(chi, n):
    # Each kind of direction tuple as (n, n) matrices and as (S, n, n)
    # stacks, against the sum over every distinct arrangement, one sample
    # at a time.
    sc = build_symmetry_class(chi, n)
    rng = sample_rng(12, 0)
    samples = 2
    t = random_matrix(n, rng)
    for k in range(sc.m + 1):
        for xs in direction_kinds(k, lambda: random_matrix(n, rng)):
            assert close_to_reference(_dk_stack(sc, t, xs)[0], reference_dk_kchi(sc, t, xs))
        draw_stack = lambda: np.array([random_matrix(n, rng) for _ in range(samples)])
        for xs in direction_kinds(k, draw_stack):
            got = _dk_stack(sc, t, xs)
            for s in range(len(got)):
                want = reference_dk_kchi(sc, t, [x[s] for x in xs])
                assert close_to_reference(got[s], want)


ORBIT_BLOCK_CLASSES = [
    (Partition((1,)), 3),
    (Partition((1, 1)), 6),
    (Partition((2,)), 4),
    (Partition((2, 1)), 5),
    (Partition((1, 1, 1)), 5),
    (Partition((3,)), 3),
    (Partition((3, 1)), 3),
    (Partition((2, 2)), 3),
    (Partition((2, 1, 1)), 3),
    (Partition((4,)), 3),
    (Partition((2, 2, 1)), 3),
    (Partition((3, 2)), 2),
    (Partition((4, 1)), 2),
    (Partition((6,)), 2),
    (Partition((4, 2)), 2),
    (Partition((3, 3)), 2),
]
ORBIT_BLOCK_TOL = 1e-14


def dense_product_class(sc):
    # The class with one block over all n^m rows and every column, so the
    # kernel's partial trace is the dense D_t V.T @ P(sigma_t) W of its own
    # chains, with each P(sigma_t) a dense permutation matrix folded into
    # the dual, with D_t and B_t the row and column blocks of the
    # block-diagonal B^-1 of all orbits and of its inverse.  The copy column
    # z of translate t is column t * width + z of B, so the dense block's z
    # is every copy column in order.  Its one block is as wide as the class,
    # so it is lifted by dense_lift, not by the kernel's pair kernels.
    blocks = sc.orbit_blocks
    positions = np.arange(sc.n**sc.m)
    tableaux = kchi.symclass._young_symmetrizer(sc.chi)[1]
    f, width = len(tableaux), sc.dim // len(tableaux)
    copy = np.zeros((sc.n**sc.m, width))
    binv = np.zeros((sc.dim, sc.dim))
    for b in blocks:
        copy[b.rows[:, :, None], b.z.T] = b.copy[:, None, :]
        ycols = (np.arange(f)[:, None, None] * width + b.z).reshape(-1, b.z.shape[1])
        binv[ycols[:, None, :], b.at[None, :, :]] = b.binv[:, :, None]
    # (P(sigma) x)[beta] = x[beta o sigma], on every multi-index beta.
    words = np.stack(np.unravel_index(positions, (sc.n,) * sc.m), axis=-1)
    perms = np.eye(len(positions))[kchi.symclass._encode(words[:, tableaux] + 1, sc.n).T]
    block = kchi.symclass._OrbitBlock(
        rows=positions[:, None],
        cols=np.sort(np.concatenate([b.rows[b.cols] for b in blocks], axis=None)),
        at=np.arange(sc.dim)[:, None],
        ortho_t=sc.inclusion.T.copy(),
        coeffs=sc.basis_b,
        copy=copy,
        z=np.arange(width)[:, None],
        binv=binv,
        dual=binv.reshape(f, width, sc.dim) @ sc.inclusion.T @ perms,
        frame=np.linalg.inv(binv).reshape(sc.dim, f, width).transpose(1, 0, 2),
    )
    return dataclasses.replace(sc, orbit_blocks=(block,))


def dense_lift(sc, m_w):
    # M = B (I (x) M_W) B^-1 with B and B^-1 scattered from each orbit
    # block's frame and binv into dense (dim, dim) matrices, for M_W as the
    # partial trace leaves it; column t * width + z of B is the copy column
    # z of translate t.
    f, width = len(sc.orbit_blocks[0].frame), len(m_w)
    b_mat, binv = np.zeros((sc.dim, sc.dim)), np.zeros((sc.dim, sc.dim))
    for b in sc.orbit_blocks:
        ycols = (np.arange(f)[:, None, None] * width + b.z).reshape(-1, b.z.shape[1])
        binv[ycols[:, None, :], b.at[None, :, :]] = b.binv[:, :, None]
        frame = b.frame.transpose(1, 0, 2).reshape(len(b.at), -1)
        b_mat[b.at[:, None, :], ycols[None, :, :]] = frame[:, :, None]
    copies = m_w.view(np.complex128).transpose(1, 0, 2)
    return np.stack([b_mat @ np.kron(np.eye(f), x) @ binv for x in copies])


def dense_compress(sc, mats, factor=1):
    # The kernel's partial trace, lifted by dense_lift.
    return dense_lift(sc, kchi.symclass._partial_trace(sc, mats, factor))


@pytest.mark.parametrize("chi, n", ORBIT_BLOCK_CLASSES)
def test_the_orbit_block_product_matches_the_dense_product(chi, n):
    # k_chi_matrix, dk_kchi for k = 0..m and a stacked _dk_stack take one
    # product per composition and tableau; against the dense partial trace
    # of the same chains, lifted through dense B and B^-1, and against the
    # per-arrangement reference, relative to the largest entry.
    sc = build_symmetry_class(chi, n)
    dense = dense_product_class(sc)
    rng = sample_rng(19, 0)
    t = random_matrix(n, rng)

    def check(got, want):
        assert np.abs(got - want).max() <= ORBIT_BLOCK_TOL * np.abs(want).max()

    got = k_chi_matrix(sc, t)
    check(got, dense_compress(dense, [t] * sc.m)[0])
    check(got, reference_compress(sc, [t] * sc.m))
    for k in range(sc.m + 1):
        xs = [random_matrix(n, rng) for _ in range(k)]
        got = dk_kchi(sc, t, xs)
        check(got, dense_compress(dense, *_dk_factors(dense, t, xs))[0])
        check(got, reference_dk_kchi(sc, t, xs))
    xs = [np.array([random_matrix(n, rng) for _ in range(3)]) for _ in range(min(2, sc.m))]
    got = _dk_stack(sc, t, xs)
    check(got, dense_compress(dense, *_dk_factors(dense, t, xs)))
    for s in range(3):
        check(got[s], reference_dk_kchi(sc, t, [x[s] for x in xs]))


COPY_CLASSES = [
    (Partition((2, 1)), 3),
    (Partition((3, 1)), 3),
    (Partition((2, 2)), 3),
    (Partition((2, 1, 1)), 3),
    (Partition((2, 2, 1)), 3),
    (Partition((3, 2)), 2),
    (Partition((4, 1)), 2),
]


@pytest.mark.parametrize("chi, n", COPY_CLASSES)
def test_the_copy_route_matches_the_per_arrangement_sum(chi, n):
    # The kernel sums on one Schur-module copy (dim / f^chi columns) and
    # reads the rest from the translates; k_chi_matrix, sym_op_product and
    # _dk_stack for k = 0..m, on shared and on stacked directions, match the
    # per-arrangement sum on all of V within 1e-14 of the largest entry.
    sc = build_symmetry_class(chi, n)
    m = sc.m
    rng = sample_rng(20, 0)
    t = random_matrix(n, rng)

    def check(got, want):
        assert np.abs(got - want).max() <= ORBIT_BLOCK_TOL * np.abs(want).max()

    check(k_chi_matrix(sc, t), reference_compress(sc, [t] * m))
    ops = [random_matrix(n, rng) for _ in range(m)]
    check(sym_op_product(sc, ops), reference_compress(sc, ops))
    for k in range(m + 1):
        xs = [random_matrix(n, rng) for _ in range(k)]
        check(_dk_stack(sc, t, xs)[0], reference_dk_kchi(sc, t, xs))
        stacks = [np.array([random_matrix(n, rng) for _ in range(2)]) for _ in range(k)]
        got = _dk_stack(sc, t, stacks)
        for s in range(len(got)):
            check(got[s], reference_dk_kchi(sc, t, [x[s] for x in stacks]))


@pytest.mark.parametrize(
    "chi, n",
    [
        (Partition((2,)), 4),
        (Partition((1, 1)), 5),
        (Partition((3,)), 3),
        (Partition((1, 1, 1)), 4),
        (Partition((4,)), 3),
        (Partition((1, 1, 1, 1)), 4),
        (Partition((6,)), 2),
    ],
)
def test_one_dimensional_characters_run_on_v_itself(chi, n):
    # f^chi = 1 for (m) and (1^m): the one copy is the whole class, so the
    # kernel's one chain starts from V itself, with the identity as the
    # only tableau, each orbit's copy column is its basis column, and
    # B = B^-1 = [[1.0]] make the lift return M_W with its bits.
    sc = build_symmetry_class(chi, n)
    assert np.array_equal(sc.copy_columns, sc.inclusion)
    for block in sc.orbit_blocks:
        assert np.array_equal(block.z, block.at)
        assert np.array_equal(block.binv, np.ones((1, 1)))
        assert np.array_equal(block.frame, np.ones((1, 1, 1)))
    # M_W as the partial trace leaves it: rows, samples, (re, im) columns.
    m_w = sample_rng(21, 0).standard_normal((sc.dim, 2, 2 * sc.dim))
    want = m_w.view(np.complex128).transpose(1, 0, 2).copy()
    assert np.array_equal(kchi.symclass._lift(sc, m_w), want)


# (chi, n, widths): f^chi = 2, 3, 5 and 16, and the copy widths rank /
# f^chi of their compositions.
LIFT_CLASSES = [
    (Partition((2, 2)), 4, {1, 2}),
    (Partition((3, 1)), 4, {1, 2, 3}),
    (Partition((3, 2)), 4, {1, 2, 3}),
    (Partition((3, 2, 1)), 3, {1, 2}),
    (Partition((3, 2, 1)), 4, {1, 2, 4}),
]
# The lift against its dense references, relative to the largest entry of
# the reference; the largest error seen on these classes is 2.4e-15.
LIFT_TOL = 1e-14


def dense_symmetrized(mats):
    # The mean over the distinct arrangements of np.kron of the factors.
    reps, orders = _distinct_arrangements(mats)
    return sum(functools.reduce(np.kron, [reps[i] for i in order]) for order in orders) / len(orders)


@pytest.mark.parametrize("chi, n, widths", [case for case in LIFT_CLASSES if case[1] ** case[0].size <= 1024])
def test_the_lift_matches_the_dense_compression(chi, n, widths):
    # K_chi and a stacked D^1 K_chi against V.T S V, with V the inclusion
    # and S the dense mean of np.kron over the arrangements of the factors.
    sc = build_symmetry_class(chi, n)
    assert {len(b.z) for b in sc.orbit_blocks} == widths
    v, rng = sc.inclusion, sample_rng(24, 0)
    t = random_matrix(n, rng)
    xs = [np.array([random_matrix(n, rng) for _ in range(3)])]
    want = [v.T @ dense_symmetrized([t] * sc.m) @ v]
    want += [sc.m * v.T @ dense_symmetrized([t] * (sc.m - 1) + [x]) @ v for x in xs[0]]
    got = [k_chi_matrix(sc, t), *_dk_stack(sc, t, xs)]
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= LIFT_TOL * np.abs(w).max()


@pytest.mark.parametrize("chi, n, widths", LIFT_CLASSES)
def test_the_lift_matches_dense_translates(chi, n, widths):
    # B (I (x) M_W) B^-1 with dense B and B^-1, on random M_W at one sample
    # and at three.
    sc = build_symmetry_class(chi, n)
    assert {len(b.z) for b in sc.orbit_blocks} == widths
    width = sc.dim // degree(chi)
    for samples in (1, 3):
        m_w = sample_rng(25, samples).standard_normal((width, samples, 2 * width))
        want = dense_lift(sc, m_w)
        assert np.abs(kchi.symclass._lift(sc, m_w) - want).max() <= LIFT_TOL * np.abs(want).max()


def test_the_lift_holds_little_beside_its_result():
    # M is written once, with one composition's pair blocks beside it: at
    # (3,1)/5 the traced peak is at most 1.25 times M's bytes, where a
    # transposed copy of M would take 2.
    sc = build_symmetry_class(Partition((3, 1)), 5)
    width = sc.dim // 3
    m_w = sample_rng(26, 0).standard_normal((width, 2, 2 * width))
    tracemalloc.start()
    try:
        out = kchi.symclass._lift(sc, m_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes, (peak, out.nbytes)


COPY_TOL = 1e-14


def test_copy_columns_are_orthonormal_and_kept_on_the_class():
    # V Z on every class with n^m <= 256: orthonormal within 1e-14, dim /
    # f^chi columns in the class, read-only, decoded once, and the bits of
    # scattering each orbit block's copy columns.
    for m in range(1, kchi.symclass.MAX_TENSOR_FACTORS + 1):
        for n in range(1, int(256 ** (1 / m) + 1e-9) + 1):
            for chi in partitions_of(m):
                if chi.length > n:
                    continue
                sc = build_symmetry_class(chi, n)
                vz = sc.copy_columns
                assert vz.shape == (n**m, sc.dim // degree(chi))
                assert np.abs(vz.T @ vz - np.eye(vz.shape[1])).max() <= COPY_TOL
                lengths = np.linalg.norm(sc.inclusion.T @ vz, axis=0)
                assert np.abs(lengths - 1).max() <= COPY_TOL
                assert not vz.flags.writeable and sc.copy_columns is vz
                want = np.zeros_like(vz)
                for b in sc.orbit_blocks:
                    want[b.rows[:, :, None], b.z.T] = b.copy[:, None, :]
                assert np.array_equal(vz, want)


def full_width_sup(sc, t, k, samples, rng):
    # The sampled supremum with every tuple evaluated and normed on the
    # full (dim, dim) class, 20 tuples at a time.
    units = _unit_stack(sc.n, k, rng, samples).swapaxes(0, 1)
    return max(
        float(np.max(_spectral_norms(_dk_stack(sc, t, list(units[:, lo : lo + 20])))))
        for lo in range(0, samples, 20)
    )


@pytest.mark.parametrize(
    "chi, n, k",
    [((2, 1), 3, 1), ((2, 1), 3, 2), ((2, 2), 3, 2), ((2, 1), 4, 1), ((3, 1), 4, 2)],
)
@pytest.mark.parametrize("tensor", [False, True], ids=["kernel", "tensor"])
def test_copy_width_suprema_equal_the_full_width_ones(monkeypatch, chi, n, k, tensor):
    # Each sample is evaluated and normed on the one copy, f^chi times
    # narrower than the class; on either route the supremum equals the one
    # taken on the full class within 1e-13, relative.
    monkeypatch.setattr(kchi.norms, "_tensor_route", lambda *args: tensor)
    sc = build_symmetry_class(Partition(chi), n)
    t = random_matrix(n, sample_rng(28, n))
    got = kchi.norms._dk_norm_sup(sc, t, k, 150, sample_rng(29, k))
    want = full_width_sup(sc, t, k, 150, sample_rng(29, k))
    assert abs(got - want) <= REFERENCE_TOL * want


def test_the_tensor_evaluates_only_sorted_unit_tuples(monkeypatch):
    # D^k K_chi is symmetric in its directions: (2,1)/3 at k = 2 sends the
    # C(9 + 1, 2) = 45 sorted of its 81 matrix-unit tuples through the
    # kernel, and each of the other rows equals its sorted tuple's.
    evaluated = []
    dk_copy = kchi.norms._dk_copy

    def counting(sc, t, xs):
        evaluated.append(len(xs[0]))
        return dk_copy(sc, t, xs)

    monkeypatch.setattr(kchi.norms, "_dk_copy", counting)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_matrix(3, sample_rng(22, 0))
    tensor = _derivative_tensor(sc, t, 2, 16)
    assert sum(evaluated) == math.comb(10, 2)
    assert np.array_equal(tensor.reshape(9, 9, -1), tensor.reshape(9, 9, -1).swapaxes(0, 1))


IMMANANT_CHIS = [chi for m in range(1, 6) for chi in partitions_of(m)]


@pytest.mark.parametrize("chi", IMMANANT_CHIS, ids=str)
def test_immanant_sums_match_the_per_arrangement_sum(chi):
    # D^k d_chi for k = 0..n and the mixed immanant, on each kind of
    # direction tuple and on directions equal to the base point, as (n, n)
    # matrices and as (S, n, n) stacks, against the mean over every distinct
    # column assignment.
    n = chi.size
    rng = sample_rng(18, n)
    a = random_matrix(n, rng)
    draw_stack = lambda: np.array([random_matrix(n, rng) for _ in range(2)])
    for k in range(n + 1):
        for xs in direction_kinds(k, lambda: random_matrix(n, rng)) + [[a] * k]:
            assert close_to_reference(dk_immanant(chi, a, xs), reference_dk_immanant(chi, a, xs))
            mats = [a] * (n - k) + xs
            assert close_to_reference(mixed_immanant(chi, mats), reference_mixed_immanant(chi, mats))
        for xs in direction_kinds(k, draw_stack):
            got = kchi.norms._dk_immanant_raw(chi, a, xs)
            for s, value in enumerate(np.broadcast_to(got, (2,))):
                want = reference_dk_immanant(chi, a, [x[s] for x in xs])
                assert close_to_reference(value, want)


@pytest.mark.parametrize("chi, n", SMALL_CLASSES)
def test_mixed_immanant_matrix_matches_the_per_arrangement_sum(chi, n):
    # Every entry is the mixed immanant of the submatrices A[gamma|delta]
    # and X_i[gamma|delta] over the multi-indices of delta_hat.
    sc = build_symmetry_class(chi, n)
    rng = sample_rng(19, 0)
    a = random_matrix(n, rng)
    index = np.array([alpha.entries for alpha in sc.delta_hat]) - 1
    at = (index[:, None, :, None], index[None, :, None, :])
    for k in range(sc.m + 1):
        for xs in direction_kinds(k, lambda: random_matrix(n, rng)):
            mats = [a] * (sc.m - k) + xs
            want = reference_mixed_immanant(chi, [mat[at] for mat in mats])
            assert close_to_reference(mixed_immanant_matrix(sc, a, xs), want)


def count_column_gathers(monkeypatch):
    # Records, per mixed-immanant sum, how often it gathered a column.
    calls = []
    arrangement_sum = kchi.norms._arrangement_sum

    def counting(apply, w, factors, slots):
        calls.append(0)

        def counted(*args):
            calls[-1] += 1
            return apply(*args)

        return arrangement_sum(counted, w, factors, slots)

    monkeypatch.setattr(kchi.norms, "_arrangement_sum", counting)
    return calls


def test_column_gathers_follow_the_sub_multisets(monkeypatch):
    # Four distinct arguments take 4 * 2^3 = 32 gathers, where summing
    # their 4! arrangements one at a time took 4 * 24 = 96; d_chi itself,
    # one argument in every column, takes n.  No sum gathers more than n
    # per distinct arrangement.
    calls = count_column_gathers(monkeypatch)
    chi = Partition((2, 1, 1))
    rng = sample_rng(22, 0)
    a, *xs = [random_matrix(4, rng) for _ in range(5)]
    for call, count, arrangements in [
        (lambda: mixed_immanant(chi, xs), 32, 24),
        (lambda: kchi.immanant(chi, a), 4, 1),
        (lambda: dk_immanant(chi, a, xs[:1]), 10, 4),
        (lambda: dk_immanant(chi, a, xs[:2]), 20, 12),
        (lambda: dk_immanant(chi, a, [xs[0], xs[0]]), 12, 6),
    ]:
        calls.clear()
        call()
        assert calls == [count] and count <= 4 * arrangements


def test_an_immanant_supremum_stays_within_its_chunk_budget():
    # The sum's live states at (2,2,1,1), k = 6 are sized into the chunk,
    # so its traced peak stays within SAMPLE_CHUNK_BYTES; summing the 720
    # arrangements one at a time peaked at 5.2 MB.
    chi = Partition((2, 2, 1, 1))
    a = random_matrix(6, sample_rng(23, 0))
    tracemalloc.start()
    try:
        immanant_bound_verify(chi, a, 6, samples=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_CHUNK_BYTES


def test_the_permanent_slack_supremum_stays_within_its_chunk_budget():
    # verify's strict-slack row: the permanent of diag(1, 0) at k = 1 over
    # SLACK_SAMPLES tuples, whose chunks are sized by the draw, not by the
    # sum's five arrays of 2! entries.
    a = np.diag([1.0, 0.0]).astype(np.complex128)
    tracemalloc.start()
    try:
        immanant_bound_verify(Partition((2,)), a, 1, samples=kchi.verify.SLACK_SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_CHUNK_BYTES


def count_axis_products(monkeypatch):
    # Records, per call of the axis-product helper, whether it ran on the
    # sample axis.
    calls = []
    product = kchi.symclass._axis_product

    def counting(n, mat, w, axis):
        calls.append(mat.ndim == 3 or len(w) > 1)
        return product(n, mat, w, axis)

    monkeypatch.setattr(kchi.symclass, "_axis_product", counting)
    return calls


def test_axis_products_follow_the_tableau_chains(monkeypatch):
    # One chain of m axis products per distinct order that the standard
    # tableaux give the factors: five distinct factors at (3,2)/2 take all
    # 5 chains, 25 products, where their sub-multiset sums took 80;
    # {T, X1, X2, X3} at (3,1)/2 takes 3 * 4 = 12 (was 32), {T, T, T, X}
    # two chains (X on either corner box), 8 (was 10), and K_chi m.  At
    # (3,2,1)/3, {T^5, X} takes 3 chains, 18 products (was 16), and six
    # distinct factors 16 chains, 96 (was 192).
    calls = count_axis_products(monkeypatch)
    rng = sample_rng(15, 0)
    sc5 = build_symmetry_class(Partition((3, 2)), 2)
    sc4 = build_symmetry_class(Partition((3, 1)), 2)
    sc6 = build_symmetry_class(Partition((3, 2, 1)), 3)
    xs = [random_matrix(2, rng) for _ in range(5)]
    ys = [random_matrix(3, rng) for _ in range(6)]
    for call, count in [
        (lambda: sym_op_product(sc5, xs), 25),
        (lambda: k_chi_matrix(sc5, xs[0]), 5),
        (lambda: dk_kchi(sc4, xs[0], xs[1:4]), 12),
        (lambda: dk_kchi(sc4, xs[0], xs[1:2]), 8),
        (lambda: k_chi_matrix(sc4, xs[0]), 4),
        (lambda: dk_kchi(sc6, ys[0], ys[1:2]), 18),
        (lambda: dk_kchi(sc6, ys[0], ys), 96),
    ]:
        calls.clear()
        call()
        assert len(calls) == count and not any(calls)


@pytest.mark.parametrize("chi, n", [(Partition((3, 1)), 4), (Partition((2, 2, 1)), 3)])
def test_chains_are_shared_by_the_factors_values(monkeypatch, chi, n):
    # Factors are labelled by value: a direction and its copy name the same
    # factor, so they share chains and give the same bits.
    calls = count_axis_products(monkeypatch)
    sc = build_symmetry_class(chi, n)
    rng = sample_rng(24, 0)
    t, x, y = (random_matrix(n, rng) for _ in range(3))
    results = []
    for xs in ([x, x, y], [x, x.copy(), y]):
        calls.clear()
        results.append(dk_kchi(sc, t, xs))
        results.append(len(calls))
    assert np.array_equal(results[0], results[2]) and results[1] == results[3]


def test_the_symmetrized_product_does_not_depend_on_the_order():
    # Each order of five distinct operators at (3,2)/2 names other factors
    # on each tableau's chain; the results agree within 1e-14 of the
    # largest entry.
    sc = build_symmetry_class(Partition((3, 2)), 2)
    rng = sample_rng(25, 0)
    ops = [random_matrix(2, rng) for _ in range(5)]
    want = sym_op_product(sc, ops)
    for order in [(4, 3, 2, 1, 0), (1, 0, 2, 3, 4), (2, 4, 0, 3, 1)]:
        got = sym_op_product(sc, [ops[i] for i in order])
        assert np.abs(got - want).max() <= ORBIT_BLOCK_TOL * np.abs(want).max()


@pytest.mark.parametrize(
    "chi, n", [(Partition((2, 1)), 3), (Partition((3, 1)), 2), (Partition((3, 2)), 2)]
)
@pytest.mark.parametrize("k", [1, 2])
def test_stacked_products_do_not_outnumber_the_arrangements(monkeypatch, chi, n, k):
    # Summing each of the m!/(m-k)! arrangements of T^(m-k) X1..Xk took k
    # products on the sample axis per arrangement.
    calls = count_axis_products(monkeypatch)
    rng = sample_rng(16, 0)
    sc = build_symmetry_class(chi, n)
    xs = [np.array([random_matrix(n, rng) for _ in range(3)]) for _ in range(k)]
    _dk_stack(sc, random_matrix(n, rng), xs)
    assert sum(calls) <= k * math.factorial(sc.m) // math.factorial(sc.m - k)


def test_a_derivative_holds_no_more_than_three_stacks(monkeypatch):
    # Peak traced memory of D^k K_chi at (3,1)/6 for every k stays within
    # three (n^m, dim) complex arrays and the (dim, dim) result.
    sc = build_symmetry_class(Partition((3, 1)), 6)
    rng = sample_rng(17, 0)
    t = random_matrix(6, rng)
    bound = 16 * (3 * 6**4 * sc.dim + sc.dim**2)
    for k in range(sc.m + 1):
        xs = [random_matrix(6, rng) for _ in range(k)]
        tracemalloc.start()
        try:
            dk_kchi(sc, t, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (k, peak, bound)


# The bytes a (2,1)/3 tuple at k = 2 holds through the kernel: three
# (n^m, w) = (27, 8) complex states, two (8, 8) values and two (3, 3)
# directions.
KERNEL_TUPLE_BYTES = 16 * (3 * 27 * 8 + 2 * 8 * 8 + 2 * 9)


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 1000])
def test_sampled_suprema_match_the_reference_loop(monkeypatch, samples):
    # (2,1)/3 at k = 2 has 9^2 = 81 matrix-unit tuples: samples 1 to 65
    # evaluate chunks of 64 through the kernel, 1000 contract each chunk
    # against the derivative tensor.  On either route the report equals the
    # one that takes every evaluated sample's top singular value.
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", 64 * KERNEL_TUPLE_BYTES)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_matrix(3, sample_rng(1, 10**6))
    report = dk_norm_verify(sc, t, 2, samples=samples, seed=4)
    want = reference_sup(
        lambda xs: np.linalg.norm(reference_dk_kchi(sc, t, xs), 2), 3, 2, samples, 4
    )
    assert abs(report.sample_max - want) <= KERNEL_TOL * want
    with monkeypatch.context() as patch:
        patch.setattr(kchi.norms, "_largest_spectral_norm", full_svd_reducer)
        assert dk_norm_verify(sc, t, 2, samples=samples, seed=4) == report

    chi = Partition((2, 1))
    a = random_matrix(3, sample_rng(2, 10**6))
    report = immanant_bound_verify(chi, a, 1, samples=samples, seed=6)
    want = reference_sup(lambda xs: abs(reference_dk_immanant(chi, a, xs)), 3, 1, samples, 6)
    assert abs(report.sample_sup - want) <= KERNEL_TOL * want


@pytest.mark.parametrize("seed", [0, 1])
def test_sup_rows_equal_the_full_svd_rows_from_few_svds(monkeypatch, seed):
    # The supremum criterion at max_n = 3 evaluates 1000 tuples at each of
    # 10 base points of 5 classes.  Its rows are the same bytes when every
    # evaluated sample's top singular value is taken, and at most a tenth of
    # the tuples reach the eigensolver.
    evaluated, decomposed, reducing = [], [], []
    reducer = kchi.norms._largest_spectral_norm
    top_singular_values = kchi.denselin._top_singular_values

    def counting_reducer(stack, floor):
        evaluated.append(len(stack))
        reducing.append(True)
        try:
            return reducer(stack, floor)
        finally:
            reducing.pop()

    def counting_tops(gram, exponent):
        if reducing:
            decomposed.append(len(gram))
        return top_singular_values(gram, exponent)

    monkeypatch.setattr(kchi.norms, "_largest_spectral_norm", counting_reducer)
    monkeypatch.setattr(kchi.denselin, "_top_singular_values", counting_tops)
    pruned = kchi.verify.check_sup_attainment(seed, max_n=3)
    assert sum(evaluated) == 5 * kchi.verify.SUP_DRAWS * kchi.verify.SUP_TUPLES == 50_000
    assert 0 < sum(decomposed) <= 0.1 * sum(evaluated)
    monkeypatch.setattr(kchi.norms, "_largest_spectral_norm", full_svd_reducer)
    full = kchi.verify.check_sup_attainment(seed, max_n=3)
    assert [r.to_json_obj() for r in pruned] == [r.to_json_obj() for r in full]


@pytest.mark.parametrize("exponent", [-400, 300])
def test_norm_at_extreme_magnitudes_prints_the_full_svd_bytes(
    monkeypatch, capsys, tmp_path, exponent
):
    # D^1 K_chi(T) at (2,1)/3 is quadratic in T: at 2**-400 the Gram
    # squares of its values underflow unless each sample is rescaled first,
    # and at 2**300 they overflow.
    path = tmp_path / "t.json"
    t = 2.0**exponent * random_matrix(3, sample_rng(20, 0))
    path.write_text(json.dumps(matrix_to_pairs(t)))
    argv = ["norm", "--chi", "2,1", "--n", "3", "--k", "1", "--samples", "200"]
    argv += ["--input", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    monkeypatch.setattr(kchi.norms, "_largest_spectral_norm", full_svd_reducer)
    assert (main(argv), *capsys.readouterr()) == (code, out, "")


def test_tensor_contraction_matches_the_kernel():
    # Multilinearity as a second route: the tensor built on matrix units,
    # contracted with directions that are not unit-norm, against the kernel
    # on those directions, both on the one copy of width w = dim / f^chi.
    rng = sample_rng(8, 0)
    samples = 5
    for m in range(1, 4):
        for n in range(1, 4):
            for chi in partitions_of(m):
                if chi.length > n:
                    continue
                sc = build_symmetry_class(chi, n)
                width = sc.dim // degree(chi)
                t = random_matrix(n, rng)
                for k in range(1, m + 1):
                    tensor = _derivative_tensor(sc, t, k, 7)
                    assert tensor.shape == (n ** (2 * k), width**2)
                    xs = [
                        np.array([3.0 * random_matrix(n, rng) for _ in range(samples)])
                        for _ in range(k)
                    ]
                    want = _dk_copy(sc, t, xs)
                    got = _contract(tensor, xs, width)
                    assert np.abs(got - want).max() <= KERNEL_TOL * np.abs(want).max()


def test_kernel_route_where_the_tensor_is_no_cheaper_or_too_large(monkeypatch):
    # The cli_session `norm` call, (2,1)/4 at k = 2 with 100 samples, has
    # 4^4 = 256 > 100 matrix-unit tuples; (3,1)/6 at k = 1 has a 36 x 210^2
    # tensor of 25 MB on its copy of width 630 / 3, judged without building
    # the class.  Both evaluate each chunk through the kernel.
    assert not _tensor_route(4, 20, 2, 100)
    assert not _tensor_route(6, 210, 1, 10**6)

    def no_tensor(*args):
        raise AssertionError("the tensor route was taken")

    monkeypatch.setattr(kchi.norms, "_derivative_tensor", no_tensor)
    sc = build_symmetry_class(Partition((2, 1)), 4)
    report = dk_norm_verify(sc, random_matrix(4, sample_rng(3, 0)), 2, samples=100, seed=3)
    assert report.ok


@pytest.mark.parametrize("budget", [1 << 22, SAMPLE_CHUNK_BYTES, 1 << 14, 2048])
def test_tensor_route_stays_within_the_byte_budget(monkeypatch, budget):
    # The route is taken when the tensor takes at most half the budget, and
    # then the tensor, a chunk's outer products and its values fit it
    # together: with budget 2048, (1,1)/2 at k = 2 has a 256-byte tensor
    # and takes chunks of two tuples, while (2,)/2 at k = 2 has a 2304-byte
    # tensor and keeps the kernel route.
    taken = []
    contract = kchi.norms._contract

    def recording_contract(tensor, xs, width):
        outer_bytes = 16 * len(xs[0]) * len(tensor)
        value = contract(tensor, xs, width)
        taken.append(tensor.nbytes + outer_bytes + value.nbytes)
        return value

    monkeypatch.setattr(kchi.norms, "_contract", recording_contract)
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", budget)
    rng = sample_rng(9, 0)
    routes = set()
    cases = [
        ((1, 1), 2, 1), ((1, 1), 2, 2), ((2,), 2, 2),
        ((2, 1), 3, 1), ((2, 1), 3, 2), ((3,), 3, 2),
    ]
    for chi, n, k in cases:
        sc = build_symmetry_class(Partition(chi), n)
        taken.clear()
        dk_norm_verify(sc, random_matrix(n, rng), k, samples=200, seed=1)
        width = sc.dim // degree(sc.chi)
        assert bool(taken) == _tensor_route(n, width, k, 200)
        assert all(size <= budget for size in taken)
        routes.add(bool(taken))
    assert routes == ({True, False} if budget < SAMPLE_CHUNK_BYTES else {True})


def test_sup_criterion_runs_the_kernel_on_matrix_units_only(monkeypatch):
    # Per base point the supremum criterion calls the kernel only to build
    # the derivative tensor, whose at most C(9 + 1, 2) = 45 sorted unit
    # tuples fit one chunk, and per class twice more, on the stack of its
    # base points, for the attaining directions on the full class and on
    # the copy; evaluating the 200 drawn tuples through the kernel would
    # take a call per chunk.
    calls = collections.Counter()
    partial_trace = kchi.symclass._partial_trace

    def counting_partial_trace(sc, mats, factor):
        calls[sc.chi, sc.n, mats[0].shape, mats[0].tobytes()] += 1
        return partial_trace(sc, mats, factor)

    monkeypatch.setattr(kchi.symclass, "_partial_trace", counting_partial_trace)
    monkeypatch.setattr(kchi.verify, "SUP_TUPLES", 200)
    monkeypatch.setattr(kchi.verify, "SUP_DRAWS", 2)
    results = kchi.verify.check_sup_attainment(seed=0, max_n=3)
    assert all(r.passed for r in results)
    monkeypatch.undo()
    base_points = collections.Counter()
    stacked = collections.Counter()
    for (chi, n, shape, _), count in calls.items():
        if shape == (2, n, n):
            stacked[chi, n] += count
            continue
        assert shape == (n, n) and count == 1
        base_points[chi, n] += 1
    assert len(base_points) == 5 and set(base_points.values()) == {2}
    assert stacked == dict.fromkeys(base_points, 2)


@pytest.mark.parametrize(
    "rows, dim, f",
    # (n^m, dim, f^chi) of (2,1)/4, the largest class run_verify samples,
    # of (3,1)/4, of the class_ladder rung (3,1)/6, and of (2,1,1)/8 at the
    # dimension cap, whose inclusion alone is 74 MB.
    [
        pytest.param(64, 40, 2, id="64-40"),
        pytest.param(256, 135, 3, id="256-135"),
        pytest.param(1296, 630, 3, id="1296-630"),
        pytest.param(4096, 1134, 3, id="4096-1134"),
    ],
)
def test_chunk_keeps_the_kernel_stack_bounded(rows, dim, f):
    # A kernel tuple holds three (n^m, w) states and two (w, w) values,
    # w = dim / f^chi: a chunk takes as many as fit the budget beside what
    # it holds besides, and one when none does.
    width = dim // f
    tuple_bytes = 16 * (3 * rows * width + 2 * width * width)
    for held in (0, 100_000):
        chunk = _sample_chunk(tuple_bytes, held)
        assert chunk >= 1
        if chunk > 1:
            assert chunk * tuple_bytes + held <= SAMPLE_CHUNK_BYTES
        assert (chunk + 1) * tuple_bytes + held > SAMPLE_CHUNK_BYTES


def test_verifiers_draw_chunks_sized_from_the_class(monkeypatch):
    # With the byte budget shrunk, (2,1)/3 at k = 2 (KERNEL_TUPLE_BYTES per
    # tuple) fits 5 tuples per chunk and the n = 2 permanent at k = 1 fits
    # 7: its draw's four (2, 2) arrays outweigh its five arrays of 2!
    # entries (three live states, a product and its gathered entries) and
    # its direction.  The suprema still equal the reference loop's.
    sizes = []
    stack = kchi.norms._unit_stack

    def recording_stack(n, k, rng, count):
        sizes.append(count)
        return stack(n, k, rng, count)

    monkeypatch.setattr(kchi.norms, "_unit_stack", recording_stack)
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", 5 * KERNEL_TUPLE_BYTES + 100)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_matrix(3, sample_rng(1, 10**6))
    report = dk_norm_verify(sc, t, 2, samples=23, seed=4)
    assert sizes == [5, 5, 5, 5, 3]
    want = reference_sup(
        lambda xs: np.linalg.norm(reference_dk_kchi(sc, t, xs), 2), 3, 2, 23, 4
    )
    assert abs(report.sample_max - want) <= KERNEL_TOL * want

    sizes.clear()
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", 16 * 4 * 4 * 7)
    chi = Partition((2,))
    a = random_matrix(2, sample_rng(2, 10**6))
    report = immanant_bound_verify(chi, a, 1, samples=23, seed=6)
    assert sizes == [7, 7, 7, 2]
    want = reference_sup(lambda xs: abs(reference_dk_immanant(chi, a, xs)), 2, 1, 23, 6)
    assert abs(report.sample_sup - want) <= KERNEL_TOL * want


@pytest.mark.parametrize(
    "criterion, scope",
    [
        (kchi.verify.check_sup_attainment, {"SUP_TUPLES": 30, "SUP_DRAWS": 2}),
        (kchi.verify.check_immanant_bound, {"IMMANANT_TUPLES": 30, "SLACK_SAMPLES": 50}),
    ],
)
def test_sampled_rows_continue_their_base_points_generators(monkeypatch, criterion, scope):
    # Each base point of the two sampled criteria reads a generator of its
    # own, and its row's tuples are read from that generator before the
    # next base point is drawn; the strict-slack row reads one more.
    opened = []
    drawn = collections.Counter()
    unit_stack = kchi.norms._unit_stack
    draw_base = kchi.verify.sample_rng

    def recording_rng(seed, index):
        rng = draw_base(seed, index)
        opened.append((index, rng))
        return rng

    def recording_stack(n, k, rng, count):
        assert rng is opened[-1][1]
        drawn[id(rng)] += count
        return unit_stack(n, k, rng, count)

    monkeypatch.setattr(kchi.norms, "_unit_stack", recording_stack)
    monkeypatch.setattr(kchi.verify, "sample_rng", recording_rng)
    for name, value in scope.items():
        monkeypatch.setattr(kchi.verify, name, value)
    results = criterion(seed=2, max_n=3)
    assert all(r.passed for r in results)
    indices = [index for index, _ in opened]
    assert len(set(indices)) == len(indices)
    want = [30] * len(opened)
    if "SLACK_SAMPLES" in scope:
        want[-1] = scope["SLACK_SAMPLES"]
    assert [drawn[id(rng)] for _, rng in opened] == want


# Every sample count of the verify criteria, shrunk so each runs in well
# under a second.
SMALL_SCOPE = {
    "SUP_TUPLES": 5,
    "SUP_DRAWS": 1,
    "FD_CASES": 1,
    "IMMANANT_TUPLES": 5,
    "SLACK_SAMPLES": 5,
    "PERTURBATIONS": 4,
}


@pytest.mark.parametrize("label, criterion", kchi.verify.CRITERIA)
def test_every_criterion_follows_one_draw_schedule(monkeypatch, label, criterion):
    # A criterion's i-th random draw reads sample_rng(seed, i): the indices
    # it opens are 0, 1, ..., N-1 in order, all at the seed it was given.
    opened = []
    draw = kchi.verify.sample_rng

    def recording_rng(seed, index):
        opened.append((seed, index))
        return draw(seed, index)

    monkeypatch.setattr(kchi.verify, "sample_rng", recording_rng)
    for name, value in SMALL_SCOPE.items():
        monkeypatch.setattr(kchi.verify, name, value)
    assert criterion(seed=11, max_n=3)
    if criterion in (kchi.verify.check_membership_routes, kchi.verify.check_characters):
        assert opened == []
    else:
        assert opened == [(11, i) for i in range(len(opened))] and opened, label

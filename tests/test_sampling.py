"""The stacked sampling route against the one-sample-at-a-time reference.

The sampling verifiers draw their random unit tuples at most SAMPLE_CHUNK
at a time and evaluate each chunk through the batched compression kernel.  The
reference route below is the per-sample loop they replaced: one
``random_unit_matrix`` draw per direction, one kernel call per tuple, with
the factors applied to the tensor axes in order.
"""

import math

import numpy as np
import pytest

import kchi.norms
from kchi import (
    Partition,
    build_symmetry_class,
    dk_kchi,
    dk_norm_verify,
    immanant_bound_verify,
    partitions_of,
    random_matrix,
    random_unit_matrix,
    sample_rng,
)
from kchi.denselin import _distinct_arrangements
from kchi.norms import SAMPLE_CHUNK, SAMPLE_CHUNK_BYTES, _sample_chunk, _unit_stack
from kchi.symclass import _dk_stack
from kchi.symgroup import _permutation_characters

KERNEL_TOL = 1e-12


def reference_compress(sc, mats):
    # V* (mean over distinct arrangements of A_1 (x) ... (x) A_m) V for one
    # tuple of (n, n) factors, each applied to its own tensor axis in order.
    n, m, v = sc.n, sc.m, sc.inclusion
    reps, orders = _distinct_arrangements(mats)
    total = np.zeros_like(v)
    for order in orders:
        w = v
        for i, label in enumerate(order):
            w = reps[label] @ w.reshape(n**i, n, -1)
        total += w.reshape(n**m, sc.dim)
    return (v.conj().T @ total) / len(orders)


def reference_dk_kchi(sc, t, xs):
    k = len(xs)
    factor = math.factorial(sc.m) // math.factorial(sc.m - k)
    return factor * reference_compress(sc, [t] * (sc.m - k) + list(xs))


def reference_dk_immanant(chi, a, xs):
    # D^k d_chi(a)(xs) by the permutation sum over every column assignment.
    n, k = chi.size, len(xs)
    images, values = _permutation_characters(chi)
    mats = [a] * (n - k) + list(xs)
    reps, orders = _distinct_arrangements(mats)
    total = 0.0
    for order in orders:
        scratch = np.stack([reps[label][:, j] for j, label in enumerate(order)], axis=1)
        total += values @ scratch[np.arange(n), images].prod(axis=1)
    return math.factorial(n) // math.factorial(n - k) * total / len(orders)


def reference_draws(n, k, seed, start, count):
    return np.array(
        [
            [random_unit_matrix(n, rng) for _ in range(k)]
            for rng in (sample_rng(seed, start + i) for i in range(count))
        ]
    )


def reference_sup(evaluate, n, k, samples, seed):
    best = 0.0
    for i in range(samples):
        rng = sample_rng(seed, i)
        best = max(best, evaluate([random_unit_matrix(n, rng) for _ in range(k)]))
    return best


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_stacked_draws_equal_per_sample_draws(n, k):
    got = np.concatenate(
        [_unit_stack(n, k, 5, 17 + lo, SAMPLE_CHUNK) for lo in range(0, 2048, SAMPLE_CHUNK)]
    )
    assert np.array_equal(got, reference_draws(n, k, 5, 17, 2048))


def test_a_rejected_draw_is_redrawn_as_random_unit_matrix_redraws(monkeypatch):
    # The first Gaussian of sample 2's stream is made zero, on every replay
    # of that stream, so random_unit_matrix must reject it and draw again.
    n, k, seed = 3, 2, 9
    first = sample_rng(seed, 2).bit_generator.state
    draw = kchi.norms.random_matrix

    def zero_first_draw(size, rng):
        at_start = rng.bit_generator.state == first
        g = draw(size, rng)
        return np.zeros_like(g) if at_start else g

    unpatched = _unit_stack(n, k, seed, 0, 4)
    monkeypatch.setattr(kchi.norms, "random_matrix", zero_first_draw)
    got = _unit_stack(n, k, seed, 0, 4)
    want = reference_draws(n, k, seed, 0, 4)
    assert np.array_equal(got, want)
    assert not np.array_equal(got[2], unpatched[2])
    assert np.array_equal(np.delete(got, 2, axis=0), np.delete(unpatched, 2, axis=0))


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


@pytest.mark.parametrize(
    "samples", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 1000]
)
def test_sampled_suprema_match_the_reference_loop(samples):
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_matrix(3, sample_rng(1, 10**6))
    report = dk_norm_verify(sc, t, 2, samples=samples, seed=4)
    want = reference_sup(
        lambda xs: np.linalg.norm(reference_dk_kchi(sc, t, xs), 2), 3, 2, samples, 4
    )
    assert abs(report.sample_max - want) <= KERNEL_TOL * want

    chi = Partition((2, 1))
    a = random_matrix(3, sample_rng(2, 10**6))
    report = immanant_bound_verify(chi, a, 1, samples=samples, seed=6)
    want = reference_sup(lambda xs: abs(reference_dk_immanant(chi, a, xs)), 3, 1, samples, 6)
    assert abs(report.sample_sup - want) <= KERNEL_TOL * want


@pytest.mark.parametrize(
    "rows, dim",
    # (n^m, dim) of (2,1)/4, the largest class run_verify samples, of
    # (3,1)/4, of the class_ladder rung (3,1)/6, and of (2,1,1)/8 at the
    # dimension cap, whose inclusion alone is 74 MB.
    [(64, 40), (256, 135), (1296, 630), (4096, 1134)],
)
def test_chunk_keeps_the_kernel_stack_bounded(rows, dim):
    tuple_bytes = 16 * rows * dim
    chunk = _sample_chunk(tuple_bytes)
    assert 1 <= chunk <= SAMPLE_CHUNK
    assert chunk * tuple_bytes <= max(SAMPLE_CHUNK_BYTES, tuple_bytes)
    if 2 * tuple_bytes > SAMPLE_CHUNK_BYTES:
        assert chunk == 1
    if SAMPLE_CHUNK * tuple_bytes <= SAMPLE_CHUNK_BYTES:
        assert chunk == SAMPLE_CHUNK


def test_verifiers_draw_chunks_sized_from_the_class(monkeypatch):
    # With the byte budget shrunk, (2,1)/3 (n^m * dim = 432) fits 5 tuples
    # per chunk and the n = 3 immanant sum (3! * 3 entries) fits 7; the
    # suprema still equal the reference loop's.
    sizes = []
    stack = kchi.norms._unit_stack

    def recording_stack(n, k, seed, start, count):
        sizes.append(count)
        return stack(n, k, seed, start, count)

    monkeypatch.setattr(kchi.norms, "_unit_stack", recording_stack)
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", 16 * 432 * 5 + 100)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    t = random_matrix(3, sample_rng(1, 10**6))
    report = dk_norm_verify(sc, t, 2, samples=23, seed=4)
    assert sizes == [5, 5, 5, 5, 3]
    want = reference_sup(
        lambda xs: np.linalg.norm(reference_dk_kchi(sc, t, xs), 2), 3, 2, 23, 4
    )
    assert abs(report.sample_max - want) <= KERNEL_TOL * want

    sizes.clear()
    monkeypatch.setattr(kchi.norms, "SAMPLE_CHUNK_BYTES", 16 * 18 * 7)
    chi = Partition((2, 1))
    a = random_matrix(3, sample_rng(2, 10**6))
    report = immanant_bound_verify(chi, a, 1, samples=23, seed=6)
    assert sizes == [7, 7, 7, 2]
    want = reference_sup(lambda xs: abs(reference_dk_immanant(chi, a, xs)), 3, 1, 23, 6)
    assert abs(report.sample_sup - want) <= KERNEL_TOL * want

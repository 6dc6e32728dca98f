"""Tests for the dense linear algebra conventions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchi import (
    DomainError,
    NumericError,
    ResourceError,
    as_matrix,
    gram_schmidt,
    hermitian_eigenvalues,
    kron,
    matrix_from_pairs,
    matrix_to_pairs,
    polar,
    singular_values,
    spectral_norm,
    svd,
)
import kchi.denselin
from kchi.denselin import _largest_spectral_norm, _spectral_norms
from test_symclass import random_unitary

RECON_TOL = 1e-10
ORACLE_TOL = 1e-9


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(DomainError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DomainError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        as_matrix([[1.0, 2.0]], square=True)


def test_svd_identity():
    u, s, v = svd(np.eye(3))
    np.testing.assert_allclose(s, np.ones(3))


def test_svd_diagonal_example():
    u, s, v = svd(np.diag([3.0, -4.0]))
    np.testing.assert_allclose(s, [4.0, 3.0])


def test_svd_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    for size in (2, 5, 8):
        a = random_complex(rng, size)
        u, s, v = svd(a)
        np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, a, atol=RECON_TOL)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(size), atol=RECON_TOL)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(size), atol=RECON_TOL)
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def test_singular_values_against_gram_eigenvalues():
    # s_i(A) = sqrt(eigenvalues of A*A), an independent route
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_complex(rng, 5)
        expected = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))[::-1]
        np.testing.assert_allclose(singular_values(a), expected, atol=ORACLE_TOL)


def test_svd_rejects_oversize():
    with pytest.raises(ResourceError):
        singular_values(np.eye(401))


def test_svd_overflow_is_a_numeric_error():
    # Finite entries whose largest singular value, 2e308, overflows.
    big = np.full((2, 2), 1e308)
    with pytest.raises(NumericError):
        singular_values(big)
    with pytest.raises(NumericError):
        svd(big)


def test_polar_of_unitary():
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    p, w = polar(rot)
    np.testing.assert_allclose(p, np.eye(2), atol=RECON_TOL)
    np.testing.assert_allclose(w, rot.T.conj(), atol=RECON_TOL)


def test_polar_of_positive_semidefinite():
    t = np.diag([2.0, 1.0, 0.5])
    p, w = polar(t)
    np.testing.assert_allclose(p, t, atol=RECON_TOL)
    np.testing.assert_allclose(w, np.eye(3), atol=RECON_TOL)


def test_polar_factorization_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_complex(rng, 4)
        p, w = polar(t)
        np.testing.assert_allclose(t, p @ w.conj().T, atol=RECON_TOL)
        np.testing.assert_allclose(p, t @ w, atol=RECON_TOL)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=RECON_TOL)
        np.testing.assert_allclose(p, p.conj().T, atol=RECON_TOL)
        # p is the PSD square root of t t*
        evals, evecs = np.linalg.eigh(t @ t.conj().T)
        root = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T
        np.testing.assert_allclose(p, root, atol=ORACLE_TOL)


def test_polar_eigenvalues_are_singular_values():
    rng = np.random.default_rng(5)
    t = random_complex(rng, 5)
    p, _ = polar(t)
    np.testing.assert_allclose(
        hermitian_eigenvalues(p), singular_values(t), atol=ORACLE_TOL
    )


def test_polar_near_the_largest_double_is_finite_and_halves_exactly():
    # p + p* would overflow at 1.7e308, so each half is summed instead.
    p, w = polar(np.diag([1.7e308, 1.0]))
    assert np.array_equal(p, np.diag([1.7e308, 1.0])) and np.array_equal(w, np.eye(2))
    # Halving is exact, so at normal magnitudes p has the bits of the
    # halved sum ((u s) u* + its adjoint) / 2.
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 9):
        t = random_complex(rng, n)
        u, s, _ = svd(t)
        full = (u * s) @ u.conj().T
        assert np.array_equal(polar(t)[0], (full + full.conj().T) / 2.0)


def test_spectral_norm_examples():
    assert np.isclose(spectral_norm(np.diag([1.0, -5.0])), 5.0)
    assert np.isclose(spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])), 1.0)
    assert np.isclose(spectral_norm(np.ones((2, 2))), 2.0)
    assert np.isclose(spectral_norm(np.array([[3.0], [4.0]])), 5.0)


def test_spectral_norm_past_the_largest_double_is_a_numeric_error():
    # 2e308 overflows, as in svd; warnings are errors under pytest, so none
    # is raised.
    with pytest.raises(NumericError, match="spectral norm is not finite"):
        spectral_norm(np.full((2, 2), 1e308))


def power_iteration_norm(a, steps=500):
    """Largest singular value by plain power iteration on a* a."""
    gram = a.conj().T @ a
    v = np.ones(a.shape[1], dtype=np.complex128) / np.sqrt(a.shape[1])
    for _ in range(steps):
        v = gram @ v
        v = v / np.linalg.norm(v)
    return float(np.sqrt(np.real(v.conj() @ gram @ v)))


def test_spectral_norm_against_power_iteration():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_complex(rng, 6)
        assert np.isclose(spectral_norm(a), power_iteration_norm(a), atol=1e-8)


def test_spectral_norm_inequalities():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_complex(rng, 4)
        b = random_complex(rng, 4)
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12
        assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-12


NORM_SHAPES = [(1, 1), (1, 9), (9, 1), (1, 150), (150, 1), (2, 3), (3, 2), (7, 7), (17, 40)]
NORM_SHAPES += [(40, 17), (90, 150), (150, 150)]
# Gram matrices at least _KRYLOV_MIN_DIM wide take the Lanczos route.
NORM_SHAPES += [(200, 200), (170, 420)]


@pytest.mark.parametrize("exponent", [0, -1074, -600, 600, 1000])
def test_spectral_norm_matches_the_svd(exponent):
    # The top eigenvalue of the Gram matrix gives the top singular value to
    # a few ulps per dimension.  Without the power-of-two rescaling the Gram
    # matrix underflows to zero at 2**-600 and overflows at 2**1000.
    rng = np.random.default_rng(29)
    eps = np.finfo(np.float64).eps
    for rows, cols in NORM_SHAPES:
        for x in (
            random_complex(rng, rows, cols),
            random_complex(rng, rows, 1) @ random_complex(rng, 1, cols),
        ):
            a = x * 2.0**exponent
            want = np.linalg.svd(a, compute_uv=False)[0]
            got = spectral_norm(a)
            assert abs(got - want) <= 64 * max(rows, cols) * eps * want, (rows, cols, got, want)
        assert spectral_norm(np.zeros((rows, cols))) == 0.0


@pytest.mark.parametrize("exponent", [0, -1074, -600, 600, 1000])
def test_spectral_norm_is_the_stacked_route(exponent):
    rng = np.random.default_rng(31)
    for dim in (1, 2, 5, 16, 45):
        x = random_complex(rng, dim) * 2.0**exponent
        assert spectral_norm(x) == _largest_spectral_norm(x[None], 0.0)


def test_spectral_norm_copies_the_adjoint_a_block_at_a_time():
    # The scaled matrix and its Gram matrix take one copy each; the adjoint
    # whole would take a third.
    a = random_complex(np.random.default_rng(41), 600)
    tracemalloc.start()
    try:
        spectral_norm(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * a.nbytes, peak


def with_gram_spectrum(rng, eigenvalues, right):
    # A square matrix U diag(sqrt(eigenvalues)) right*, U Haar: its Gram
    # matrix X* X is right diag(eigenvalues) right*.
    u = random_unitary(rng, len(eigenvalues))
    return (u * np.sqrt(eigenvalues)) @ right.conj().T


def planted_past_the_start(dim):
    # A matrix whose Gram matrix has top eigenvalue 1.1 with an eigenvector
    # orthogonal to the Lanczos start, next eigenvalue 1 and the rest in
    # [0, 0.1].  Lanczos settles on 1 in a few steps, long before rounding
    # can grow the planted direction, so the proof must fail.
    rng = np.random.default_rng(59)
    start = kchi.denselin._krylov_start(dim)
    q, _ = np.linalg.qr(np.column_stack([start, random_complex(rng, dim)]))
    right = np.roll(q, -1, axis=1)
    eigenvalues = np.concatenate([[1.1, 1.0], rng.uniform(0.0, 0.1, dim - 2)])
    return with_gram_spectrum(rng, eigenvalues, right)


def scaled_gram(x):
    # spectral_norm's own Gram matrix of x, and the power of two it scaled by.
    exponent = kchi.denselin._peak_exponents(x[None])[0]
    return kchi.denselin._gram(x[None] * np.ldexp(1.0, -exponent))[0], exponent


def record_lapack(monkeypatch):
    # Record a copy of each eigvalsh argument and whether each Cholesky
    # factorization succeeded.
    calls = {"eigvalsh": [], "cholesky": []}
    eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def recorded_eigvalsh(a):
        calls["eigvalsh"].append(np.array(a))
        return eigvalsh(a)

    def recorded_cholesky(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            calls["cholesky"].append(False)
            raise
        calls["cholesky"].append(True)
        return factor

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", recorded_cholesky)
    return calls


def test_the_proof_factors_the_gram_matrix_in_place():
    # Beside G the wide route holds its Lanczos basis and the Cholesky
    # factor; a proof on a copy of G would hold one more G.
    x = random_complex(np.random.default_rng(43), 600)
    gram, exponent = scaled_gram(x)
    want = gram.copy()
    tracemalloc.start()
    try:
        kchi.denselin._top_singular_values(gram[None], np.array([exponent]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gram.nbytes, peak
    assert np.array_equal(gram, want)


def test_eigensolver_failure_is_a_numeric_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    wide = planted_past_the_start(200)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    x = random_complex(np.random.default_rng(37), 4)
    with pytest.raises(NumericError):
        spectral_norm(x)
    with pytest.raises(NumericError):
        _largest_spectral_norm(np.stack([x, 2 * x]), 0.0)
    # The wide route's proof fails on this input, so it reaches eigvalsh.
    with pytest.raises(NumericError, match="spectral norm did not converge"):
        spectral_norm(wide)


def test_a_failed_proof_returns_eigvalsh_of_the_unchanged_gram_matrix(monkeypatch):
    x = planted_past_the_start(200)
    gram, exponent = scaled_gram(x)
    calls = record_lapack(monkeypatch)
    got = spectral_norm(x)
    assert calls["cholesky"] == [False]
    assert len(calls["eigvalsh"]) == 1
    assert np.array_equal(calls["eigvalsh"][0], gram)
    assert got == np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[-1]), exponent)
    assert np.isclose(got, np.sqrt(1.1))


def test_a_failing_factorization_falls_back_to_eigvalsh(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    x = random_complex(np.random.default_rng(61), 200)
    gram, exponent = scaled_gram(x)
    want = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[-1]), exponent)
    monkeypatch.setattr(np.linalg, "cholesky", fail)
    assert spectral_norm(x) == want


def test_a_triple_top_eigenvalue_is_proved(monkeypatch):
    # I_3 (x) M under a Haar conjugation, as the (3,1) classes are: each
    # singular value of M three times.
    rng = np.random.default_rng(67)
    m = random_complex(rng, 60)
    x = random_unitary(rng, 180) @ np.kron(np.eye(3), m) @ random_unitary(rng, 180)
    want = np.linalg.svd(x, compute_uv=False)
    assert np.isclose(want[2], want[0], rtol=1e-12)
    eps = np.finfo(np.float64).eps
    calls = record_lapack(monkeypatch)
    got = spectral_norm(x)
    assert calls == {"eigvalsh": [], "cholesky": [True]}
    assert abs(got - want[0]) <= 64 * 180 * eps * want[0]


def test_a_near_tie_at_the_top_is_within_the_svd_rule():
    # lambda_1 / lambda_2 = 1 + 1e-10: Lanczos cannot tell the two apart in
    # its step cap, and whichever route answers must still be accurate.
    rng = np.random.default_rng(71)
    eigenvalues = np.concatenate([[1.0 + 1e-10, 1.0], rng.uniform(0.0, 0.9, 198)])
    x = with_gram_spectrum(rng, eigenvalues, random_unitary(rng, 200))
    want = np.linalg.svd(x, compute_uv=False)[0]
    eps = np.finfo(np.float64).eps
    assert abs(spectral_norm(x) - want) <= 64 * 200 * eps * want


def test_wide_zero_and_rank_one_matrices():
    # Lanczos finds an invariant subspace at once on both; the zero matrix
    # has no proof and takes eigvalsh.  A rank-one u v* has norm |u| |v|,
    # here 3 * sqrt(256) = 48, found to a few ulps as eigvalsh finds it.
    assert spectral_norm(np.zeros((170, 200))) == 0.0
    eps = np.finfo(np.float64).eps
    x = np.zeros((256, 256))
    x[0] = 3.0
    assert abs(spectral_norm(x) - 48.0) <= 4 * eps * 48.0
    rng = np.random.default_rng(79)
    for _ in range(5):
        u, v = random_complex(rng, 200, 1), random_complex(rng, 180, 1)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(spectral_norm(u @ v.conj().T) - want) <= 4 * eps * want


def test_stacked_routes_keep_the_bits_of_spectral_norm_when_wide():
    rng = np.random.default_rng(73)
    stack = random_complex(rng, 3 * 170, 170).reshape(3, 170, 170)
    stack[1] = random_complex(rng, 170, 1) @ random_complex(rng, 1, 170)
    want = [spectral_norm(x) for x in stack]
    assert np.array_equal(_spectral_norms(stack), want)
    assert _largest_spectral_norm(stack, 0.0) == max(want)


SAMPLE_KINDS = ("gaussian", "rank one", "zero", "copy")
FLOOR_KINDS = ("zero", "below", "equal", "largest", "above")


@st.composite
def floored_stacks(draw):
    # A stack (S, dim, dim) of Gaussian, rank-one and zero samples and
    # copies of earlier ones (ties), each scaled by its own 2**e, and a
    # floor below, equal to or above the samples' spectral norms.
    count = draw(st.integers(1, 70))
    dim = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(SAMPLE_KINDS), min_size=count, max_size=count))
    low = draw(st.integers(-900, 900))
    high = draw(st.integers(low, 900))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, dim, dim), dtype=np.complex128)
    for i, kind in enumerate(kinds):
        if kind == "copy" and i:
            stack[i] = stack[rng.integers(i)]
        elif kind != "zero":
            if kind == "rank one":
                x = random_complex(rng, dim, 1) @ random_complex(rng, 1, dim)
            else:
                x = random_complex(rng, dim)
            stack[i] = x * 2.0 ** int(rng.integers(low, high + 1))
    values = np.array([spectral_norm(x) for x in stack])
    floor = {
        "zero": 0.0,
        "below": np.nextafter(values.min(), -np.inf),
        "equal": values[draw(st.integers(0, count - 1))],
        "largest": values.max(),
        "above": np.nextafter(values.max(), np.inf),
    }[draw(st.sampled_from(FLOOR_KINDS))]
    return stack, float(floor)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(floored_stacks())
def test_largest_spectral_norm_equals_the_full_svd_maximum(case):
    stack, floor = case
    assert _largest_spectral_norm(stack, floor) == max(
        floor, *(spectral_norm(x) for x in stack)
    )


@settings(deadline=None, derandomize=True, max_examples=200)
@given(floored_stacks())
def test_spectral_norms_are_each_samples_spectral_norm(case):
    stack, _ = case
    want = [spectral_norm(x) for x in stack]
    assert np.array_equal(_spectral_norms(stack), want)
    wide = stack[:, :1]
    assert np.array_equal(_spectral_norms(wide), [spectral_norm(x) for x in wide])


def test_spectral_norms_of_a_stack_holding_nan_is_a_numeric_error():
    stack = random_complex(np.random.default_rng(53), 3 * 4, 4).reshape(3, 4, 4)
    stack[1, 2, 0] = np.nan
    with pytest.raises(NumericError, match="spectral norm"):
        _spectral_norms(stack)


def spy(monkeypatch, name):
    # Replace denselin's function `name` by one that records the number of
    # samples in each call's first argument.
    calls = []
    real = getattr(kchi.denselin, name)

    def recorded(stack, *args):
        calls.append(len(stack))
        return real(stack, *args)

    monkeypatch.setattr(kchi.denselin, name, recorded)
    return calls


@pytest.mark.parametrize("floor_kind", ["zero", "median"])
def test_largest_spectral_norm_builds_each_gram_matrix_once(monkeypatch, floor_kind):
    # Each third of the samples has its Gram matrices built once; the
    # samples that pass the bound reach LAPACK through those same matrices.
    rng = np.random.default_rng(43)
    stack = random_complex(rng, 30 * 6, 6).reshape(30, 6, 6)
    values = [spectral_norm(x) for x in stack]
    floor = {"zero": 0.0, "median": float(np.median(values))}[floor_kind]
    built = spy(monkeypatch, "_gram")
    decomposed = spy(monkeypatch, "_top_singular_values")
    assert _largest_spectral_norm(stack, floor) == max(floor, *values)
    assert built == [10, 10, 10]
    assert 0 < sum(decomposed) < 30


def test_largest_spectral_norm_past_the_largest_double_is_a_numeric_error():
    # Each sample's bound overflows to inf, which keeps it, with no warning;
    # its norm then overflows too.
    stack = np.full((3, 4, 4), 1.7e308, dtype=np.complex128)
    for floor in (0.0, 1.0):
        with pytest.raises(NumericError, match="spectral norm is not finite"):
            _largest_spectral_norm(stack, floor)


def test_spectral_norm_computes_no_bound(monkeypatch):
    # Nothing can be pruned against the floor 0 of a single matrix.
    bounded = spy(monkeypatch, "_upper_bounds")
    x = random_complex(np.random.default_rng(47), 5)
    spectral_norm(x)
    assert bounded == []
    _largest_spectral_norm(np.stack([x, 2 * x, 3 * x]), 0.0)
    assert bounded == [1, 1]


def test_largest_spectral_norm_holds_about_one_more_stack():
    # The shape of a (2,1)/3 sampling chunk: the Gram temporaries, taken a
    # third of the samples at a time, and the copy sent to LAPACK each take
    # about one stack, and never at once.
    rng = np.random.default_rng(3)
    stack = random_complex(rng, 64 * 16, 16).reshape(64, 16, 16)
    for floor in (0.0, np.inf):
        tracemalloc.start()
        try:
            _largest_spectral_norm(stack, floor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stack.nbytes, (floor, peak)


def test_hermitian_eigenvalues():
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([1.0, 3.0, 2.0])), [3.0, 2.0, 1.0]
    )
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # Near the largest double: a + a* would overflow, and the norm of the
    # non-Hermitian matrix is past it, so both are taken at an exact scale.
    big = np.array([[1e308, 5e307], [5e307, -1e308]])
    assert np.array_equal(hermitian_eigenvalues(big), np.linalg.eigvalsh(big)[::-1])
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.array([[1.7e308, 6e307], [-6e307, 1.7e308]]))
    with pytest.raises(NumericError):
        hermitian_eigenvalues(np.full((2, 2), 1.7e308))


def test_kron_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    np.testing.assert_allclose(kron(a, b), expected)


def test_kron_mixed_product():
    rng = np.random.default_rng(19)
    a, b, c, d = (random_complex(rng, 3) for _ in range(4))
    np.testing.assert_allclose(
        kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=RECON_TOL
    )


def test_kron_respects_cap():
    # 65 * 64 = 4160 rows is over the 4096 cap; the check runs before np.kron
    with pytest.raises(ResourceError):
        kron(np.eye(65), np.eye(64))
    assert kron(np.ones((1, 64)), np.ones((1, 64))).shape == (1, 4096)  # exactly at the cap


def test_kron_past_the_largest_double_is_a_numeric_error():
    big = 1e200 * np.eye(2)
    with pytest.raises(NumericError, match="kron is not finite"):
        kron(big, big)


def test_gram_schmidt_of_orthonormal_input():
    q, b = gram_schmidt(np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=RECON_TOL)
    np.testing.assert_allclose(b, np.eye(3), atol=RECON_TOL)


def test_gram_schmidt_hand_example():
    # columns (1,0) and (1,1): orthonormalized to the standard basis,
    # with e2 = -1*v1 + 1*v2
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    q, b = gram_schmidt(m)
    np.testing.assert_allclose(q, np.eye(2), atol=RECON_TOL)
    np.testing.assert_allclose(b, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=RECON_TOL)


def test_gram_schmidt_properties():
    rng = np.random.default_rng(23)
    for rows, cols in [(4, 4), (6, 3), (9, 5)]:
        m = random_complex(rng, rows, cols)
        q, b = gram_schmidt(m)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(cols), atol=RECON_TOL)
        np.testing.assert_allclose(m @ b, q, atol=RECON_TOL)
        np.testing.assert_allclose(b, np.triu(b), atol=0)
        diag = np.diagonal(b)
        assert np.all(np.abs(diag.imag) < RECON_TOL) and np.all(diag.real > 0)
        # the span is preserved: every input column sits in range(q)
        residual = m - q @ (q.conj().T @ m)
        assert spectral_norm(residual) < 1e-9


def test_gram_schmidt_coeffs_invert_the_triangular_factor():
    # coeffs is the inverse of r = ortho* vectors, exactly upper triangular.
    rng = np.random.default_rng(31)
    for m in [random_complex(rng, 7, 5), rng.standard_normal((6, 6))]:
        q, b = gram_schmidt(m)
        assert np.array_equal(b, np.triu(b))
        r = q.conj().T @ m
        assert np.abs(r @ b - np.eye(len(b))).max() <= 1e-12


def test_gram_schmidt_rejects_dependent_columns():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(DomainError):
        gram_schmidt(m)
    with pytest.raises(DomainError):
        gram_schmidt(np.ones((2, 3)))


def test_matrix_pairs_round_trip():
    rng = np.random.default_rng(29)
    a = random_complex(rng, 3)
    np.testing.assert_allclose(matrix_from_pairs(matrix_to_pairs(a)), a)
    assert matrix_to_pairs(np.array([[1 + 2j]])) == [[[1.0, 2.0]]]


def test_matrix_from_pairs_rejects_malformed():
    for bad in (
        "nope",
        [],
        [[]],
        [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]],
        [[[1.0, 2.0, 3.0]]],
        [[[1.0, "x"]]],
        [[[True, 0.0]]],
        [[1.0, 2.0]],
    ):
        with pytest.raises(DomainError):
            matrix_from_pairs(bad)

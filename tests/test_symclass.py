"""Tests for symmetry class construction and the induced operators."""

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
    sym_op_product,
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


def vec_index(entries, n):
    out = 0
    for e in entries:
        out = out * n + (e - 1)
    return out


def permutation_operator(sigma, n):
    """Matrix of the factor permutation sending the alpha basis tensor to
    the one indexed by alpha composed with sigma inverse."""
    m = sigma.degree
    inv = sigma.inverse()
    dim = n**m
    mat = np.zeros((dim, dim))
    for alpha in itertools.product(range(1, n + 1), repeat=m):
        beta = tuple(alpha[inv(i) - 1] for i in range(1, m + 1))
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
def test_estar_coords_are_brute_force_projector_columns(chi, n):
    sc = build_symmetry_class(chi, n)
    k = brute_force_projector(chi, n)
    for alpha in enumerate_maps("gamma", sc.m, sc.n):
        np.testing.assert_allclose(
            sc.estar_coords(alpha), k[:, sc.index_of(alpha)], atol=EXACT_TOL
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
        increasing = [a for a in sc.omega if a.is_weakly_increasing()]
        assert list(sc.delta_bar) == increasing


def test_extreme_characters_have_closed_form_bases():
    # alternating: strictly increasing maps; principal: weakly increasing maps
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        wedge = build_symmetry_class(Partition((1,) * m), n)
        assert wedge.delta_hat == enumerate_maps("strict", m, n)
        assert wedge.dim == math.comb(n, m)
        power = build_symmetry_class(Partition((m,)), n)
        assert power.delta_hat == enumerate_maps("increasing", m, n)
        assert power.dim == math.comb(n + m - 1, m)


def test_tensor_norms_follow_stabilizer_sums():
    # squared norm of each symmetrized basis tensor, for every index alpha
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        scale = degree(chi) / math.factorial(sc.m)
        for alpha in enumerate_maps("gamma", sc.m, sc.n):
            coords = sc.estar_coords(alpha)
            norm_sq = float(np.real(coords.conj() @ coords))
            expected = scale * character_sum_over_stabilizer(chi, alpha)
            assert abs(norm_sq - expected) < PROJECTOR_TOL
            if alpha not in set(sc.omega):
                assert np.linalg.norm(coords) < 1e-12


def test_basis_b_converts_tensors_to_orthonormal_basis():
    for chi, n in SMALL_CLASSES:
        sc = build_symmetry_class(chi, n)
        estar = np.column_stack([sc.estar_coords(a) for a in sc.delta_hat])
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
            for alpha in enumerate_maps("gamma", sc.m, sc.n)
            if np.linalg.norm(sc.estar_coords(alpha)) > 1e-12
        }
        assert set(sc.omega) == support


def test_membership_routes_are_cross_checked(monkeypatch):
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
        positions = [sc.index_of(a) for a in enumerate_maps("gamma", sc.m, sc.n)]
        assert positions == list(range(n**sc.m))


def test_index_of_rejects_foreign_indices():
    sc = build_symmetry_class(Partition((1, 1)), 2)
    with pytest.raises(DomainError):
        sc.index_of(MultiIndex((1, 1, 1), 2))
    with pytest.raises(DomainError):
        sc.index_of(MultiIndex((1, 1), 3))


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


def test_sym_op_product_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(41)
    sc = build_symmetry_class(Partition((2, 1)), 3)
    ops = [random_complex(rng, 3) for _ in range(3)]
    base = sym_op_product(sc, ops)
    for perm in itertools.permutations(ops):
        np.testing.assert_allclose(sym_op_product(sc, list(perm)), base, atol=EXACT_TOL)


def test_sym_op_product_with_equal_factors_is_the_power_map():
    rng = np.random.default_rng(43)
    for chi, n in [(Partition((2,)), 2), (Partition((2, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        t = random_complex(rng, n)
        np.testing.assert_allclose(
            sym_op_product(sc, [t] * sc.m), k_chi_matrix(sc, t), atol=EXACT_TOL
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
    check(sym_op_product(sc, ops), reference(ops))
    t = random_complex(rng, n)
    check(k_chi_matrix(sc, t), reference([t] * sc.m))
    for k in range(1, sc.m + 1):
        xs = [random_complex(rng, n) for _ in range(k)]
        factor = math.factorial(sc.m) // math.factorial(sc.m - k)
        check(dk_kchi(sc, t, xs), factor * reference([t] * (sc.m - k) + xs))


def test_sym_op_product_rejects_wrong_shapes():
    sc = build_symmetry_class(Partition((2,)), 2)
    with pytest.raises(DomainError):
        sym_op_product(sc, [np.eye(2)])
    with pytest.raises(DomainError):
        sym_op_product(sc, [np.eye(3), np.eye(3)])


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
                w = sc.inclusion.conj().T @ sc.estar_coords(alpha)
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

"""Tests for derivative norm formulas, immanants, and their bounds."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchi import (
    DomainError,
    MultiIndex,
    NumericError,
    Partition,
    ResourceError,
    build_symmetry_class,
    degree,
    dk_immanant,
    dk_immanant_bound,
    dk_kchi,
    dk_kchi_via_immanants,
    dk_norm_formula,
    dk_norm_verify,
    hermitian_eigenvalues,
    immanant,
    immanant_bound_verify,
    k_chi_matrix,
    lambda_eigenvalue,
    mixed_immanant_matrix,
    nu_omega,
    partitions_of,
    perturbation_bounds,
    polar,
    random_matrix,
    random_unit_matrix,
    sample_rng,
    singular_values,
    spectral_norm,
)
from kchi.norms import REPORT_TOL, _coefficients

FORMULA_TOL = 1e-9
ROUTE_TOL = 1e-9
SPECTRUM_TOL = 1e-7


def combinations_oracle(t, values):
    return float(sum(math.prod(c) for c in itertools.combinations(values, t)))


# ---------------------------------------------------------------------------
# Elementary symmetric polynomials and the closed-form norm.
# ---------------------------------------------------------------------------


def test_elementary_symmetric_frozen():
    # p_0, ..., p_3 of (3, 2, 1), as every closed form reads them.
    assert _coefficients((3.0, 2.0, 1.0)) == [1.0, 6.0, 11.0, 6.0]


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
def test_elementary_symmetric_matches_combinations(values):
    for t, got in enumerate(_coefficients(values)):
        expected = combinations_oracle(t, values)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_nu_omega_selection():
    sel = nu_omega(Partition((2, 1)), (5.0, 4.0, 3.0, 2.0))
    assert sel == (5.0, 5.0, 4.0)
    assert nu_omega(Partition((3,)), (2.0, 1.0, 0.5)) == (2.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        nu_omega(Partition((1, 1, 1)), (1.0, 1.0))


def test_norm_formula_classical_reductions():
    nu = (3.0, 2.0, 1.0)
    # principal character: m!/(m-k)! times the top singular value power
    for m in (2, 3):
        for k in range(1, m + 1):
            expected = math.factorial(m) / math.factorial(m - k) * nu[0] ** (m - k)
            assert np.isclose(dk_norm_formula(Partition((m,)), k, nu), expected)
    # alternating character: k! times e_{m-k} of the top m values
    for k in (1, 2):
        expected = math.factorial(k) * combinations_oracle(2 - k, nu[:2])
        assert np.isclose(dk_norm_formula(Partition((1, 1)), k, nu), expected)


def test_norm_formula_at_the_identity():
    # all singular values one: the norm is the falling factorial
    for m, n in [(2, 2), (2, 4), (3, 3), (3, 5)]:
        nu = (1.0,) * n
        for chi in partitions_of(m):
            if chi.length > n:
                continue
            for k in range(1, m + 1):
                expected = math.factorial(m) / math.factorial(m - k)
                assert np.isclose(dk_norm_formula(chi, k, nu), expected)


def test_norm_formula_validation():
    nu = (2.0, 1.0)
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((2,)), 0, nu)
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((2,)), 3, nu)
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((3,)), 1, nu)
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((2,)), 1, (1.0, 2.0))
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((2,)), 1, (2.0, -1.0))
    with pytest.raises(DomainError):
        dk_norm_formula(Partition((2,)), 1, nu, n=3)


def test_closed_forms_raise_instead_of_overflowing():
    with pytest.raises(NumericError):
        dk_norm_formula(Partition((2, 1)), 1, [1e200] * 3, n=3)
    with pytest.raises(NumericError):
        dk_immanant_bound(Partition((2, 1)), 1, [1e200] * 3)
    with pytest.raises(NumericError):
        lambda_eigenvalue(MultiIndex((1, 1, 1), 1), 1, [1e200])


def test_lambda_eigenvalue_example():
    assert np.isclose(
        lambda_eigenvalue(MultiIndex((1, 2, 2), 3), 1, (3.0, 2.0, 1.0)), 16.0
    )


def test_lambda_eigenvalue_is_orbit_constant():
    nu = (4.0, 2.5, 1.0)
    for entries in itertools.product((1, 2, 3), repeat=3):
        alpha = MultiIndex(entries, 3)
        rep = MultiIndex(tuple(sorted(entries)), 3)
        for k in (1, 2, 3):
            assert np.isclose(
                lambda_eigenvalue(alpha, k, nu), lambda_eigenvalue(rep, k, nu)
            )


def test_formula_is_the_maximum_eigenvalue():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nu = tuple(sorted(rng.uniform(0.0, 3.0, size=4), reverse=True))
        for m in (2, 3):
            for chi in partitions_of(m):
                if chi.length > 4:
                    continue
                sc = build_symmetry_class(chi, 4)
                for k in range(1, m + 1):
                    formula = dk_norm_formula(chi, k, nu)
                    values = [lambda_eigenvalue(a, k, nu) for a in sc.delta_bar]
                    assert np.isclose(formula, max(values))


def test_lex_order_does_not_rank_eigenvalues():
    # lexicographically earlier index, strictly smaller eigenvalue: the
    # maximum genuinely has to be searched for, sorting is not enough
    nu = (10.0, 9.0, 1.0)
    early = lambda_eigenvalue(MultiIndex((1, 3), 3), 1, nu)
    late = lambda_eigenvalue(MultiIndex((2, 2), 3), 1, nu)
    assert (1, 3) < (2, 2)
    assert early == 11.0
    assert late == 18.0
    assert early < late


# ---------------------------------------------------------------------------
# The verified norm reports.
# ---------------------------------------------------------------------------


def test_norm_report_at_identity():
    sc = build_symmetry_class(Partition((1, 1)), 2)
    report = dk_norm_verify(sc, np.eye(2), 1, samples=25, seed=0)
    assert np.isclose(report.formula_value, 2.0)
    assert np.isclose(report.identity_value, 2.0)
    assert np.isclose(report.attained_value, 2.0)
    assert report.sample_max <= 2.0 + REPORT_TOL
    assert report.ok


def test_norm_report_on_random_operators():
    rng = np.random.default_rng(9)
    for chi, n in [(Partition((2,)), 2), (Partition((2, 1)), 3), (Partition((1, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(1, sc.m + 1):
            report = dk_norm_verify(sc, t, k, samples=20, seed=3)
            assert report.ok, (chi.parts, n, k)


def test_wide_class_norms_take_the_lanczos_route():
    # (3,1)/5 has dim 315, past denselin._KRYLOV_MIN_DIM: K_chi's norm is a
    # proved Lanczos value, and it matches the full SVD as the narrow norms do.
    sc = build_symmetry_class(Partition((3, 1)), 5)
    rng = np.random.default_rng(83)
    k = k_chi_matrix(sc, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert k.shape == (315, 315)
    want = np.linalg.svd(k, compute_uv=False)[0]
    assert abs(spectral_norm(k) - want) <= 64 * 315 * np.finfo(np.float64).eps * want
    t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert dk_norm_verify(sc, t, 1, samples=20, seed=0).ok


def test_norm_report_is_deterministic():
    sc = build_symmetry_class(Partition((2,)), 2)
    t = np.array([[1.0, 2.0], [0.0, 1.0j]])
    a = dk_norm_verify(sc, t, 1, samples=10, seed=4)
    b = dk_norm_verify(sc, t, 1, samples=10, seed=4)
    assert a == b
    assert a.to_json_obj() == b.to_json_obj()


def test_norm_report_json_fields():
    sc = build_symmetry_class(Partition((2,)), 2)
    obj = dk_norm_verify(sc, np.eye(2), 1, samples=5, seed=0).to_json_obj()
    assert obj["chi"] == [2]
    assert obj["ok"] is True
    assert set(obj) == {
        "chi",
        "m",
        "n",
        "k",
        "formula_value",
        "identity_value",
        "attained_value",
        "sample_max",
        "samples",
        "seed",
        "tolerance",
        "ok",
    }


def test_reports_serialize_numpy_integer_counts():
    # The reports store the ints they validated, which json can write.
    sc = build_symmetry_class(Partition((2,)), 2)
    reports = [
        dk_norm_verify(sc, np.eye(2), 1, samples=np.int64(5), seed=np.uint64(3)),
        immanant_bound_verify(
            Partition((2, 1)), np.eye(3), 1, samples=np.int64(5), seed=np.int32(3)
        ),
    ]
    for report in reports:
        assert type(report.samples) is int and type(report.seed) is int
        obj = json.loads(json.dumps(report.to_json_obj()))
        assert (obj["samples"], obj["seed"]) == (5, 3)


def test_spectrum_of_derivative_at_psd_point():
    # eigenvalue multiset of the derivative with identity directions
    nu = (2.0, 1.5, 0.5)
    p = np.diag(nu)
    for m in (2, 3):
        for chi in partitions_of(m):
            if chi.length > 3:
                continue
            sc = build_symmetry_class(chi, 3)
            for k in range(1, m + 1):
                mat = dk_kchi(sc, p, [np.eye(3)] * k)
                got = sorted(hermitian_eigenvalues(mat))
                expected = sorted(lambda_eigenvalue(a, k, nu) for a in sc.delta_hat)
                np.testing.assert_allclose(got, expected, atol=SPECTRUM_TOL)


def test_sample_rng_contract():
    a = sample_rng(7, 3).standard_normal(4)
    b = sample_rng(7, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = sample_rng(7, 4).standard_normal(4)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        sample_rng(-1, 0)
    with pytest.raises(DomainError):
        sample_rng(0, -1)


def test_random_unit_matrix_has_unit_norm():
    rng = sample_rng(1, 0)
    for n in (1, 2, 5):
        assert np.isclose(spectral_norm(random_unit_matrix(n, rng)), 1.0)


# ---------------------------------------------------------------------------
# Immanants.
# ---------------------------------------------------------------------------


def brute_force_permanent(a):
    n = a.shape[0]
    return sum(
        math.prod(a[i, sigma[i]] for i in range(n))
        for sigma in itertools.permutations(range(n))
    )


def test_immanant_reduces_to_determinant():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        det = immanant(Partition((1,) * n), a)
        assert np.isclose(det, np.linalg.det(a), atol=1e-9)


def test_immanant_reduces_to_permanent():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        per = immanant(Partition((n,)), a)
        assert np.isclose(per, brute_force_permanent(a), atol=1e-9)


def test_immanant_frozen_values():
    assert np.isclose(immanant(Partition((2, 1)), np.eye(3)), 2.0)
    ones = np.ones((3, 3))
    assert np.isclose(immanant(Partition((3,)), ones), 6.0)
    assert np.isclose(immanant(Partition((2, 1)), ones), 0.0)
    assert np.isclose(immanant(Partition((1, 1, 1)), ones), 0.0)


def test_immanant_at_identity_is_the_degree():
    for n in (2, 3, 4):
        for chi in partitions_of(n):
            assert np.isclose(immanant(chi, np.eye(n)), degree(chi))


def test_immanant_conjugation_invariance():
    # simultaneous row and column permutation fixes every immanant
    rng = np.random.default_rng(19)
    a = rng.standard_normal((4, 4))
    perm = np.eye(4)[[2, 0, 3, 1]]
    for chi in partitions_of(4):
        assert np.isclose(
            immanant(chi, perm @ a @ perm.T), immanant(chi, a), atol=1e-9
        )


def test_immanant_argument_checks():
    with pytest.raises(DomainError):
        immanant(Partition((2,)), np.eye(3))
    with pytest.raises(ResourceError):
        immanant(Partition((9,)), np.eye(9))


def mixed_immanant(chi, xs):
    # The symmetrized immanant of n = |chi| matrices: D^n d_chi at any
    # point, here the first matrix, over n!.
    return dk_immanant(chi, xs[0], xs) / math.factorial(chi.size)


def test_mixed_immanant_frozen_example():
    value = mixed_immanant(Partition((2,)), [np.eye(2), np.ones((2, 2))])
    assert np.isclose(value, 1.0)


def test_mixed_immanant_collapses_on_equal_arguments():
    rng = np.random.default_rng(23)
    for chi in partitions_of(3):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(mixed_immanant(chi, [a] * 3), immanant(chi, a), atol=1e-9)


def test_mixed_immanant_is_symmetric_and_multilinear():
    rng = np.random.default_rng(29)
    chi = Partition((2, 1))
    xs = [rng.standard_normal((3, 3)) for _ in range(3)]
    base = mixed_immanant(chi, xs)
    for perm in itertools.permutations(xs):
        assert np.isclose(mixed_immanant(chi, list(perm)), base, atol=1e-12)
    # At k = n the derivative does not depend on the point.
    assert np.isclose(dk_immanant(chi, np.eye(3), xs) / 6, base, atol=1e-12)
    y = rng.standard_normal((3, 3))
    lhs = mixed_immanant(chi, [2.0 * xs[0] + y, xs[1], xs[2]])
    rhs = 2.0 * base + mixed_immanant(chi, [y, xs[1], xs[2]])
    assert np.isclose(lhs, rhs, atol=1e-12)


def test_mixed_immanant_argument_checks():
    # More directions than n, and n past MAX_MIXED_SIZE.
    with pytest.raises(DomainError):
        dk_immanant(Partition((2,)), np.eye(2), [np.eye(2)] * 3)
    with pytest.raises(ResourceError):
        dk_immanant(Partition((7,)), np.eye(7), [np.eye(7)] * 7)


# ---------------------------------------------------------------------------
# Immanant derivatives.
# ---------------------------------------------------------------------------


def test_determinant_derivative_is_the_adjugate_trace():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        adjugate = np.linalg.det(a) * np.linalg.inv(a)
        expected = np.trace(adjugate @ x)
        got = dk_immanant(Partition((1,) * n), a, [x])
        assert np.isclose(got, expected, atol=1e-8)


def test_immanant_derivative_matches_finite_differences():
    rng = np.random.default_rng(37)
    step = 1e-5
    for chi in partitions_of(3):
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        plus = immanant(chi, a + step * x)
        minus = immanant(chi, a - step * x)
        fd = (plus - minus) / (2.0 * step)
        got = dk_immanant(chi, a, [x])
        assert np.isclose(got, fd, atol=1e-5 * max(1.0, abs(got)))


def test_immanant_derivative_edge_orders():
    rng = np.random.default_rng(41)
    chi = Partition((2, 1))
    a = rng.standard_normal((3, 3))
    assert dk_immanant(chi, a, []) == immanant(chi, a)
    xs = [rng.standard_normal((3, 3)) for _ in range(3)]
    top1 = dk_immanant(chi, a, xs)
    top2 = dk_immanant(chi, np.zeros((3, 3)), xs)
    assert np.isclose(top1, top2, atol=1e-12)
    with pytest.raises(DomainError):
        dk_immanant(chi, a, [a] * 4)


def test_immanant_derivative_caps():
    with pytest.raises(ResourceError):
        dk_immanant(Partition((7,)), np.eye(7), [np.eye(7)])
    # plain immanants still work up to the larger cap
    immanant(Partition((7,)), np.eye(7))


def immanant_via_power(sc, a, xs):
    # D^k d_chi(A)(Xs) = (n!/chi(1)) c* D^k K_chi(A)(Xs) c on the class with
    # n = |chi|, c the column of the inverse change of basis at
    # gamma = (1, ..., n).
    n = sc.n
    unit = np.zeros(sc.dim)
    unit[sc.delta_hat.index(MultiIndex(tuple(range(1, n + 1)), n))] = 1.0
    c = np.linalg.solve(sc.basis_b, unit)
    return c @ dk_kchi(sc, a, xs) @ c * math.factorial(n) / degree(sc.chi)


def test_immanant_derivative_routes_agree():
    rng = np.random.default_rng(43)
    for chi in [Partition((2,)), Partition((1, 1)), Partition((2, 1)), Partition((3,))]:
        n = chi.size
        sc = build_symmetry_class(chi, n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(0, n + 1):
            xs = [rng.standard_normal((n, n)) for _ in range(k)]
            direct = dk_immanant(chi, a, xs)
            extracted = immanant_via_power(sc, a, xs)
            assert np.isclose(direct, extracted, atol=ROUTE_TOL * max(1.0, abs(direct)))


def test_power_derivative_routes_agree():
    rng = np.random.default_rng(47)
    for chi, n in [(Partition((2,)), 3), (Partition((2, 1)), 3), (Partition((1, 1)), 2)]:
        sc = build_symmetry_class(chi, n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(0, sc.m + 1):
            xs = [rng.standard_normal((n, n)) for _ in range(k)]
            direct = dk_kchi(sc, a, xs)
            routed = dk_kchi_via_immanants(sc, a, xs)
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(direct - routed).max() <= ROUTE_TOL * scale


def test_immanant_routes_past_the_largest_double_are_numeric_errors():
    # The immanants of 1e200 * I are 1e600: each route refuses them without
    # a warning rather than returning inf.
    sc = build_symmetry_class(Partition((2, 1)), 3)
    big = 1e200 * np.eye(3)
    routes = [
        lambda: mixed_immanant_matrix(sc, big, []),
        lambda: dk_kchi_via_immanants(sc, big, []),
        lambda: dk_kchi_via_immanants(sc, big, [np.eye(3)]),
    ]
    for route in routes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="is not finite"):
                route()
        assert caught == []


def test_power_map_factorization():
    # K(A) against the immanant-matrix route, zero directions
    rng = np.random.default_rng(53)
    for chi, n in [(Partition((2,)), 2), (Partition((2, 1)), 3)]:
        sc = build_symmetry_class(chi, n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        direct = k_chi_matrix(sc, a)
        routed = dk_kchi_via_immanants(sc, a, [])
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(direct - routed).max() <= ROUTE_TOL * scale
        imm = mixed_immanant_matrix(sc, a, [])
        gamma = sc.delta_hat.index(MultiIndex(tuple(range(1, n + 1)), n)) if n == sc.m else None
        if gamma is not None:
            # the full-index diagonal entry of the immanant matrix is d_chi(A)
            assert np.isclose(imm[gamma, gamma], immanant(chi, a), atol=1e-9)


# ---------------------------------------------------------------------------
# Immanant bounds.
# ---------------------------------------------------------------------------


def test_immanant_bound_frozen_values():
    assert np.isclose(dk_immanant_bound(Partition((2,)), 1, (1.0, 0.0)), 2.0)
    # identity: k! e_{n-k} over n ones = n!/(n-k)!
    for n in (2, 3, 4):
        for k in range(0, n + 1):
            got = dk_immanant_bound(Partition((n,)), k, (1.0,) * n)
            assert np.isclose(got, math.factorial(n) / math.factorial(n - k))


def test_permanent_bound_reduction():
    # for the permanent the bound is the falling factorial times a norm power
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n))
        nu = singular_values(a)
        for k in range(1, n + 1):
            got = dk_immanant_bound(Partition((n,)), k, nu)
            expected = (
                math.factorial(n) / math.factorial(n - k) * nu[0] ** (n - k)
            )
            assert np.isclose(got, expected)


def test_immanant_bound_validation():
    with pytest.raises(DomainError):
        dk_immanant_bound(Partition((2,)), 3, (1.0, 1.0))
    with pytest.raises(DomainError):
        dk_immanant_bound(Partition((2,)), 1, (1.0,))


def test_immanant_derivative_respects_bound():
    rng = np.random.default_rng(61)
    for chi in partitions_of(3):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        nu = singular_values(a)
        for k in (1, 2, 3):
            bound = dk_immanant_bound(chi, k, nu)
            for i in range(50):
                sr = sample_rng(71, i)
                xs = [random_unit_matrix(3, sr) for _ in range(k)]
                assert abs(dk_immanant(chi, a, xs)) <= bound + 1e-7
    # at A = X_i = I, D^k d_chi = n!/(n-k)! chi(1) = chi(1) k! e_{n-k}(1, ..., 1)
    for n in range(1, 5):
        eye = np.eye(n)
        for chi in partitions_of(n):
            for k in range(0, n + 1):
                bound = dk_immanant_bound(chi, k, (1.0,) * n)
                value = abs(dk_immanant(chi, eye, [eye] * k))
                assert np.isclose(value, bound, rtol=1e-12), (chi.parts, k)


def test_determinant_bound_is_attained():
    # at the conjugate unitary polar directions the inequality is equality
    rng = sample_rng(123, 0)
    for n in (2, 3, 4):
        chi = Partition((1,) * n)
        a = random_matrix(n, rng)
        _, w = polar(a)
        nu = singular_values(a)
        for k in (1, 2):
            bound = dk_immanant_bound(chi, k, nu)
            value = abs(dk_immanant(chi, a, [w.conj().T] * k))
            assert np.isclose(value, bound, rtol=1e-9)


def test_immanant_bound_report():
    rng = np.random.default_rng(67)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for chi in partitions_of(3):
        for k in (1, 2, 3):
            report = immanant_bound_verify(chi, a, k, samples=100, seed=11)
            assert report.ok
            assert report.sample_sup <= report.bound_value + REPORT_TOL
    obj = immanant_bound_verify(Partition((2, 1)), a, 1, samples=5, seed=0).to_json_obj()
    assert obj["chi"] == [2, 1]
    assert {"bound_value", "sample_sup", "samples", "seed", "ok"} <= set(obj)


def test_immanant_bound_strict_example():
    # permanent at diag(1,0): the formula value 2 exceeds the true norm 1
    report = immanant_bound_verify(
        Partition((2,)), np.diag([1.0, 0.0]), 1, samples=2000, seed=0
    )
    assert np.isclose(report.bound_value, 2.0)
    assert report.sample_sup <= 1.0 + 1e-9
    assert report.sample_sup > 0.8


# ---------------------------------------------------------------------------
# Perturbation bounds.
# ---------------------------------------------------------------------------


def test_perturbation_bounds_frozen():
    assert np.isclose(perturbation_bounds(Partition((1, 1)), (1.0, 1.0), 1.0), 3.0)


def test_perturbation_bounds_are_a_taylor_tail():
    # sum over k of p_{m-k}(selection) delta^k
    chi = Partition((2, 1))
    nu = (2.0, 1.0, 0.5)
    delta = 0.25
    sel = nu_omega(chi, nu)
    expected = sum(
        combinations_oracle(3 - k, sel) * delta**k for k in range(1, 4)
    )
    assert np.isclose(perturbation_bounds(chi, nu, delta), expected)


def test_perturbation_bound_dominates_power_map_changes():
    rng = np.random.default_rng(73)
    chi, n = Partition((2,)), 3
    sc = build_symmetry_class(chi, n)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nu = singular_values(t)
    for delta in (0.01, 0.1, 1.0):
        bound = perturbation_bounds(chi, nu, delta)
        for i in range(20):
            sr = sample_rng(29, i)
            x = delta * random_unit_matrix(n, sr)
            change = spectral_norm(k_chi_matrix(sc, t + x) - k_chi_matrix(sc, t))
            assert change <= bound + 1e-8


def test_perturbation_bound_dominates_immanant_changes():
    # chi(1) times the operator bound bounds |d_chi(A) - d_chi(A + X)|
    rng = np.random.default_rng(79)
    chi = Partition((2, 1))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    nu = singular_values(a)
    for delta in (0.01, 0.1, 1.0):
        bound = degree(chi) * perturbation_bounds(chi, nu, delta)
        for i in range(20):
            sr = sample_rng(31, i)
            x = delta * random_unit_matrix(3, sr)
            change = abs(immanant(chi, a + x) - immanant(chi, a))
            assert change <= bound + 1e-8
    # at A = I and X = delta I the change is chi(1) ((1 + delta)^n - 1): equality
    for n in range(1, 5):
        eye = np.eye(n)
        for chi in partitions_of(n):
            for delta in (0.01, 0.1, 1.0):
                bound = degree(chi) * perturbation_bounds(chi, (1.0,) * n, delta)
                change = abs(immanant(chi, (1 + delta) * eye) - immanant(chi, eye))
                assert np.isclose(change, bound, rtol=1e-12), (chi.parts, delta)


def test_perturbation_bound_is_attained_by_the_operator():
    # With t = p w* (polar), K_chi(t + delta w*) - K_chi(t) is
    # (K_chi(p + delta I) - K_chi(p)) K_chi(w*), K_chi(w*) is unitary, and
    # K_chi(p + delta I) and K_chi(p) share their eigenvectors, so the
    # change's norm is the largest prod(nu_alpha + delta) - prod(nu_alpha),
    # the bound at nu_omega(chi): equality on every class with m <= n <= 4.
    worst = 0.0
    for n in range(1, 5):
        rng = sample_rng(37, n)
        for m in range(1, n + 1):
            for chi in partitions_of(m):
                sc = build_symmetry_class(chi, n)
                for _ in range(3):
                    t = random_matrix(n, rng)
                    w_star = polar(t)[1].conj().T
                    for delta in (0.01, 0.1, 1.0):
                        bound = perturbation_bounds(chi, singular_values(t), delta)
                        change = k_chi_matrix(sc, t + delta * w_star) - k_chi_matrix(sc, t)
                        worst = max(worst, abs(spectral_norm(change) - bound) / bound)
    assert worst <= 1e-12


def test_perturbation_bounds_validation():
    with pytest.raises(DomainError):
        perturbation_bounds(Partition((2,)), (1.0, 1.0), -0.5)
    with pytest.raises(DomainError):
        perturbation_bounds(Partition((2, 1)), (1.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# One operator check for every public function that takes an operator.
# ---------------------------------------------------------------------------

CHI = Partition((2, 1))
SC = build_symmetry_class(CHI, 3)
EYE = np.eye(3)

# each call puts ``op`` in one operator slot; the other operators are valid.
# The symmetrized product, the mixed immanant and the immanant matrix are
# dk_kchi at k = m, dk_immanant at k = n and mixed_immanant_matrix with no
# directions.
OPERATOR_CALLS = {
    "k_chi_matrix": lambda op: k_chi_matrix(SC, op),
    "sym_op_product": lambda op: dk_kchi(SC, EYE, [EYE, op, EYE]),
    "dk_kchi": lambda op: dk_kchi(SC, EYE, [op]),
    "dk_kchi k > m": lambda op: dk_kchi(SC, op, [EYE] * 4),
    "dk_norm_verify": lambda op: dk_norm_verify(SC, op, 1, samples=1),
    "immanant": lambda op: immanant(CHI, op),
    "mixed_immanant": lambda op: dk_immanant(CHI, EYE, [EYE, EYE, op]),
    "dk_immanant": lambda op: dk_immanant(CHI, EYE, [op]),
    "immanant_matrix": lambda op: mixed_immanant_matrix(SC, op, []),
    "mixed_immanant_matrix": lambda op: mixed_immanant_matrix(SC, EYE, [op]),
    "dk_kchi_via_immanants": lambda op: dk_kchi_via_immanants(SC, op, [EYE]),
    "dk_kchi_via_immanants k > m": lambda op: dk_kchi_via_immanants(SC, op, [EYE] * 4),
    "dk_kchi_via_immanants direction k > m": (
        lambda op: dk_kchi_via_immanants(SC, EYE, [op] * 4)
    ),
    "immanant_bound_verify": lambda op: immanant_bound_verify(CHI, op, 1, samples=1),
}

BAD_OPERATORS = {
    "wrong size": np.eye(4),
    "non-square": np.ones((3, 2)),
    "NaN": np.full((3, 3), np.nan),
}


@pytest.mark.parametrize("bad", sorted(BAD_OPERATORS))
@pytest.mark.parametrize("call", sorted(OPERATOR_CALLS))
def test_every_operator_argument_is_checked(call, bad):
    OPERATOR_CALLS[call](EYE)
    with pytest.raises(DomainError):
        OPERATOR_CALLS[call](BAD_OPERATORS[bad])


def test_immanant_route_validates_before_the_vanishing_shortcut():
    # k > m vanishes identically, but only for operators on C^n
    with pytest.raises(DomainError):
        dk_kchi_via_immanants(SC, np.full((5, 5), np.nan), [np.eye(7)] * 4)
    zero = dk_kchi_via_immanants(SC, EYE, [EYE] * 4)
    assert zero.shape == (SC.dim, SC.dim) and not zero.any()

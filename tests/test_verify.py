"""The stacked verify criteria against their per-draw loops.

Each criterion that evaluates per draw reads its draws in order and then
evaluates each (class, k) group as one stack.  The references below are the
per-draw loops: one kernel call and one spectral norm per draw, each row's
per-draw values reduced by ``verify._at_most``.  Their rows must agree with the criteria's in every field but ``observed``, which the
stacked kernel may round differently, within 1e-14.  The finite-difference
rows are rounding noise amplified by 1/FD_STEP^2 and need only pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import kchi.symclass
import kchi.verify
from kchi import (
    build_symmetry_class,
    degree,
    dk_immanant,
    dk_kchi,
    dk_kchi_via_immanants,
    dk_norm_formula,
    hermitian_eigenvalues,
    immanant,
    k_chi_matrix,
    lambda_eigenvalue,
    partitions_of,
    perturbation_bounds,
    polar,
    random_matrix,
    random_unit_matrix,
    sample_rng,
    singular_values,
    spectral_norm,
)
from kchi.norms import REPORT_TOL, _dk_norm_sup, _relative_error
from kchi.verify import _at_most, _characters, _classes

OBSERVED_TOL = 1e-14


def draws(seed):
    for index in itertools.count():
        yield sample_rng(seed, index)


def reference_norm_identity(seed, max_n):
    top = min(kchi.verify.MAX_N, max_n)
    results = []
    rngs = draws(seed)
    for m, n, chi in _classes(top, top, min_m=2):
        sc = build_symmetry_class(chi, n)
        eye = np.eye(n, dtype=np.complex128)
        errors = {k: [] for k in range(1, m + 1)}
        for rng in itertools.islice(rngs, 20):
            t = random_matrix(n, rng)
            nu = singular_values(t)
            p, _ = polar(t)
            for k in range(1, m + 1):
                observed = spectral_norm(dk_kchi(sc, p, [eye] * k))
                expected = dk_norm_formula(chi, k, nu, n=n)
                errors[k].append(_relative_error(observed, expected))
        for k in range(1, m + 1):
            results.append(
                _at_most(
                    "derivative norm equals closed formula",
                    {"chi": list(chi.parts), "n": n, "k": k, "draws": 20},
                    errors[k],
                )
            )
    return results


def reference_sup_attainment(seed, max_n):
    tuples, draws_per_class = kchi.verify.SUP_TUPLES, kchi.verify.SUP_DRAWS
    results = []
    rngs = draws(seed)
    for n, m, k in kchi.verify.SUP_CONFIGS:
        if n > max_n:
            continue
        for chi in _characters(m, n):
            sc = build_symmetry_class(chi, n)
            excess, attain_errs, copy_errs = [], [], []
            for rng in itertools.islice(rngs, draws_per_class):
                t = random_matrix(n, rng)
                nu = singular_values(t)
                formula = dk_norm_formula(chi, k, nu, n=n)
                _, w = polar(t)
                attained = spectral_norm(dk_kchi(sc, t, [w.conj().T] * k))
                attain_errs.append(_relative_error(attained, formula))
                on_copy = spectral_norm(kchi.symclass._dk_copy(sc, t, [w.conj().T] * k)[0])
                copy_errs.append(_relative_error(on_copy, attained))
                excess.append(_dk_norm_sup(sc, t, k, tuples, rng) - formula)
            params = {"chi": list(chi.parts), "n": n, "k": k, "draws": draws_per_class}
            results += [
                _at_most(
                    "sampled directions never beat the formula",
                    {**params, "tuples": tuples},
                    excess,
                ),
                _at_most("unitary polar directions attain the formula", params, attain_errs),
                _at_most("the copy's norm equals the full class's norm", params, copy_errs),
            ]
    return results


def reference_fd_derivative(sc, t, xs, step):
    if len(xs) == 1:
        (x,) = xs
        plus = k_chi_matrix(sc, t + step * x)
        minus = k_chi_matrix(sc, t - step * x)
        return (plus - minus) / (2.0 * step)
    x, y = xs
    pp = k_chi_matrix(sc, t + step * x + step * y)
    pm = k_chi_matrix(sc, t + step * x - step * y)
    mp = k_chi_matrix(sc, t - step * x + step * y)
    mm = k_chi_matrix(sc, t - step * x - step * y)
    return (pp - pm - mp + mm) / (4.0 * step * step)


def reference_finite_differences(seed, max_n):
    cases = kchi.verify.FD_CASES
    size = min(3, max_n)
    results = []
    rngs = draws(seed)
    for chi in partitions_of(size):
        sc = build_symmetry_class(chi, size)
        for k in (1, 2):
            errors = []
            for rng in itertools.islice(rngs, cases):
                t = random_matrix(size, rng)
                xs = [random_unit_matrix(size, rng) for _ in range(k)]
                algebraic = dk_kchi(sc, t, xs)
                numeric = reference_fd_derivative(sc, t, xs, kchi.verify.FD_STEP)
                errors.append(_relative_error(numeric, algebraic))
            results.append(
                _at_most(
                    "finite differences confirm the derivative",
                    {"chi": list(chi.parts), "n": size, "k": k, "cases": cases},
                    errors,
                )
            )
    return results


def reference_spectrum(seed, max_n):
    top = min(3, max_n)
    results = []
    rngs = draws(seed)
    for m, n, chi in _classes(top, top):
        sc = build_symmetry_class(chi, n)
        eye = np.eye(n, dtype=np.complex128)
        deviations = []
        for rng in itertools.islice(rngs, 3):
            t = random_matrix(n, rng)
            nu = singular_values(t)
            p, _ = polar(t)
            for k in range(1, m + 1):
                mat = dk_kchi(sc, p, [eye] * k)
                got = np.sort(hermitian_eigenvalues(mat))
                want = np.sort([lambda_eigenvalue(a, k, nu) for a in sc.delta_hat])
                deviations.append(np.max(np.abs(got - want)))
        results.append(
            _at_most(
                "derivative spectrum matches eigenvalue formula",
                {"chi": list(chi.parts), "n": n, "draws": 3},
                deviations,
            )
        )
    return results


def reference_power_factorization(seed, max_n):
    results = []
    rngs = draws(seed)
    for m, n in kchi.verify.POWER_CONFIGS:
        if n > max_n:
            continue
        for chi in _characters(m, n):
            sc = build_symmetry_class(chi, n)
            errors = []
            for rng in itertools.islice(rngs, 20):
                a = random_matrix(n, rng)
                direct = k_chi_matrix(sc, a)
                via = dk_kchi_via_immanants(sc, a, [])
                errors.append(_relative_error(via, direct))
            results.append(
                _at_most(
                    "power map factors through immanants",
                    {"chi": list(chi.parts), "n": n, "draws": 20},
                    errors,
                )
            )
    return results


def reference_taylor_perturbation(seed, max_n):
    perturbations = kchi.verify.PERTURBATIONS
    size = min(3, max_n)
    results = []
    rngs = draws(seed)
    chis = partitions_of(size)
    classes = {chi: build_symmetry_class(chi, size) for chi in chis}
    for chi in chis:
        sc = classes[chi]
        op_errs, imm_errs = [], []
        for rng in itertools.islice(rngs, 5):
            t = random_matrix(size, rng)
            x = random_matrix(size, rng)
            total = np.zeros((sc.dim, sc.dim), dtype=np.complex128)
            for k in range(0, size + 1):
                total += dk_kchi(sc, t, [x] * k) / math.factorial(k)
            direct = k_chi_matrix(sc, t + x)
            op_errs.append(_relative_error(total, direct))
            a = random_matrix(size, rng)
            y = random_matrix(size, rng)
            scalar = sum(
                dk_immanant(chi, a, [y] * k) / math.factorial(k) for k in range(0, size + 1)
            )
            imm_errs.append(_relative_error(scalar, immanant(chi, a + y)))
        params = {"chi": list(chi.parts), "n": size, "draws": 5}
        results += [
            _at_most("operator Taylor series is exact", params, op_errs),
            _at_most("immanant Taylor series is exact", params, imm_errs),
        ]
    deltas = (0.01, 0.1, 1.0)
    op_excess, imm_excess = [], []
    for i, rng in enumerate(itertools.islice(rngs, perturbations)):
        delta = deltas[i % len(deltas)]
        chi = chis[i % len(chis)]
        sc = classes[chi]
        t = random_matrix(size, rng)
        x = delta * random_unit_matrix(size, rng)
        bound = perturbation_bounds(chi, singular_values(t), delta)
        actual_op = spectral_norm(k_chi_matrix(sc, t + x) - k_chi_matrix(sc, t))
        op_excess.append(actual_op - bound)
        a = random_matrix(size, rng)
        y = delta * random_unit_matrix(size, rng)
        bound_imm = degree(chi) * perturbation_bounds(chi, singular_values(a), delta)
        actual_imm = abs(immanant(chi, a + y) - immanant(chi, a))
        imm_excess.append(actual_imm - bound_imm)
    params = {"n": size, "perturbations": perturbations, "deltas": list(deltas)}
    return results + [
        _at_most("operator perturbation bound dominates", params, op_excess),
        _at_most("immanant perturbation bound dominates", params, imm_excess),
    ]


REFERENCES = {
    "check_norm_identity": reference_norm_identity,
    "check_sup_attainment": reference_sup_attainment,
    "check_finite_differences": reference_finite_differences,
    "check_spectrum": reference_spectrum,
    "check_power_factorization": reference_power_factorization,
    "check_taylor_perturbation": reference_taylor_perturbation,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", REFERENCES)
def test_stacked_criteria_match_their_per_draw_loops(name, seed):
    got = getattr(kchi.verify, name)(seed=seed, max_n=3)
    want = REFERENCES[name](seed=seed, max_n=3)
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        fields = lambda r: (r.name, r.params, r.expected, r.tolerance, r.passed)
        assert fields(row) == fields(ref)
        assert row.passed
        if ref.expected == "sup - formula <= 1e-07":
            # The sampled suprema are not restacked: the same bits.
            assert row.observed == ref.observed
        elif name != "check_finite_differences":
            assert abs(row.observed - ref.observed) <= OBSERVED_TOL, (row, ref)


# Every bounded row's measure and tolerance, written out here once: a
# tolerance loosened in verify._ROWS fails this test.
ROWS = {
    "derivative norm equals closed formula": ("relative error", 1e-7),
    "full symmetric reduction": ("relative error", 1e-9),
    "antisymmetric reduction": ("relative error", 1e-9),
    "first derivative matches double sum": ("absolute error", 1e-10),
    "sampled directions never beat the formula": ("sup - formula", 1e-7),
    "unitary polar directions attain the formula": ("relative error", 1e-7),
    "the copy's norm equals the full class's norm": ("relative error", 1e-12),
    "finite differences confirm the derivative": ("relative error", 1e-5),
    "derivative spectrum matches eigenvalue formula": ("max eigenvalue deviation", 1e-7),
    "power map factors through immanants": ("relative error", 1e-9),
    "immanant derivative stays below bound": ("sup - bound", 1e-7),
    "operator Taylor series is exact": ("relative error", 1e-9),
    "immanant Taylor series is exact": ("relative error", 1e-9),
    "operator perturbation bound dominates": ("difference - bound", 1e-8),
    "immanant perturbation bound dominates": ("difference - bound", 1e-8),
}


def test_the_row_table_is_pinned():
    assert kchi.verify._ROWS == ROWS
    # The rows that `kchi norm` and `kchi bound` also judge read their tolerance.
    shared = [name for name, (_, tol) in kchi.verify._ROWS.items() if tol is REPORT_TOL]
    assert len(shared) == 4, shared


def test_every_bounded_row_of_a_report_is_in_the_table():
    report = kchi.verify.run_verify(max_n=3)
    bounded = {
        row["name"]
        for criterion in report["criteria"]
        for row in criterion["checks"]
        if " <= " in str(row["expected"])
    }
    assert bounded == set(ROWS)


@pytest.mark.parametrize(
    "values", [[0.0, float("nan"), 1.0], [float("nan")], [1.0, float("nan")], [0.0, float("inf")]]
)
def test_a_nan_case_fails_its_row(values):
    # A non-finite worst value is reported as None, which JSON writes as null.
    row = _at_most("full symmetric reduction", {}, values)
    assert row.observed is None and not row.passed


def test_the_certificate_makes_few_kernel_calls(monkeypatch):
    # One stacked kernel call per (class, k) group of draws: 132 at
    # max_n = 3, where one call per draw made 1355.  Five of them are the
    # attaining points of the supremum criterion's classes, whose M_W it
    # both norms and lifts for the full-class norms.
    calls = []
    partial_trace = kchi.symclass._partial_trace

    def counting(*args):
        calls.append(1)
        return partial_trace(*args)

    monkeypatch.setattr(kchi.symclass, "_partial_trace", counting)
    assert kchi.verify.run_verify(max_n=3)["all_passed"]
    assert len(calls) == 132

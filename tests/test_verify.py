"""The stacked verify criteria against their per-draw loops.

Each criterion that evaluates per draw reads its draws in order and then
evaluates each (class, k) group as one stack.  The references below are the
per-draw loops: one kernel call and one spectral norm per draw.  Their rows
must agree with the criteria's in every field but ``observed``, which the
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
from kchi.norms import _dk_norm_sup, _relative_error
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
        worst = {k: 0.0 for k in range(1, m + 1)}
        for rng in itertools.islice(rngs, 20):
            t = random_matrix(n, rng)
            nu = singular_values(t)
            p, _ = polar(t)
            for k in range(1, m + 1):
                observed = spectral_norm(dk_kchi(sc, p, [eye] * k))
                expected = dk_norm_formula(chi, k, nu, n=n)
                worst[k] = max(worst[k], _relative_error(observed, expected))
        for k in range(1, m + 1):
            results.append(
                _at_most(
                    "derivative norm equals closed formula",
                    {"chi": list(chi.parts), "n": n, "k": k, "draws": 20},
                    worst[k], 1e-7, "relative error",
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
            excess = -math.inf
            attain_err = copy_err = 0.0
            for rng in itertools.islice(rngs, draws_per_class):
                t = random_matrix(n, rng)
                nu = singular_values(t)
                formula = dk_norm_formula(chi, k, nu, n=n)
                _, w = polar(t)
                attained = spectral_norm(dk_kchi(sc, t, [w.conj().T] * k))
                attain_err = max(attain_err, _relative_error(attained, formula))
                on_copy = spectral_norm(kchi.symclass._dk_copy(sc, t, [w.conj().T] * k)[0])
                copy_err = max(copy_err, _relative_error(on_copy, attained))
                sup = _dk_norm_sup(sc, t, k, tuples, rng)
                excess = max(excess, sup - formula)
            params = {"chi": list(chi.parts), "n": n, "k": k, "draws": draws_per_class}
            results += [
                _at_most(
                    "sampled directions never beat the formula",
                    {**params, "tuples": tuples},
                    excess, 1e-7, "sup - formula",
                ),
                _at_most(
                    "unitary polar directions attain the formula",
                    params,
                    attain_err, 1e-7, "relative error",
                ),
                _at_most(
                    "the copy's norm equals the full class's norm",
                    params,
                    copy_err, 1e-12, "relative error",
                ),
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
            worst = 0.0
            for rng in itertools.islice(rngs, cases):
                t = random_matrix(size, rng)
                xs = [random_unit_matrix(size, rng) for _ in range(k)]
                algebraic = dk_kchi(sc, t, xs)
                numeric = reference_fd_derivative(sc, t, xs, kchi.verify.FD_STEP)
                worst = max(worst, _relative_error(numeric, algebraic))
            results.append(
                _at_most(
                    "finite differences confirm the derivative",
                    {"chi": list(chi.parts), "n": size, "k": k, "cases": cases},
                    worst, 1e-5, "relative error",
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
        worst = 0.0
        for rng in itertools.islice(rngs, 3):
            t = random_matrix(n, rng)
            nu = singular_values(t)
            p, _ = polar(t)
            for k in range(1, m + 1):
                mat = dk_kchi(sc, p, [eye] * k)
                got = np.sort(hermitian_eigenvalues(mat))
                want = np.sort([lambda_eigenvalue(a, k, nu) for a in sc.delta_hat])
                worst = max(worst, float(np.max(np.abs(got - want))))
        results.append(
            _at_most(
                "derivative spectrum matches eigenvalue formula",
                {"chi": list(chi.parts), "n": n, "draws": 3},
                worst, 1e-7, "max eigenvalue deviation",
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
            worst = 0.0
            for rng in itertools.islice(rngs, 20):
                a = random_matrix(n, rng)
                direct = k_chi_matrix(sc, a)
                via = dk_kchi_via_immanants(sc, a, [])
                worst = max(worst, _relative_error(via, direct))
            results.append(
                _at_most(
                    "power map factors through immanants",
                    {"chi": list(chi.parts), "n": n, "draws": 20},
                    worst, 1e-9, "relative error",
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
        worst_op = 0.0
        worst_imm = 0.0
        for rng in itertools.islice(rngs, 5):
            t = random_matrix(size, rng)
            x = random_matrix(size, rng)
            total = np.zeros((sc.dim, sc.dim), dtype=np.complex128)
            for k in range(0, size + 1):
                total += dk_kchi(sc, t, [x] * k) / math.factorial(k)
            direct = k_chi_matrix(sc, t + x)
            worst_op = max(worst_op, _relative_error(total, direct))
            a = random_matrix(size, rng)
            y = random_matrix(size, rng)
            scalar = sum(
                dk_immanant(chi, a, [y] * k) / math.factorial(k) for k in range(0, size + 1)
            )
            worst_imm = max(worst_imm, _relative_error(scalar, immanant(chi, a + y)))
        params = {"chi": list(chi.parts), "n": size, "draws": 5}
        results += [
            _at_most("operator Taylor series is exact", params, worst_op, 1e-9, "relative error"),
            _at_most("immanant Taylor series is exact", params, worst_imm, 1e-9, "relative error"),
        ]
    deltas = (0.01, 0.1, 1.0)
    worst_op_violation = -math.inf
    worst_imm_violation = -math.inf
    for i, rng in enumerate(itertools.islice(rngs, perturbations)):
        delta = deltas[i % len(deltas)]
        chi = chis[i % len(chis)]
        sc = classes[chi]
        t = random_matrix(size, rng)
        x = delta * random_unit_matrix(size, rng)
        bound = perturbation_bounds(chi, singular_values(t), delta)
        actual_op = spectral_norm(k_chi_matrix(sc, t + x) - k_chi_matrix(sc, t))
        worst_op_violation = max(worst_op_violation, actual_op - bound)
        a = random_matrix(size, rng)
        y = delta * random_unit_matrix(size, rng)
        bound_imm = degree(chi) * perturbation_bounds(chi, singular_values(a), delta)
        actual_imm = abs(immanant(chi, a + y) - immanant(chi, a))
        worst_imm_violation = max(worst_imm_violation, actual_imm - bound_imm)
    params = {"n": size, "perturbations": perturbations, "deltas": list(deltas)}
    return results + [
        _at_most(
            "operator perturbation bound dominates",
            params,
            worst_op_violation, 1e-8, "difference - bound",
        ),
        _at_most(
            "immanant perturbation bound dominates",
            params,
            worst_imm_violation, 1e-8, "difference - bound",
        ),
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


def test_the_certificate_makes_few_kernel_calls(monkeypatch):
    # One stacked kernel call per (class, k) group of draws: 137 at
    # max_n = 3, five of them the copy rows, where one call per draw made
    # 1355.
    calls = []
    partial_trace = kchi.symclass._partial_trace

    def counting(*args):
        calls.append(1)
        return partial_trace(*args)

    monkeypatch.setattr(kchi.symclass, "_partial_trace", counting)
    assert kchi.verify.run_verify(max_n=3)["all_passed"]
    assert len(calls) <= 150

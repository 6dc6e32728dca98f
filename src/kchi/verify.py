"""End-to-end checks of the package against independent oracles.

Each ``check_*`` function exercises one verification area at a scale
controlled by ``max_n`` and returns a list of CheckResult rows; the
expected side of every comparison comes from a route independent of the
implementation under test (closed formulas, finite differences, brute
enumeration, hook lengths).  ``run_verify`` runs all areas and folds the
rows into one JSON-ready report.  Reports contain only deterministic
values, so a rerun with the same arguments and seed is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinat import (
    Partition,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
    partitions_of,
)
from .denselin import hermitian_eigenvalues, polar, singular_values, spectral_norm
from .errors import DomainError
from .norms import (
    dk_immanant,
    dk_kchi_via_immanants,
    dk_norm_formula,
    elementary_symmetric,
    immanant,
    immanant_bound_verify,
    lambda_eigenvalue,
    nu_omega,
    perturbation_bounds,
    random_matrix,
    random_unit_matrix,
    sample_rng,
)
from .symclass import SymmetryClass, build_symmetry_class, dk_kchi, k_chi_matrix
from .symgroup import (
    char_table,
    character,
    character_sum_over_stabilizer,
    class_size,
    degree,
)

__all__ = [
    "CheckResult",
    "check_norm_identity",
    "check_special_reductions",
    "check_sup_attainment",
    "check_finite_differences",
    "check_spectrum",
    "check_membership_routes",
    "check_power_factorization",
    "check_immanant_bound",
    "check_taylor_perturbation",
    "check_characters",
    "CRITERIA",
    "run_verify",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "kchi-report/1"

FD_STEP = 1e-4


def _json_scalar(value: object) -> object:
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class CheckResult:
    """One verified comparison: what was checked, both sides, and the verdict."""

    name: str
    params: dict
    expected: object
    observed: object
    tolerance: float
    passed: bool

    def to_json_obj(self) -> dict:
        # numpy scalars creep in through array arithmetic; json.dumps rejects them
        return {
            "name": self.name,
            "params": self.params,
            "expected": _json_scalar(self.expected),
            "observed": _json_scalar(self.observed),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def _at_most(
    name: str, params: dict, observed, tolerance: float, measure: str
) -> CheckResult:
    """A row that passes when the observed ``measure`` is at most ``tolerance``."""
    return CheckResult(
        name=name,
        params=params,
        expected=f"{measure} <= {tolerance}",
        observed=observed,
        tolerance=tolerance,
        passed=observed <= tolerance,
    )


def _exact(name: str, params: dict, misses: int) -> CheckResult:
    """A row that passes when an exact count of misses is zero."""
    return CheckResult(
        name, params, expected=0, observed=misses, tolerance=0.0, passed=misses == 0
    )


def _classes(max_m: int, max_n: int, *, min_m: int = 1):
    for m in range(min_m, max_m + 1):
        for n in range(m, max_n + 1):
            for chi in partitions_of(m):
                if chi.length <= n:
                    yield m, n, chi


def check_norm_identity(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Spectral norm of the k-th derivative against k! p_{m-k}(nu_{omega(chi)}).

    Every character of S_m for 2 <= m <= n <= min(4, max_n), twenty seeded
    random operators each, all orders 1 <= k <= m; the operator route goes
    through the polar factor with identity directions.
    """
    top = min(4, max_n)
    results = []
    stream = 0
    for m, n, chi in _classes(top, top, min_m=2):
        sc = build_symmetry_class(chi, n)
        eye = np.eye(n, dtype=np.complex128)
        worst = {k: 0.0 for k in range(1, m + 1)}
        for _ in range(20):
            rng = sample_rng(seed, stream)
            stream += 1
            t = random_matrix(n, rng)
            nu = singular_values(t)
            p, _ = polar(t)
            for k in range(1, m + 1):
                observed = spectral_norm(dk_kchi(sc, p, [eye] * k))
                expected = dk_norm_formula(chi, k, nu, n=n)
                worst[k] = max(worst[k], abs(observed - expected) / max(1.0, expected))
        for k in range(1, m + 1):
            results.append(
                _at_most(
                    "derivative norm equals closed formula",
                    {"chi": list(chi.parts), "n": n, "k": k, "draws": 20},
                    worst[k], 1e-7, "relative error",
                )
            )
    return results


def check_special_reductions(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Closed-form reductions of the norm formula on random spectra.

    chi = (m) must give (m!/(m-k)!) nu_1^{m-k}, chi = (1,...,1) must give
    k! p_{m-k}(nu_1..nu_m), and for k = 1 every chi must match the double
    sum over products of all-but-one selected values.
    """
    top = min(4, max_n)
    results = []
    stream = 0
    for m in range(2, top + 1):
        for n in range(m, top + 1):
            sym_worst = 0.0
            wedge_worst = 0.0
            bds_worst = 0.0
            for _ in range(50):
                rng = sample_rng(seed, stream)
                stream += 1
                nu = np.sort(rng.uniform(0.0, 2.0, size=n))[::-1]
                for k in range(1, m + 1):
                    sym_val = dk_norm_formula(Partition((m,)), k, nu, n=n)
                    sym_ref = (
                        math.factorial(m) / math.factorial(m - k) * nu[0] ** (m - k)
                    )
                    sym_worst = max(
                        sym_worst, abs(sym_val - sym_ref) / max(1.0, sym_ref)
                    )
                    wedge_val = dk_norm_formula(Partition((1,) * m), k, nu, n=n)
                    wedge_ref = math.factorial(k) * elementary_symmetric(
                        m - k, nu[:m]
                    )
                    wedge_worst = max(
                        wedge_worst, abs(wedge_val - wedge_ref) / max(1.0, wedge_ref)
                    )
                for chi in partitions_of(m):
                    if chi.length > n:
                        continue
                    selection = nu_omega(chi, nu)
                    double_sum = sum(
                        math.prod(selection[i] for i in range(m) if i != j)
                        for j in range(m)
                    )
                    val = dk_norm_formula(chi, 1, nu, n=n)
                    bds_worst = max(bds_worst, abs(val - double_sum))
            params = {"m": m, "n": n, "spectra": 50}
            results += [
                _at_most(
                    "full symmetric reduction", params, sym_worst, 1e-9, "relative error"
                ),
                _at_most(
                    "antisymmetric reduction", params, wedge_worst, 1e-9, "relative error"
                ),
                _at_most(
                    "first derivative matches double sum",
                    params,
                    bds_worst, 1e-10, "absolute error",
                ),
            ]
    return results


SUP_CONFIGS = ((3, 2, 1), (3, 3, 2), (4, 3, 1))


def check_sup_attainment(
    seed: int = 0,
    max_n: int = 4,
    tuples: int = 1000,
    draws: int = 10,
) -> list[CheckResult]:
    """The formula value is a true supremum: never exceeded, and attained.

    Random unit-norm direction tuples stay below the formula, while the
    inverse unitary polar factor attains it, at each configured (n, m, k).
    """
    results = []
    stream = 0
    for n, m, k in SUP_CONFIGS:
        if n > max_n:
            continue
        for chi in partitions_of(m):
            if chi.length > n:
                continue
            sc = build_symmetry_class(chi, n)
            excess = -math.inf
            attain_err = 0.0
            for _ in range(draws):
                rng = sample_rng(seed, stream)
                stream += 1
                t = random_matrix(n, rng)
                nu = singular_values(t)
                formula = dk_norm_formula(chi, k, nu, n=n)
                _, w = polar(t)
                attained = spectral_norm(dk_kchi(sc, t, [w.conj().T] * k))
                attain_err = max(
                    attain_err, abs(attained - formula) / max(1.0, formula)
                )
                sup = 0.0
                for _ in range(tuples):
                    rng_x = sample_rng(seed, stream)
                    stream += 1
                    xs = [random_unit_matrix(n, rng_x) for _ in range(k)]
                    sup = max(sup, spectral_norm(dk_kchi(sc, t, xs)))
                excess = max(excess, sup - formula)
            params = {"chi": list(chi.parts), "n": n, "k": k, "draws": draws}
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
            ]
    return results


def _fd_derivative(sc: SymmetryClass, t: np.ndarray, xs, step: float) -> np.ndarray:
    # Central differences of the induced-operator map, one direction at a
    # time: order 1 uses two evaluations, order 2 uses the four-point
    # mixed stencil.
    if len(xs) == 1:
        (x,) = xs
        plus = k_chi_matrix(sc, t + step * x)
        minus = k_chi_matrix(sc, t - step * x)
        return (plus - minus) / (2.0 * step)
    if len(xs) == 2:
        x, y = xs
        pp = k_chi_matrix(sc, t + step * x + step * y)
        pm = k_chi_matrix(sc, t + step * x - step * y)
        mp = k_chi_matrix(sc, t - step * x + step * y)
        mm = k_chi_matrix(sc, t - step * x - step * y)
        return (pp - pm - mp + mm) / (4.0 * step * step)
    raise DomainError(f"finite differences implemented for orders 1 and 2, got {len(xs)}")


def check_finite_differences(
    seed: int = 0, max_n: int = 4, cases: int = 10
) -> list[CheckResult]:
    """Algebraic derivatives against central finite differences.

    Orders one and two, ten random base points and directions per
    character, compared in Frobenius norm at step 1e-4.
    """
    size = min(3, max_n)
    results = []
    stream = 0
    for chi in partitions_of(size):
        sc = build_symmetry_class(chi, size)
        for k in (1, 2):
            worst = 0.0
            for _ in range(cases):
                rng = sample_rng(seed, stream)
                stream += 1
                t = random_matrix(size, rng)
                xs = [random_unit_matrix(size, rng) for _ in range(k)]
                algebraic = dk_kchi(sc, t, xs)
                numeric = _fd_derivative(sc, t, xs, FD_STEP)
                err = np.linalg.norm(numeric - algebraic) / max(
                    1.0, np.linalg.norm(algebraic)
                )
                worst = max(worst, float(err))
            results.append(
                _at_most(
                    "finite differences confirm the derivative",
                    {"chi": list(chi.parts), "n": size, "k": k, "cases": cases},
                    worst, 1e-5, "relative error",
                )
            )
    return results


def check_spectrum(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Full spectrum of the derivative at a PSD point versus the eigenvalue formula.

    The eigenvalues of D^k K_chi(P)(I,...,I) must be exactly the multiset
    {k! p_{m-k}(nu_alpha) : alpha in delta_hat}.
    """
    top = min(3, max_n)
    results = []
    stream = 0
    for m, n, chi in _classes(top, top):
        sc = build_symmetry_class(chi, n)
        eye = np.eye(n, dtype=np.complex128)
        worst = 0.0
        for _ in range(3):
            rng = sample_rng(seed, stream)
            stream += 1
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


def check_membership_routes(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Both membership criteria for surviving symmetrized tensors agree.

    The stabilizer character sum is nonzero exactly when chi majorizes the
    multiplicity partition, for every multi-index and every character.
    """
    top = min(4, max_n)
    del seed
    results = []
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            disagreements = 0
            pairs = 0
            for chi in partitions_of(m):
                for alpha in enumerate_maps("gamma", m, n):
                    by_sum = character_sum_over_stabilizer(chi, alpha) != 0
                    by_major = majorizes(chi, multiplicity_partition(alpha))
                    pairs += 1
                    if by_sum != by_major:
                        disagreements += 1
            results.append(
                _exact(
                    "stabilizer sum agrees with majorization",
                    {"m": m, "n": n, "pairs": pairs},
                    disagreements,
                )
            )
    return results


POWER_CONFIGS = ((2, 2), (2, 3), (3, 3))


def check_power_factorization(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Induced operator versus its factorization through submatrix immanants.

    K_chi(A) in the orthonormal basis must equal
    (chi(id)/m!) B* [d_chi(A[gamma|delta])] B entrywise.
    """
    results = []
    stream = 0
    for m, n in POWER_CONFIGS:
        if n > max_n:
            continue
        for chi in partitions_of(m):
            if chi.length > n:
                continue
            sc = build_symmetry_class(chi, n)
            worst = 0.0
            for _ in range(20):
                rng = sample_rng(seed, stream)
                stream += 1
                a = random_matrix(n, rng)
                direct = k_chi_matrix(sc, a)
                via = dk_kchi_via_immanants(sc, a, [])
                err = np.linalg.norm(direct - via) / max(1.0, np.linalg.norm(direct))
                worst = max(worst, float(err))
            results.append(
                _at_most(
                    "power map factors through immanants",
                    {"chi": list(chi.parts), "n": n, "draws": 20},
                    worst, 1e-9, "relative error",
                )
            )
    return results


def check_immanant_bound(
    seed: int = 0,
    max_n: int = 4,
    tuples: int = 1000,
    strict_samples: int = 10000,
) -> list[CheckResult]:
    """Immanant derivative bound: never exceeded, strictly slack for one case.

    Random unit tuples stay below k! p_{n-k}(nu_{omega(chi)}) everywhere;
    the permanent of diag(1, 0) at k = 1 stays clearly below it.
    """
    top = min(4, max_n)
    results = []
    stream = 0
    for n in range(1, top + 1):
        for chi in partitions_of(n):
            for k in range(1, n + 1):
                rng = sample_rng(seed, stream)
                stream += 1
                a = random_matrix(n, rng)
                report = immanant_bound_verify(
                    chi, a, k, samples=tuples, seed=seed
                )
                excess = report.sample_sup - report.bound_value
                results.append(
                    _at_most(
                        "immanant derivative stays below bound",
                        {"chi": list(chi.parts), "n": n, "k": k, "tuples": tuples},
                        excess, 1e-7, "sup - bound",
                    )
                )
    if max_n >= 2:
        a = np.diag([1.0, 0.0]).astype(np.complex128)
        chi = Partition((2,))
        report = immanant_bound_verify(chi, a, 1, samples=strict_samples, seed=seed)
        margin = report.bound_value - report.sample_sup
        results.append(
            CheckResult(
                name="permanent bound strictly slack at diag(1, 0)",
                params={"chi": [2], "k": 1, "samples": strict_samples},
                expected="bound - sup >= 0.05",
                observed=margin,
                tolerance=0.05,
                passed=margin >= 0.05,
            )
        )
    return results


def check_taylor_perturbation(
    seed: int = 0, max_n: int = 4, perturbations: int = 200
) -> list[CheckResult]:
    """Exact Taylor reconstruction and the Lipschitz-type difference bounds.

    Both polynomial maps must rebuild exactly from their derivatives, and
    the closed-form perturbation bounds must dominate actual differences
    at perturbation norms 0.01, 0.1, and 1.
    """
    size = min(3, max_n)
    results = []
    stream = 0
    chis = [chi for chi in partitions_of(size)]
    classes = {chi: build_symmetry_class(chi, size) for chi in chis}

    for chi in chis:
        sc = classes[chi]
        worst_op = 0.0
        worst_imm = 0.0
        for _ in range(5):
            rng = sample_rng(seed, stream)
            stream += 1
            t = random_matrix(size, rng)
            x = random_matrix(size, rng)
            total = np.zeros((sc.dim, sc.dim), dtype=np.complex128)
            for k in range(0, size + 1):
                total += dk_kchi(sc, t, [x] * k) / math.factorial(k)
            direct = k_chi_matrix(sc, t + x)
            err = np.linalg.norm(direct - total) / max(1.0, np.linalg.norm(direct))
            worst_op = max(worst_op, float(err))
            a = random_matrix(size, rng)
            y = random_matrix(size, rng)
            scalar = sum(
                dk_immanant(chi, a, [y] * k) / math.factorial(k)
                for k in range(0, size + 1)
            )
            direct_imm = immanant(chi, a + y)
            err = abs(direct_imm - scalar) / max(1.0, abs(direct_imm))
            worst_imm = max(worst_imm, float(err))
        params = {"chi": list(chi.parts), "n": size, "draws": 5}
        results += [
            _at_most(
                "operator Taylor series is exact", params, worst_op, 1e-9, "relative error"
            ),
            _at_most(
                "immanant Taylor series is exact", params, worst_imm, 1e-9, "relative error"
            ),
        ]

    deltas = (0.01, 0.1, 1.0)
    worst_op_violation = -math.inf
    worst_imm_violation = -math.inf
    for i in range(perturbations):
        rng = sample_rng(seed, stream)
        stream += 1
        delta = deltas[i % len(deltas)]
        chi = chis[i % len(chis)]
        sc = classes[chi]
        t = random_matrix(size, rng)
        x = delta * random_unit_matrix(size, rng)
        nu = singular_values(t)
        bound = perturbation_bounds(chi, nu, delta)
        actual_op = spectral_norm(k_chi_matrix(sc, t + x) - k_chi_matrix(sc, t))
        worst_op_violation = max(worst_op_violation, actual_op - bound.kchi_bound)
        a = random_matrix(size, rng)
        y = delta * random_unit_matrix(size, rng)
        bound_imm = perturbation_bounds(chi, singular_values(a), delta)
        actual_imm = abs(immanant(chi, a + y) - immanant(chi, a))
        worst_imm_violation = max(
            worst_imm_violation, actual_imm - bound_imm.imm_bound
        )
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


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def _hook_degree(lam: Partition) -> int:
    # Hook length formula: m! over the product of hook lengths.
    conj = _conjugate(lam.parts)
    product = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            product *= (row - j) + (conj[j] - i) - 1
    return math.factorial(lam.size) // product


def check_characters(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Character tables against orthogonality, hook lengths, and fixed points.

    First orthogonality relations hold exactly for m <= 6, the identity
    column matches the hook length formula, and the standard character of
    S_3 equals the fixed-point count minus one.
    """
    del seed, max_n
    results = []
    for m in range(1, 7):
        table = char_table(m)
        fact = math.factorial(m)
        worst = 0
        for lam in table.partitions:
            for mu in table.partitions:
                total = sum(
                    class_size(rho) * table.value(lam, rho) * table.value(mu, rho)
                    for rho in table.partitions
                )
                wanted = fact if lam == mu else 0
                worst = max(worst, abs(total - wanted))
        results.append(_exact("first orthogonality relations", {"m": m}, worst))
        degree_misses = sum(
            1 for lam in table.partitions if degree(lam) != _hook_degree(lam)
        )
        results.append(
            _exact("degrees match hook length formula", {"m": m}, degree_misses)
        )
    standard = Partition((2, 1))
    misses = 0
    for rho in char_table(3).partitions:
        fixed = sum(1 for part in rho.parts if part == 1)
        if character(standard, rho) != fixed - 1:
            misses += 1
    return results + [
        _exact(
            "standard character of S_3 counts fixed points minus one", {"m": 3}, misses
        )
    ]


CRITERIA = (
    ("derivative norm identity", check_norm_identity),
    ("special reductions", check_special_reductions),
    ("supremum and attainment", check_sup_attainment),
    ("finite differences", check_finite_differences),
    ("derivative spectrum", check_spectrum),
    ("membership routes", check_membership_routes),
    ("immanant factorization", check_power_factorization),
    ("immanant derivative bound", check_immanant_bound),
    ("Taylor and perturbation bounds", check_taylor_perturbation),
    ("character table oracles", check_characters),
)


def run_verify(max_n: int = 4, seed: int = 0) -> dict:
    """Run every verification area and assemble the JSON report."""
    if max_n < 2:
        raise DomainError(f"max_n must be >= 2, got {max_n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    criteria = []
    total = 0
    failed = 0
    for label, fn in CRITERIA:
        checks = fn(seed=seed, max_n=max_n)
        total += len(checks)
        failed += sum(1 for c in checks if not c.passed)
        criteria.append(
            {
                "name": label,
                "passed": all(c.passed for c in checks),
                "checks": [c.to_json_obj() for c in checks],
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "command": "verify",
        "max_n": max_n,
        "seed": seed,
        "criteria": criteria,
        "total_checks": total,
        "failed_checks": failed,
        "all_passed": failed == 0,
    }

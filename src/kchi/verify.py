"""End-to-end checks of the package against independent oracles.

Each ``check_*(seed, max_n)`` function exercises one verification area at
a scale controlled by ``max_n`` and returns a list of CheckResult rows; the
expected side of every comparison comes from a route independent of the
implementation under test (closed formulas, finite differences, brute
enumeration, hook lengths).  Beyond ``max_n`` the scope is fixed; the
sample counts ``SUP_TUPLES``, ``SUP_DRAWS``, ``FD_CASES``,
``IMMANANT_TUPLES``, ``SLACK_SAMPLES`` and ``PERTURBATIONS`` are module
constants.  A criterion's i-th random draw reads ``sample_rng(seed, i)``.
A criterion first reads its draws in that order and then evaluates each
(class, k) group of them as one stack: one call of the class kernel
(``symclass._dk_stack``) and one batched spectral norm per group, each
sample's norm with ``spectral_norm``'s bits.  The sampled suprema instead
evaluate and norm each random tuple on the kernel's one Schur-module copy,
``dim / f^chi`` wide (``symclass._dk_copy``), in chunks sized by bytes, so
their norms equal the full operator's only up to rounding, not with
``spectral_norm``'s bits; the supremum criterion checks that equality at
its attaining points.  ``run_verify`` runs all areas and folds the rows
into one JSON-ready report.  Reports contain only deterministic values, so
a rerun with the same arguments and seed is byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinat import (
    Partition,
    _integer,
    _shown,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
    partitions_of,
)
from .denselin import _spectral_norms, hermitian_eigenvalues, polar, singular_values
from .errors import DomainError
from .norms import (
    _dk_immanant_raw,
    _dk_norm_sup,
    _haar_units,
    _immanant_sup,
    _relative_error,
    dk_immanant_bound,
    dk_kchi_via_immanants,
    dk_norm_formula,
    lambda_eigenvalue,
    nu_omega,
    perturbation_bounds,
    random_matrix,
    sample_rng,
)
from .symclass import SymmetryClass, _dk_copy, _dk_stack, build_symmetry_class
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

REPORT_SCHEMA = "kchi-report/2"

FD_STEP = 1e-4

# The largest matrix size any criterion checks; run_verify rejects a larger
# max_n rather than report a scope it did not check.
MAX_N = 4

# (n, m, k) of the supremum criterion and (m, n) of the factorization one.
SUP_CONFIGS = ((3, 2, 1), (3, 3, 2), (4, 3, 1))
POWER_CONFIGS = ((2, 2), (2, 3), (3, 3))

# Sample counts: random unit tuples per base point and base points per
# class of the supremum criterion, base points per (chi, k) of the finite
# differences, tuples per (chi, k) of the immanant bound and of its
# strict-slack row, and the perturbation draws.
SUP_TUPLES = 1000
SUP_DRAWS = 10
FD_CASES = 10
IMMANANT_TUPLES = 1000
SLACK_SAMPLES = 10000
PERTURBATIONS = 200


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


def _draws(seed: int):
    # A criterion's random draws: the i-th is sample_rng(seed, i), looked up
    # on the module at each step so that a substitute sees every call.
    for index in itertools.count():
        yield sample_rng(seed, index)


def _polar_draws(rngs, n: int):
    # A random operator T from each generator: the singular values of each,
    # and the (S, n, n) stack of their PSD polar factors.
    nus, ps = [], []
    for rng in rngs:
        t = random_matrix(n, rng)
        nus.append(singular_values(t))
        ps.append(polar(t)[0])
    return nus, np.array(ps)


def _at_identity(sc: SymmetryClass, ps: np.ndarray, k: int) -> np.ndarray:
    # D^k K_chi(P)(I, ..., I) at each P of an (S, n, n) stack, as
    # (S, dim, dim); at k = m it does not depend on P and is evaluated once.
    values = _dk_stack(sc, ps, [np.eye(sc.n, dtype=np.complex128)] * k)
    return np.broadcast_to(values, (len(ps),) + values.shape[1:])


def _characters(m: int, n: int) -> list[Partition]:
    # The characters of S_m whose symmetry class on C^n is nonzero.
    return [chi for chi in partitions_of(m) if chi.length <= n]


def _classes(max_m: int, max_n: int, *, min_m: int = 1):
    for m in range(min_m, max_m + 1):
        for n in range(m, max_n + 1):
            for chi in _characters(m, n):
                yield m, n, chi


def check_norm_identity(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Spectral norm of the k-th derivative against k! p_{m-k}(nu_{omega(chi)}).

    Every character of S_m for 2 <= m <= n <= min(MAX_N, max_n), twenty seeded
    random operators each, all orders 1 <= k <= m; the operator route goes
    through the polar factor with identity directions.
    """
    top = min(MAX_N, max_n)
    results = []
    draws = _draws(seed)
    for m, n, chi in _classes(top, top, min_m=2):
        sc = build_symmetry_class(chi, n)
        nus, ps = _polar_draws(itertools.islice(draws, 20), n)
        for k in range(1, m + 1):
            observed = _spectral_norms(_at_identity(sc, ps, k))
            worst = max(
                _relative_error(value, dk_norm_formula(chi, k, nu, n=n))
                for value, nu in zip(observed, nus)
            )
            results.append(
                _at_most(
                    "derivative norm equals closed formula",
                    {"chi": list(chi.parts), "n": n, "k": k, "draws": 20},
                    worst, 1e-7, "relative error",
                )
            )
    return results


def check_special_reductions(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Closed-form reductions of the norm formula on random spectra.

    chi = (m) must give (m!/(m-k)!) nu_1^{m-k}, chi = (1,...,1) must give
    k! p_{m-k}(nu_1..nu_m), summed here over the (m-k)-subsets of
    nu_1..nu_m, and for k = 1 every chi must match the double
    sum over products of all-but-one selected values.
    """
    top = min(MAX_N, max_n)
    results = []
    draws = _draws(seed)
    for m in range(2, top + 1):
        for n in range(m, top + 1):
            sym_worst = 0.0
            wedge_worst = 0.0
            bds_worst = 0.0
            for rng in itertools.islice(draws, 50):
                nu = np.sort(rng.uniform(0.0, 2.0, size=n))[::-1]
                for k in range(1, m + 1):
                    sym_val = dk_norm_formula(Partition((m,)), k, nu, n=n)
                    sym_ref = (
                        math.factorial(m) / math.factorial(m - k) * nu[0] ** (m - k)
                    )
                    sym_worst = max(sym_worst, _relative_error(sym_val, sym_ref))
                    wedge_val = dk_norm_formula(Partition((1,) * m), k, nu, n=n)
                    wedge_ref = math.factorial(k) * sum(
                        math.prod(c) for c in itertools.combinations(nu[:m], m - k)
                    )
                    wedge_worst = max(wedge_worst, _relative_error(wedge_val, wedge_ref))
                for chi in _characters(m, n):
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


def check_sup_attainment(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """The formula value is a true supremum: never exceeded, and attained.

    Random unit-norm direction tuples stay below the formula, while the
    inverse unitary polar factor attains it, at each configured (n, m, k)
    of SUP_CONFIGS: SUP_DRAWS base points per class, each followed on its
    own generator by SUP_TUPLES tuples.  The sampled values are normed on
    the kernel's one Schur-module copy; the attained values of a class are
    evaluated on the full class as one stack once its suprema are sampled,
    and their norms on the copy must equal those.
    """
    results = []
    draws = _draws(seed)
    for n, m, k in SUP_CONFIGS:
        if n > max_n:
            continue
        for chi in _characters(m, n):
            sc = build_symmetry_class(chi, n)
            excess = -math.inf
            ts, formulas = [], []
            for rng in itertools.islice(draws, SUP_DRAWS):
                t = random_matrix(n, rng)
                formula = dk_norm_formula(chi, k, singular_values(t), n=n)
                sup = _dk_norm_sup(sc, t, k, SUP_TUPLES, rng)
                excess = max(excess, sup - formula)
                ts.append(t)
                formulas.append(formula)
            ts = np.array(ts)
            directions = [np.array([polar(t)[1] for t in ts]).conj().swapaxes(1, 2)] * k
            attained = _spectral_norms(_dk_stack(sc, ts, directions))
            attain_err = max(map(_relative_error, attained, formulas))
            on_copy = _spectral_norms(_dk_copy(sc, ts, directions))
            copy_err = max(map(_relative_error, on_copy, attained))
            params = {"chi": list(chi.parts), "n": n, "k": k, "draws": SUP_DRAWS}
            results += [
                _at_most(
                    "sampled directions never beat the formula",
                    {**params, "tuples": SUP_TUPLES},
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


def _k_chi_stacks(sc: SymmetryClass, points) -> np.ndarray:
    # K_chi at every sample of a list of equal (S, n, n) stacks, in one
    # kernel call, as (len(points), S, dim, dim).
    values = _dk_stack(sc, np.concatenate(points), [])
    return values.reshape(len(points), -1, sc.dim, sc.dim)


def _fd_derivative(sc: SymmetryClass, t: np.ndarray, xs, step: float) -> np.ndarray:
    # Central differences of the induced-operator map on (S, n, n) stacks of
    # base points and directions, one direction at a time: order 1 uses two
    # evaluations, order 2 uses the four-point mixed stencil.
    if len(xs) == 1:
        (x,) = xs
        plus, minus = _k_chi_stacks(sc, [t + step * x, t - step * x])
        return (plus - minus) / (2.0 * step)
    if len(xs) == 2:
        x, y = xs
        pp, pm, mp, mm = _k_chi_stacks(
            sc,
            [
                t + step * x + step * y,
                t + step * x - step * y,
                t - step * x + step * y,
                t - step * x - step * y,
            ],
        )
        return (pp - pm - mp + mm) / (4.0 * step * step)
    raise DomainError(f"finite differences implemented for orders 1 and 2, got {len(xs)}")


def check_finite_differences(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Algebraic derivatives against central finite differences.

    Orders one and two, FD_CASES random base points and directions per
    character, compared in Frobenius norm at step FD_STEP.
    """
    size = min(3, max_n)
    results = []
    draws = _draws(seed)
    for chi in partitions_of(size):
        sc = build_symmetry_class(chi, size)
        for k in (1, 2):
            ts, xs = [], []
            for rng in itertools.islice(draws, FD_CASES):
                ts.append(random_matrix(size, rng))
                xs.append(rng.standard_normal((k, 2, size, size)))
            ts, xs = np.array(ts), list(_haar_units(np.array(xs)).swapaxes(0, 1))
            algebraic = _dk_stack(sc, ts, xs)
            numeric = _fd_derivative(sc, ts, xs, FD_STEP)
            worst = max(map(_relative_error, numeric, algebraic))
            results.append(
                _at_most(
                    "finite differences confirm the derivative",
                    {"chi": list(chi.parts), "n": size, "k": k, "cases": FD_CASES},
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
    draws = _draws(seed)
    for m, n, chi in _classes(top, top):
        sc = build_symmetry_class(chi, n)
        nus, ps = _polar_draws(itertools.islice(draws, 3), n)
        worst = 0.0
        for k in range(1, m + 1):
            for mat, nu in zip(_at_identity(sc, ps, k), nus):
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
    top = min(MAX_N, max_n)
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


def check_power_factorization(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Induced operator versus its factorization through submatrix immanants.

    K_chi(A) in the orthonormal basis must equal
    (chi(id)/m!) B* [d_chi(A[gamma|delta])] B entrywise, at each (m, n) of
    POWER_CONFIGS.
    """
    results = []
    draws = _draws(seed)
    for m, n in POWER_CONFIGS:
        if n > max_n:
            continue
        for chi in _characters(m, n):
            sc = build_symmetry_class(chi, n)
            mats = np.array([random_matrix(n, rng) for rng in itertools.islice(draws, 20)])
            direct = _dk_stack(sc, mats, [])
            worst = max(
                _relative_error(dk_kchi_via_immanants(sc, a, []), value)
                for a, value in zip(mats, direct)
            )
            results.append(
                _at_most(
                    "power map factors through immanants",
                    {"chi": list(chi.parts), "n": n, "draws": 20},
                    worst, 1e-9, "relative error",
                )
            )
    return results


def check_immanant_bound(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Immanant derivative bound: never exceeded, strictly slack for one case.

    IMMANANT_TUPLES random unit tuples per (chi, k) stay below
    chi(1) k! p_{n-k}(nu_{omega(chi)}), each continuing the generator of its
    base point; the permanent of diag(1, 0) at k = 1 stays clearly below it over
    SLACK_SAMPLES tuples from the next generator.
    """
    top = min(MAX_N, max_n)
    results = []
    draws = _draws(seed)
    for n in range(1, top + 1):
        for chi in partitions_of(n):
            for k in range(1, n + 1):
                rng = next(draws)
                a = random_matrix(n, rng)
                bound = dk_immanant_bound(chi, k, singular_values(a))
                sup = _immanant_sup(chi, a, k, IMMANANT_TUPLES, rng)
                excess = sup - bound
                results.append(
                    _at_most(
                        "immanant derivative stays below bound",
                        {"chi": list(chi.parts), "n": n, "k": k, "tuples": IMMANANT_TUPLES},
                        excess, 1e-7, "sup - bound",
                    )
                )
    if max_n >= 2:
        a = np.diag([1.0, 0.0]).astype(np.complex128)
        chi = Partition((2,))
        bound = dk_immanant_bound(chi, 1, singular_values(a))
        margin = bound - _immanant_sup(chi, a, 1, SLACK_SAMPLES, next(draws))
        results.append(
            CheckResult(
                name="permanent bound strictly slack at diag(1, 0)",
                params={"chi": [2], "k": 1, "samples": SLACK_SAMPLES},
                expected="bound - sup >= 0.05",
                observed=margin,
                tolerance=0.05,
                passed=margin >= 0.05,
            )
        )
    return results


def check_taylor_perturbation(seed: int = 0, max_n: int = 4) -> list[CheckResult]:
    """Exact Taylor reconstruction and the Lipschitz-type difference bounds.

    Both polynomial maps must rebuild exactly from their derivatives, and the
    perturbation bound, times chi(1) for the immanant, must dominate actual
    differences over PERTURBATIONS draws at perturbation norms 0.01, 0.1, 1.
    The perturbations are evaluated one stack per character.
    """
    size = min(3, max_n)
    results = []
    draws = _draws(seed)
    chis = partitions_of(size)
    classes = {chi: build_symmetry_class(chi, size) for chi in chis}

    for chi in chis:
        sc = classes[chi]
        # Each draw reads t, x, a and y in turn.
        drawn = [
            [random_matrix(size, rng) for _ in range(4)] for rng in itertools.islice(draws, 5)
        ]
        t, x, a, y = map(np.array, zip(*drawn))
        total = np.zeros((len(t), sc.dim, sc.dim), dtype=np.complex128)
        for k in range(0, size + 1):
            total += _dk_stack(sc, t, [x] * k) / math.factorial(k)
        scalar = sum(
            _dk_immanant_raw(chi, a, [y] * k) / math.factorial(k) for k in range(0, size + 1)
        )
        worst_op = max(map(_relative_error, total, _dk_stack(sc, t + x, [])))
        worst_imm = max(map(_relative_error, scalar, _dk_immanant_raw(chi, a + y, [])))
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
    groups: dict[Partition, list] = {}
    for i, rng in enumerate(itertools.islice(draws, PERTURBATIONS)):
        delta = deltas[i % len(deltas)]
        chi = chis[i % len(chis)]
        t = random_matrix(size, rng)
        x = rng.standard_normal((2, size, size))
        bound = perturbation_bounds(chi, singular_values(t), delta)
        a = random_matrix(size, rng)
        y = rng.standard_normal((2, size, size))
        bound_imm = degree(chi) * perturbation_bounds(chi, singular_values(a), delta)
        groups.setdefault(chi, []).append((t, x, a, y, delta, bound, bound_imm))
    worst_op_violation = -math.inf
    worst_imm_violation = -math.inf
    for chi, group in groups.items():
        t, x, a, y, delta, bound, bound_imm = map(np.array, zip(*group))
        x, y = delta[:, None, None] * _haar_units(np.array([x, y]))
        sc = classes[chi]
        actual_op = _spectral_norms(_dk_stack(sc, t + x, []) - _dk_stack(sc, t, []))
        worst_op_violation = max(worst_op_violation, float(np.max(actual_op - bound)))
        actual_imm = np.abs(_dk_immanant_raw(chi, a + y, []) - _dk_immanant_raw(chi, a, []))
        worst_imm_violation = max(worst_imm_violation, float(np.max(actual_imm - bound_imm)))
    params = {"n": size, "perturbations": PERTURBATIONS, "deltas": list(deltas)}
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
    max_n, seed = _integer(max_n, "max_n"), _integer(seed, "seed")
    if not 2 <= max_n <= MAX_N:
        raise DomainError(f"max_n must be between 2 and the cap {MAX_N}, got {_shown(max_n)}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {_shown(seed)}")
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

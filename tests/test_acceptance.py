"""Acceptance suite: every verification area at full scope, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import json
import re
import time

import numpy as np
import pytest

from kchi import DomainError, norms, verify


def run_criterion(number, label, results):
    failed = [r for r in results if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(
        f"{status} criterion {number}: {label} "
        f"({len(results) - len(failed)}/{len(results)} checks)"
    )
    details = "; ".join(
        f"{r.name} {r.params}: expected {r.expected}, observed {r.observed}"
        for r in failed[:5]
    )
    assert not failed, f"criterion {number} ({label}): {details}"


def test_criterion_01_derivative_norm_identity():
    started = time.monotonic()
    results = verify.check_norm_identity(seed=0, max_n=4)
    elapsed = time.monotonic() - started
    run_criterion(1, "derivative norm identity", results)
    assert elapsed < 60.0, f"norm identity checks took {elapsed:.1f}s"


def test_criterion_02_special_reductions():
    run_criterion(2, "special reductions", verify.check_special_reductions(seed=0))


def test_antisymmetric_reduction_fails_on_a_wrong_closed_form(monkeypatch):
    # The row's reference sums the products over the (m-k)-subsets itself,
    # so a closed form read off perturbed coefficients fails at every (m, n).
    coefficients = norms._coefficients
    monkeypatch.setattr(
        norms, "_coefficients", lambda values: [c * (1 + 1e-6) for c in coefficients(values)]
    )
    rows = [
        r for r in verify.check_special_reductions(seed=0)
        if r.name == "antisymmetric reduction"
    ]
    assert len(rows) == 6 and not any(r.passed for r in rows), rows


def test_criterion_03_supremum_and_attainment():
    run_criterion(3, "supremum and attainment", verify.check_sup_attainment(seed=0))


def test_copy_row_fails_on_a_copy_norm_off_by_1e_10(monkeypatch):
    # The copy row compares the copy's norms at the attaining points with
    # those of their lift to the full class, so a lift off by 1e-10, which
    # puts each copy norm 1e-10 away from the full class's, fails every class.
    monkeypatch.setattr(verify, "SUP_TUPLES", 20)
    monkeypatch.setattr(verify, "SUP_DRAWS", 2)
    lift = verify._lift
    monkeypatch.setattr(verify, "_lift", lambda *args: lift(*args) * (1 + 1e-10))
    rows = [
        r for r in verify.check_sup_attainment(seed=0, max_n=3)
        if r.name == "the copy's norm equals the full class's norm"
    ]
    assert len(rows) == 5 and not any(r.passed for r in rows), rows


def test_criterion_04_finite_differences():
    run_criterion(4, "finite differences", verify.check_finite_differences(seed=0))


def test_criterion_05_derivative_spectrum():
    run_criterion(5, "derivative spectrum", verify.check_spectrum(seed=0))


def test_criterion_06_membership_routes():
    run_criterion(6, "membership routes", verify.check_membership_routes(seed=0))


def test_criterion_07_immanant_factorization():
    run_criterion(7, "immanant factorization", verify.check_power_factorization(seed=0))


def test_criterion_08_immanant_derivative_bound():
    run_criterion(8, "immanant derivative bound", verify.check_immanant_bound(seed=0))


def test_immanant_bound_holds_where_it_lacked_chi_1():
    # At seed 9808 a sampled |D^3 d_chi| at (2,1)/3 reaches 6.067, above
    # 3! e_0 = 6 but below chi(1) 3! e_0 = 12.
    results = verify.check_immanant_bound(seed=9808, max_n=3)
    assert results and all(r.passed for r in results), [r for r in results if not r.passed]


def test_criterion_09_taylor_and_perturbation():
    run_criterion(
        9, "Taylor and perturbation bounds", verify.check_taylor_perturbation(seed=0)
    )


def test_criterion_10_character_table_oracles():
    run_criterion(10, "character table oracles", verify.check_characters(seed=0))


def test_full_report_round_trip():
    report = verify.run_verify(max_n=2, seed=0)
    assert report["all_passed"] is True
    assert [c["name"] for c in report["criteria"]] == [label for label, _ in verify.CRITERIA]


@pytest.mark.parametrize("kwargs", [{"max_n": 2.5}, {"max_n": "3"}, {"seed": "a"}])
def test_run_verify_refuses_arguments_that_are_not_integers(kwargs):
    with pytest.raises(DomainError, match="must be an integer"):
        verify.run_verify(**kwargs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_report_passes_at_other_seeds(seed):
    # Every sampled row draws new streams at each seed; a stream change that
    # only happens to pass at seed 0 fails here.
    report = verify.run_verify(max_n=2, seed=seed)
    failed = [
        (c["name"], row["name"]) for c in report["criteria"] for row in c["checks"]
        if not row["passed"]
    ]
    assert report["all_passed"] is True, failed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sup_criterion_passes_at_other_seeds(monkeypatch, seed):
    # run_verify(max_n=2) skips the supremum criterion: every SUP_CONFIGS
    # entry has n >= 3.
    monkeypatch.setattr(verify, "SUP_TUPLES", 200)
    monkeypatch.setattr(verify, "SUP_DRAWS", 2)
    results = verify.check_sup_attainment(seed=seed, max_n=3)
    assert results and all(r.passed for r in results), results


def test_at_most_rows_state_their_tolerance_once():
    # every "<measure> <= t" row carries t as its tolerance and passes iff
    # observed <= t
    rows = [
        row
        for criterion in verify.run_verify(max_n=2, seed=0)["criteria"]
        for row in criterion["checks"]
    ]
    at_most = [row for row in rows if re.search(r" <= \S+$", str(row["expected"]))]
    assert len(at_most) > len(rows) // 2
    for row in at_most:
        assert row["tolerance"] == float(row["expected"].rsplit(" <= ", 1)[1])
        assert row["passed"] == (row["observed"] <= row["tolerance"])


def test_check_results_serialize_numpy_scalars():
    # Criteria accumulate errors through array arithmetic, so numpy scalars
    # and arrays reach _at_most; it and _exact write Python floats, ints and
    # bools into the row, so a row is strict JSON as it stands, and so is
    # every row of a report.
    values = np.array([np.float64(2.1e-16), 0.0])
    for row in [
        verify._at_most("full symmetric reduction", {"m": 4}, values),
        verify._at_most("full symmetric reduction", {"m": 4}, list(values)),
        verify._exact("first orthogonality relations", {"m": 4}, 0),
    ]:
        obj = row.to_json_obj()
        assert type(obj["observed"]) in (float, int) and obj["passed"] is True
        json.dumps(obj, allow_nan=False)
    for criterion in verify.run_verify(max_n=2)["criteria"]:
        for row in criterion["checks"]:
            assert type(row["observed"]) in (float, int), row
            assert type(row["tolerance"]) is float and type(row["passed"]) is bool

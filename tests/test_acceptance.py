"""Acceptance suite: every verification area at full scope, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import json
import re
import time

import numpy as np

from kchi import verify


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


def test_criterion_03_supremum_and_attainment():
    run_criterion(3, "supremum and attainment", verify.check_sup_attainment(seed=0))


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
    # checks accumulate errors through array arithmetic, so numpy scalars
    # can end up in the fields; the report must still be valid json
    check = verify.CheckResult(
        name="coercion",
        params={"m": 4},
        expected="relative error <= 1e-09",
        observed=np.float64(2.1e-16),
        tolerance=1e-9,
        passed=np.bool_(True),
    )
    obj = check.to_json_obj()
    assert type(obj["observed"]) is float
    assert obj["passed"] is True
    json.dumps(obj)

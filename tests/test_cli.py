"""Tests for the command-line interface."""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kchi
from kchi import matrix_to_pairs
from kchi.cli import main, parse_args


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_pairs(np.asarray(mat, dtype=complex))))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, **env):
    """Run ``python -m kchi`` in a fresh interpreter on the tree under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(kchi.__file__).resolve().parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "kchi", *argv], capture_output=True, text=True, env=env
    )


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def test_parse_args_norm_example():
    cfg = parse_args(["norm", "--chi", "2,1", "--n", "3", "--k", "1"])
    assert cfg.command == "norm"
    assert cfg.chi.parts == (2, 1)
    assert cfg.n == 3
    assert cfg.k == 1
    assert cfg.samples == 100
    assert cfg.seed == 0
    assert cfg.input_path is None


def test_parse_args_rejects_non_partition():
    with pytest.raises(SystemExit) as exc:
        parse_args(["norm", "--chi", "1,2", "--n", "3", "--k", "1"])
    assert exc.value.code == 1


def test_parse_args_verify_flags():
    cfg = parse_args(["verify", "--max-n", "4", "--seed", "7"])
    assert cfg.command == "verify"
    assert cfg.max_n == 4
    assert cfg.seed == 7


def test_parse_args_deriv_requires_matching_directions(tmp_path):
    with pytest.raises(SystemExit) as exc:
        parse_args(
            ["deriv", "--chi", "1,1", "--k", "2", "--input", "t.json", "--x", "x.json"]
        )
    assert exc.value.code == 1


def test_parse_args_rejects_unknown_input():
    for argv in (
        ["norm", "--chi", "2", "--n", "2", "--k", "1", "--frobnicate"],
        ["transmogrify"],
        [],
        ["norm", "--chi", "2", "--n", "2", "--k", "0"],
        ["verify", "--seed", "-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["perturb", "--chi", "2,1", "--delta", "-1", "--input", "a.json"],
        ["perturb", "--chi", "2,1", "--delta", "1e400", "--input", "a.json"],
        ["bound", "--chi", "2,1", "--k", "1", "--input", "a.json", "--samples", "0"],
        ["perturb", "--chi", "2,1", "--delta", "inf", "--input", "a.json"],
        ["perturb", "--chi", "2,1", "--delta", "nan", "--input", "a.json"],
        ["norm", "--chi", "2,1", "--n", "3", "--k", "1", "--samples", "0"],
        ["verify", "--seed", "18446744073709551616"],
        ["verify", "--max-n", "0"],
    ],
)
def test_parse_args_rejects_out_of_range_numbers(argv):
    # non-finite floats are usage errors, caught before any computation
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def test_chartable_command(capsys):
    code, out, _ = run_cli(capsys, ["chartable", "--m", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "chartable"
    assert report["partitions"] == [[3], [2, 1], [1, 1, 1]]
    assert report["values"] == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_power_command_computes_the_determinant(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", [[1.0, 2.0], [3.0, 4.0]])
    code, out, _ = run_cli(
        capsys, ["power", "--chi", "1,1", "--n", "2", "--input", path]
    )
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 1
    assert report["delta_hat"] == [[1, 2]]
    value = report["matrix"][0][0]
    assert np.isclose(value[0], -2.0) and np.isclose(value[1], 0.0)


def test_deriv_command_computes_the_adjugate_trace(capsys, tmp_path):
    t_path = write_matrix(tmp_path / "t.json", [[1.0, 2.0], [3.0, 4.0]])
    x_path = write_matrix(tmp_path / "x.json", np.eye(2))
    code, out, _ = run_cli(
        capsys,
        ["deriv", "--chi", "1,1", "--k", "1", "--input", t_path, "--x", x_path],
    )
    assert code == 0
    report = json.loads(out)
    value = report["matrix"][0][0]
    # first derivative of the determinant along the identity: trace of the
    # adjugate, here 4 + 1
    assert np.isclose(value[0], 5.0) and np.isclose(value[1], 0.0)


def test_norm_command_with_explicit_operator(capsys, tmp_path):
    path = write_matrix(tmp_path / "t.json", np.eye(2))
    code, out, _ = run_cli(
        capsys,
        ["norm", "--chi", "1,1", "--n", "2", "--k", "1", "--input", path,
         "--samples", "10"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert np.isclose(report["formula_value"], 2.0)
    assert np.isclose(report["identity_value"], 2.0)


def test_norm_command_random_draw_is_deterministic(capsys):
    argv = ["norm", "--chi", "2", "--n", "2", "--k", "1", "--samples", "5",
            "--seed", "42"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


def test_immanant_command(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", np.eye(3))
    code, out, _ = run_cli(capsys, ["immanant", "--chi", "2,1", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == [2.0, 0.0]


def test_bound_command(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", np.diag([1.0, 0.0]))
    code, out, _ = run_cli(
        capsys,
        ["bound", "--chi", "2", "--k", "1", "--input", path, "--samples", "50"],
    )
    assert code == 0
    report = json.loads(out)
    assert np.isclose(report["bound_value"], 2.0)
    assert report["ok"] is True
    assert report["sample_sup"] <= 2.0


def test_norm_and_bound_reports_keep_their_keys(capsys, tmp_path):
    # both reports state the tolerance their "ok" applies, which no flag sets
    path = write_matrix(tmp_path / "a.json", np.eye(2))
    _, norm, _ = run_cli(
        capsys, ["norm", "--chi", "2", "--n", "2", "--k", "1", "--input", path, "--samples", "5"]
    )
    _, bound, _ = run_cli(
        capsys, ["bound", "--chi", "2", "--k", "1", "--input", path, "--samples", "5"]
    )
    common = {"chi", "k", "n", "samples", "seed", "tolerance", "ok", "schema", "command"}
    norm, bound = json.loads(norm), json.loads(bound)
    assert set(norm) == common | {
        "m", "formula_value", "identity_value", "attained_value", "sample_max"
    }
    assert set(bound) == common | {"bound_value", "sample_sup"}
    assert norm["tolerance"] == bound["tolerance"] == 1e-07
    with pytest.raises(SystemExit) as exc:
        parse_args(["norm", "--chi", "2", "--n", "2", "--k", "1", "--tolerance", "0.5"])
    assert exc.value.code == 1


def test_perturb_command(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", np.eye(2))
    code, out, _ = run_cli(
        capsys, ["perturb", "--chi", "1,1", "--delta", "1.0", "--input", path]
    )
    assert code == 0
    report = json.loads(out)
    assert np.isclose(report["bound"], 3.0)
    assert "kchi_bound" not in report and "imm_bound" not in report
    assert report["nu"] == [1.0, 1.0]


def test_verify_command_small_scope(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["failed_checks"] == 0
    assert len(report["criteria"]) == 10
    assert all(c["passed"] for c in report["criteria"])


def test_verify_output_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, ["verify", "--max-n", "2"])
    code2, out2, _ = run_cli(capsys, ["verify", "--max-n", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_output_is_byte_stable_across_processes():
    # Fresh interpreters with different string hashing print the same bytes,
    # so no report depends on set or dict iteration order.
    runs = [
        run_module(["verify", "--max-n", "2", "--seed", "3"], PYTHONHASHSEED=hash_seed)
        for hash_seed in ("0", "1")
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_verify_max_n_above_the_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, ["verify", "--max-n", "5"])
    assert code == 2
    assert out == ""
    assert "cap 4" in err


def test_verify_max_n_at_the_cap_is_accepted(capsys, monkeypatch):
    # one real criterion keeps this fast; every criterion at n = 4 runs in
    # tests/test_acceptance.py
    monkeypatch.setattr(
        "kchi.verify.CRITERIA", (("character table oracles", kchi.verify.check_characters),)
    )
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["max_n"] == 4
    assert report["all_passed"] is True


def test_verify_failure_exits_four(capsys, monkeypatch):
    def failing_run(max_n, seed):
        return {"schema": "kchi-report/1", "all_passed": False, "criteria": []}

    monkeypatch.setattr("kchi.verify.run_verify", failing_run)
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2"])
    assert code == 4
    assert json.loads(out)["all_passed"] is False


def test_a_non_finite_row_prints_its_report_and_exits_four(capsys, monkeypatch):
    # A case whose measure is nan fails its row, and the report still
    # prints, as strict JSON, with that row's observed value null.
    def nan_row(seed, max_n):
        return [kchi.verify._at_most("full symmetric reduction", {}, [0.0, float("nan")])]

    monkeypatch.setattr(
        "kchi.verify.CRITERIA",
        (("character table oracles", kchi.verify.check_characters), ("nan row", nan_row)),
    )
    code, out, err = run_cli(capsys, ["verify", "--max-n", "2"])
    assert (code, err) == (4, "")
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert report["all_passed"] is False and report["failed_checks"] == 1
    (row,) = report["criteria"][1]["checks"]
    assert row["observed"] is None and row["passed"] is False


def test_a_nan_in_the_kernel_fails_its_criteria_and_exits_four(capsys, monkeypatch):
    # A NaN in M_W of (2,1)/3 stops every criterion that evaluates that
    # class with a NumericError.  Each of them is one failed row that
    # carries the error's message, the other criteria still run, and the
    # report prints as strict JSON.
    partial_trace = kchi.symclass._partial_trace

    def poisoned(sc, t, xs):
        m_w = partial_trace(sc, t, xs)
        if (sc.chi.parts, sc.n) == ((2, 1), 3):
            m_w[..., 0, 0] = np.nan
        return m_w

    monkeypatch.setattr(kchi.symclass, "_partial_trace", poisoned)
    code, out, err = run_cli(capsys, ["verify", "--max-n", "3"])
    assert (code, err) == (4, "")
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert report["all_passed"] is False
    failed = {
        criterion["name"]: row
        for criterion in report["criteria"]
        for row in criterion["checks"]
        if not row["passed"]
    }
    assert report["failed_checks"] == len(failed)
    assert set(failed) == {
        "derivative norm identity",
        "supremum and attainment",
        "finite differences",
        "derivative spectrum",
        "immanant factorization",
        "Taylor and perturbation bounds",
    }
    for row in failed.values():
        assert row["name"] == "values are finite"
        assert row["observed"] == "compressed operator is not finite: the computation overflowed"


@pytest.mark.parametrize(
    "command,flags",
    [
        ("chartable", ["--m", "3"]),
        ("power", ["--chi", "2,1", "--n", "3", "--input", "{a}"]),
        ("deriv", ["--chi", "2,1", "--k", "1", "--input", "{a}", "--x", "{a}"]),
        ("norm", ["--chi", "2,1", "--n", "3", "--k", "1", "--samples", "5"]),
        ("immanant", ["--chi", "2,1", "--input", "{a}"]),
        ("bound", ["--chi", "2,1", "--k", "1", "--input", "{a}", "--samples", "5"]),
        ("perturb", ["--chi", "2,1", "--delta", "0.5", "--input", "{a}"]),
        ("verify", ["--max-n", "2"]),
    ],
)
def test_every_report_carries_one_stamp(capsys, monkeypatch, tmp_path, command, flags):
    monkeypatch.setattr(
        "kchi.verify.CRITERIA", (("character table oracles", kchi.verify.check_characters),)
    )
    a = write_matrix(tmp_path / "a.json", np.diag([3.0, 2.0, 1.0]))
    code, out, _ = run_cli(capsys, [command, *(f.format(a=a) for f in flags)])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == kchi.verify.REPORT_SCHEMA
    assert report["command"] == command
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Exit codes and output handling.
# ---------------------------------------------------------------------------


def test_corrupted_matrix_is_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(
        capsys, ["power", "--chi", "1,1", "--n", "2", "--input", str(bad)]
    )
    assert code == 2
    assert out == ""
    assert "domain error" in err


def test_missing_matrix_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["immanant", "--chi", "2", "--input", str(tmp_path / "absent.json")],
    )
    assert code == 2
    assert "absent.json" in err


@pytest.mark.parametrize(
    "payload",
    [
        b"\xff\xfe",
        b"[" * 100000 + b"]" * 100000,
        b"[[[" + b"9" * 5000 + b", 0]]]",
        b"[[[" + b"9" * 400 + b", 0]]]",
        b"[[[0, -" + b"9" * 400 + b"]]]",
    ],
    ids=["not-utf8", "nested-100000-deep", "5000-digit-integer", "400-digit-real", "400-digit-imag"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["immanant", "--chi", "1", "--input"],
        ["perturb", "--chi", "1", "--delta", "0.5", "--input"],
        ["deriv", "--chi", "1", "--k", "1", "--input", "EYE", "--x"],
    ],
    ids=["immanant", "perturb", "deriv-x"],
)
def test_malformed_matrix_files_are_one_line_domain_errors(capsys, tmp_path, argv, payload):
    # Bytes that are not UTF-8, nesting past the recursion limit and
    # integers past Python's digit limit or the double range exit 2 with
    # one line naming the file, not a traceback.
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    eye = write_matrix(tmp_path / "eye.json", np.eye(1))
    argv = [eye if arg == "EYE" else arg for arg in argv]
    code, out, err = run_cli(capsys, [*argv, str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"kchi: domain error: {bad}") and err.count("\n") == 1


def test_an_oversized_n_exits_three_before_the_operator_is_drawn(capsys, monkeypatch):
    # norm without --input builds the class, whose caps bound n, before it
    # draws its n x n operator: 17^3 = 4913 is above the 4096 cap.
    def no_draw(*args):
        raise AssertionError("the operator was drawn")

    monkeypatch.setattr(kchi.cli, "random_matrix", no_draw)
    code, out, err = run_cli(capsys, ["norm", "--chi", "2,1", "--n", "17", "--k", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("kchi: ") and err.count("\n") == 1


def test_a_2000_digit_n_exits_three_with_one_line(capsys):
    # n^m then has 6000 digits, past Python's limit for printing an int, so
    # the cap's message names its size rather than its digits.
    code, out, err = run_cli(capsys, ["norm", "--chi", "2,1", "--n", "9" * 2000, "--k", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("kchi: ") and err.count("\n") == 1


def test_wrong_shape_matrix_is_a_domain_error(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", np.eye(3))
    code, _, _ = run_cli(
        capsys, ["power", "--chi", "1,1", "--n", "2", "--input", path]
    )
    assert code == 2


def test_empty_class_is_a_domain_error(capsys, tmp_path):
    path = write_matrix(tmp_path / "a.json", np.eye(2))
    code, _, _ = run_cli(
        capsys, ["power", "--chi", "1,1,1", "--n", "2", "--input", path]
    )
    assert code == 2


def test_resource_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, ["chartable", "--m", "11"])
    assert code == 3
    assert out == ""


def test_dimension_cap_exit_code(capsys, tmp_path):
    # 5^6 = 15625 is above the 4096 cap on n^m
    path = write_matrix(tmp_path / "a.json", np.eye(5))
    code, out, _ = run_cli(
        capsys, ["power", "--chi", "3,3", "--n", "5", "--input", path]
    )
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "argv,mat",
    [
        (["immanant", "--chi", "1,1"], np.diag([1e200, 1e200])),
        (["power", "--chi", "2", "--n", "2"], np.diag([1e200, 1.0])),
        (["perturb", "--chi", "2,1", "--delta", "1e200"], np.diag([1.0, 2.0, 3.0])),
        (["norm", "--chi", "2,1", "--n", "3", "--k", "1"], np.diag([1e200] * 3)),
        (["bound", "--chi", "2,1", "--k", "1"], np.diag([1e200] * 3)),
    ],
)
def test_overflow_is_a_numeric_error(tmp_path, argv, mat):
    # finite input whose result overflows: exit 3, no JSON, no numpy warning
    path = write_matrix(tmp_path / "a.json", mat)
    result = run_module([*argv, "--input", path])
    assert result.returncode == 3
    assert result.stdout == ""
    assert "Warning" not in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--chi", "1,1", "--n", "2", "--k", "1"],
        ["bound", "--chi", "2", "--k", "2"],
        ["perturb", "--chi", "2", "--delta", "0.1"],
    ],
)
def test_singular_value_overflow_exits_three(capsys, tmp_path, argv):
    # Finite entries of 1e308 whose singular value 2e308 overflows in the SVD.
    path = write_matrix(tmp_path / "a.json", np.full((2, 2), 1e308))
    code, out, err = run_cli(capsys, [*argv, "--input", path])
    assert code == 3
    assert out == ""
    assert err.startswith("kchi: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--chi", "2", "--n", "2", "--k", "1", "--input"],
        ["norm", "--chi", "2", "--n", "2", "--k", "1"],
        ["bound", "--chi", "2", "--k", "1", "--input"],
    ],
)
def test_huge_sample_counts_exit_two_before_drawing(capsys, monkeypatch, tmp_path, argv):
    # A sample count that cannot finish is refused before any tuple is drawn.
    def no_draws(*args):
        raise AssertionError("tuples were drawn")

    monkeypatch.setattr(kchi.norms, "_haar_units", no_draws)
    if argv[-1] == "--input":
        argv = [*argv, write_matrix(tmp_path / "eye2.json", np.eye(2))]
    code, out, err = run_cli(capsys, [*argv, "--samples", str(2**64)])
    assert code == 2
    assert out == ""
    assert err.startswith("kchi: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, samples",
    [
        (["bound", "--chi", "2", "--k", "1"], 10**12),
        (["norm", "--chi", "2", "--n", "2", "--k", "1"], 2**64 - 1),
    ],
)
def test_sample_counts_past_the_budget_exit_three_promptly(
    capsys, monkeypatch, tmp_path, argv, samples
):
    # Counts below 2**64 whose tuples would take hours are refused as a
    # resource error, before any tuple is drawn.
    def no_draws(*args):
        raise AssertionError("tuples were drawn")

    monkeypatch.setattr(kchi.norms, "_haar_units", no_draws)
    path = write_matrix(tmp_path / "eye2.json", np.eye(2))
    started = time.monotonic()
    code, out, err = run_cli(capsys, [*argv, "--input", path, "--samples", str(samples)])
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("kchi: ") and err.count("\n") == 1
    assert str(kchi.norms.SAMPLE_BUDGET_BYTES) in err


def test_non_finite_report_is_a_numeric_error(capsys, monkeypatch):
    monkeypatch.setattr(kchi.cli, "_dispatch", lambda cfg: ({"value": float("inf")}, 0))
    code, out, _ = run_cli(capsys, ["chartable", "--m", "2"])
    assert code == 3
    assert out == ""


def test_non_finite_matrix_is_a_numeric_error_before_any_output(capsys, monkeypatch):
    report = {"chi": [1], "n": 1, "dim": 1, "matrix": np.array([[complex(1.0, np.nan)]])}
    monkeypatch.setattr(kchi.cli, "_dispatch", lambda cfg: (report, 0))
    code, out, err = run_cli(capsys, ["chartable", "--m", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith("kchi: report holds a non-finite number")


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 3)])
def test_a_streamed_matrix_has_the_bytes_of_json_dumps(capsys, monkeypatch, tmp_path, shape):
    # _emit writes a class matrix row by row; the text is json.dumps's own
    # for the pairs, at any magnitude and for a signed zero.
    rng = np.random.default_rng(sum(shape))
    mat = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    mat = mat + 1j * rng.standard_normal(shape)
    mat.flat[0] = complex(-0.0, 5e-324)
    report = {"chi": [2, 1], "n": 3, "dim": shape[0], "k": 1, "matrix": mat}
    monkeypatch.setattr(kchi.cli, "_dispatch", lambda cfg: (report, 0))
    stamped = {**report, "matrix": matrix_to_pairs(mat)}
    want = json.dumps(stamped, sort_keys=True, indent=2, allow_nan=False) + "\n"
    code, out, _ = run_cli(capsys, ["chartable", "--m", "2"])
    assert code == 0
    assert out == want
    out_path = tmp_path / "report.json"
    assert main(["chartable", "--m", "2", "--output", str(out_path)]) == 0
    assert out_path.read_text() == want


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--chi", "2,1", "--n", "3", "--input", "t.json"],
        ["deriv", "--chi", "2,1", "--k", "1", "--input", "t.json", "--x", "x.json"],
    ],
)
def test_class_matrix_reports_are_canonical_json(capsys, tmp_path, argv):
    # What power and deriv print is the sorted, indented json.dumps text of
    # the report they print.
    rng = np.random.default_rng(7)
    for name in ("t", "x"):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        write_matrix(tmp_path / f"{name}.json", mat)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_output_flag_writes_the_same_bytes(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, ["chartable", "--m", "2"])
    assert code == 0
    code = main(["chartable", "--m", "2", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text() == stdout


def test_console_script_is_installed():
    """The declared ``kchi`` console script runs ``kchi.cli:main``.

    Reads ``[project.scripts]`` from ``pyproject.toml``, checks that the
    ``kchi`` entry resolves to ``kchi.cli.main``, and runs the wrapper that
    setuptools generates for it in a fresh interpreter on the source tree
    under test. It does not check that a ``kchi`` executable is on PATH:
    that is a product of the install step, not of the source.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "kchi" in scripts
    module, attr = scripts["kchi"].split(":")
    assert getattr(importlib.import_module(module), attr) is main
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ, PYTHONPATH=str(Path(kchi.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "chartable", "--m", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["values"] == [[1, 1], [-1, 1]]


def test_python_dash_m_runs_the_cli():
    result = run_module(["chartable", "--m", "2"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["values"] == [[1, 1], [-1, 1]]

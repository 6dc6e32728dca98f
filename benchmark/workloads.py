"""The three benchmark workloads, each a closed loop: one caller, one call in flight.

Every workload has the same shape:

* ``prepare(seed, tiny, workdir)`` makes the seeded inputs (this is the
  part of set-up that belongs to the workload);
* ``run(inputs, seconds, tracer)`` repeats the workload's unit of work
  until ``seconds`` have passed (at least once), or runs exactly one unit
  when ``seconds`` is None, checks every output, and returns an Outcome.

The package is driven only through its public names, looked up on the
``kchi`` modules at call time so that a tracer patched into them sees
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import kchi
import kchi.verify

from tracer import CLI_INVOCATION, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

# A child process that runs longer than this has hung; the run fails.
CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one run of a workload measured and checked.

    ``task_s`` holds one wall time per unit of user-visible work and
    ``op_ms`` one latency per repeated operation (see each workload);
    ``exact`` holds counts that must repeat bit for bit for a given seed
    and source tree.
    """

    task_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    exact: dict = field(default_factory=dict)
    wall_s: float = 0.0

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; report it on stderr when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"benchmark: check failed: {what}", file=sys.stderr)
        return ok

    def crash(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"benchmark: {what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _rel_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng((seed, *tags))


def _gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


# --------------------------------------------------------------------------
# verify_suite: the paper's certificate, kchi.verify.run_verify(max_n=3).
# Bound by per-call overhead on tiny matrices (N = n^m <= 27); the class
# build is idle here, batched evaluation is not.


class VerifySuite:
    name = "verify_suite"

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        del workdir
        return {"seed": seed, "max_n": 2 if tiny else 3}

    def run(self, inputs: dict, seconds, tracer=None) -> Outcome:
        del tracer
        out = Outcome()
        start = time.perf_counter()
        digests = set()
        while True:
            t0 = time.perf_counter()
            try:
                report = kchi.verify.run_verify(max_n=inputs["max_n"], seed=inputs["seed"])
            except Exception:
                out.crash("run_verify")
                break
            wall = time.perf_counter() - t0
            # Byte form of `kchi verify` output, for the stability gate.
            text = json.dumps(report, sort_keys=True, indent=2).encode()
            out.task_s.append(wall)
            out.op_ms.append(1000.0 * wall / max(1, report["total_checks"]))
            for criterion in report["criteria"]:
                for row in criterion["checks"]:
                    out.check(row["passed"], f"verify: {criterion['name']} {row['params']}")
            out.check(report["all_passed"], "verify: all_passed")
            digests.add(hashlib.sha256(text).hexdigest())
            if seconds is None or time.perf_counter() - start >= seconds:
                break
        out.check(len(digests) <= 1, "verify: report bytes differ between repeats")
        if digests:
            out.exact["report_sha256"] = digests.pop()
            out.exact["total_checks"] = report["total_checks"]
        out.wall_s = time.perf_counter() - start
        return out


# --------------------------------------------------------------------------
# class_ladder: fresh classes from N = 125 to N = 1296, then D^k K_chi
# evaluations on them.  Exercises the dense n^m x n^m projector, the greedy
# sweep, the Kronecker kernels and memory.

LADDER = (((2, 1), 5), ((3, 1), 5), ((2, 2, 1), 4), ((2, 1, 1), 6), ((3, 1), 6))
TINY_LADDER = (((2, 1), 3),)


class ClassLadder:
    name = "class_ladder"

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        del workdir
        rungs = []
        for r, (parts, n) in enumerate(TINY_LADDER if tiny else LADDER):
            rng = _rng(seed, r)
            rungs.append(
                {"chi": kchi.Partition(parts), "n": n, "a": _gaussian(n, rng), "b": _gaussian(n, rng)}
            )
        return {"seed": seed, "rungs": rungs}

    def _points(self, seed: int, r: int, rung: dict, pass_no: int) -> list:
        # One seeded base point: D^k K_chi at T for k = 1..m on random unit
        # directions, then k = 1 at the attaining direction w* (T = P w*).
        rng = _rng(seed, r, 1 + pass_no)
        n, m = rung["n"], rung["chi"].size
        t = _gaussian(n, rng)
        evals = [(t, [kchi.random_unit_matrix(n, rng) for _ in range(k)], None) for k in range(1, m + 1)]
        _, w = kchi.polar(t)
        formula = None
        if m <= n:
            formula = kchi.dk_norm_formula(rung["chi"], 1, kchi.singular_values(t), n=n)
        evals.append((t, [w.conj().T], formula))
        return evals

    def _build(self, out: Outcome, rung: dict):
        """Fresh class plus its first K_chi (timed), then the K(AB) = K(A)K(B) gate."""
        label = f"chi={rung['chi'].parts} n={rung['n']}"
        try:
            t0 = time.perf_counter()
            sc = kchi.symclass.build_symmetry_class(rung["chi"], rung["n"])
            ka = kchi.symclass.k_chi_matrix(sc, rung["a"])
            wall = time.perf_counter() - t0
            kb = kchi.symclass.k_chi_matrix(sc, rung["b"])
            kab = kchi.symclass.k_chi_matrix(sc, rung["a"] @ rung["b"])
        except Exception:
            out.crash(f"class_ladder build {label}")
            return None, 0.0
        err = _rel_err(ka @ kb, kab)
        out.check(err <= 1e-9, f"class_ladder {label}: K(AB) = K(A)K(B) off by {err:.3e}")
        return sc, wall

    def run(self, inputs: dict, seconds, tracer=None) -> Outcome:
        # One pass builds every rung afresh and evaluates one seeded base
        # point per rung; passes repeat until `seconds` have gone by.
        del tracer
        out = Outcome()
        seed = inputs["seed"]
        start = time.perf_counter()
        pass_no = 0
        while True:
            classes = []
            first_kchi = 0.0
            for rung in inputs["rungs"]:
                sc, wall = self._build(out, rung)
                first_kchi += wall
                classes.append(sc)
            out.task_s.append(first_kchi)
            built = [sc for sc in classes if sc is not None]
            out.exact.update(
                projector_bytes=sum(16 * (sc.n**sc.m) ** 2 for sc in built),
                sweep_kept=sum(sc.dim for sc in built),
                sweep_tried=sum(len(sc.omega) for sc in built),
            )
            eval_time = 0.0
            evals = 0
            for r, (rung, sc) in enumerate(zip(inputs["rungs"], classes)):
                if sc is None:
                    continue
                for t, xs, formula in self._points(seed, r, rung, pass_no):
                    try:
                        t0 = time.perf_counter()
                        value = kchi.denselin.spectral_norm(kchi.symclass.dk_kchi(sc, t, xs))
                        eval_time += time.perf_counter() - t0
                    except Exception:
                        out.crash(f"class_ladder dk_kchi chi={sc.chi.parts} n={sc.n}")
                        continue
                    evals += 1
                    ok = formula is None or abs(value - formula) <= 1e-7 * formula
                    out.check(ok, f"class_ladder chi={sc.chi.parts} n={sc.n}: attained {value!r} vs formula {formula!r}")
            if evals:
                out.op_ms.append(1000.0 * eval_time / evals)
            del classes, built
            pass_no += 1
            if seconds is None or time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        return out


# --------------------------------------------------------------------------
# cli_session: one-shot `python -m kchi.cli` processes on seeded JSON
# inputs.  The only workload that pays cold start: interpreter plus
# `import kchi`, the cold n = 8 permutation table, and JSON output.


def _write_matrix(path: str, mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[[float(z.real), float(z.imag)] for z in row] for row in mat], fh)


def _session_commands(seed: int, tiny: bool) -> list:
    """(label, argv) pairs; input paths are relative to the session directory."""
    perturb = [
        ("perturb", ["perturb", "--chi", "2,1", "--delta", "0.1", "--input", "t3.json"]),
        ("perturb", ["perturb", "--chi", "3,1", "--delta", "0.5", "--input", "t4.json"]),
        ("perturb", ["perturb", "--chi", "2,2", "--delta", "1.0", "--input", "t4.json"]),
        ("perturb", ["perturb", "--chi", "1,1,1", "--delta", "2.0", "--input", "t3.json"]),
    ]
    if tiny:
        return perturb[:1]
    s = str(seed)
    return [
        perturb[0],
        ("chartable", ["chartable", "--m", "8"]),
        ("power", ["power", "--chi", "2,1", "--n", "5", "--input", "a5.json"]),
        ("power", ["power", "--chi", "3,1", "--n", "5", "--input", "a5.json"]),
        perturb[1],
        ("deriv", ["deriv", "--chi", "2,1", "--k", "2", "--input", "t5.json", "--x", "x1.json", "--x", "x2.json"]),
        ("norm", ["norm", "--chi", "2,1", "--n", "4", "--k", "2", "--input", "t4.json", "--samples", "100", "--seed", s]),
        perturb[2],
        ("immanant", ["immanant", "--chi", "8", "--input", "a8.json"]),
        ("immanant", ["immanant", "--chi", "4,4", "--input", "a8.json"]),
        ("immanant", ["immanant", "--chi", "3,2,1,1,1", "--input", "a8.json"]),
        ("immanant", ["immanant", "--chi", "1,1,1,1,1,1,1,1", "--input", "a8.json"]),
        ("bound", ["bound", "--chi", "2,2", "--k", "2", "--input", "a4.json", "--samples", "200", "--seed", s]),
        perturb[3],
    ]


class CliSession:
    name = "cli_session"

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        rng = _rng(seed, 0)
        mats = {name: _gaussian(n, rng) for name, n in (("t3", 3), ("t4", 4), ("t5", 5), ("a4", 4), ("a5", 5), ("a8", 8))}
        mats["x1"] = kchi.random_unit_matrix(5, rng)
        mats["x2"] = kchi.random_unit_matrix(5, rng)
        os.makedirs(workdir, exist_ok=True)
        for name, mat in mats.items():
            _write_matrix(os.path.join(workdir, name + ".json"), mat)
        return {"seed": seed, "dir": workdir, "mats": mats, "commands": _session_commands(seed, tiny)}

    def _expected(self, inputs: dict) -> dict:
        """In-process library results that the power and deriv commands must reproduce."""
        mats = inputs["mats"]
        want = {}
        for parts in ((2, 1), (3, 1)):
            sc = kchi.symclass.build_symmetry_class(kchi.Partition(parts), 5)
            want[("power", parts)] = kchi.symclass.k_chi_matrix(sc, mats["a5"])
            if parts == (2, 1):
                want[("deriv", parts)] = kchi.symclass.dk_kchi(sc, mats["t5"], [mats["x1"], mats["x2"]])
        return want

    def _gate(self, out: Outcome, label: str, argv: list, code: int, stdout: bytes, inputs: dict) -> None:
        what = "cli " + " ".join(argv)
        if not out.check(code == 0, f"{what}: exit code {code}"):
            return
        report = json.loads(stdout)
        if not out.check(report.get("schema") == kchi.verify.REPORT_SCHEMA, f"{what}: schema tag"):
            return
        if label in ("power", "deriv"):
            want = inputs["expected"][(label, tuple(report["chi"]))]
            pairs = np.array(report["matrix"], dtype=np.float64)
            got = pairs[..., 0] + 1j * pairs[..., 1]
            err = _rel_err(got, want) if got.shape == want.shape else math.inf
            out.check(err <= 1e-12, f"{what}: differs from the library result by {err:.3e}")
        elif label in ("norm", "bound"):
            out.check(report["ok"] is True, f"{what}: ok is not true")
        elif label == "immanant" and report["chi"] == [1] * 8:
            got = complex(*report["value"])
            want = complex(np.linalg.det(inputs["mats"]["a8"]))
            err = abs(got - want) / abs(want)
            out.check(err <= 1e-9, f"{what}: determinant off by {err:.3e}")

    def run(self, inputs: dict, seconds, tracer=None) -> Outcome:
        out = Outcome()
        if "expected" not in inputs:
            inputs["expected"] = self._expected(inputs)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        child = os.path.join(BENCH_DIR, "cli_child.py")
        spans_path = os.path.join(inputs["dir"], "child-spans.npz")
        sizes = None
        start = time.perf_counter()
        while True:
            session = 0.0
            results = []
            for label, argv in inputs["commands"]:
                if tracer is None:
                    cmd = [sys.executable, "-m", "kchi.cli", *argv]
                else:
                    cmd = [sys.executable, child, spans_path, *argv]
                    span = tracer.open(CLI_INVOCATION)
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=inputs["dir"], env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.close(span)
                    if os.path.exists(spans_path):
                        tracer.merge(Tracer.load(spans_path), span)
                        os.remove(spans_path)
                session += wall
                if label == "perturb":
                    out.op_ms.append(1000.0 * wall)
                results.append((label, argv, proc.returncode, proc.stdout, proc.stderr))
            out.task_s.append(session)
            pass_sizes = []
            for label, argv, code, stdout, stderr in results:
                if code != 0:
                    sys.stderr.write(stderr.decode(errors="replace"))
                try:
                    self._gate(out, label, argv, code, stdout, inputs)
                except (ValueError, KeyError, TypeError):
                    out.crash(f"cli {' '.join(argv)} output check")
                pass_sizes.append(len(stdout))
            out.check(sizes is None or sizes == pass_sizes, "cli: stdout sizes differ between passes")
            sizes = pass_sizes
            if seconds is None or time.perf_counter() - start >= seconds:
                break
        out.exact["stdout_bytes"] = sizes
        out.wall_s = time.perf_counter() - start
        return out


WORKLOADS = {w.name: w for w in (VerifySuite(), ClassLadder(), CliSession())}

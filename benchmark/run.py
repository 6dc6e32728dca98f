"""Benchmark of the kchi package: three workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload {verify_suite,class_ladder,cli_session}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it runs one fixed unit of the workload untraced
and then once more under the span tracer (benchmark/tracer.py), and
reports the per-layer metrics.  Every run checks the outputs, prints each
metric by name and unit, a context line, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans go to ``.bench_out/``; counts that must repeat exactly for a seed
and source tree are kept in ``.bench_out/counts/`` and compared on every
later run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(REPO_ROOT, ".bench_out")

# Fresh processes timed for set-up; the median is reported.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "task_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    from tracer import TRACED_NAMES

    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units.update(
        {
            "symclass.sweep_keep_ratio": "1",
            "symclass.projector_bytes": "B",
            "denselin.kron.bytes_out": "B",
            "denselin.kron.per_dk_kchi": "count",
            "verify.checks": "count",
            "verify.checks_failed": "count",
            "cli.import_s": "s",
            "cli.invocation.self_s": "s",
            "cli.stdout_bytes": "B",
            "trace.unwrapped_s": "s",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def source_digest() -> tuple[str, int]:
    """sha256 over src/kchi/*.py and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "kchi", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _git_commit():
    # The benchmark may run in a copy that is not a git repository.
    try:
        with open(os.path.join(REPO_ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(REPO_ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(REPO_ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, if any."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return config().decode(), threads()
    return None, None


def context(src_sha: str, src_lines: int) -> dict:
    import numpy as np

    blas, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": src_sha,
        "kchi_max_dim_unset": "KCHI_MAX_DIM" not in os.environ,
        "src_kchi_lines": src_lines,
    }


def measure_setup(args) -> float:
    """Median wall time of fresh processes doing this workload's set-up."""
    from workloads import CHILD_TIMEOUT_S

    times = []
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(OUT_DIR, f"setup-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", workdir]
        if args.tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return statistics.median(times)


def check_exact(out, key: str, exact: dict) -> None:
    """Compare counts with those stored for the same seed and source tree, then store."""
    path = os.path.join(OUT_DIR, "counts", key + ".json")
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    current = json.loads(json.dumps(exact))
    differing = sorted(k for k in current if k in stored and stored[k] != current[k])
    out.check(not differing, f"exact counts changed for {key}: {differing}")
    stored.update(current)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def peak_rss_mb(workload: str) -> float:
    # cli_session does its work in child processes; the others in this one.
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, inputs, args, setup_s: float):
    out = workload.run(inputs, args.seconds)
    metrics = {
        "setup_s": setup_s,
        "task_s": statistics.median(out.task_s) if out.task_s else None,
        "op_ms": statistics.median(out.op_ms) if out.op_ms else None,
        "peak_rss_mb": peak_rss_mb(workload.name),
    }
    return out, metrics


def traced(workload, inputs, args, key: str):
    from tracer import CLI_IMPORT, CLI_INVOCATION, ROOT, SPAN_NAMES, TRACED_NAMES, Tracer

    untraced = workload.run(inputs, None)
    check_exact(untraced, key, untraced.exact)

    tracer = Tracer()
    with tracer:
        root = tracer.open(ROOT)
        out = workload.run(inputs, None, tracer)
        tracer.close(root)
    out.attempted += untraced.attempted
    out.failed += untraced.failed
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.npz"))

    summary = tracer.summary()
    index = {name: i for i, name in enumerate(SPAN_NAMES)}
    metrics = {}
    for name in TRACED_NAMES:
        i = index[name]
        metrics[f"{name}.calls"] = int(summary["calls"][i])
        metrics[f"{name}.self_s"] = float(summary["self_s"][i])
        metrics[f"{name}.errors"] = int(summary["errors"][i])
    c = tracer.counters
    dk_calls = int(summary["calls"][index["symclass.dk_kchi"]])
    wall = tracer.end[root] - tracer.start[root]
    metrics.update(
        {
            "symclass.sweep_keep_ratio": c["sweep_kept"] / c["sweep_tried"] if c["sweep_tried"] else 0.0,
            "symclass.projector_bytes": c["projector_bytes"],
            "denselin.kron.bytes_out": c["kron_bytes_out"],
            "denselin.kron.per_dk_kchi": c["kron_in_dk_kchi"] / dk_calls if dk_calls else 0.0,
            "verify.checks": c["checks"],
            "verify.checks_failed": c["checks_failed"],
            "cli.import_s": float(summary["self_s"][index[CLI_IMPORT]]),
            "cli.invocation.self_s": float(summary["self_s"][index[CLI_INVOCATION]]),
            "cli.stdout_bytes": sum(out.exact.get("stdout_bytes") or []),
            "trace.unwrapped_s": float(summary["self_s"][index[ROOT]]),
            "trace.wall_s": wall,
            "trace.overhead_s": wall - untraced.wall_s,
        }
    )
    # Self times of all spans, the root's unwrapped remainder included, must
    # add up to the traced wall time.
    total_self = float(summary["self_s"].sum())
    out.check(abs(total_self - wall) <= 1e-6 * wall, f"trace: self times sum to {total_self} s, wall {wall} s")
    out.check(int(summary["errors"].sum()) == 0, "trace: a traced call raised")
    exact = {k: metrics[k] for k in (
        "symclass.sweep_keep_ratio",
        "symclass.projector_bytes",
        "denselin.kron.bytes_out",
        "denselin.kron.per_dk_kchi",
        "verify.checks",
        "cli.stdout_bytes",
    )}
    exact["calls"] = {name: int(n) for name, n in zip(SPAN_NAMES, summary["calls"]) if n}
    out.exact.update({"trace." + k: v for k, v in exact.items()})
    return out, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC_DIR)
    try:
        import kchi
    except ImportError as exc:
        print(f"benchmark: cannot import kchi from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(kchi.__file__).startswith(SRC_DIR + os.sep):
        print(f"benchmark: kchi was imported from {kchi.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed, args.tiny, args.setup_only)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    src_sha, src_lines = source_digest()
    key = f"{workload.name}-seed{args.seed}{'-tiny' if args.tiny else ''}-{src_sha[:16]}"
    setup_s = None if args.trace else measure_setup(args)
    workdir = os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")
    try:
        inputs = workload.prepare(args.seed, args.tiny, workdir)
        if args.trace:
            out, metrics = traced(workload, inputs, args, key)
            units = per_layer_units()
        else:
            out, metrics = end_to_end(workload, inputs, args, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_exact(out, key, out.exact)
    missing = [name for name in units if metrics.get(name) is None]
    out.check(not missing, f"no value measured for {missing}")

    ctx = context(src_sha, src_lines)
    ctx.update(workload=workload.name, seed=args.seed, trace=args.trace,
               fail_ratio=out.failed / max(1, out.attempted))
    for name, unit in units.items():
        print(f"{name:<48} {metrics.get(name)!r:>24} {unit}")
    print(json.dumps({"context": ctx}, sort_keys=True))
    result = {
        "correct": out.failed == 0 and not missing,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

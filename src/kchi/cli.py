"""Command-line front end with JSON reports.

Subcommands cover character tables, induced operators and their
derivatives, the norm and bound reports, perturbation bounds, and the
full verification suite.  Matrices travel as JSON row-major arrays of
[re, im] pairs; every report carries the schema tag and serializes
deterministically, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 usage error, 2 domain error (bad values or
unreadable input), 3 resource or numeric error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from . import verify as verify_mod
from .combinat import Partition
from .denselin import as_matrix, matrix_from_pairs, matrix_to_pairs, singular_values
from .errors import DomainError, NumericError, ResourceError
from .norms import (
    dk_norm_verify,
    immanant,
    immanant_bound_verify,
    perturbation_bounds,
    random_matrix,
    sample_rng,
)
from .symclass import build_symmetry_class, dk_kchi, k_chi_matrix
from .symgroup import char_table
from .verify import REPORT_SCHEMA

__all__ = ["RunConfig", "parse_args", "run_verify", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated result of command-line parsing."""

    command: str
    chi: Partition | None = None
    m: int | None = None
    n: int | None = None
    k: int | None = None
    input_path: str | None = None
    x_paths: tuple[str, ...] = ()
    samples: int = 100
    seed: int = 0
    delta: float | None = None
    max_n: int = 4
    tolerance: float | None = None
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract reserves 2 for
    # domain errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _partition_flag(text: str) -> Partition:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list"
        ) from None
    try:
        return Partition(parts)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def _seed_flag(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must be an unsigned 64-bit integer, got {text}"
        )
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="kchi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("chartable", help="character table of S_m as JSON")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("power", help="induced operator K_chi(A) on the class")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("deriv", help="k-th derivative of the induced operator")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--k", type=_nonneg_int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--x", action="append", default=[], metavar="X.json")
    p.add_argument("--output")

    p = sub.add_parser("norm", help="derivative norm report")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--input")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--tolerance", type=_positive_float)
    p.add_argument("--output")

    p = sub.add_parser("immanant", help="immanant d_chi(A)")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("bound", help="immanant derivative bound report")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--tolerance", type=_positive_float)
    p.add_argument("--output")

    p = sub.add_parser("perturb", help="perturbation bounds for K_chi and d_chi")
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--delta", type=_nonneg_float, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--max-n", dest="max_n", type=_positive_int, default=4)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--output")

    return parser


def parse_args(argv=None) -> RunConfig:
    """Parse command-line arguments into a validated RunConfig.

    Usage problems (unknown flags, malformed partitions, mismatched flag
    combinations) terminate with exit code 1.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "deriv" and len(ns.x) != ns.k:
        parser.error(f"--k {ns.k} requires exactly {ns.k} --x flags, got {len(ns.x)}")
    return RunConfig(
        command=ns.command,
        chi=getattr(ns, "chi", None),
        m=getattr(ns, "m", None),
        n=getattr(ns, "n", None),
        k=getattr(ns, "k", None),
        input_path=getattr(ns, "input", None),
        x_paths=tuple(getattr(ns, "x", ()) or ()),
        samples=getattr(ns, "samples", 100),
        seed=getattr(ns, "seed", 0),
        delta=getattr(ns, "delta", None),
        max_n=getattr(ns, "max_n", 4),
        tolerance=getattr(ns, "tolerance", None),
        output=getattr(ns, "output", None),
    )


def _load_square(path: str, n: int | None = None):
    # A square matrix from a JSON file, of shape (n, n) when n is given.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return as_matrix(matrix_from_pairs(payload), square=True, n=n)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _cmd_chartable(cfg: RunConfig) -> dict:
    table = char_table(cfg.m)
    return {
        "schema": REPORT_SCHEMA,
        "command": "chartable",
        "m": cfg.m,
        "partitions": [list(p.parts) for p in table.partitions],
        "cycle_types": [list(p.parts) for p in table.partitions],
        "values": [list(row) for row in table.values],
    }


def _cmd_power(cfg: RunConfig) -> dict:
    a = _load_square(cfg.input_path, cfg.n)
    sc = build_symmetry_class(cfg.chi, cfg.n)
    mat = k_chi_matrix(sc, a)
    return {
        "schema": REPORT_SCHEMA,
        "command": "power",
        "chi": list(cfg.chi.parts),
        "n": cfg.n,
        "dim": sc.dim,
        "delta_hat": [list(alpha.entries) for alpha in sc.delta_hat],
        "matrix": matrix_to_pairs(mat),
    }


def _cmd_deriv(cfg: RunConfig) -> dict:
    t = _load_square(cfg.input_path)
    n = t.shape[0]
    xs = [_load_square(path, n) for path in cfg.x_paths]
    sc = build_symmetry_class(cfg.chi, n)
    mat = dk_kchi(sc, t, xs)
    return {
        "schema": REPORT_SCHEMA,
        "command": "deriv",
        "chi": list(cfg.chi.parts),
        "n": n,
        "k": cfg.k,
        "dim": sc.dim,
        "delta_hat": [list(alpha.entries) for alpha in sc.delta_hat],
        "matrix": matrix_to_pairs(mat),
    }


def _cmd_norm(cfg: RunConfig) -> dict:
    if cfg.input_path is not None:
        t = _load_square(cfg.input_path, cfg.n)
    else:
        # Seeded draw from the stream just past the sampling range, so the
        # operator never collides with a verification sample.
        t = random_matrix(cfg.n, sample_rng(cfg.seed, cfg.samples))
    sc = build_symmetry_class(cfg.chi, cfg.n)
    report = dk_norm_verify(sc, t, cfg.k, samples=cfg.samples, seed=cfg.seed)
    if cfg.tolerance is not None:
        report = dataclasses.replace(report, tolerance=cfg.tolerance)
    return {
        "schema": REPORT_SCHEMA,
        "command": "norm",
        **report.to_json_obj(),
    }


def _cmd_immanant(cfg: RunConfig) -> dict:
    a = _load_square(cfg.input_path, cfg.chi.size)
    value = immanant(cfg.chi, a)
    return {
        "schema": REPORT_SCHEMA,
        "command": "immanant",
        "chi": list(cfg.chi.parts),
        "n": cfg.chi.size,
        "value": [value.real, value.imag],
    }


def _cmd_bound(cfg: RunConfig) -> dict:
    a = _load_square(cfg.input_path, cfg.chi.size)
    report = immanant_bound_verify(
        cfg.chi, a, cfg.k, samples=cfg.samples, seed=cfg.seed
    )
    if cfg.tolerance is not None:
        report = dataclasses.replace(report, tolerance=cfg.tolerance)
    return {
        "schema": REPORT_SCHEMA,
        "command": "bound",
        **report.to_json_obj(),
    }


def _cmd_perturb(cfg: RunConfig) -> dict:
    t = _load_square(cfg.input_path)
    nu = singular_values(t)
    bounds = perturbation_bounds(cfg.chi, nu, cfg.delta)
    return {
        "schema": REPORT_SCHEMA,
        "command": "perturb",
        "chi": list(cfg.chi.parts),
        "delta": cfg.delta,
        "nu": [float(v) for v in nu],
        "kchi_bound": bounds.kchi_bound,
        "imm_bound": bounds.imm_bound,
    }


def run_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Run the verification suite for a parsed config; exit 0 iff all pass."""
    report = verify_mod.run_verify(max_n=cfg.max_n, seed=cfg.seed)
    return report, 0 if report["all_passed"] else 4


def _dispatch(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.command == "verify":
        return run_verify(cfg)
    handlers = {
        "chartable": _cmd_chartable,
        "power": _cmd_power,
        "deriv": _cmd_deriv,
        "norm": _cmd_norm,
        "immanant": _cmd_immanant,
        "bound": _cmd_bound,
        "perturb": _cmd_perturb,
    }
    return handlers[cfg.command](cfg), 0


def _emit(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite number: {exc}") from exc
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    try:
        report, code = _dispatch(cfg)
        _emit(report, cfg.output)
    except DomainError as exc:
        print(f"kchi: domain error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, NumericError) as exc:
        print(f"kchi: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"kchi: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

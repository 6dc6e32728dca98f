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
import contextlib
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .combinat import Partition
from .denselin import as_matrix, matrix_from_pairs, singular_values
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

__all__ = ["parse_args", "main"]


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


def _number(kind, ok, expected: str):
    """A flag type that parses with ``kind`` and accepts values where ``ok`` holds."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = kind.__name__
    return parse


# Comparisons with nan are false, so the float types reject nan as well as
# inf; the int types never call math.isfinite, which overflows on huge ints.
_POSITIVE_INT = _number(int, lambda v: v >= 1, "a positive integer")
_NONNEG_INT = _number(int, lambda v: v >= 0, "an integer >= 0")
_SEED = _number(int, lambda v: 0 <= v < 2**64, "an unsigned 64-bit integer seed")
_NONNEG_FLOAT = _number(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _input_flag(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--input", dest="input_path", metavar="INPUT", required=required)


def _seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_SEED, default=0)


def _sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_POSITIVE_INT, default=100)
    _seed_flag(p)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kchi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help_text: str, handler) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("chartable", "character table of S_m as JSON", _cmd_chartable)
    p.add_argument("--m", type=_POSITIVE_INT, required=True)

    p = command("power", "induced operator K_chi(A) on the class", _cmd_power)
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--n", type=_POSITIVE_INT, required=True)
    _input_flag(p)

    p = command("deriv", "k-th derivative of the induced operator", _cmd_deriv)
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--k", type=_NONNEG_INT, required=True)
    _input_flag(p)
    p.add_argument("--x", dest="x_paths", action="append", default=[], metavar="X.json")

    p = command("norm", "derivative norm report", _cmd_norm)
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--n", type=_POSITIVE_INT, required=True)
    p.add_argument("--k", type=_POSITIVE_INT, required=True)
    _input_flag(p, required=False)
    _sampling_flags(p)

    p = command("immanant", "immanant d_chi(A)", _cmd_immanant)
    p.add_argument("--chi", type=_partition_flag, required=True)
    _input_flag(p)

    p = command("bound", "immanant derivative bound report", _cmd_bound)
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--k", type=_POSITIVE_INT, required=True)
    _input_flag(p)
    _sampling_flags(p)

    p = command("perturb", "K_chi perturbation bound; chi(1) times it bounds d_chi", _cmd_perturb)
    p.add_argument("--chi", type=_partition_flag, required=True)
    p.add_argument("--delta", type=_NONNEG_FLOAT, required=True)
    _input_flag(p)

    p = command("verify", "run the full verification suite", _cmd_verify)
    p.add_argument("--max-n", type=_POSITIVE_INT, default=4)
    _seed_flag(p)

    for p in sub.choices.values():
        p.add_argument("--output")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse command-line arguments into a validated ``argparse.Namespace``.

    ``handler`` holds the subcommand's report builder; ``--input`` is stored
    as ``input_path`` and ``--x`` as ``x_paths``.  Usage problems (unknown
    flags, malformed partitions, out-of-range or non-finite numbers,
    mismatched flag combinations) terminate with exit code 1.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "deriv" and len(ns.x_paths) != ns.k:
        parser.error(f"--k {ns.k} requires exactly {ns.k} --x flags, got {len(ns.x_paths)}")
    return ns


def _load_square(path: str, n: int | None = None):
    # A square matrix from a JSON file, of shape (n, n) when n is given.
    # json.load also raises ValueError on bytes that are not UTF-8 or an
    # integer past Python's digit limit, and RecursionError on deep nesting.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return as_matrix(matrix_from_pairs(payload), square=True, n=n)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _cmd_chartable(cfg: argparse.Namespace) -> dict:
    table = char_table(cfg.m)
    return {
        "m": cfg.m,
        "partitions": [list(p.parts) for p in table.partitions],
        "cycle_types": [list(p.parts) for p in table.partitions],
        "values": [list(row) for row in table.values],
    }


def _class_matrix(sc, mat) -> dict:
    # An operator on the symmetry class, in the basis indexed by delta_hat;
    # the matrix stays an ndarray, which _emit writes as matrix_to_pairs.
    return {
        "chi": list(sc.chi.parts),
        "n": sc.n,
        "dim": sc.dim,
        "delta_hat": [list(alpha.entries) for alpha in sc.delta_hat],
        "matrix": mat,
    }


def _cmd_power(cfg: argparse.Namespace) -> dict:
    a = _load_square(cfg.input_path, cfg.n)
    sc = build_symmetry_class(cfg.chi, cfg.n)
    return _class_matrix(sc, k_chi_matrix(sc, a))


def _cmd_deriv(cfg: argparse.Namespace) -> dict:
    t = _load_square(cfg.input_path)
    xs = [_load_square(path, t.shape[0]) for path in cfg.x_paths]
    sc = build_symmetry_class(cfg.chi, t.shape[0])
    return {**_class_matrix(sc, dk_kchi(sc, t, xs)), "k": cfg.k}


def _cmd_norm(cfg: argparse.Namespace) -> dict:
    # The class first: its caps bound n before an n x n operator is drawn.
    sc = build_symmetry_class(cfg.chi, cfg.n)
    if cfg.input_path is not None:
        t = _load_square(cfg.input_path, cfg.n)
    else:
        # Seeded draw from stream 1; the sampled tuples read stream 0.
        t = random_matrix(cfg.n, sample_rng(cfg.seed, 1))
    return dk_norm_verify(sc, t, cfg.k, samples=cfg.samples, seed=cfg.seed).to_json_obj()


def _cmd_immanant(cfg: argparse.Namespace) -> dict:
    chi = cfg.chi
    value = immanant(chi, _load_square(cfg.input_path, chi.size))
    return {"chi": list(chi.parts), "n": chi.size, "value": [value.real, value.imag]}


def _cmd_bound(cfg: argparse.Namespace) -> dict:
    a = _load_square(cfg.input_path, cfg.chi.size)
    report = immanant_bound_verify(cfg.chi, a, cfg.k, samples=cfg.samples, seed=cfg.seed)
    return report.to_json_obj()


def _cmd_perturb(cfg: argparse.Namespace) -> dict:
    nu = singular_values(_load_square(cfg.input_path))
    return {
        "chi": list(cfg.chi.parts),
        "delta": cfg.delta,
        "nu": [float(v) for v in nu],
        "bound": perturbation_bounds(cfg.chi, nu, cfg.delta),
    }


def _cmd_verify(cfg: argparse.Namespace) -> dict:
    # Looked up on the module at call time, so tests can substitute it.
    return verify_mod.run_verify(max_n=cfg.max_n, seed=cfg.seed)


def _dispatch(cfg: argparse.Namespace) -> tuple[dict, int]:
    """Run the subcommand's handler, stamp its payload and pick the exit code."""
    report = {**cfg.handler(cfg), "schema": REPORT_SCHEMA, "command": cfg.command}
    return report, 4 if report.get("all_passed") is False else 0


# Where json.dumps(report, sort_keys=True, indent=2) puts the "matrix" key
# of a report whose matrix is None: a top-level key is the only one indented
# by two spaces.
_MATRIX_SLOT = '\n  "matrix": '


def _matrix_text(mat: np.ndarray):
    # json.dumps(matrix_to_pairs(mat), indent=2) at the depth of a top-level
    # key, one row at a time: json.dumps with indent encodes in pure Python,
    # and every entry is a float, which it writes with float.__repr__.
    entries = np.stack([mat.real, mat.imag], axis=-1).reshape(len(mat), -1)
    for i, row in enumerate(entries):
        text = map(float.__repr__, row.tolist())
        pairs = "\n      ],\n      [\n        ".join(map(",\n        ".join, zip(text, text)))
        yield f"{',' if i else '['}\n    [\n      [\n        {pairs}\n      ]\n    ]"
    yield "\n  ]"


def _emit(report: dict, output: str | None) -> None:
    # Writes json.dumps(report, sort_keys=True, indent=2) + "\n", with a
    # class matrix given as an ndarray and written as matrix_to_pairs.  The
    # whole report is checked finite before anything is written.
    matrix = report.get("matrix")
    if matrix is not None:
        report = {**report, "matrix": None}
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        if matrix is not None and not np.isfinite(matrix).all():
            raise ValueError("the matrix holds inf or nan")
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite number: {exc}") from exc
    if output is None:
        opened = contextlib.nullcontext(sys.stdout)
    else:
        opened = open(output, "w", encoding="utf-8")
    with opened as fh:
        if matrix is None:
            fh.write(text)
        else:
            head, _, tail = text.partition(_MATRIX_SLOT + "null")
            fh.write(head + _MATRIX_SLOT)
            fh.writelines(_matrix_text(matrix))
            fh.write(tail)


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

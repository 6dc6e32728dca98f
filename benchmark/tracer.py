"""In-memory span tracer that wraps the public functions of the kchi modules.

The tracer lives entirely in the benchmark: it replaces each traced
function by a wrapper in every kchi module namespace (and in tuples such
as ``kchi.verify.CRITERIA``) that refers to it, records one span per call
and restores the originals on exit.  Spans are kept in flat arrays
(name id, start, end, parent, error flag) and written out when the run
ends; self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced, by home module.  A function reached through
# several modules (``dk_kchi`` through kchi, kchi.symclass, kchi.norms and
# kchi.verify) is patched under every name.
TRACED = {
    "symclass": ("build_symmetry_class", "dk_kchi", "k_chi_matrix", "symmetrized_kron"),
    "denselin": (
        "kron",
        "as_matrix",
        "spectral_norm",
        "singular_values",
        "polar",
        "svd",
        "gram_schmidt",
        "matrix_to_pairs",
        "matrix_from_pairs",
    ),
    "symgroup": ("character_sum_over_stabilizer", "char_table"),
    "combinat": ("majorizes", "enumerate_maps", "all_permutations"),
    "norms": (
        "immanant",
        "dk_immanant",
        "dk_kchi_via_immanants",
        "random_unit_matrix",
        "sample_rng",
        "immanant_bound_verify",
        "dk_norm_verify",
    ),
    "verify": (
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
    ),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Names recorded by the benchmark itself rather than by a patched function.
ROOT = "workload"
CLI_INVOCATION = "cli.invocation"
CLI_IMPORT = "cli.import"
SPAN_NAMES = (ROOT, CLI_INVOCATION, CLI_IMPORT) + TRACED_NAMES

COUNTERS = (
    "kron_bytes_out",
    "kron_in_dk_kchi",
    "projector_bytes",
    "sweep_kept",
    "sweep_tried",
    "checks",
    "checks_failed",
)


class Tracer:
    """Collects spans and counters; ``patch`` installs it into kchi."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._dk_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span measured elsewhere (e.g. in a child process)."""
        idx = len(self.name_id)
        self.name_id.append(self._ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.error.append(0)
        return idx

    def merge(self, other: "Tracer", parent: int) -> None:
        """Append another tracer's spans, hanging its roots under ``parent``."""
        offset = len(self.name_id)
        for i in range(len(other.name_id)):
            p = other.parent[i]
            self.name_id.append(other.name_id[i])
            self.start.append(other.start[i])
            self.end.append(other.end[i])
            self.parent.append(parent if p < 0 else p + offset)
            self.error.append(other.error[i])
        for key, value in other.counters.items():
            self.counters[key] += value

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name.startswith("verify."):
            hook = self._after_verify_check
        is_dk = name == "symclass.dk_kchi"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            if is_dk:
                self._dk_depth += 1
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                if is_dk:
                    self._dk_depth -= 1
                self.close(idx, failed)
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- counters recorded at layer boundaries -------------------------------

    def _after_denselin_kron(self, out) -> None:
        self.counters["kron_bytes_out"] += out.nbytes
        if self._dk_depth:
            self.counters["kron_in_dk_kchi"] += 1

    def _after_symclass_build_symmetry_class(self, sc) -> None:
        size = sc.n**sc.m
        self.counters["projector_bytes"] += 16 * size * size
        self.counters["sweep_kept"] += sc.dim
        self.counters["sweep_tried"] += len(sc.omega)

    def _after_verify_check(self, checks) -> None:
        self.counters["checks"] += len(checks)
        self.counters["checks_failed"] += sum(1 for c in checks if not c.passed)

    # -- patching ------------------------------------------------------------

    def patch(self) -> "Tracer":
        """Wrap every traced function under every kchi name that refers to it."""
        import kchi
        import kchi.cli  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sorted(sys.modules.items()) if key == "kchi" or key.startswith("kchi.")]
        wrappers = {}
        for mod, fns in TRACED.items():
            home = sys.modules[f"kchi.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(home, fn)
                wrappers[id(original)] = self._wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, tuple):
                    replaced = _replace_in_tuple(value, wrappers)
                    if replaced is not value:
                        self._set(module, attr, replaced)
        return self

    def _set(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.patch()

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(SPAN_NAMES),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, counters=np.array([self.counters[k] for k in COUNTERS]), **self.arrays())

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with np.load(path) as data:
            if tuple(data["names"]) != SPAN_NAMES:
                raise ValueError(f"{path}: span names differ from this tracer's")
            tracer.name_id.extend(data["name_id"].tolist())
            tracer.start.extend(data["start"].tolist())
            tracer.end.extend(data["end"].tolist())
            tracer.parent.extend(data["parent"].tolist())
            tracer.error.extend(data["error"].tolist())
            tracer.counters = dict(zip(COUNTERS, (int(v) for v in data["counters"])))
        return tracer

    def summary(self) -> dict:
        """Per span name: call count, self time and error count."""
        a = self.arrays()
        n_names = len(SPAN_NAMES)
        duration = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        ids = a["name_id"]
        return {
            "calls": np.bincount(ids, minlength=n_names),
            "self_s": np.bincount(ids, weights=self_time, minlength=n_names),
            "errors": np.bincount(ids, weights=a["error"], minlength=n_names),
            "root_s": float(duration[~has_parent].sum()),
        }


def _replace_in_tuple(value: tuple, wrappers: dict):
    items = []
    changed = False
    for item in value:
        if id(item) in wrappers:
            items.append(wrappers[id(item)])
            changed = True
        elif isinstance(item, tuple):
            new = _replace_in_tuple(item, wrappers)
            changed |= new is not item
            items.append(new)
        else:
            items.append(item)
    return tuple(items) if changed else value

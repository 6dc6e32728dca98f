"""The public API: what the package exports, and what importing it loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kchi
from kchi import Partition

SRC = Path(__file__).resolve().parents[1] / "src"

# Names that left the public API; none may come back as an export.
REMOVED = {
    "identity_permutation",
    "orbit_and_stabilizer",
    "PerturbationBounds",
}

# Present on the dev box, but never a dependency of the package.
NOT_DEPENDENCIES = ("scipy", "threadpoolctl", "pytest_benchmark", "hypothesis")


def exporting_modules():
    yield kchi
    for info in pkgutil.iter_modules(kchi.__path__):
        module = importlib.import_module(f"kchi.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_export_resolves_once():
    modules = list(exporting_modules())
    assert {m.__name__ for m in modules} >= {"kchi", "kchi.combinat", "kchi.norms", "kchi.cli"}
    for module in modules:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
        assert not REMOVED & set(names), module.__name__


def test_reference_only_helpers_are_gone():
    assert not hasattr(kchi.MultiIndex, "permuted")
    assert not hasattr(kchi.MultiIndex, "is_weakly_increasing")
    assert not hasattr(kchi.Permutation, "compose")
    assert not hasattr(kchi.Permutation, "inverse")
    for module in exporting_modules():
        assert not any(hasattr(module, name) for name in REMOVED), module.__name__


def test_the_package_imports_with_numpy_alone():
    code = (
        "import json, sys\n"
        "import kchi, kchi.cli, kchi.verify\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded
    assert [name for name in loaded if name.split(".")[0] in NOT_DEPENDENCIES] == []


EYE3 = np.eye(3)
RNG = kchi.sample_rng(0, 0)

# Each input is invalid at one public boundary.
BAD_CALLS = {
    "build_symmetry_class with a tuple": lambda: kchi.build_symmetry_class((2, 1), 3),
    "build_symmetry_class with n = 2.5": lambda: kchi.build_symmetry_class(Partition((2, 1)), 2.5),
    "dk_norm_formula with a tuple": lambda: kchi.dk_norm_formula((2, 1), 1, [1, 1, 1]),
    "character with a tuple": lambda: kchi.character((2, 1), Partition((3,))),
    "character of a tuple cycle type": lambda: kchi.character(Partition((2, 1)), (3,)),
    "degree of a tuple": lambda: kchi.degree((2, 1)),
    "immanant with a tuple": lambda: kchi.immanant((2, 1), EYE3),
    "mixed_immanant with a tuple": lambda: kchi.mixed_immanant((2, 1), [EYE3] * 3),
    "immanant_bound_verify with a tuple": lambda: kchi.immanant_bound_verify((2, 1), EYE3, 1),
    "perturbation_bounds with a tuple": lambda: kchi.perturbation_bounds((2, 1), [1, 1, 1], 0.1),
    "majorizes a tuple": lambda: kchi.majorizes(Partition((2, 1)), (3,)),
    "spectral_norm of a string": lambda: kchi.spectral_norm("abc"),
    "as_matrix of a dict": lambda: kchi.as_matrix({}),
    "immanant of a string": lambda: kchi.immanant(Partition((1,)), [["x"]]),
    "Partition of a string": lambda: Partition("ab"),
    "Partition of a float part": lambda: Partition((2.5, 1)),
    "Partition of an int": lambda: Partition(3),
    "random_matrix of size -1": lambda: kchi.random_matrix(-1, RNG),
    "random_unit_matrix of size 0": lambda: kchi.random_unit_matrix(0, RNG),
    "random_unit_matrix of size -1": lambda: kchi.random_unit_matrix(-1, RNG),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_only_package_errors(call):
    # random_unit_matrix(0) looped forever before it was checked, so the
    # sizes are checked before any draw.
    with pytest.raises(kchi.KchiError):
        call()

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
HUGE = 10**5000

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
    "k_chi_matrix with a tuple class": lambda: kchi.k_chi_matrix((2, 1), EYE3),
    "dk_kchi with a tuple class": lambda: kchi.dk_kchi((2, 1), EYE3, [EYE3]),
    "sym_op_product with a tuple class": lambda: kchi.sym_op_product((2, 1), [EYE3] * 3),
    "dk_norm_verify with a tuple class": lambda: kchi.dk_norm_verify((2, 1), EYE3, 1),
    "immanant_matrix with a tuple class": lambda: kchi.immanant_matrix((2, 1), EYE3),
    "dk_kchi_via_immanants with a tuple class": lambda: kchi.dk_kchi_via_immanants((2, 1), EYE3, []),
    "lambda_eigenvalue with a tuple": lambda: kchi.lambda_eigenvalue((1, 2), 1, [1, 1]),
    "character_sum_over_stabilizer with a tuple": lambda: kchi.character_sum_over_stabilizer(
        Partition((2,)), (1, 2)
    ),
    "partitions_of 2.5": lambda: kchi.partitions_of(2.5),
    "enumerate_maps with n = 2.5": lambda: kchi.enumerate_maps("increasing", 2, 2.5),
    "immanant_bound_verify with samples = 2.5": lambda: kchi.immanant_bound_verify(
        Partition((2, 1)), EYE3, 1, samples=2.5
    ),
    "dk_norm_verify with samples = 2.5": lambda: kchi.dk_norm_verify(
        kchi.build_symmetry_class(Partition((2, 1)), 3), EYE3, 1, samples=2.5
    ),
    "MultiIndex with n = 1.5": lambda: kchi.MultiIndex((1,), 1.5),
    "MultiIndex with an entry 1.5": lambda: kchi.MultiIndex((1.5,), 2),
    "multiplicity_partition of a tuple": lambda: kchi.multiplicity_partition((1, 2)),
    "dk_norm_formula with k = 1.5": lambda: kchi.dk_norm_formula(Partition((2, 1)), 1.5, [1, 1, 1]),
    "sample_rng with seed 1.5": lambda: kchi.sample_rng(1.5, 0),
    "lambda_eigenvalue with nu = 'ab'": lambda: kchi.lambda_eigenvalue(
        kchi.MultiIndex((1, 2), 2), 1, "ab"
    ),
    "perturbation_bounds with delta = 'x'": lambda: kchi.perturbation_bounds(
        Partition((2, 1)), [1, 1, 1], "x"
    ),
    "perturbation_bounds with nu = 5": lambda: kchi.perturbation_bounds(Partition((2, 1)), 5, 0.1),
    "lambda_eigenvalue with nu = '21'": lambda: kchi.lambda_eigenvalue(
        kchi.MultiIndex((1, 2), 2), 1, "21"
    ),
    "perturbation_bounds with text nu and delta": lambda: kchi.perturbation_bounds(
        Partition((2, 1)), "321", "0.1"
    ),
    "perturbation_bounds with nu = b'321'": lambda: kchi.perturbation_bounds(
        Partition((2, 1)), b"321", 0.1
    ),
    "elementary_symmetric of degree 1.5": lambda: kchi.elementary_symmetric(1.5, [1, 2]),
    "as_matrix of an integer past the double range": lambda: kchi.as_matrix([[10**400]]),
    "matrix_from_pairs of an integer past the double range": lambda: kchi.matrix_from_pairs(
        [[[10**400, 0]]]
    ),
    "nu_omega of an integer past the double range": lambda: kchi.nu_omega(
        Partition((1,)), [10**400]
    ),
    "dk_norm_formula of an integer past the double range": lambda: kchi.dk_norm_formula(
        Partition((1,)), 1, [10**400]
    ),
    "elementary_symmetric of an integer past the double range": lambda: kchi.elementary_symmetric(
        1, [10**400]
    ),
    "perturbation_bounds with delta past the double range": lambda: kchi.perturbation_bounds(
        Partition((1,)), [1], delta=10**400
    ),
    "dk_kchi with directions 5": lambda: kchi.dk_kchi(
        kchi.build_symmetry_class(Partition((2, 1)), 3), EYE3, 5
    ),
    "mixed_immanant of 5": lambda: kchi.mixed_immanant(Partition((2, 1)), 5),
    "random_matrix with rng None": lambda: kchi.random_matrix(2, None),
    "random_unit_matrix with rng None": lambda: kchi.random_unit_matrix(2, None),
    # Integers past Python's 4300-digit limit for str, which the error
    # message must not print as digits.
    "perturbation_bounds with a huge delta": lambda: kchi.perturbation_bounds(
        Partition((1,)), [1], delta=HUGE
    ),
    "nu_omega of a huge integer": lambda: kchi.nu_omega(Partition((1,)), [HUGE]),
    "elementary_symmetric of a huge integer": lambda: kchi.elementary_symmetric(1, [HUGE]),
    "elementary_symmetric of a huge negative degree": lambda: kchi.elementary_symmetric(-HUGE, [1]),
    "dk_norm_formula of a huge integer": lambda: kchi.dk_norm_formula(Partition((1,)), 1, [HUGE]),
    "dk_norm_formula with a huge k": lambda: kchi.dk_norm_formula(Partition((1,)), HUGE, [1]),
    "Partition of a huge part and text": lambda: Partition((HUGE, "x")),
    "Partition of a huge negative part": lambda: Partition((-HUGE,)),
    "MultiIndex with a huge entry": lambda: kchi.MultiIndex((HUGE,), 2),
    "build_symmetry_class with a huge negative n": lambda: kchi.build_symmetry_class(
        Partition((2, 1)), -HUGE
    ),
    "char_table of a huge negative m": lambda: kchi.char_table(-HUGE),
    "partitions_of a huge negative m": lambda: kchi.partitions_of(-HUGE),
    "dk_norm_verify with a huge k": lambda: kchi.dk_norm_verify(
        kchi.build_symmetry_class(Partition((2, 1)), 3), EYE3, HUGE
    ),
    "dk_norm_verify with huge samples": lambda: kchi.dk_norm_verify(
        kchi.build_symmetry_class(Partition((2, 1)), 3), EYE3, 1, samples=HUGE
    ),
    "sample_rng with a huge seed": lambda: kchi.sample_rng(HUGE, 0),
    "random_matrix of a huge negative size": lambda: kchi.random_matrix(-HUGE, RNG),
    "Permutation of a huge image": lambda: kchi.Permutation((HUGE, 1)),
    "Permutation of a float image": lambda: kchi.Permutation((1.5, 2)),
    "dk_immanant of a huge partition": lambda: kchi.dk_immanant(
        Partition((HUGE,)), EYE3, []
    ),
}

# Each input is valid but past a documented size cap.
OVERSIZED_CALLS = {
    "build_symmetry_class with a huge n": lambda: kchi.build_symmetry_class(
        Partition((2, 1)), HUGE
    ),
    "char_table of a huge m": lambda: kchi.char_table(HUGE),
    "partitions_of a huge m": lambda: kchi.partitions_of(HUGE),
    "immanant of a huge partition": lambda: kchi.immanant(Partition((HUGE,)), EYE3),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_only_package_errors(call):
    # random_unit_matrix(0) looped forever before it was checked, so the
    # sizes are checked before any draw.  Each is a bad argument, so each
    # is a DomainError.
    with pytest.raises(kchi.DomainError):
        call()


@pytest.mark.parametrize("call", OVERSIZED_CALLS.values(), ids=OVERSIZED_CALLS.keys())
def test_oversized_input_raises_a_resource_error(call):
    with pytest.raises(kchi.ResourceError):
        call()

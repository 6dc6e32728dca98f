"""The public API: what the package exports, and what importing it loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import kchi

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

"""Known defects patched into the certificate, each named by a row that fails.

Each entry of DEFECTS patches one defect into the library, runs
``run_verify(max_n=3)`` and names the bounded rows (``verify._ROWS``), or
the row of a criterion that raised ``NumericError``, that must fail.  The class templates and Young symmetrizers are cached per
process: a defect in their build clears them first, for the patched build
to take effect, and every defect clears them after it, so that later tests
see clean ones.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import kchi.symclass as symclass
import kchi.verify as verify
from kchi import Partition, build_symmetry_class

CHI = Partition((2, 1))
# The row of a criterion that raised NumericError.
NUMERIC_ROW = "values are finite"

# The cached functions themselves, as a defect may patch their names.
CACHES = (symclass._template, symclass._young_symmetrizer)


def clear_caches():
    for cached in CACHES:
        cached.cache_clear()


def closed_form_off_at_one_case(monkeypatch):
    # The closed form times 1 + 1e-6 at chi = (2, 1), k = 1.
    formula = verify.dk_norm_formula

    def off(chi, k, nu, n=None):
        value = formula(chi, k, nu, n=n)
        return value * (1 + 1e-6) if (chi, k) == (CHI, 1) else value

    monkeypatch.setattr(verify, "dk_norm_formula", off)


def tableau_dropped(monkeypatch):
    # _partial_trace sums over every standard tableau but the last.  The
    # templates are built first, so only the partial trace sees the drop.
    for m, n, chi in verify._classes(3, 3):
        build_symmetry_class(chi, n)
    young = symclass._young_symmetrizer

    def dropped(chi):
        factors, tableaux = young(chi)
        return factors, tableaux[:-1] if len(tableaux) > 1 else tableaux

    monkeypatch.setattr(symclass, "_young_symmetrizer", dropped)


def symmetrizer_sign_flipped(monkeypatch):
    # One 3-cycle's character value of chi = (2, 1), -1, taken as +1 in the
    # symmetrizer whose columns span the class.
    clear_caches()
    characters = symclass._permutation_characters

    def flipped(chi):
        images, values = characters(chi)
        if chi == CHI:
            values = values.copy()
            values[np.flatnonzero(values == -1)[0]] = 1
        return images, values

    monkeypatch.setattr(symclass, "_permutation_characters", flipped)


def direction_transposed(monkeypatch):
    # _partial_trace takes the first direction transposed.
    partial_trace = symclass._partial_trace

    def transposed(sc, t, xs):
        xs = list(xs)
        if xs:
            xs[0] = np.swapaxes(xs[0], -1, -2)
        return partial_trace(sc, t, xs)

    monkeypatch.setattr(symclass, "_partial_trace", transposed)


def factor_at_k_minus_one(monkeypatch):
    # _partial_trace scales by m!/(m-k+1)! rather than m!/(m-k)!.
    partial_trace = symclass._partial_trace

    def shifted(sc, t, xs):
        k = len(xs)
        return partial_trace(sc, t, xs) / (sc.m - k + 1) if k else partial_trace(sc, t, xs)

    monkeypatch.setattr(symclass, "_partial_trace", shifted)


def nan_in_one_class(monkeypatch):
    # _partial_trace puts a NaN into M_W of (2, 1) on C^3.
    partial_trace = symclass._partial_trace

    def poisoned(sc, t, xs):
        m_w = partial_trace(sc, t, xs)
        if (sc.chi, sc.n) == (CHI, 3):
            m_w[..., 0, 0] = np.nan
        return m_w

    monkeypatch.setattr(symclass, "_partial_trace", poisoned)


def frame_perturbed(perturb):
    # The frame of (2, 1)'s orbit block of composition (1, 1, 1), perturbed.
    def patch(monkeypatch):
        template = symclass._template

        def perturbed(chi, c):
            block = template(chi, c)
            if (chi, c) != (CHI, (1, 1, 1)):
                return block
            return block._replace(frame=perturb(block.frame.copy()))

        monkeypatch.setattr(symclass, "_template", perturbed)

    return patch


def scaled(frame):
    return frame * (1 + 1e-9)


def one_entry_moved(frame):
    frame[0, 0, 0] += 1e-9
    return frame


DEFECTS = {
    "closed form off by 1e-6 at one (chi, k)": (
        closed_form_off_at_one_case,
        {"derivative norm equals closed formula"},
    ),
    "one tableau dropped from _partial_trace": (
        tableau_dropped,
        {"derivative norm equals closed formula"},
    ),
    "one direction transposed in _partial_trace": (
        direction_transposed,
        {"unitary polar directions attain the formula", "finite differences confirm the derivative"},
    ),
    "m! over (m-k)! taken at k - 1": (
        factor_at_k_minus_one,
        {"derivative norm equals closed formula"},
    ),
    "one orbit block's frame scaled by 1 + 1e-9": (
        frame_perturbed(scaled),
        {"the copy's norm equals the full class's norm"},
    ),
    # The next two leave a derivative at a PSD point non-Hermitian past
    # hermitian_eigenvalues' 1e-9 gate, which the spectrum row reports as a
    # failed case.
    "one orbit block's frame entry moved by 1e-9": (
        frame_perturbed(one_entry_moved),
        {
            "the copy's norm equals the full class's norm",
            "derivative spectrum matches eigenvalue formula",
        },
    ),
    "one symmetrizer sign flipped": (
        symmetrizer_sign_flipped,
        {
            "derivative norm equals closed formula",
            "derivative spectrum matches eigenvalue formula",
        },
    ),
    # Every criterion that evaluates (2,1)/3 stops at the NaN, and each of
    # them is one failed row that carries the error's message.
    "a NaN in one class's M_W": (nan_in_one_class, {NUMERIC_ROW}),
}


@pytest.fixture
def clean_caches():
    yield
    clear_caches()


@pytest.mark.parametrize("patch,rows", DEFECTS.values(), ids=list(DEFECTS))
def test_each_defect_fails_a_named_row(clean_caches, monkeypatch, patch, rows):
    assert rows <= {*verify._ROWS, NUMERIC_ROW}
    patch(monkeypatch)
    report = verify.run_verify(max_n=3)
    # The failing report is still strict JSON, as `kchi verify` prints it.
    json.dumps(report, allow_nan=False)
    failed = {
        row["name"] for criterion in report["criteria"] for row in criterion["checks"]
        if not row["passed"]
    }
    assert rows <= failed, failed

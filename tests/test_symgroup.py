"""Tests for symmetric group characters against independent oracles."""

import itertools
import math

import numpy as np
import pytest

from kchi import (
    DomainError,
    MultiIndex,
    Partition,
    ResourceError,
    all_permutations,
    char_table,
    character,
    character_sum_over_stabilizer,
    class_size,
    degree,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
    partitions_of,
)
from kchi.symgroup import _permutation_characters, _permutation_classes

TRACE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Oracle: Young's orthogonal form.  Representation matrices are built from
# standard tableaux and axial distances, entirely independently of the
# Murnaghan-Nakayama recursion under test; characters are traces.
# ---------------------------------------------------------------------------


def shape_cells(parts):
    return [(r, c) for r, row in enumerate(parts) for c in range(row)]


def standard_tableaux(parts):
    """All standard fillings, found by filtering bijective fillings."""
    cells = shape_cells(parts)
    m = len(cells)
    tableaux = []
    for values in itertools.permutations(range(1, m + 1)):
        filling = dict(zip(cells, values))
        rows_ok = all(
            filling[(r, c)] < filling[(r, c + 1)]
            for (r, c) in cells
            if (r, c + 1) in filling
        )
        cols_ok = all(
            filling[(r, c)] < filling[(r + 1, c)]
            for (r, c) in cells
            if (r + 1, c) in filling
        )
        if rows_ok and cols_ok:
            tableaux.append(filling)
    return tableaux


def orthogonal_form_generators(parts):
    """Matrices for the adjacent transpositions (k, k+1), k = 1..m-1."""
    tableaux = standard_tableaux(parts)
    m = sum(parts)
    positions = []
    for filling in tableaux:
        positions.append({v: cell for cell, v in filling.items()})
    index = {tuple(sorted(t.items())): i for i, t in enumerate(tableaux)}
    generators = []
    for k in range(1, m):
        mat = np.zeros((len(tableaux), len(tableaux)))
        for i, filling in enumerate(tableaux):
            rk, ck = positions[i][k]
            rk1, ck1 = positions[i][k + 1]
            dist = (ck1 - rk1) - (ck - rk)
            mat[i, i] = 1.0 / dist
            swapped = dict(filling)
            swapped[(rk, ck)], swapped[(rk1, ck1)] = k + 1, k
            j = index.get(tuple(sorted(swapped.items())))
            if j is not None:
                mat[j, i] = math.sqrt(1.0 - 1.0 / dist**2)
        generators.append(mat)
    return generators


def adjacent_factorization(images):
    """Positions k such that the product of (k, k+1) swaps sorts ``images``."""
    seq = list(images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i + 1)
                changed = True
    return swaps


def permutation_of_cycle_type(rho):
    """One permutation with cycle type rho: consecutive blocks, each cycled."""
    images = []
    offset = 0
    for part in rho.parts:
        block = list(range(offset + 2, offset + part + 1)) + [offset + 1]
        images.extend(block)
        offset += part
    return tuple(images)


def character_via_orthogonal_form(lam, rho):
    generators = orthogonal_form_generators(lam.parts)
    size = len(standard_tableaux(lam.parts))
    mat = np.eye(size)
    for k in adjacent_factorization(permutation_of_cycle_type(rho)):
        mat = mat @ generators[k - 1]
    return float(np.trace(mat))


@pytest.mark.parametrize("m", range(2, 6))
def test_characters_match_orthogonal_form(m):
    # traces of explicit representation matrices, shape by shape
    for lam in partitions_of(m):
        for rho in partitions_of(m):
            expected = character_via_orthogonal_form(lam, rho)
            assert abs(character(lam, rho) - expected) < TRACE_TOL


# ---------------------------------------------------------------------------
# Frozen values and closed forms.
# ---------------------------------------------------------------------------


def test_s3_table_frozen():
    table = char_table(3)
    assert [p.parts for p in table.partitions] == [(3,), (2, 1), (1, 1, 1)]
    assert table.values == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))


def test_table_value_lookup_matches_character():
    for m in range(1, 7):
        table = char_table(m)
        for lam in table.partitions:
            for rho in table.partitions:
                assert table.value(lam, rho) == character(lam, rho)


def test_trivial_character_is_one():
    for m in range(1, 7):
        for rho in partitions_of(m):
            assert character(Partition((m,)), rho) == 1


def test_sign_character():
    # sign of a permutation of cycle type rho is (-1)^(m - #cycles)
    for m in range(1, 7):
        for rho in partitions_of(m):
            expected = (-1) ** (m - rho.length)
            assert character(Partition((1,) * m), rho) == expected


def test_standard_character_counts_fixed_points():
    # the (m-1, 1) character is fix(sigma) - 1
    for m in range(2, 7):
        for rho in partitions_of(m):
            fixed = sum(1 for p in rho.parts if p == 1)
            assert character(Partition((m - 1, 1)), rho) == fixed - 1


def hook_length_degree(parts):
    conj = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    hooks = 1
    for r, row in enumerate(parts):
        for c in range(row):
            hooks *= (row - c) + (conj[c] - r) - 1
    return math.factorial(sum(parts)) // hooks


def test_degrees_match_hook_lengths():
    for m in range(1, 7):
        for lam in partitions_of(m):
            assert degree(lam) == hook_length_degree(lam.parts)


def test_degree_examples():
    assert degree(Partition((2, 1))) == 2
    assert degree(Partition((2, 2))) == 2
    assert degree(Partition((3, 1))) == 3
    assert degree(Partition((3, 2, 1))) == 16
    assert degree(Partition((4,))) == 1


def test_degrees_count_tableaux():
    for m in range(2, 6):
        for lam in partitions_of(m):
            assert degree(lam) == len(standard_tableaux(lam.parts))


def test_sum_of_squared_degrees():
    for m in range(1, 8):
        assert sum(degree(lam) ** 2 for lam in partitions_of(m)) == math.factorial(m)


def test_class_sizes():
    assert class_size(Partition((1, 1, 1))) == 1
    assert class_size(Partition((2, 1))) == 3
    assert class_size(Partition((3,))) == 2
    for m in range(1, 9):
        assert sum(class_size(rho) for rho in partitions_of(m)) == math.factorial(m)


def test_class_size_by_direct_count():
    for m in range(1, 6):
        counts = {rho.parts: 0 for rho in partitions_of(m)}
        for sigma in all_permutations(m):
            counts[sigma.cycle_type().parts] += 1
        for rho in partitions_of(m):
            assert class_size(rho) == counts[rho.parts]


def test_row_orthogonality():
    for m in range(1, 7):
        parts = partitions_of(m)
        for a in parts:
            for b in parts:
                total = sum(
                    class_size(rho) * character(a, rho) * character(b, rho)
                    for rho in parts
                )
                assert total == (math.factorial(m) if a == b else 0)


def test_column_orthogonality():
    for m in range(1, 7):
        parts = partitions_of(m)
        for rho in parts:
            for tau in parts:
                total = sum(character(lam, rho) * character(lam, tau) for lam in parts)
                if rho == tau:
                    assert total == math.factorial(m) // class_size(rho)
                else:
                    assert total == 0


# ---------------------------------------------------------------------------
# Character sums over stabilizers.
# ---------------------------------------------------------------------------


def test_stabilizer_sum_examples():
    assert character_sum_over_stabilizer(Partition((1, 1)), MultiIndex((1, 1), 2)) == 0
    assert character_sum_over_stabilizer(Partition((2,)), MultiIndex((1, 1), 2)) == 2
    assert (
        character_sum_over_stabilizer(Partition((2, 1)), MultiIndex((1, 1, 2), 2)) == 2
    )


def test_stabilizer_sum_by_direct_summation():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        for alpha in enumerate_maps("gamma", m, n):
            stabilizer = [
                s
                for s in all_permutations(m)
                if tuple(alpha.entries[j - 1] for j in s.images) == alpha.entries
            ]
            for lam in partitions_of(m):
                direct = sum(character(lam, s.cycle_type()) for s in stabilizer)
                assert character_sum_over_stabilizer(lam, alpha) == direct


def test_stabilizer_sum_vanishing_matches_majorization():
    for m, n in [(3, 3), (4, 3), (5, 4)]:
        for alpha in enumerate_maps("increasing", m, n):
            mu = multiplicity_partition(alpha)
            for lam in partitions_of(m):
                nonzero = character_sum_over_stabilizer(lam, alpha) != 0
                assert nonzero == majorizes(lam, mu)


def test_stabilizer_sum_over_full_group():
    # alpha constant: the stabilizer is all of S_m, and only the trivial
    # character survives averaging
    for m in range(1, 6):
        alpha = MultiIndex((1,) * m, 1)
        for lam in partitions_of(m):
            expected = math.factorial(m) if lam.parts == (m,) else 0
            assert character_sum_over_stabilizer(lam, alpha) == expected


def test_permutation_table_matches_combinat():
    # the shared S_m table behind the symmetrizer and the immanant: the rows
    # of all_permutations in order, and chi read off each row's cycle type
    for m in range(1, 8):
        perms = all_permutations(m)
        rows = np.array([p.images for p in perms]) - 1
        types = [p.cycle_type() for p in perms]
        for lam in partitions_of(m):
            images, values = _permutation_characters(lam)
            np.testing.assert_array_equal(images, rows)
            assert values.tolist() == [character(lam, t) for t in types]
            assert not images.flags.writeable and not values.flags.writeable


def test_permutation_rows_are_the_itertools_rows():
    # The rows of S_m, built by numpy from those of S_(m-1), are
    # itertools.permutations' rows in its lexicographic order, up to the
    # cap on immanant size.
    for m in range(1, 9):
        images, columns = _permutation_classes(m)
        want = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
        np.testing.assert_array_equal(images, want)
        assert images.dtype == np.intp and columns.shape == (len(want),)


# ---------------------------------------------------------------------------
# Argument checking and caps.
# ---------------------------------------------------------------------------


def test_character_rejects_mismatched_sizes():
    with pytest.raises(DomainError):
        character(Partition((2,)), Partition((3,)))


def test_resource_caps():
    with pytest.raises(ResourceError):
        character(Partition((11,)), Partition((11,)))
    with pytest.raises(ResourceError):
        char_table(11)
    with pytest.raises(ResourceError):
        character_sum_over_stabilizer(Partition((9,)), MultiIndex((1,) * 9, 1))
    with pytest.raises(DomainError):
        char_table(0)

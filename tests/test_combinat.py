"""Tests for partitions, multi-indices, and the S_m action on them."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kchi.combinat
from kchi import (
    DomainError,
    MultiIndex,
    Partition,
    Permutation,
    ResourceError,
    all_permutations,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
    omega_of,
    partitions_of,
)


def brute_force_partitions(m):
    """Weakly decreasing positive tuples summing to m, by exhaustive filtering."""
    found = set()
    for length in range(1, m + 1):
        for tup in itertools.product(range(1, m + 1), repeat=length):
            if sum(tup) == m and all(a >= b for a, b in zip(tup, tup[1:])):
                found.add(tup)
    return found


def test_partitions_of_one():
    assert [p.parts for p in partitions_of(1)] == [(1,)]


def test_partitions_of_three():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partition_counts():
    # p(1)..p(12) = 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77
    counts = [len(partitions_of(m)) for m in range(1, 13)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


@pytest.mark.parametrize("m", range(1, 7))
def test_partitions_of_matches_brute_force(m):
    assert {p.parts for p in partitions_of(m)} == brute_force_partitions(m)


def test_partitions_of_reverse_lex_order():
    for m in range(1, 9):
        parts = [p.parts for p in partitions_of(m)]
        assert parts == sorted(parts, reverse=True)


def test_partitions_of_rejects_out_of_range():
    with pytest.raises(DomainError):
        partitions_of(0)
    with pytest.raises(ResourceError):
        partitions_of(13)


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((0,))
    with pytest.raises(DomainError):
        Partition((1, 2))
    assert Partition((3, 1)).size == 4
    assert Partition((3, 1)).length == 2


def test_majorizes_examples():
    assert majorizes(Partition((3, 1, 1)), Partition((2, 2, 1)))
    assert majorizes(Partition((2, 1)), Partition((1, 1, 1)))
    assert not majorizes(Partition((2, 2, 1)), Partition((3, 1, 1)))
    # incomparable pair: partial sums cross
    assert not majorizes(Partition((3, 3)), Partition((4, 1, 1)))
    assert not majorizes(Partition((4, 1, 1)), Partition((3, 3)))


def test_majorizes_extremes():
    for m in range(1, 8):
        top = Partition((m,))
        bottom = Partition((1,) * m)
        for pi in partitions_of(m):
            assert majorizes(top, pi)
            assert majorizes(pi, bottom)


def test_majorizes_rejects_different_sizes():
    with pytest.raises(DomainError):
        majorizes(Partition((2,)), Partition((3,)))


def test_majorizes_is_a_partial_order():
    for m in range(1, 7):
        parts = partitions_of(m)
        for a in parts:
            assert majorizes(a, a)
        for a, b in itertools.permutations(parts, 2):
            if majorizes(a, b) and majorizes(b, a):
                assert a == b
        for a, b, c in itertools.product(parts, repeat=3):
            if majorizes(a, b) and majorizes(b, c):
                assert majorizes(a, c)


def test_omega_of_examples():
    assert omega_of(Partition((2, 1)), 3).entries == (1, 1, 2)
    assert omega_of(Partition((3,)), 5).entries == (1, 1, 1)
    assert omega_of(Partition((1, 1, 1)), 3).entries == (1, 2, 3)


def test_omega_of_rejects_narrow_codomain():
    with pytest.raises(DomainError):
        omega_of(Partition((1, 1, 1)), 2)


def test_omega_of_is_lex_minimum_with_that_multiplicity():
    for m, n in [(2, 2), (3, 3), (4, 3), (4, 4)]:
        everything = enumerate_maps(m, n)
        for pi in partitions_of(m):
            if pi.length > n:
                continue
            matching = [a for a in everything if multiplicity_partition(a) == pi]
            assert omega_of(pi, n) == min(matching)


def test_multiplicity_partition_examples():
    assert multiplicity_partition(MultiIndex((1, 3, 3), 3)).parts == (2, 1)
    assert multiplicity_partition(MultiIndex((2, 2, 2), 2)).parts == (3,)
    assert multiplicity_partition(MultiIndex((1, 2, 3), 3)).parts == (1, 1, 1)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_multiplicity_partition_ignores_order(entries):
    alpha = MultiIndex(tuple(entries), 4)
    beta = MultiIndex(tuple(sorted(entries, reverse=True)), 4)
    assert multiplicity_partition(alpha) == multiplicity_partition(beta)


def test_enumerate_maps_counts():
    for m, n in [(1, 1), (2, 3), (3, 2), (3, 4), (4, 4)]:
        maps = enumerate_maps(m, n)
        assert len(maps) == n**m
        # One weakly increasing representative per S_m-orbit.
        weak = [a for a in maps if list(a.entries) == sorted(a.entries)]
        assert len(weak) == math.comb(n + m - 1, m)


def test_enumerate_maps_order_and_membership():
    maps = enumerate_maps(2, 3)
    assert list(maps) == sorted(maps)
    assert [a.entries for a in enumerate_maps(2, 2)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_maps_rejects_bad_arguments():
    for m, n in [(0, 2), (2, 0), (2, 2.5), ("2", 2)]:
        with pytest.raises(DomainError):
            enumerate_maps(m, n)


def test_enumerate_maps_refuses_families_past_the_cap(monkeypatch):
    # No family larger than S_MAX_ORBIT_DEGREE, and no map longer, is
    # listed, and a refused one forms no map: m = 1 and n = 8! + 1 is the
    # first count past the cap, and at n = 1 the one map has m entries.
    cap = math.factorial(kchi.combinat.MAX_ORBIT_DEGREE)
    assert len(enumerate_maps(1, cap)) == cap
    assert enumerate_maps(cap, 1)[0].entries == (1,) * cap
    monkeypatch.setattr(kchi.combinat, "MultiIndex", None)
    # 2^16 maps, and counts or lengths far past the cap that are never computed.
    for m, n in [(1, cap + 1), (cap + 1, 1), (10**5000, 1), (16, 2), (10**9, 3), (10**9, 10**9)]:
        with pytest.raises(ResourceError):
            enumerate_maps(m, n)


def test_multi_index_validation():
    with pytest.raises(DomainError):
        MultiIndex((0, 1), 2)
    with pytest.raises(DomainError):
        MultiIndex((1, 3), 2)
    with pytest.raises(DomainError):
        MultiIndex((), 2)


def test_all_permutations_of_three():
    images = [s.images for s in all_permutations(3)]
    assert images == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]


def test_all_permutations_counts_and_cap():
    for m in range(1, 6):
        group = all_permutations(m)
        assert len(group) == math.factorial(m)
        assert group[0].images == tuple(range(1, m + 1))
    with pytest.raises(ResourceError):
        all_permutations(9)


def test_permutation_validation():
    with pytest.raises(DomainError):
        Permutation((1, 1))
    with pytest.raises(DomainError):
        Permutation((2, 3))


def test_permutation_cycle_types():
    assert Permutation((2, 3, 1)).cycle_type().parts == (3,)
    assert Permutation((2, 1, 3)).cycle_type().parts == (2, 1)
    assert Permutation((1, 2, 3, 4)).cycle_type().parts == (1, 1, 1, 1)


def test_orbit_stabilizer_product():
    # |orbit| * |stabilizer| = m!, with the orbit and the stabilizer counted
    # independently; _orbit_basis relies on the stabilizer having prod(c!)
    # elements, c running over the multiplicities of alpha.
    for m, n in [(3, 3), (4, 2), (4, 3)]:
        for alpha in itertools.product(range(1, n + 1), repeat=m):
            orbit_size = len(set(itertools.permutations(alpha)))
            stabilizer = [
                sigma
                for sigma in itertools.permutations(range(m))
                if tuple(alpha[j] for j in sigma) == alpha
            ]
            expected = math.prod(math.factorial(c) for c in Counter(alpha).values())
            assert orbit_size * expected == math.factorial(m)
            assert len(stabilizer) == expected

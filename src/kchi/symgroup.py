"""Irreducible characters of the symmetric group S_m.

Values are computed by the Murnaghan-Nakayama rule: strip a border strip
whose length is the largest remaining cycle, with sign (-1)^(leg length),
and recurse.  Border strips are enumerated through first-column hook
lengths (beta numbers), which keeps everything in exact integer
arithmetic.

Characters of S_m take integer values, so each character equals its own
complex conjugate; wherever a conjugate character appears in a formula it
is this same table that gets used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .combinat import (
    MultiIndex,
    Partition,
    _check_type,
    _integer,
    _shown,
    multiplicity_partition,
    partitions_of,
)
from .errors import DomainError, ResourceError

__all__ = [
    "CharTable",
    "char_table",
    "character",
    "degree",
    "class_size",
    "character_sum_over_stabilizer",
    "MAX_CHARACTER_DEGREE",
    "MAX_STABILIZER_DEGREE",
]

MAX_CHARACTER_DEGREE = 10
MAX_STABILIZER_DEGREE = 8


def character(lam: Partition, rho: Partition) -> int:
    """The character value chi_lambda(sigma) for any sigma of cycle type rho."""
    _check_type(Partition, lam, rho)
    if lam.size != rho.size:
        raise DomainError(
            f"shape {lam} and cycle type {rho} partition different numbers"
        )
    if lam.size > MAX_CHARACTER_DEGREE:
        raise ResourceError(
            f"character values capped at m <= {MAX_CHARACTER_DEGREE}, got m={_shown(lam.size)}"
        )
    return _mn_character(lam.parts, rho.parts)


@cache
def _mn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not lam:
        return 1 if not rho else 0
    strip = rho[0]
    rest = rho[1:]
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        target = b - strip
        if target < 0 or target in beta_set:
            continue
        leg = sum(1 for c in beta if target < c < b)
        new_beta = sorted((beta_set - {b}) | {target}, reverse=True)
        new_lam = tuple(nb - (rows - 1 - i) for i, nb in enumerate(new_beta))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** leg * _mn_character(new_lam, rest)
    return total


def degree(lam: Partition) -> int:
    """chi_lambda(id), the dimension of the irreducible representation."""
    _check_type(Partition, lam)
    return character(lam, Partition((1,) * lam.size))


def class_size(rho: Partition) -> int:
    """Number of permutations in S_m with cycle type rho."""
    _check_type(Partition, rho)
    m = rho.size
    centralizer = 1
    for part, count in _part_multiplicities(rho.parts):
        centralizer *= part**count * math.factorial(count)
    return math.factorial(m) // centralizer


def _part_multiplicities(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for p in parts:
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + 1)
        else:
            out.append((p, 1))
    return out


@dataclass(frozen=True)
class CharTable:
    """Full character table of S_m.

    ``partitions`` lists shapes and cycle types in reverse lexicographic
    order; ``values[i][j]`` is chi with shape ``partitions[i]`` evaluated on
    cycle type ``partitions[j]``.
    """

    m: int
    partitions: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def value(self, lam: Partition, rho: Partition) -> int:
        i = self.partitions.index(lam)
        j = self.partitions.index(rho)
        return self.values[i][j]


@lru_cache(maxsize=None)
def char_table(m: int) -> CharTable:
    """The character table of S_m, computed once per m and cached."""
    m = _integer(m, "m")
    if m < 1:
        raise DomainError(f"m must be positive, got {_shown(m)}")
    if m > MAX_CHARACTER_DEGREE:
        raise ResourceError(
            f"character tables capped at m <= {MAX_CHARACTER_DEGREE}, got {_shown(m)}"
        )
    parts = partitions_of(m)
    values = tuple(
        tuple(character(lam, rho) for rho in parts) for lam in parts
    )
    return CharTable(m, parts, values)


@cache
def _permutation_characters(chi: Partition) -> tuple[np.ndarray, np.ndarray]:
    """All of S_m as 0-based image rows in lexicographic order, and chi on each.

    Both arrays are read-only, as the cache shares them.
    """
    table = char_table(chi.size)
    images, classes = _permutation_classes(chi.size)
    row = table.values[table.partitions.index(chi)]
    values = np.array(row, dtype=np.float64)[classes]
    values.setflags(write=False)
    return images, values


@cache
def _permutation_classes(m: int) -> tuple[np.ndarray, np.ndarray]:
    # The rows of S_m and, for each row, the column of its cycle type in
    # char_table(m).  The rows of S_k in lexicographic order are, for each
    # first image f, f followed by the rows of S_(k-1) read through the
    # other k-1 points in increasing order.  A point's cycle length is the
    # first power of the row that fixes it; the key counts the points on
    # l-cycles in digit l-1 of base m+1, so cycle type rho has the one key
    # sum(l (m+1)^(l-1) for l in rho), looked up among the table's types.
    images = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, m + 1):
        rest = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])
        grown = np.empty((k, len(images), k), dtype=np.intp)
        grown[:, :, 0] = np.arange(k)[:, None]
        grown[:, :, 1:] = rest[:, images]
        images = grown.reshape(-1, k)
    lengths = np.zeros_like(images)
    power = images
    for step in range(1, m + 1):
        lengths[(power == np.arange(m)) & (lengths == 0)] = step
        power = np.take_along_axis(images, power, axis=1)
    keys = ((m + 1) ** (lengths - 1)).sum(axis=1)
    types = char_table(m).partitions
    type_keys = np.array([sum(l * (m + 1) ** (l - 1) for l in rho.parts) for rho in types])
    order = np.argsort(type_keys)
    images.setflags(write=False)
    return images, order[np.searchsorted(type_keys[order], keys)]


def character_sum_over_stabilizer(lam: Partition, alpha: MultiIndex) -> int:
    """Sum of chi_lambda over the stabilizer of ``alpha`` in S_m.

    The stabilizer is the product of the symmetric groups on the preimage
    blocks of alpha, so the sum only depends on the multiplicity partition;
    it is nonzero exactly when the decomposable symmetrized tensor indexed
    by alpha survives (equivalently, when lambda majorizes that
    multiplicity partition).
    """
    _check_type(Partition, lam)
    _check_type(MultiIndex, alpha)
    m = alpha.m
    if lam.size != m:
        raise DomainError(
            f"character shape {lam} has size {_shown(lam.size)}, multi-index has domain {m}"
        )
    if m > MAX_STABILIZER_DEGREE:
        raise ResourceError(
            f"stabilizer sums capped at m <= {MAX_STABILIZER_DEGREE}, got m={m}"
        )
    mu = multiplicity_partition(alpha)
    return _stabilizer_sum(lam.parts, mu.parts)


@cache
def _stabilizer_sum(lam: tuple[int, ...], blocks: tuple[int, ...]) -> int:
    # Sum chi over S_{b1} x S_{b2} x ...: enumerate one cycle type per block,
    # weight by the block-level class size, and evaluate chi on the merged type.
    per_block = [partitions_of(b) for b in blocks]
    total = 0
    for combo in itertools.product(*per_block):
        weight = math.prod(class_size(rho) for rho in combo)
        merged = tuple(sorted((p for rho in combo for p in rho.parts), reverse=True))
        total += weight * _mn_character(lam, merged)
    return total

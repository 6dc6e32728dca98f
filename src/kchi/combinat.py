"""Partitions, multi-indices, and the symmetric group acting on them.

A multi-index is a map ``alpha: {1..m} -> {1..n}`` written as the tuple of
its images.  The symmetric group S_m acts on the right by composition,
``(alpha sigma)(i) = alpha(sigma(i))``; orbits of this action are classified
by the multiplicity partition of alpha (the sorted sizes of its preimages),
and each orbit contains exactly one weakly increasing representative, which
is also its lexicographic minimum.

Everything in this module is exact integer combinatorics; caps keep the
explicit enumerations at desk scale.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import total_ordering

from .errors import DomainError, ResourceError

__all__ = [
    "Partition",
    "MultiIndex",
    "Permutation",
    "partitions_of",
    "majorizes",
    "omega_of",
    "multiplicity_partition",
    "enumerate_maps",
    "all_permutations",
    "MAX_PARTITION_SIZE",
    "MAX_ORBIT_DEGREE",
]

MAX_PARTITION_SIZE = 12
MAX_ORBIT_DEGREE = 8


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            parts = tuple(operator.index(p) for p in self.parts)
        except TypeError:
            raise DomainError(f"partition parts must be integers, got {self.parts!r}") from None
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise DomainError(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing, got {parts}")

    @property
    def size(self) -> int:
        """Sum of the parts (the number being partitioned)."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _check_partition(*partitions) -> None:
    # The boundary check of every public function that takes partitions.
    for chi in partitions:
        if not isinstance(chi, Partition):
            raise DomainError(f"expected a Partition, got {type(chi).__name__} {chi!r}")


def _positive_size(n) -> int:
    # ``n`` as an int, when it is an integer of at least 1.
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return n


@total_ordering
@dataclass(frozen=True)
class MultiIndex:
    """A map ``{1..m} -> {1..n}`` stored as its tuple of images.

    Ordering is lexicographic on the image tuple.
    """

    entries: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.n < 1:
            raise DomainError(f"codomain size must be positive, got {self.n}")
        if not entries:
            raise DomainError("multi-index must have at least one entry")
        if any(e < 1 or e > self.n for e in entries):
            raise DomainError(f"entries of {entries} fall outside 1..{self.n}")

    @classmethod
    def _trusted(cls, entries: tuple[int, ...], n: int) -> "MultiIndex":
        # A multi-index from a tuple of ints already known to lie in 1..n,
        # such as a base-n decoding, without __post_init__'s checks.
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "entries", entries)
        object.__setattr__(alpha, "n", n)
        return alpha

    @property
    def m(self) -> int:
        """Domain size."""
        return len(self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return (self.entries, self.n) < (other.entries, other.n)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1..m}`` stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"{images} is not a rearrangement of 1..{len(images)}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycle_type(self) -> Partition:
        """Cycle lengths, sorted into a partition of the degree."""
        seen = [False] * self.degree
        lengths = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            length = 0
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self.images[j - 1]
                length += 1
            lengths.append(length)
        return Partition(tuple(sorted(lengths, reverse=True)))


def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of ``m`` in reverse lexicographic order.

    Reverse lexicographic means ``(m)`` first and ``(1,...,1)`` last.
    """
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    if m > MAX_PARTITION_SIZE:
        raise ResourceError(
            f"partition enumeration capped at m <= {MAX_PARTITION_SIZE}, got {m}"
        )
    return tuple(Partition(p) for p in _partition_tuples(m, m))


def _partition_tuples(m: int, max_part: int) -> list[tuple[int, ...]]:
    if m == 0:
        return [()]
    out = []
    for first in range(min(m, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partition_tuples(m - first, first))
    return out


def majorizes(lam: Partition, mu: Partition) -> bool:
    """Whether every partial sum of ``lam`` dominates that of ``mu``.

    Both partitions must partition the same number.
    """
    _check_partition(lam, mu)
    if lam.size != mu.size:
        raise DomainError(
            f"cannot compare partitions of different numbers: {lam} vs {mu}"
        )
    total_l = 0
    total_m = 0
    for s in range(max(lam.length, mu.length)):
        total_l += lam.parts[s] if s < lam.length else 0
        total_m += mu.parts[s] if s < mu.length else 0
        if total_l < total_m:
            return False
    return True


def omega_of(pi: Partition, n: int) -> MultiIndex:
    """The weakly increasing multi-index with value ``i`` repeated ``pi[i]`` times.

    This is the lexicographically smallest multi-index whose multiplicity
    partition equals ``pi``; it needs ``n`` at least the number of parts.
    """
    _check_partition(pi)
    if pi.length > n:
        raise DomainError(
            f"partition {pi} has {pi.length} parts but the codomain only has {n} values"
        )
    entries = tuple(
        value for value, count in enumerate(pi.parts, start=1) for _ in range(count)
    )
    return MultiIndex(entries, n)


def multiplicity_partition(alpha: MultiIndex) -> Partition:
    """Sizes of the preimages ``alpha^{-1}(i)``, sorted into a partition."""
    counts = Counter(alpha.entries)
    return Partition(tuple(sorted(counts.values(), reverse=True)))


def enumerate_maps(mode: str, m: int, n: int) -> tuple[MultiIndex, ...]:
    """All multi-indices ``{1..m} -> {1..n}`` of a given kind, in lex order.

    ``mode`` selects the family: ``"gamma"`` (every map) or ``"increasing"``
    (weakly increasing).
    """
    if m < 1 or n < 1:
        raise DomainError(f"m and n must be positive, got m={m}, n={n}")
    values = range(1, n + 1)
    if mode == "gamma":
        tuples = itertools.product(values, repeat=m)
    elif mode == "increasing":
        tuples = itertools.combinations_with_replacement(values, m)
    else:
        raise DomainError(f"unknown enumeration mode {mode!r}")
    return tuple(MultiIndex(t, n) for t in tuples)


def all_permutations(m: int) -> tuple[Permutation, ...]:
    """Every element of S_m, ordered lexicographically by image tuple."""
    if m < 1:
        raise DomainError(f"degree must be positive, got {m}")
    if m > MAX_ORBIT_DEGREE:
        raise ResourceError(f"refusing to enumerate S_{m} (cap is {MAX_ORBIT_DEGREE})")
    return tuple(Permutation(p) for p in itertools.permutations(range(1, m + 1)))


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
import math
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
        parts = _integers(self.parts, "partition parts")
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise DomainError(f"partition parts must be positive, got {_shown(parts)}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing, got {_shown(parts)}")

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
        return "(" + ",".join(map(_shown, self.parts)) + ")"


def _shown(value) -> str:
    # repr(value) for an error message.  An int past Python's digit limit
    # for str, alone or in a sequence, is named by its size instead.
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            digits = int(value.bit_length() * math.log10(2)) + 1
            return f"{'-' * (value < 0)}<an integer of about {digits} digits>"
        return "(" + ", ".join(map(_shown, value)) + ")"


def _check_type(kind: type, *values) -> None:
    # The boundary check of every public function that takes partitions,
    # multi-indices, a symmetry class or a random generator.
    for value in values:
        if not isinstance(value, kind):
            got = f"{type(value).__name__} {_shown(value)}"
            raise DomainError(f"expected a {kind.__name__}, got {got}")


def _integer(value, what: str = "n") -> int:
    # ``value`` as an int, when it is an integer (an int, a numpy integer, ...).
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {_shown(value)}") from None


def _integers(values, what: str) -> tuple[int, ...]:
    # ``values`` as a tuple of ints, when it is an iterable of integers.
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise DomainError(f"{what} must be integers, got {_shown(values)}") from None


_TEXT = (str, bytes, bytearray)


def _float(value) -> float:
    # float() also parses text, which is not a real number.
    if isinstance(value, _TEXT):
        raise TypeError(f"text {value!r} is not a number")
    return float(value)


def _real(value, what: str) -> float:
    # ``value`` as a float, when it is a real number.
    try:
        return _float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a real number, got {_shown(value)}") from None


def _reals(values, what: str) -> tuple[float, ...]:
    # ``values`` as a tuple of floats, when it is an iterable of real
    # numbers; text is refused whole, as bytes iterate as their codes.
    try:
        if isinstance(values, _TEXT):
            raise TypeError(f"text {values!r} is not a sequence of numbers")
        return tuple(_float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be real numbers, got {_shown(values)}") from None


def _positive_size(n) -> int:
    # ``n`` as an int, when it is an integer of at least 1.
    n = _integer(n)
    if n < 1:
        raise DomainError(f"n must be positive, got {_shown(n)}")
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
        n = _integer(self.n, "codomain size")
        entries = _integers(self.entries, "multi-index entries")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", n)
        if n < 1:
            raise DomainError(f"codomain size must be positive, got {_shown(n)}")
        if not entries:
            raise DomainError("multi-index must have at least one entry")
        if any(e < 1 or e > n for e in entries):
            raise DomainError(f"entries of {_shown(entries)} fall outside 1..{_shown(n)}")

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
        return "(" + ",".join(map(_shown, self.entries)) + ")"


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1..m}`` stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = _integers(self.images, "permutation images")
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"{_shown(images)} is not a rearrangement of 1..{len(images)}")

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
    m = _integer(m, "m")
    if m < 1:
        raise DomainError(f"m must be positive, got {_shown(m)}")
    if m > MAX_PARTITION_SIZE:
        raise ResourceError(
            f"partition enumeration capped at m <= {MAX_PARTITION_SIZE}, got {_shown(m)}"
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
    _check_type(Partition, lam, mu)
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
    _check_type(Partition, pi)
    n = _integer(n)
    if pi.length > n:
        raise DomainError(
            f"partition {pi} has {pi.length} parts but the codomain only has {_shown(n)} values"
        )
    entries = tuple(
        value for value, count in enumerate(pi.parts, start=1) for _ in range(count)
    )
    return MultiIndex(entries, n)


def multiplicity_partition(alpha: MultiIndex) -> Partition:
    """Sizes of the preimages ``alpha^{-1}(i)``, sorted into a partition."""
    _check_type(MultiIndex, alpha)
    counts = Counter(alpha.entries)
    return Partition(tuple(sorted(counts.values(), reverse=True)))


def enumerate_maps(mode: str, m: int, n: int) -> tuple[MultiIndex, ...]:
    """All multi-indices ``{1..m} -> {1..n}`` of a given kind, in lex order.

    ``mode`` selects the family: ``"gamma"`` (every map) or ``"increasing"``
    (weakly increasing).
    """
    m, n = _integer(m, "m"), _integer(n)
    if m < 1 or n < 1:
        raise DomainError(f"m and n must be positive, got m={_shown(m)}, n={_shown(n)}")
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
    m = _integer(m, "m")
    if m < 1:
        raise DomainError(f"degree must be positive, got {_shown(m)}")
    if m > MAX_ORBIT_DEGREE:
        raise ResourceError(f"refusing to enumerate S_{_shown(m)} (cap is {MAX_ORBIT_DEGREE})")
    return tuple(Permutation(p) for p in itertools.permutations(range(1, m + 1)))


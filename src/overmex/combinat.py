"""Exhaustive overpartition enumeration and mex statistics.

This is the brute-force oracle: everything the series engine produces is
judged against direct counting here.  Enumeration follows the two-level
scheme suggested by the 2^m class structure: generate ordinary partitions
in descending lexicographic order, then walk all overline masks of each
partition's distinct parts (mask bit i, least significant first, flags the
i-th largest distinct part).  The order is deterministic and matches the
worked tables used as fixtures.  mex_counts takes the per-m mex histogram
of n in one pass; sigma_mex_oracle sums it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .qfactory import MexVariant

#: Enumeration above this n is refused unless the caller raises the limit;
#: the overpartition count grows like e^(pi sqrt(n)) and n=45 already means
#: a few million objects.
DEFAULT_ORACLE_LIMIT = 45


class OracleLimitError(ValueError):
    """Raised when an enumeration request exceeds the configured limit."""


def _check_limit(n: int, limit: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > limit:
        raise OracleLimitError(
            f"n={n} exceeds the oracle limit {limit}; pass a larger limit "
            "explicitly if you really want the full enumeration"
        )


@dataclass(frozen=True)
class Overpartition:
    """Canonical overpartition: per distinct part value, its multiplicity
    and whether the first copy is overlined; parts strictly decreasing."""

    groups: tuple  # of (part, count, overlined)

    def __post_init__(self):
        prev = None
        for part, count, _ in self.groups:
            if part < 1 or count < 1:
                raise ValueError(f"invalid group in {self.groups}")
            if prev is not None and part >= prev:
                raise ValueError("parts must be strictly decreasing across groups")
            prev = part

    @property
    def weight(self) -> int:
        return sum(part * count for part, count, _ in self.groups)

    def part_values(self, variant: MexVariant) -> set:
        if variant is MexVariant.OVERLINED:
            return {p for p, _, over in self.groups if over}
        if variant is MexVariant.NON_OVERLINED:
            # A group with a lone overlined copy contributes no
            # non-overlined part.
            return {p for p, count, over in self.groups if count > (1 if over else 0)}
        return {p for p, _, _ in self.groups}

    def display(self) -> str:
        """Plain-text rendering; an overline prints as a trailing ~ on the
        first copy of the value, e.g. 3~+1."""
        if not self.groups:
            return "(empty)"
        pieces = []
        for part, count, over in self.groups:
            if over:
                pieces.append(f"{part}~")
                count -= 1
            pieces.extend([str(part)] * count)
        return "+".join(pieces)


def _partitions_desc_lex(n: int, cap: int | None = None) -> Iterator[tuple]:
    """Ordinary partitions of n in descending lexicographic order."""
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_desc_lex(n - first, first):
            yield (first,) + rest


def _overline_masks(partition: Sequence[int]) -> Iterator[Overpartition]:
    """All overpartitions over one underlying partition, mask-ascending."""
    distinct = []  # (part, count), descending
    for p in partition:
        if distinct and distinct[-1][0] == p:
            distinct[-1][1] += 1
        else:
            distinct.append([p, 1])
    m = len(distinct)
    for mask in range(2**m):
        groups = tuple(
            (part, count, bool(mask >> i & 1))
            for i, (part, count) in enumerate(distinct)
        )
        yield Overpartition(groups)


def enumerate_overpartitions(
    n: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> Iterator[Overpartition]:
    """Every overpartition of n exactly once, deterministic order:
    descending-lex on the underlying partition, then ascending overline
    mask."""
    _check_limit(n, limit)
    for partition in _partitions_desc_lex(n):
        yield from _overline_masks(partition)


def mex_statistic(pi: Overpartition, variant: MexVariant) -> int:
    """Least positive integer absent from the variant's part set."""
    present = pi.part_values(variant)
    m = 1
    while m in present:
        m += 1
    return m


def overpartition_count(n: int, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """p-bar(n) by direct counting: sum of 2^(distinct parts)."""
    _check_limit(n, limit)
    return sum(
        2 ** len(set(p)) for p in _partitions_desc_lex(n)
    )


def mex_counts(
    n: int, variant: MexVariant, limit: int = DEFAULT_ORACLE_LIMIT
) -> dict:
    """Histogram {m: number of overpartitions of n whose variant-mex is m},
    from one enumeration pass; n=0 gives {1: 1}, the empty overpartition."""
    counts = {}
    for pi in enumerate_overpartitions(n, limit):
        m = mex_statistic(pi, variant)
        counts[m] = counts.get(m, 0) + 1
    return counts


def sigma_mex_oracle(
    n: int, variant: MexVariant, limit: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Sum of the variant-mex over all overpartitions of n; 1 at n=0, the
    mex of the empty overpartition."""
    return sum(m * c for m, c in mex_counts(n, variant, limit).items())


def overpartitions_from_multiset(elements: Iterable[int]) -> list:
    """All overpartitions whose underlying multiset of parts is the given
    one; there are exactly 2^(distinct values) of them."""
    parts = sorted(elements, reverse=True)
    if not parts:
        raise ValueError("multiset must be non-empty")
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    return list(_overline_masks(parts))


def class_decomposition(
    n: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> list:
    """Overpartitions of n grouped by overline erasure: one row
    (underlying_partition, class_size, mex_all_value) per class, in
    enumeration order.  Every class has even size for n >= 1, which is the
    structural reason the all-parts sigma-mex is even."""
    _check_limit(n, limit)
    rows = []
    for partition in _partitions_desc_lex(n):
        distinct = set(partition)
        size = 2 ** len(distinct)
        m = 1
        while m in distinct:
            m += 1
        rows.append((partition, size, m))
    return rows

"""The brute-force oracle: mex statistics of overpartitions by direct
counting, against which everything the series engine produces is judged.

Every ordinary partition with d distinct parts carries exactly 2^d
overpartitions, one per overline mask (its overline-erasure class), so
the oracle walks the ordinary partitions of n in descending lexicographic
order.  mex_counts counts each class's masks per mex value in closed
form, O(p(n)) work; sigma_mex_oracle sums that histogram.
enumerate_overpartitions is the literal defining form: it builds every
overpartition, walking the masks of each partition in ascending order
(mask bit i, least significant first, flags the i-th largest distinct
part).  The order is deterministic and matches the worked tables used as
fixtures.  Both walks grow like e^(c sqrt(n)); which n is affordable is
the caller's choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

from .qfactory import MexVariant


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


def _partition_groups(n: int, cap: int) -> Iterator[tuple]:
    """Ordinary partitions of n with parts <= cap in descending
    lexicographic order, each as ((part, multiplicity), ...) with parts
    strictly decreasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for count in range(n // part, 0, -1):
            for rest in _partition_groups(n - part * count, part - 1):
                yield ((part, count),) + rest


def _classes(n: int) -> Iterator[tuple]:
    """The overline-erasure classes of n: every ordinary partition of n as
    its (part, multiplicity) groups, descending-lex."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _partition_groups(n, n)


def _overline_masks(groups: tuple) -> Iterator[Overpartition]:
    """All overpartitions over one underlying partition, mask-ascending."""
    for mask in range(1 << len(groups)):
        yield Overpartition(tuple(
            (part, count, bool(mask >> i & 1))
            for i, (part, count) in enumerate(groups)
        ))


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Every overpartition of n exactly once, deterministic order:
    descending-lex on the underlying partition, then ascending overline
    mask."""
    for groups in _classes(n):
        yield from _overline_masks(groups)


def mex_statistic(pi: Overpartition, variant: MexVariant) -> int:
    """Least positive integer absent from the variant's part set."""
    present = pi.part_values(variant)
    m = 1
    while m in present:
        m += 1
    return m


def _class_mex_counts(groups: tuple, variant: MexVariant) -> Iterator[tuple]:
    """(m, masks) for each mex value m in one class: how many of its 2^d
    overline masks give the variant-mex m.

    Mex m needs 1..m-1 present and m absent.  A value outside the
    partition is absent.  A part is always present for ALL; for OVERLINED
    it is present exactly when overlined; for NON_OVERLINED it is always
    present at multiplicity >= 2 and present exactly when not overlined at
    multiplicity 1.  Walking m = 1, 2, ... up the smallest parts, a part
    whose overline decides its presence gives mex m on the 2^(d-fixed-1)
    masks that fix 1..m-1 present and m absent, then counts as fixed
    present; the first m not in the partition takes the 2^(d-fixed) masks
    left."""
    d = len(groups)
    fixed = 0  # mask bits fixed so that 1..m-1 are present
    m = 1
    for part, count in reversed(groups):
        if part != m:
            break
        if variant is MexVariant.OVERLINED or (
            variant is MexVariant.NON_OVERLINED and count == 1
        ):
            yield m, 1 << (d - fixed - 1)
            fixed += 1
        m += 1
    yield m, 1 << (d - fixed)


def mex_counts(n: int, variant: MexVariant) -> dict:
    """Histogram {m: number of overpartitions of n whose variant-mex is m},
    counted class by class without building an overpartition; n=0 gives
    {1: 1}, the empty overpartition."""
    counts = {}
    for groups in _classes(n):
        for m, masks in _class_mex_counts(groups, variant):
            counts[m] = counts.get(m, 0) + masks
    return counts


def sigma_mex_oracle(n: int, variant: MexVariant) -> int:
    """Sum of the variant-mex over all overpartitions of n; 1 at n=0, the
    mex of the empty overpartition."""
    return sum(m * c for m, c in mex_counts(n, variant).items())


def overpartitions_from_multiset(elements: Iterable[int]) -> list:
    """All overpartitions whose underlying multiset of parts is the given
    one; there are exactly 2^(distinct values) of them."""
    parts = sorted(elements, reverse=True)
    if not parts:
        raise ValueError("multiset must be non-empty")
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    groups = tuple((p, sum(1 for _ in run)) for p, run in groupby(parts))
    return list(_overline_masks(groups))


def class_decomposition(n: int) -> list:
    """Overpartitions of n grouped by overline erasure: one row
    (underlying_partition, class_size, mex_all_value) per class, in
    enumeration order.  Every class has even size for n >= 1, which is the
    structural reason the all-parts sigma-mex is even."""
    rows = []
    for groups in _classes(n):
        ((mex, size),) = _class_mex_counts(groups, MexVariant.ALL)
        partition = tuple(p for p, count in groups for _ in range(count))
        rows.append((partition, size, mex))
    return rows

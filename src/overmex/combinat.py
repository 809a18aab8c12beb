"""The brute-force oracle: mex statistics of overpartitions by direct
counting, against which everything the series engine produces is judged.

Every ordinary partition with d distinct parts carries exactly 2^d
overpartitions, one per overline mask (its overline-erasure class).
mex_histograms counts the masks of every class per mex value, for all
three variants and every n <= N at once, in one walk that adds parts in
ascending order and visits each ordinary partition of each n <= N
exactly once; sigma_mex_oracle reads it.
The other passes take the classes from _classes, the ordinary partitions
of n in descending lexicographic order, and the masks of each in
ascending order (mask bit i, least significant first, flags the i-th
largest distinct part); that order is deterministic and matches the
worked tables used as fixtures.  _class_sets holds a class's part sets
as bitmasks, one overlined set per mask, and _mex reads a set's mex as
its lowest clear bit.  overpartitions lists every overpartition with its
three mex values from those sets; literal_mex_histograms tallies the
same values, the literal defining form: each overpartition's part sets,
taken one by one, and one mex per set.  class_decomposition yields one
row per class as the walk reaches it.  Every walk grows like
e^(c sqrt(n)); which n is affordable is the caller's choice.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache

from .qfactory import MexVariant


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


@lru_cache(maxsize=None)
def mex_histograms(N: int) -> tuple:
    """For each n <= N, {variant: {m: number of overpartitions of n whose
    variant-mex is m}}, from one walk over every ordinary partition of
    every n <= N; n=0 gives {1: 1}, the empty overpartition.  Cached on N:
    callers read the result and must not change it.

    The walk builds each partition in ascending order of its parts: a
    run 1^a_1 2^a_2 ... r^a_r, every a_i >= 1, then parts >= r + 2.  Mex m
    needs 1..m-1 present and m absent, and a value outside the partition
    is absent, so only the run decides a mex.  A run part is always
    present for ALL; for OVERLINED it is present exactly when overlined;
    for NON_OVERLINED it is always present at a_i >= 2 and present exactly
    when not overlined at a_i = 1.  Call such a part, whose overline
    decides its presence, decisive.  Walking up the run, the j-th decisive
    part, of value m, gives mex m on the 2^(d-j) of the 2^d masks that
    fix the j-1 decisive parts below it present and it absent; mex r + 1
    takes the 2^(d-k) masks left after all k decisive parts.  So a
    class's histograms depend only on 2^d, r and which run parts have
    a_i = 1: the walk adds each class's 2^d masks to a tally of its sum
    kept per (r, those parts), and the rule splits each tally at the end."""
    if N < 0:
        raise ValueError("n must be non-negative")
    tallies = {}  # (r, bit i set for each run part i with a_i = 1) -> masks by n

    def extend(tally, s, masks, low):
        """Tally every partition that adds parts >= low to one of sum s
        whose class has the given number of masks."""
        masks <<= 1
        for part in range(low, N - s + 1):
            t = s + part
            while t <= N:
                tally[t] += masks
                if t + part < N:  # room left for a larger part
                    extend(tally, t, masks, part + 1)
                t += part

    def run(s, r, singles):
        """Tally the run 1^a_1 ... r^a_r of sum s and every partition
        that extends it."""
        tally = tallies.get((r, singles))
        if tally is None:
            tally = tallies[r, singles] = [0] * (N + 1)
        tally[s] += 1 << r
        extend(tally, s, 1 << r, r + 2)
        part = r + 1
        for a, t in enumerate(range(s + part, N + 1, part), 1):
            run(t, part, singles | (a == 1) << part)

    run(0, 0, 0)
    hists = tuple({v: {} for v in MexVariant} for _ in range(N + 1))
    for (r, singles), tally in tallies.items():
        decisive = {
            MexVariant.NON_OVERLINED: [i for i in range(1, r + 1) if singles >> i & 1],
            MexVariant.OVERLINED: range(1, r + 1),
            MexVariant.ALL: (),
        }
        for n, masks in enumerate(tally):
            if not masks:
                continue
            for v, parts in decisive.items():
                counts = hists[n][v]
                for j, m in enumerate(parts, 1):
                    counts[m] = counts.get(m, 0) + (masks >> j)
                counts[r + 1] = counts.get(r + 1, 0) + (masks >> len(parts))
    return hists


def mex_sum(counts: dict) -> int:
    """The sigma-mex value of a mex histogram: the sum of m * count."""
    return sum(m * c for m, c in counts.items())


def sigma_mex_oracle(n: int, variant: MexVariant) -> int:
    """Sum of the variant-mex over all overpartitions of n; 1 at n=0, the
    mex of the empty overpartition."""
    return mex_sum(mex_histograms(n)[n][variant])


def _mex(bits: int) -> int:
    """Least positive integer absent from a part set held as a bitmask
    (bit p for part p, bit 0 set): its lowest clear bit."""
    return (~bits & (bits + 1)).bit_length() - 1


def _class_sets(groups: tuple) -> tuple:
    """(over, repeated, once) for one class, given as its (part,
    multiplicity) groups: over[mask] is the overlined part set of the
    overpartition with that overline mask; repeated and once are the parts
    with multiplicity > 1 and 1.  Every set is a bitmask, bit 0 set in
    over and repeated, so the non-overlined set is repeated | once & ~o
    and the all-parts set repeated | once."""
    over, repeated, once = [1], 1, 0
    for part, count in groups:
        bit = 1 << part
        over += [o | bit for o in over]
        if count == 1:
            once |= bit
        else:
            repeated |= bit
    return over, repeated, once


def overpartitions(n: int) -> Iterator[tuple]:
    """Every overpartition of n exactly once, as (groups, mex_nonoverlined,
    mex_overlined, mex_all) with groups ((part, count, overlined), ...),
    parts strictly decreasing and the overline on the first copy: the
    classes of n in descending-lex order, the masks of each ascending."""
    for groups in _classes(n):
        over, repeated, once = _class_sets(groups)
        mex_all = _mex(repeated | once)
        for mask, o in enumerate(over):
            yield (
                tuple((p, c, bool(mask >> i & 1)) for i, (p, c) in enumerate(groups)),
                _mex(repeated | once & ~o), _mex(o), mex_all,
            )


@lru_cache(maxsize=None)
def literal_mex_histograms(n: int) -> dict:
    """{variant: Counter of mex values} over every overpartition of n, in
    overpartitions order, from each overpartition's part sets, taken one
    by one, as bitmasks: the defining form that mex_histograms must
    reproduce.  Cached on n: callers read the result and must not change
    it."""
    hists = {v: Counter() for v in MexVariant}
    for groups in _classes(n):
        over, repeated, once = _class_sets(groups)
        hists[MexVariant.OVERLINED].update(map(_mex, over))
        hists[MexVariant.NON_OVERLINED].update(_mex(repeated | once & ~o) for o in over)
        hists[MexVariant.ALL].update(map(_mex, [repeated | once] * len(over)))
    return hists


def class_decomposition(n: int) -> Iterator[tuple]:
    """Overpartitions of n grouped by overline erasure: yields one row
    (underlying_partition, class_size, mex_all_value) per class, in
    enumeration order.  Every class has even size for n >= 1, which is the
    structural reason the all-parts sigma-mex is even."""
    for groups in _classes(n):
        every = 1 + sum(1 << part for part, _ in groups)
        partition = tuple(p for p, count in groups for _ in range(count))
        yield partition, 1 << len(groups), _mex(every)

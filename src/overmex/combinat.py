"""The brute-force oracle: mex statistics of overpartitions by direct
counting, against which everything the series engine produces is judged.

Every ordinary partition with d distinct parts carries exactly 2^d
overpartitions, one per overline mask (its overline-erasure class).
mex_histograms counts the masks of every class per mex value, for all
three variants and every n <= N at once.  Only a partition's run
1^a_1 ... r^a_r of its least parts decides its mex, so mex_histograms
visits each run once and adds the run's extensions, by parts >= r + 2,
as one row of a table: _extensions builds it from one ascending walk
over the partitions of every k <= N into parts >= 2, tallied by least
part.  check_gf_vs_oracle, `table` and sigma_mex_oracle, which only
bench/ and the tests call, read it.
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
row per class as _classes reaches it.  Every walk grows like
e^(c sqrt(n)); which n is affordable is the caller's choice.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator
from functools import lru_cache
from itertools import repeat
from operator import add, lshift

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


def _extensions(N: int) -> dict:
    """{low: E} for 2 <= low <= N + 2, where E[k], for k <= N, sums
    2^(number of distinct parts) over the partitions of k into parts >=
    low; E[0] = 1, the empty partition.  One ascending walk tallies the
    partitions of each least part p, and E for low is 1 plus the tallies
    of every p >= low, by list additions: each partition of each k <= N
    into parts >= 2 is visited once.  Parts of 1 are left out, as
    mex_histograms extends a run only by parts >= 2, and its run at
    N = 1 reads low = N + 2."""

    def extend(tally, s, weight, low, high):
        """Tally every partition that adds parts in low..high, then larger
        ones, to one of sum s and the given weight."""
        weight <<= 1
        for part in range(low, high + 1):
            t = s + part
            while t <= N:
                tally[t] += weight
                if t + part < N:  # room left for a larger part
                    extend(tally, t, weight, part + 1, N - t)
                t += part

    row = [1] + [0] * N
    table = {N + 2: row}
    for low in range(N + 1, 1, -1):
        least = [0] * (N + 1)
        extend(least, 0, 1, low, low)
        table[low] = row = list(map(add, row, least))
    return table


@lru_cache(maxsize=None)
def mex_histograms(N: int) -> tuple:
    """For each n <= N, {variant: {m: number of overpartitions of n whose
    variant-mex is m}}, counted for every ordinary partition of every
    n <= N at once; n=0 gives {1: 1}, the empty overpartition.  Cached on N:
    callers read the result and must not change it.

    Each partition is a run 1^a_1 2^a_2 ... r^a_r, every a_i >= 1, then
    parts >= r + 2.  Mex m needs 1..m-1 present and m absent, and a value
    outside the partition is absent, so only the run decides a mex.  A
    run part is always present for ALL; for OVERLINED it is present
    exactly when overlined; for NON_OVERLINED it is always present at
    a_i >= 2 and present exactly when not overlined at a_i = 1.  Call
    such a part, whose overline decides its presence, decisive.  Walking
    up the run, the j-th decisive part, of value m, gives mex m on the
    2^(d-j) of the 2^d masks that fix the j-1 decisive parts below it
    present and it absent; mex r + 1 takes the 2^(d-k) masks left after
    all k decisive parts.  So a class's histograms depend only on 2^d, r
    and which run parts have a_i = 1.

    The walk visits each run once and counts the runs of each sum per key
    (r, which run parts have a_i = 1).  A class of d distinct parts has
    2^(d-r) masks per mask of its run, and over the extensions of a run
    by parts >= r + 2 of total k these sum to E[k], E the row for
    low = r + 2 of _extensions(N).  So each nonzero count adds that row,
    times the count, at the run's sum in one pass, and the key's tally
    holds 2^(d-r) summed by n.  The rule then splits each tally by
    column: the j-th decisive part's mex takes it shifted left by r - j,
    and mex r + 1 by r - k.  Tallies with the same mex and shift are
    summed before one shift; OVERLINED and ALL depend on r alone, so
    their tallies with the same r are summed first.  The per-n dicts are
    built last, without zero entries."""
    if N < 0:
        raise ValueError("n must be non-negative")
    extensions = _extensions(N)

    def zeros():
        return [0] * (N + 1)

    # (r, bit i set for each run part i with a_i = 1) -> runs by sum
    runs = defaultdict(zeros)

    def run(s, r, singles, counts):
        """Count the run 1^a_1 ... r^a_r of sum s and every run that
        continues it."""
        counts[s] += 1
        part = r + 1
        if s + part <= N:
            once = singles | 1 << part
            run(s + part, part, once, runs[part, once])
            if s + 2 * part <= N:
                more = runs[part, singles]
                for t in range(s + 2 * part, N + 1, part):
                    run(t, part, singles, more)

    def split(sums, r, decisive, tally):
        """Add a tally to sums[(mex, shift)] by the rule, given the
        decisive run parts in ascending order."""
        keys = [(m, r - j) for j, m in enumerate(decisive, 1)]
        for key in keys + [(r + 1, r - len(decisive))]:
            sums[key] = list(map(add, sums[key], tally))

    run(0, 0, 0, runs[0, 0])
    sums = {v: defaultdict(zeros) for v in MexVariant}  # (mex, shift) -> tallies by n
    by_r = defaultdict(zeros)
    for (r, singles), counts in runs.items():
        row = extensions[r + 2]
        tally = zeros()
        for s, c in enumerate(counts):
            if c:
                tally[s:] = map(add, tally[s:], map(c.__mul__, row) if c > 1 else row)
        by_r[r] = list(map(add, by_r[r], tally))
        split(sums[MexVariant.NON_OVERLINED], r,
              [m for m in range(1, r + 1) if singles >> m & 1], tally)
    for r, tally in by_r.items():
        split(sums[MexVariant.OVERLINED], r, range(1, r + 1), tally)
        split(sums[MexVariant.ALL], r, (), tally)
    columns = {v: defaultdict(zeros) for v in MexVariant}  # mex -> masks by n
    for v, shifted in sums.items():
        cols = columns[v]
        for (m, shift), tally in shifted.items():
            cols[m] = list(map(add, cols[m], map(lshift, tally, repeat(shift))))
    return tuple({v: {m: col[n] for m, col in cols.items() if col[n]}
                  for v, cols in columns.items()} for n in range(N + 1))


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
    non_overlined, overlined, every = [], [], []
    for groups in _classes(n):
        over, repeated, once = _class_sets(groups)
        non_overlined += [_mex(repeated | once & ~o) for o in over]
        overlined += map(_mex, over)
        every += map(_mex, [repeated | once] * len(over))
    return {MexVariant.NON_OVERLINED: Counter(non_overlined),
            MexVariant.OVERLINED: Counter(overlined), MexVariant.ALL: Counter(every)}


def class_decomposition(n: int) -> Iterator[tuple]:
    """Overpartitions of n grouped by overline erasure: yields one row
    (underlying_partition, class_size, mex_all_value) per class, in
    enumeration order.  Every class has even size for n >= 1, which is the
    structural reason the all-parts sigma-mex is even."""
    for groups in _classes(n):
        every = 1 + sum(1 << part for part, _ in groups)
        partition = tuple(p for p, count in groups for _ in range(count))
        yield partition, 1 << len(groups), _mex(every)

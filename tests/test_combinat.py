from collections import Counter

import pytest

from overmex import combinat as cb
from overmex.qfactory import MexVariant

# The two worked tables for n = 3: (display, overlined-mex, all-mex).
N3_TABLE = [
    ("3", 1, 1),
    ("3~", 1, 1),
    ("2+1", 1, 3),
    ("2~+1", 1, 3),
    ("2+1~", 2, 3),
    ("2~+1~", 3, 3),
    ("1+1+1", 1, 2),
    ("1~+1+1", 2, 2),
]


# The slow reference: every overpartition built as its groups from the
# classes of n, its part sets as Python sets and its mex by counting up.
# It shares no code with combinat's bitmask sets.

def reference_overpartitions(n):
    """Every overpartition of n as ((part, count, overlined), ...), parts
    decreasing: the classes of n in descending-lex order, then the masks of
    each ascending, mask bit i flagging the i-th largest part."""
    for groups in cb._classes(n):
        for mask in range(1 << len(groups)):
            yield tuple(
                (part, count, bool(mask >> i & 1))
                for i, (part, count) in enumerate(groups)
            )


def part_values(groups, variant):
    if variant is MexVariant.OVERLINED:
        return {p for p, _, over in groups if over}
    if variant is MexVariant.NON_OVERLINED:
        # A group with a lone overlined copy contributes no non-overlined part.
        return {p for p, count, over in groups if count > (1 if over else 0)}
    return {p for p, _, _ in groups}


def mex_statistic(groups, variant):
    """Least positive integer absent from the variant's part set."""
    present = part_values(groups, variant)
    m = 1
    while m in present:
        m += 1
    return m


def display(groups):
    """The worked tables' notation: a trailing ~ on the first copy of an
    overlined value."""
    pieces = []
    for part, count, over in groups:
        if over:
            pieces.append(f"{part}~")
            count -= 1
        pieces.extend([str(part)] * count)
    return "+".join(pieces)


class TestEnumeration:
    def test_n3_matches_worked_table(self):
        listed = list(cb.overpartitions(3))
        assert [groups for groups, *_ in listed] == list(reference_overpartitions(3))
        assert [display(groups) for groups, *_ in listed] == [row[0] for row in N3_TABLE]

    def test_n0_single_empty(self):
        assert list(cb.overpartitions(0)) == [((), 1, 1, 1)]

    def test_counts(self):
        for n in range(12):
            assert sum(1 for _ in cb.overpartitions(n)) == \
                sum(size for _, size, _ in cb.class_decomposition(n))

    def test_n4_count(self):
        assert sum(1 for _ in cb.overpartitions(4)) == 14

    def test_no_duplicates(self):
        for n in range(10):
            listed = [groups for groups, *_ in cb.overpartitions(n)]
            assert len(set(listed)) == len(listed)

    def test_deterministic(self):
        assert list(cb.overpartitions(8)) == list(cb.overpartitions(8))


class TestMexStatistic:
    def test_table_values(self):
        for row, (shown, over, all_) in zip(reference_overpartitions(3), N3_TABLE):
            assert display(row) == shown
            assert mex_statistic(row, MexVariant.OVERLINED) == over
            assert mex_statistic(row, MexVariant.ALL) == all_
        assert [(over, all_) for _, _, over, all_ in cb.overpartitions(3)] == \
            [(over, all_) for _, over, all_ in N3_TABLE]

    def test_non_overlined_variant(self):
        mexes = {groups: non for n in (1, 3) for groups, non, _, _ in cb.overpartitions(n)}
        # 1~+1+1: the non-overlined copies are {1,1}, so the mex is 2.
        assert mexes[(1, 3, True),] == 2
        # A lone overlined copy leaves no non-overlined part behind.
        assert mexes[(1, 1, True),] == 1

    @pytest.mark.parametrize("n", range(17))
    def test_listed_mex_values_match_reference(self, n):
        expected = [
            (groups, *(mex_statistic(groups, v) for v in MexVariant))
            for groups in reference_overpartitions(n)
        ]
        assert list(cb.overpartitions(n)) == expected

    @pytest.mark.parametrize("n", range(17))
    def test_listed_mex_tallies_match_walk(self, n):
        assert listing_breaks([n], [n]) == []

    def test_broken_listing_is_named(self, monkeypatch):
        # A walk with no overlined overpartitions differs from both listings.
        built = cb.mex_histograms
        monkeypatch.setattr(cb, "mex_histograms", lambda N: [
            {**hist, MexVariant.OVERLINED: {}} for hist in built(N)])
        assert listing_breaks(range(2), [2]) == [
            "literal overlined at n = 0", "literal overlined at n = 1", "enum overlined at n = 2"]


def listing_breaks(literal_ns, enum_ns):
    """Each n and variant at which a listing of the overpartitions of n,
    its mex values tallied, differs from the class walk's histogram: the
    literal bitmask pass at every n in literal_ns, and the three mex
    columns that `enum` lists at every n in enum_ns."""
    walk = cb.mex_histograms(max([*literal_ns, *enum_ns]))
    breaks = [f"literal {v.value} at n = {n}" for n in literal_ns for v in MexVariant
              if cb.literal_mex_histograms(n)[v] != walk[n][v]]
    for n in enum_ns:
        columns = zip(*(mexes for _, *mexes in cb.overpartitions(n)))
        breaks += [f"enum {v.value} at n = {n}" for v, column in zip(MexVariant, columns)
                   if Counter(column) != walk[n][v]]
    return breaks


class TestSigmaOracle:
    def test_paper_values(self):
        assert cb.sigma_mex_oracle(3, MexVariant.OVERLINED) == 12
        assert cb.sigma_mex_oracle(3, MexVariant.ALL) == 18
        assert cb.sigma_mex_oracle(4, MexVariant.ALL) == 28

    def test_zero_convention(self):
        for v in MexVariant:
            assert cb.sigma_mex_oracle(0, v) == 1

    def test_count_oracle_table(self):
        n3 = cb.mex_histograms(3)[3]
        assert n3[MexVariant.OVERLINED].get(1, 0) == 4 + 1  # five rows
        assert n3[MexVariant.ALL].get(2, 0) == 2
        for v in MexVariant:
            assert n3[v].get(5, 0) == 0
            assert cb.mex_histograms(0)[0][v] == {1: 1}


def literal_histograms(n):
    """{variant: Counter of mex values} over every reference overpartition
    of n: the defining form that class counting must reproduce."""
    hists = {v: Counter() for v in MexVariant}
    for groups in reference_overpartitions(n):
        for v, hist in hists.items():
            hist[mex_statistic(groups, v)] += 1
    return hists


def reference_class_counts(groups, variant):
    """(m, masks) for each mex value m in one class, given as its
    (part, multiplicity) groups with parts decreasing: how many of its 2^d
    overline masks give the variant-mex m.  Walking m = 1, 2, ... up the
    smallest parts, a part whose overline decides its presence gives mex m
    on the 2^(d-fixed-1) masks that fix 1..m-1 present and m absent, then
    counts as fixed present; the first m not in the partition takes the
    2^(d-fixed) masks left."""
    d = len(groups)
    fixed = 0
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


def reference_mex_counts(n, variant):
    """The class-by-class histogram over the descending-lex partitions of
    n: the reference that the ascending walk must reproduce."""
    counts = {}
    for groups in cb._classes(n):
        for m, masks in reference_class_counts(groups, variant):
            counts[m] = counts.get(m, 0) + masks
    return counts


class TestClassCounting:
    @pytest.mark.parametrize("n", range(26))
    def test_matches_literal_histogram(self, n):
        for v, hist in literal_histograms(n).items():
            assert cb.mex_histograms(n)[n][v] == dict(hist), v

    @pytest.mark.parametrize("n", range(17))
    def test_bitmask_literal_pass_matches_objects(self, n):
        assert cb.literal_mex_histograms(n) == literal_histograms(n)

    def test_walk_matches_descending_lex_reference(self):
        hists = cb.mex_histograms(30)
        assert len(hists) == 31
        for n, hist in enumerate(hists):
            for v in MexVariant:
                assert hist[v] == reference_mex_counts(n, v), (n, v)

    def test_limit_refused(self):
        with pytest.raises(ValueError):
            cb.mex_histograms(-1)

    @pytest.mark.parametrize("N", range(21))
    def test_extension_table_matches_classes(self, N):
        # A skipped least part or a doubled weight shows here, at the first
        # entry it changes, not only where it changes a histogram count.
        table = cb._extensions(N)
        assert sorted(table) == list(range(2, N + 3))
        # (least part, 2^(distinct parts)) for each partition of each 1 <= k <= N.
        weights = [[(groups[-1][0], 1 << len(groups)) for groups in cb._classes(k)]
                   for k in range(1, N + 1)]
        for low, row in table.items():
            assert row == [1] + [sum(w for least, w in partitions if least >= low)
                                 for partitions in weights], low


def with_multiset(parts):
    """The reference overpartitions whose parts, overlines erased, are the
    given multiset."""
    groups = tuple(Counter(parts).items())
    return [
        pi for pi in reference_overpartitions(sum(parts))
        if tuple((p, count) for p, count, _ in pi) == groups
    ]


class TestMultiset:
    def test_worked_example(self):
        ops = with_multiset([5, 3, 3, 3, 2, 2])
        assert len(ops) == 8
        assert all(sum(p * count for p, count, _ in pi) == 18 for pi in ops)
        assert len(set(ops)) == 8

    def test_single_value(self):
        ops = with_multiset([7])
        assert [display(pi) for pi in ops] == ["7", "7~"]

    def test_repeated_value(self):
        assert len(with_multiset([1, 1, 1, 1])) == 2

    def test_power_of_two_at_scale(self):
        for n in range(1, 16):
            for partition, size, _ in cb.class_decomposition(n):
                assert size == 2 ** len(set(partition))


class TestClassDecomposition:
    def test_n4_table(self):
        rows = list(cb.class_decomposition(4))
        assert [(size, mex) for _, size, mex in rows] == [
            (2, 1), (4, 2), (2, 1), (4, 3), (2, 2),
        ]
        assert sum(size for _, size, _ in rows) == 14

    def test_n1(self):
        assert list(cb.class_decomposition(1)) == [((1,), 2, 2)]

    def test_weighted_sum_matches_sigma_all(self):
        for n in range(1, 14):
            total = sum(size * mex for _, size, mex in cb.class_decomposition(n))
            assert total == cb.sigma_mex_oracle(n, MexVariant.ALL)

    def test_every_class_even(self):
        for n in range(1, 14):
            assert all(size % 2 == 0 for _, size, _ in cb.class_decomposition(n))

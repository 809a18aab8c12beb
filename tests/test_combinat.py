from collections import Counter

import pytest

from overmex import combinat as cb
from overmex.combinat import Overpartition
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


def op(*groups):
    return Overpartition(tuple(groups))


class TestOverpartitionType:
    def test_display_overline_on_first_copy(self):
        assert op((2, 1, False), (1, 2, True)).display() == "2+1~+1"

    def test_empty_display(self):
        assert op().display() == "(empty)"

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            op((1, 1, False), (2, 1, False))

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            op((0, 1, False))

    def test_immutable(self):
        pi = op((2, 1, True))
        with pytest.raises(AttributeError):
            pi.groups = ()
        with pytest.raises(AttributeError):
            pi.extra = 1
        with pytest.raises(AttributeError):
            del pi.groups
        assert pi.groups == ((2, 1, True),)

    def test_equal_groups_equal_and_hash_alike(self):
        a, b = op((3, 1, True), (1, 2, False)), op((3, 1, True), (1, 2, False))
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != op((3, 1, False), (1, 2, False)) and a != a.groups
        pis = list(cb.enumerate_overpartitions(4))
        assert len(set(pis + [op(*pi.groups) for pi in pis])) == 14  # copies collapse

    def test_repr(self):
        pi = op((2, 1, True), (1, 1, False))
        assert repr(pi) == "Overpartition(groups=((2, 1, True), (1, 1, False)))"
        assert eval(repr(pi), {"Overpartition": Overpartition}) == pi


class TestEnumeration:
    def test_n3_matches_worked_table(self):
        listed = list(cb.enumerate_overpartitions(3))
        assert [pi.display() for pi in listed] == [row[0] for row in N3_TABLE]

    def test_n0_single_empty(self):
        listed = list(cb.enumerate_overpartitions(0))
        assert len(listed) == 1
        assert listed[0].groups == ()

    def test_counts(self):
        for n in range(12):
            assert sum(1 for _ in cb.enumerate_overpartitions(n)) == \
                sum(size for _, size, _ in cb.class_decomposition(n))

    def test_n4_count(self):
        assert sum(1 for _ in cb.enumerate_overpartitions(4)) == 14

    def test_no_duplicates(self):
        for n in range(10):
            listed = list(cb.enumerate_overpartitions(n))
            assert len(set(listed)) == len(listed)

    def test_deterministic(self):
        a = [pi.display() for pi in cb.enumerate_overpartitions(8)]
        b = [pi.display() for pi in cb.enumerate_overpartitions(8)]
        assert a == b


class TestMexStatistic:
    def test_table_values(self):
        for pi, (display, over, all_) in zip(cb.enumerate_overpartitions(3), N3_TABLE):
            assert pi.display() == display
            assert cb.mex_statistic(pi, MexVariant.OVERLINED) == over
            assert cb.mex_statistic(pi, MexVariant.ALL) == all_

    def test_non_overlined_variant(self):
        # 1~+1+1: the non-overlined copies are {1,1}, so the mex is 2.
        pi = op((1, 3, True))
        assert cb.mex_statistic(pi, MexVariant.NON_OVERLINED) == 2
        # A lone overlined copy leaves no non-overlined part behind.
        assert cb.mex_statistic(op((1, 1, True)), MexVariant.NON_OVERLINED) == 1

    def test_subset_monotonicity(self):
        # Overlined and non-overlined parts are subsets of all parts.
        for n in range(13):
            for pi in cb.enumerate_overpartitions(n):
                m_all = cb.mex_statistic(pi, MexVariant.ALL)
                assert cb.mex_statistic(pi, MexVariant.OVERLINED) <= m_all
                assert cb.mex_statistic(pi, MexVariant.NON_OVERLINED) <= m_all


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

    def test_counts_partition_pbar(self):
        for n in range(10):
            for v in MexVariant:
                total = sum(
                    cb.mex_histograms(n)[n][v].get(m, 0) for m in range(1, n + 2)
                )
                assert total == sum(1 for _ in cb.enumerate_overpartitions(n))


def literal_histograms(n):
    """{variant: Counter of mex values} over every enumerated overpartition
    of n: the defining form that class counting must reproduce."""
    hists = {v: Counter() for v in MexVariant}
    for pi in cb.enumerate_overpartitions(n):
        for v, hist in hists.items():
            hist[cb.mex_statistic(pi, v)] += 1
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

    def test_walk_matches_descending_lex_reference(self):
        hists = cb.mex_histograms(30)
        assert len(hists) == 31
        for n, hist in enumerate(hists):
            for v in MexVariant:
                assert hist[v] == reference_mex_counts(n, v), (n, v)

    def test_limit_refused(self):
        with pytest.raises(ValueError):
            cb.mex_histograms(-1)


def with_multiset(parts):
    """The enumerated overpartitions whose parts, overlines erased, are the
    given multiset."""
    groups = tuple(Counter(parts).items())
    return [
        pi for pi in cb.enumerate_overpartitions(sum(parts))
        if tuple((p, count) for p, count, _ in pi.groups) == groups
    ]


class TestMultiset:
    def test_worked_example(self):
        ops = with_multiset([5, 3, 3, 3, 2, 2])
        assert len(ops) == 8
        assert all(sum(p * count for p, count, _ in pi.groups) == 18 for pi in ops)
        assert len(set(ops)) == 8

    def test_single_value(self):
        ops = with_multiset([7])
        assert [pi.display() for pi in ops] == ["7", "7~"]

    def test_repeated_value(self):
        assert len(with_multiset([1, 1, 1, 1])) == 2

    def test_power_of_two_at_scale(self):
        for n in range(1, 16):
            for partition, size, _ in cb.class_decomposition(n):
                assert size == 2 ** len(set(partition))


class TestClassDecomposition:
    def test_n4_table(self):
        rows = cb.class_decomposition(4)
        assert [(size, mex) for _, size, mex in rows] == [
            (2, 1), (4, 2), (2, 1), (4, 3), (2, 2),
        ]
        assert sum(size for _, size, _ in rows) == 14

    def test_n1(self):
        assert cb.class_decomposition(1) == [((1,), 2, 2)]

    def test_weighted_sum_matches_sigma_all(self):
        for n in range(1, 14):
            total = sum(size * mex for _, size, mex in cb.class_decomposition(n))
            assert total == cb.sigma_mex_oracle(n, MexVariant.ALL)

    def test_every_class_even(self):
        for n in range(1, 14):
            assert all(size % 2 == 0 for _, size, _ in cb.class_decomposition(n))

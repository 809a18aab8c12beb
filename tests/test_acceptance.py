"""Acceptance suite: one test per criterion, run at the stated sizes and
tolerances.  The terminal summary (see conftest) prints one pass/fail line
per criterion."""

import csv
import io
import random

import pytest

from overmex import cli, combinat as cb, qfactory as qf, series as se, verify as vf
from overmex.qfactory import MexVariant


@pytest.fixture(scope="module")
def overlined_gf_2500():
    return qf.sigma_mex_gf(MexVariant.OVERLINED, 2500)


def _enum_rows(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return rows[1:]


def test_criterion_1_paper_fixtures(capsys):
    """Worked values and tables for n=3 and n=4 reproduced exactly."""
    assert qf.sigma_mex_gf(MexVariant.OVERLINED, 3)[3] == 12
    assert qf.sigma_mex_gf(MexVariant.ALL, 4)[3] == 18
    assert qf.sigma_mex_gf(MexVariant.ALL, 4)[4] == 28
    assert qf.overpartition_gf(3)[3] == 8

    rows = _enum_rows(["enum", "--max-n", "3"], capsys)
    assert [r[0] for r in rows] == [
        "3", "3~", "2+1", "2~+1", "2+1~", "2~+1~", "1+1+1", "1~+1+1",
    ]
    # Overlined-mex and all-mex columns of the two worked tables.
    assert [int(r[2]) for r in rows] == [1, 1, 1, 1, 2, 3, 1, 2]
    assert [int(r[3]) for r in rows] == [1, 1, 3, 3, 3, 3, 2, 2]

    class_rows = _enum_rows(["enum", "--max-n", "4", "--by-class"], capsys)
    assert [(r[0], int(r[1]), int(r[2])) for r in class_rows] == [
        ("4", 2, 1),
        ("3+1", 4, 2),
        ("2+2", 2, 1),
        ("2+1+1", 4, 3),
        ("1+1+1+1", 2, 2),
    ]


@pytest.mark.parametrize("variant", list(MexVariant))
def test_criterion_2_series_equals_oracle(variant):
    """Generating functions vs enumeration: sigma to n=30, counts to n=25."""
    report = vf.check_gf_vs_oracle(variant, n_max=30, count_n_max=25)
    assert report.passed, report.to_dict()


def test_criterion_3_identity_suite_order_2000():
    """Exact-integer identity chain and arithmetic laws at truncation
    order 2000."""
    euler = vf.check_euler_identity(2000)
    assert euler.passed, euler.to_dict()
    chain = vf.check_identity_suite(2000)
    assert chain.passed, chain.to_dict()
    arithmetic = vf.check_arithmetic(2000)
    assert arithmetic.passed, arithmetic.to_dict()


def test_criterion_4_parity_theorems():
    """All-parts sigma-mex and overpartition numbers even to 10^4; the
    non-overlined variant odd exactly at triangular n to 5000."""
    even = vf.check_parity_all_even(10_000)
    assert even.passed, even.to_dict()
    tri = vf.check_triangular_parity(5000)
    assert tri.passed, tri.to_dict()


def test_criterion_5_parity_density():
    """Even-density of the overlined sigma-mex over n <= 10^4: floor 0.85,
    dyadic trend slack 0.01, exact value pinned from the calibration run."""
    assert (vf.DENSITY_FLOOR, vf.DENSITY_TREND_SLACK) == (0.85, 0.01)
    report = vf.check_parity_density(10_000)
    assert report.passed, report.to_dict()
    assert report.metrics["density"] == pytest.approx(0.9838, abs=1e-12)


def test_criterion_6_asymptotics(overlined_gf_2500):
    """|exact/predicted - 1| shrinks across {100,...,2500} with 2% slack
    per step and ends below 0.25."""
    assert (vf.ASYM_FINAL_DEV, vf.ASYM_STEP_SLACK) == (0.25, 1.02)
    assert vf.DEFAULT_ASYM_POINTS == (100, 400, 900, 1600, 2500)
    report = vf.asym_ratio_table(overlined_gf_2500)
    assert report.passed, report.to_dict()
    assert report.metrics["dev_at_2500"] < 0.25


def test_criterion_7_sigma_taylor():
    """sigma(e^-t) vs its degree-4 expansion at t in {0.05, 0.1}, within
    twice the magnitude of the next term."""
    assert (vf.SIGMA_TAYLOR_T, vf.SIGMA_TAYLOR_ORDER) == ((0.05, 0.1), 400)
    report = vf.check_sigma_taylor()
    assert report.passed, report.to_dict()


def test_criterion_8_power_of_two_classes():
    """Overline classes have size 2^(distinct parts) for every n <= 25;
    the multiset {5,3,3,3,2,2} yields exactly 8 overpartitions of 18."""
    for n in range(1, 26):
        for partition, size, _ in cb.class_decomposition(n):
            assert size == 2 ** len(set(partition)), (n, partition)
    ops = [
        groups for groups, *_ in cb.overpartitions(18)
        if tuple((p, count) for p, count, _ in groups) == ((5, 1), (3, 3), (2, 2))
    ]
    assert len(ops) == 8
    assert all(sum(p * count for p, count, _ in groups) == 18 for groups in ops)


def test_criterion_9_property_suite():
    """Mex subset-monotonicity, per-m count totals, and series algebra
    laws on randomized inputs, all exact."""
    for n in range(21):
        for _, m_non, m_over, m_all in cb.overpartitions(n):
            assert m_over <= m_all and m_non <= m_all

    counts = vf.check_count_series(20)
    assert counts.passed, counts.to_dict()

    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(0, 15)
        a, b, c = (
            se.Series(tuple(rng.randint(-6, 6) for _ in range(n + 1)))
            for _ in range(3)
        )
        assert se.mul(a, b).coeffs == se.mul(b, a).coeffs
        assert se.mul(se.mul(a, b), c).coeffs == se.mul(a, se.mul(b, c)).coeffs
        unit = se.Series((rng.choice([1, -1]),) + a.coeffs[1:])
        one = se.one(n)
        assert se.div(one, se.div(one, unit)).coeffs == unit.coeffs
        assert se.mul(unit, se.div(one, unit)).coeffs == one.coeffs

import math
import random

import pytest

from overmex import series as se


def S(values, N):
    return se.from_coeffs(values, N)


def random_series(rng, N, lo=-5, hi=5, unit=False):
    coeffs = [rng.randint(lo, hi) for _ in range(N + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return se.Series(tuple(coeffs))


class TestConstruction:
    def test_constant_padding(self):
        s = S([1], 3)
        assert s.coeffs == (1, 0, 0, 0)
        assert s.trunc_order == 3

    def test_prefix_values(self):
        s = S([1, 2, 4, 8], 3)
        assert s.coeffs == (1, 2, 4, 8)

    def test_monomial(self):
        s = S([0, 1], 5)
        assert s.coeffs == (0, 1, 0, 0, 0, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            se.from_coeffs([1], -1)

    def test_too_many_values_rejected(self):
        with pytest.raises(ValueError):
            se.from_coeffs([1, 2, 3], 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            se.from_coeffs([], 3)


class TestAddSub:
    def test_add(self):
        assert se.add(S([1, 1], 3), S([1, -1], 3)).coeffs == (2, 0, 0, 0)

    def test_sub_self_is_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            x = random_series(rng, rng.randint(0, 12))
            assert not any(se.add(x, se.scale(x, -1)).coeffs)

    def test_truncates_to_min_order(self):
        assert se.add(S([1], 5), S([1], 2)).trunc_order == 2


class TestMul:
    def test_difference_of_squares(self):
        assert se.mul(S([1, 1], 4), S([1, -1], 4)).coeffs == (1, 0, -1, 0, 0)

    def test_geometric_inverse(self):
        geo = S([1] * 7, 6)
        assert se.mul(S([1, -1], 6), geo).coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_commutative_associative(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(0, 10)
            a, b, c = (random_series(rng, n) for _ in range(3))
            assert se.mul(a, b).coeffs == se.mul(b, a).coeffs
            assert se.mul(se.mul(a, b), c).coeffs == se.mul(a, se.mul(b, c)).coeffs

    def test_larger_truncation_agrees_on_prefix(self):
        # Exactness: recomputing at a bigger N never changes old coefficients.
        rng = random.Random(3)
        for _ in range(20):
            vals_a = [rng.randint(-4, 4) for _ in range(6)]
            vals_b = [rng.randint(-4, 4) for _ in range(6)]
            small = se.mul(se.from_coeffs(vals_a, 8), se.from_coeffs(vals_b, 8))
            big = se.mul(se.from_coeffs(vals_a, 20), se.from_coeffs(vals_b, 20))
            assert big.coeffs[:9] == small.coeffs


class TestInvert:
    def test_geometric(self):
        inv = se.invert(S([1, -1], 6))
        assert inv.coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_series(rng, rng.randint(0, 12), unit=True)
            assert se.invert(se.invert(a)).coeffs == a.coeffs
            assert se.mul(a, se.invert(a)).coeffs == se.one(a.trunc_order).coeffs

    def test_partition_numbers(self):
        # 1/(q;q)_inf counts partitions; oracle below is direct enumeration.
        def count_partitions(n, cap):
            if n == 0:
                return 1
            return sum(
                count_partitions(n - k, k) for k in range(min(n, cap), 0, -1)
            )

        euler = se.one(10)
        for k in range(1, 11):
            euler = se.mul_binomial(euler, -1, k)
        inv = se.invert(euler)
        assert list(inv.coeffs) == [count_partitions(n, n) for n in range(11)]

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            se.invert(S([2, 1], 3))


class TestEvaluateReal:
    def test_geometric_sum(self):
        geo = se.from_coeffs([1] * 61, 60)
        assert se.evaluate_real(geo, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_zero_series(self):
        assert se.evaluate_real(se.zero(10), 0.3) == 0.0

    def test_domain_enforced(self):
        for q0 in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                se.evaluate_real(se.one(3), q0)

    def test_truncation_stability(self):
        # Doubling N moves the value by less than the discarded tail bound.
        coeffs = [n + 1 for n in range(201)]
        short = se.from_coeffs(coeffs[:101], 100)
        long = se.from_coeffs(coeffs, 200)
        q0 = 0.9
        tail = sum(c * q0**n for n, c in enumerate(coeffs[101:], start=101))
        diff = abs(se.evaluate_real(long, q0) - se.evaluate_real(short, q0))
        assert diff <= tail * (1 + 1e-9)


class TestHelpers:
    def test_binomial_mul_matches_dense(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = random_series(rng, n)
            k = rng.randint(1, n)
            c = rng.choice([1, -1])
            binom = se.from_coeffs([1] + [0] * (k - 1) + [c], n)
            assert se.mul_binomial(a, c, k).coeffs == se.mul(a, binom).coeffs

    def test_binomial_div_roundtrip(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = random_series(rng, n)
            k = rng.randint(1, n)
            c = rng.choice([1, -1])
            assert se.div_binomial(se.mul_binomial(a, c, k), c, k).coeffs == a.coeffs

    def test_shift_drops_overflow(self):
        assert se.shift(S([1, 2, 3], 2), 2).coeffs == (0, 0, 1)

    def test_shift_past_order_is_zero(self):
        for k in (6, 8, 12, 13):
            assert se.shift(se.one(5), k) == se.zero(5), k

    def test_pad_and_truncate(self):
        a = S([1, 2], 1)
        assert se.pad(a, 3).coeffs == (1, 2, 0, 0)
        assert se.truncate(se.pad(a, 3), 1).coeffs == a.coeffs
        with pytest.raises(ValueError):
            se.truncate(a, 5)

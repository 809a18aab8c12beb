import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overmex import qfactory as qf
from overmex import series as se


def S(values, N):
    """The series with the given low coefficients, zero-padded to order N."""
    return se.Series(tuple(values) + (0,) * (N + 1 - len(values)))


def random_series(rng, N, lo=-5, hi=5, unit=False):
    coeffs = [rng.randint(lo, hi) for _ in range(N + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return se.Series(tuple(coeffs))


def schoolbook_mul(a, b):
    """The O(N^2) Cauchy product, one coefficient pair at a time: the
    reference for mul, which walks the sparser operand's nonzero terms."""
    n = min(a.trunc_order, b.trunc_order)
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return se.Series(tuple(out))


def _mul_binomial_by_index(a, coefficient, exponent):
    """a * (1 + coefficient q^exponent), one coefficient at a time: the
    reference for the slice-wise mul_binomial."""
    out = list(a.coeffs)
    for i in range(a.trunc_order, exponent - 1, -1):
        out[i] += coefficient * a.coeffs[i - exponent]
    return se.Series(tuple(out))


def _div_binomial_by_index(a, coefficient, exponent):
    """a / (1 + coefficient q^exponent), one coefficient at a time: the
    reference for the slice-wise div_binomial."""
    out = list(a.coeffs)
    for i in range(exponent, a.trunc_order + 1):
        out[i] -= coefficient * out[i - exponent]
    return se.Series(tuple(out))


def to_gf2(a):
    return se.GF2Series(sum((c % 2) << n for n, c in enumerate(a.coeffs)), a.trunc_order)


# Signed coefficients from tiny to past 2^1000; orders up to 40.
coefficient = st.one_of(
    st.integers(-3, 3), st.integers(-(2**1100), 2**1100), st.just(0)
)


@st.composite
def series(draw, max_order=40, unit=False):
    n = draw(st.integers(0, max_order))
    coeffs = draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1))
    if unit:
        coeffs[0] = draw(st.sampled_from([1, -1]))
    return se.Series(tuple(coeffs))


@st.composite
def sparse_series(draw, max_order=60):
    """A series with at most four nonzero terms, often one or none, so
    that mul takes its single-term path or walks nonzero pairs."""
    n = draw(st.integers(0, max_order))
    terms = draw(st.dictionaries(st.integers(0, n), coefficient, max_size=4))
    return se.from_terms(terms, n)


class TestConstruction:
    def test_constant_padding(self):
        s = se.one(3)
        assert s.coeffs == (1, 0, 0, 0)
        assert s.trunc_order == 3

    def test_prefix_values(self):
        s = se.from_terms({0: 1, 1: 2, 2: 4, 3: 8}, 3)
        assert s.coeffs == (1, 2, 4, 8)

    def test_monomial(self):
        s = se.from_terms({1: 1}, 5)
        assert s.coeffs == (0, 1, 0, 0, 0, 0)

    def test_negative_order_rejected(self):
        for ring in (se, se.GF2):
            for terms in ({0: 1}, {}):
                with pytest.raises(ValueError, match="truncation order"):
                    ring.from_terms(terms, -1)
            with pytest.raises(ValueError, match="truncation order"):
                ring.one(-1)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_negative_exponent_rejected(self, ring):
        # Not wrapped round to q^N by negative indexing.
        for terms in ({-1: 5}, {0: 1, -3: 1}, {-2: 2}):
            with pytest.raises(ValueError, match="exponents"):
                ring.from_terms(terms, 3)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_exponents_past_order_dropped(self, ring):
        s = ring.from_terms({0: 1, 2: -1, 3: 1, 64: 1, 10**6: 1}, 2)
        assert s.trunc_order == 2
        assert [s[n] % 2 for n in range(3)] == [1, 0, 1]
        assert s[2] == (-1 if ring is se else 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            se.Series(())


def test_one_ring_interface():
    """Z and GF(2) expose the same kernels and nothing else; the two
    value types are not kernels."""
    z = {
        name for name, obj in vars(se).items()
        if callable(obj) and not name.startswith("_")
        and getattr(obj, "__module__", None) == se.__name__
    }
    gf2 = {
        name for name in dir(se.GF2)
        if callable(getattr(se.GF2, name)) and not name.startswith("_")
    }
    assert z - {"Series", "GF2Series"} == gf2


class TestAddSub:
    def test_add(self):
        assert se.add(S([1, 1], 3), S([1, -1], 3)).coeffs == (2, 0, 0, 0)

    def test_sub_self_is_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            x = random_series(rng, rng.randint(0, 12))
            minus_x = se.mul(x, se.from_terms({0: -1}, x.trunc_order))
            assert not any(se.add(x, minus_x).coeffs)

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
            small = se.mul(S(vals_a, 8), S(vals_b, 8))
            big = se.mul(S(vals_a, 20), S(vals_b, 20))
            assert big.coeffs[:9] == small.coeffs


class TestKroneckerMul:
    @settings(max_examples=150, deadline=None)
    @given(series(), series())
    def test_matches_schoolbook(self, a, b):
        # Signed and mixed-order operands, order 0, coefficients past 2^1000.
        assert se.mul(a, b) == schoolbook_mul(a, b)

    @pytest.mark.parametrize("N", [0, 1, 2, 40, 200])
    def test_sparse_operand_either_side(self, N):
        # A pentagonal series against a dense one with signed coefficients
        # near 2^1000, passed first and passed second.
        rng = random.Random(N)
        sparse = qf.pentagonal(1, N)
        dense = random_series(rng, N, lo=-(2**1000) - 5, hi=2**1000 + 5)
        assert se.mul(sparse, dense) == schoolbook_mul(sparse, dense)
        assert se.mul(dense, sparse) == schoolbook_mul(dense, sparse)

    def test_all_zero_and_order_zero(self):
        zero = se.from_terms({}, 7)
        assert zero.coeffs == (0,) * 8
        assert se.mul(zero, zero) == zero
        assert se.mul(se.from_terms({}, 3), S([1, -2, 3], 5)) == se.from_terms({}, 3)
        assert se.mul(S([-5], 0), S([7], 0)).coeffs == (-35,)

    def test_slot_width_edges(self):
        # Equal-sign coefficients at and just past powers of two: at order
        # 2, c_2 = 3 * a0 * b0 is the largest product coefficient.
        for k in list(range(1, 40)) + [1000, 1001, 1002, 1003]:
            for big in (2**k - 1, 2**k):
                for sign in (1, -1):
                    a = S([sign * big] * 3, 2)
                    b = S([big] * 3, 2)
                    assert se.mul(a, b) == schoolbook_mul(a, b), (k, big, sign)


class TestMulPaths:
    """Each path of mul against the schoolbook product: one operand a
    single term c q^k, or both walked by their nonzero pairs."""

    @pytest.mark.parametrize("N", [0, 1, 7, 200])
    @pytest.mark.parametrize(
        "c", [1, -1, 2**1000, -(2**1000)], ids=["1", "-1", "2^1000", "-2^1000"]
    )
    def test_monomial_either_side(self, N, c):
        rng = random.Random(N)
        dense = random_series(rng, N, lo=-(2**1000), hi=2**1000)
        zero = se.from_terms({}, N)
        for k in (0, 1, N):
            mono = se.from_terms({k: c}, N)
            expected = schoolbook_mul(mono, dense)
            assert se.mul(mono, dense) == expected, k
            assert se.mul(dense, mono) == expected, k
            assert se.mul(mono, mono) == schoolbook_mul(mono, mono), k
            assert se.mul(mono, zero) == se.mul(zero, mono) == zero, k

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 40, 300])
    def test_sparse_named_series(self, N):
        p1, p2, theta = qf.pentagonal(1, N), qf.pentagonal(2, N), qf.theta_neg(N)
        for a, b in [(p1, p1), (p2, p2), (p1, p2), (theta, p1), (p2, theta)]:
            assert se.mul(a, b) == schoolbook_mul(a, b)
            assert se.mul(b, a) == schoolbook_mul(a, b)
        cube = se.mul(se.mul(p1, p1), p1)
        assert cube == schoolbook_mul(schoolbook_mul(p1, p1), p1)
        zero = se.from_terms({}, N)
        assert se.mul(p1, zero) == se.mul(zero, theta) == zero

    @pytest.mark.parametrize("N", [1, 2, 9, 40])
    def test_exponent_sums_at_the_edge(self, N):
        # Every split i + j of N and of N + 1, with c = 3 and 2^1000 + 1:
        # the first lands on q^N, the second falls past it.
        for i in range(N + 1):
            for j in (N - i, N + 1 - i):
                if j > N:
                    continue
                a = se.from_terms({0: 1, i: 3}, N)
                b = se.from_terms({1: -1, j: 2**1000 + 1}, N)
                assert se.mul(a, b) == schoolbook_mul(a, b), (i, j)

    def test_mixed_orders(self):
        rng = random.Random(8)
        for na, nb in [(0, 5), (5, 0), (3, 40), (40, 3), (17, 18)]:
            dense = random_series(rng, na, lo=-(2**1000), hi=2**1000)
            for sparse in (
                se.from_terms({nb: -5}, nb), se.from_terms({0: 1, nb: 2}, nb),
                qf.pentagonal(1, nb),
            ):
                for a, b in ((dense, sparse), (sparse, dense)):
                    got = se.mul(a, b)
                    assert got.trunc_order == min(na, nb)
                    assert got == schoolbook_mul(a, b), (na, nb)

    @settings(max_examples=100, deadline=None)
    @given(sparse_series(), st.one_of(sparse_series(), series(max_order=60)))
    def test_sparse_matches_schoolbook(self, a, b):
        assert se.mul(a, b) == schoolbook_mul(a, b)
        assert se.mul(b, a) == schoolbook_mul(a, b)


class TestDiv:
    @settings(max_examples=100, deadline=None)
    @given(series(), series(unit=True))
    def test_div_undoes_mul(self, a, d):
        n = min(a.trunc_order, d.trunc_order)
        assert se.div(se.mul(a, d), d) == se.Series(a.coeffs[: n + 1])

    @pytest.mark.parametrize("N", [0, 1, 63, 64, 65, 300])
    def test_gf2_matches_z_mod_2(self, N):
        rng = random.Random(N)
        for density in (0.02, 0.5, 1.0):  # sparse to dense divisors
            a = random_series(rng, N)
            d = se.Series((1,) + tuple(
                rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(N)
            ))
            got = se.GF2.div(to_gf2(a), to_gf2(d))
            assert got.trunc_order == N
            assert got.bits == to_gf2(se.div(a, d)).bits, density

    def test_truncates_to_smaller_order(self):
        assert se.div(se.one(9), S([1, -1], 4)).coeffs == (1,) * 5
        assert se.GF2.div(se.GF2.one(3), se.GF2Series(0b11, 8)).trunc_order == 3

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            se.div(se.one(3), S([3, 1], 3))
        with pytest.raises(ValueError, match="constant term"):
            se.GF2.div(se.GF2.one(3), se.GF2Series(0b10, 3))


class TestReciprocal:
    def test_geometric(self):
        inv = se.div(se.one(6), S([1, -1], 6))
        assert inv.coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_series(rng, rng.randint(0, 12), unit=True)
            one = se.one(a.trunc_order)
            assert se.div(one, se.div(one, a)).coeffs == a.coeffs
            assert se.mul(a, se.div(one, a)).coeffs == one.coeffs

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
        inv = se.div(se.one(10), euler)
        assert list(inv.coeffs) == [count_partitions(n, n) for n in range(11)]

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            se.div(se.one(3), S([2, 1], 3))


class TestHelpers:
    def test_binomial_mul_matches_dense(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = random_series(rng, n)
            k = rng.randint(1, n)
            c = rng.choice([1, -1])
            binom = se.from_terms({0: 1, k: c}, n)
            assert se.mul_binomial(a, c, k).coeffs == se.mul(a, binom).coeffs

    def test_binomial_div_roundtrip(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = random_series(rng, n)
            k = rng.randint(1, n)
            c = rng.choice([1, -1])
            assert se.div_binomial(se.mul_binomial(a, c, k), c, k).coeffs == a.coeffs

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 40, 200])
    def test_binomial_kernels_match_index_loops(self, N):
        # Every exponent up to N + 2: both div_binomial branches (e^2 < N + 1
        # and not) and exponents past the order.
        rng = random.Random(N)
        for exponent in range(1, N + 3):
            for c in (1, -1):
                a = random_series(rng, N, lo=-(2**300), hi=2**300)
                assert se.mul_binomial(a, c, exponent) == _mul_binomial_by_index(a, c, exponent)
                assert se.div_binomial(a, c, exponent) == _div_binomial_by_index(a, c, exponent)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("kernel", ["mul_binomial", "div_binomial"])
    @pytest.mark.parametrize("exponent", [0, -1])
    def test_binomial_exponent_below_one_refused(self, ring, kernel, exponent):
        with pytest.raises(ValueError):
            getattr(ring, kernel)(ring.one(5), -1, exponent)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("kernel", ["mul_binomial", "div_binomial"])
    @pytest.mark.parametrize("coefficient", [0, 2, -2])
    def test_binomial_coefficient_other_than_unit_refused(self, ring, kernel, coefficient):
        with pytest.raises(ValueError, match="coefficient"):
            getattr(ring, kernel)(ring.one(5), coefficient, 1)

    # A shift by k is a product with the monomial q^k, on either side.
    def test_shift_drops_overflow(self):
        a, q2 = S([1, 2, 3], 2), se.from_terms({2: 1}, 2)
        assert se.mul(a, q2).coeffs == se.mul(q2, a).coeffs == (0, 0, 1)
        assert se.mul(a, se.from_terms({1: -3}, 2)).coeffs == (0, -3, -6)

    def test_shift_past_order_is_zero(self):
        for k in (6, 8, 12, 13):
            qk = se.from_terms({k: 7}, 5)
            assert se.mul(se.one(5), qk) == se.mul(qk, se.one(5)) == se.from_terms({}, 5), k

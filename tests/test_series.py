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


def _gf2_mul_by_low_bits(a, b):
    """The carry-less product one set bit at a time, each taken off the
    sparser operand with x & -x: the reference for GF2.mul, which reads
    the exponents from the binary digits."""
    n = min(a.trunc_order, b.trunc_order)
    x, y = a.bits, b.bits
    if y.bit_count() < x.bit_count():
        x, y = y, x
    out = 0
    while x:
        low = x & -x
        out ^= y << (low.bit_length() - 1)
        x ^= low
    return se.GF2Series(out, n)


def _gf2_div_by_squaring(a, d):
    """a / d as prod_{2^i <= N} d^(2^i), each factor squared with the
    reference product: the reference for GF2.div, which doubles the
    exponents of each factor instead."""
    n = min(a.trunc_order, d.trunc_order)
    out, power = se.GF2Series(a.bits, n), se.GF2Series(d.bits, n)
    s = 1
    while s <= n:
        out = _gf2_mul_by_low_bits(out, power)
        power = _gf2_mul_by_low_bits(power, power)
        s *= 2
    return out


def random_gf2(rng, N, density):
    bits = sum(1 << e for e in range(N + 1) if rng.random() < density)
    return se.GF2Series(bits, N)


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
        with pytest.raises(ValueError):
            se.Series(coeffs=())


class TestSeriesValue:
    def test_immutable(self):
        s = se.Series(coeffs=(1, 2))
        with pytest.raises(AttributeError):
            s.coeffs = (3, 4)
        with pytest.raises(AttributeError):
            s.extra = 1
        with pytest.raises(AttributeError):
            del s.coeffs
        assert s.coeffs == (1, 2)

    def test_equality_and_hash_by_coeffs(self):
        a, b = se.Series((1, 2, 3)), se.from_terms({0: 1, 1: 2, 2: 3}, 2)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != se.Series((1, 2, 4)) and a != se.Series((1, 2))

    def test_not_equal_to_its_tuple(self):
        a = se.Series((1, 2, 3))
        assert a != (1, 2, 3) and (1, 2, 3) != a
        assert a.__eq__((1, 2, 3)) is NotImplemented

    def test_repr(self):
        assert repr(se.Series((1, -2, 3))) == "Series([1, -2, 3], N=2)"
        assert repr(se.one(9)) == "Series([1, 0, 0, 0, 0, 0, 0, 0, ...], N=9)"


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


class TestConcat:
    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_tail_placed_right_above_head(self, ring):
        head = ring.from_terms({0: 1, 2: -3}, 2)
        tail = ring.from_terms({0: 5, 1: 7, 3: -1}, 3)
        got = ring.concat(head, tail)
        assert got.trunc_order == 6
        expected = ring.from_terms({0: 1, 2: -3, 3: 5, 4: 7, 6: -1}, 6)
        assert [got[n] for n in range(7)] == [expected[n] for n in range(7)]

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_head_of_order_zero(self, ring):
        for c in (0, 1, -1):
            tail = ring.from_terms({0: 1, 4: 1}, 4)
            got = ring.concat(ring.from_terms({0: c}, 0), tail)
            assert got.trunc_order == 5
            assert [got[n] % 2 for n in range(6)] == [c % 2, 1, 0, 0, 0, 1]
            assert got[0] == (c if ring is se else c % 2)

    @pytest.mark.parametrize("N_head,N_tail", [(0, 0), (0, 9), (1, 0), (7, 63), (64, 64)])
    def test_z_mod_2_equals_gf2(self, N_head, N_tail):
        rng = random.Random(N_head * 100 + N_tail)
        head, tail = random_series(rng, N_head), random_series(rng, N_tail)
        got = se.GF2.concat(to_gf2(head), to_gf2(tail))
        assert got.trunc_order == N_head + 1 + N_tail
        assert got.bits == to_gf2(se.concat(head, tail)).bits
        assert se.concat(head, tail).coeffs == head.coeffs + tail.coeffs


class TestGF2Kernels:
    """GF2.mul and GF2.div against the set-bit-at-a-time references."""

    @pytest.mark.parametrize("N", [0, 1, 2, 63, 64, 65, 300])
    def test_mul_and_div_match_low_bit_loop(self, N):
        rng = random.Random(N)
        for density in (0.0, 0.02, 0.5, 1.0):
            for other in (N, N + 7, 2 * N + 1):  # bits past the product's order
                a, b = random_gf2(rng, N, density), random_gf2(rng, other, 0.3)
                for x, y in ((a, b), (b, a)):
                    got = se.GF2.mul(x, y)
                    assert got.trunc_order == N
                    assert got.bits == _gf2_mul_by_low_bits(x, y).bits, (density, other)
                # Each divided by the other with its constant term set.
                for x, y in ((a, b), (b, a)):
                    d = se.GF2Series(y.bits | 1, y.trunc_order)
                    assert se.GF2.div(x, d).bits == _gf2_div_by_squaring(x, d).bits, (density, other)

    def test_zero_operand(self):
        for N in (0, 5, 200):
            zero, one = se.GF2.from_terms({}, N), se.GF2.one(N)
            dense = se.GF2Series((1 << (N + 1)) - 1, N)
            assert se.GF2.mul(zero, dense).bits == se.GF2.mul(dense, zero).bits == 0
            assert se.GF2.div(zero, dense).bits == 0
            assert se.GF2.div(dense, one).bits == dense.bits

    def test_named_series_at_order_10000(self):
        # Sparse pentagonal factors, where each shift is long.
        N = 10000
        p1, p2 = qf.pentagonal(1, N, ring=se.GF2), qf.pentagonal(2, N, ring=se.GF2)
        cube = se.GF2.mul(se.GF2.mul(p1, p1), p1)
        assert cube.bits == _gf2_mul_by_low_bits(_gf2_mul_by_low_bits(p1, p1), p1).bits
        assert se.GF2.div(p2, cube).bits == _gf2_div_by_squaring(p2, cube).bits

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 200])
    def test_exponents_stop_at_the_order(self, n):
        rng = random.Random(n)
        for bits in (
            0, 1, 1 << n, 1 << (n + 1), (1 << (2 * n + 3)) - 1, rng.getrandbits(3 * n + 5)
        ):
            expected = [e for e in range(n + 1) if bits >> e & 1]
            assert se._exponents(bits, n) == expected, bin(bits)


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


class TestMulAgainstSchoolbook:
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


def _div_by_pairs(a, d):
    """a / d by the recurrence over d's nonzero (k, d_k) pairs, each term
    multiplied by its own coefficient and the walk cut off at k > i: the
    reference for div, which sums the terms of a repeated coefficient."""
    d0 = d.coeffs[0]
    n = min(a.trunc_order, d.trunc_order)
    nz = [(k, dk) for k, dk in enumerate(d.coeffs[1 : n + 1], 1) if dk]
    b = list(a.coeffs[: n + 1])
    for i in range(n + 1):
        s = b[i]
        for k, dk in nz:
            if k > i:
                break
            s -= dk * b[i - k]
        b[i] = d0 * s
    return se.Series(tuple(b))


@st.composite
def sparse_divisors(draw, max_order=60):
    """A constant term +-1 and up to a dozen terms whose coefficients come
    from a pool of at most four, so that most repeat and some occur once."""
    n = draw(st.integers(0, max_order))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([1, -1, 2, -2, 3]), st.integers(-(2**70), 2**70)),
        min_size=1, max_size=4,
    ))
    terms = draw(st.dictionaries(st.integers(1, n + 1), st.sampled_from(pool), max_size=12))
    terms[0] = draw(st.sampled_from([1, -1]))
    return se.from_terms(terms, n)


def _with_constant(d, d0):
    return se.Series((d0,) + d.coeffs[1:])


class TestDivGrouped:
    """div, which sums the terms of each repeated divisor coefficient
    once, against the pair walk."""

    @settings(max_examples=200, deadline=None)
    @given(series(max_order=60), sparse_divisors())
    def test_sparse_divisors_match_pair_walk(self, a, d):
        assert se.div(a, d) == _div_by_pairs(a, d)

    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300])
    def test_named_divisors_match_pair_walk(self, N):
        # theta(-q) (+-2 at the squares), the pentagonal series and the
        # ascending fold of (q;q)_inf (+-1), and the pentagonal cube,
        # whose coefficients are all distinct; each with d_0 = 1 and -1.
        rng = random.Random(N)
        q_q = se.one(N)
        for e in range(1, N + 1):
            q_q = se.mul_binomial(q_q, -1, e)
        p1 = qf.pentagonal(1, N)
        numerators = [se.one(N), random_series(rng, N, lo=-(2**200), hi=2**200)]
        for d in (qf.theta_neg(N), p1, q_q, se.mul(se.mul(p1, p1), p1)):
            for d0 in (1, -1):
                for a in numerators:
                    assert se.div(a, _with_constant(d, d0)) == _div_by_pairs(
                        a, _with_constant(d, d0)
                    ), d0

    def test_orders_zero_and_one_and_terms_past_the_numerator(self):
        rng = random.Random(9)
        d = se.from_terms({0: 1, 1: 2, 2: 2, 3: -1, 4: -1, 6: 5, 7: 2, 9: 2}, 12)
        for d0 in (1, -1):
            for na in (0, 1, 2, 5, 8, 12, 20):
                a = random_series(rng, na, lo=-(2**80), hi=2**80)
                got = se.div(a, _with_constant(d, d0))
                assert got.trunc_order == min(na, 12)
                assert got == _div_by_pairs(a, _with_constant(d, d0)), (d0, na)


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


def _binomial_product_descending(ring, sign, N):
    """prod_{e=1..N} (1 + sign q^e) folded from the largest factor down on
    the live tail: prod_{j>e} (1 + sign q^j) = 1 + q^(e+1) T_e with
    T_(N-1) = (sign) and T_(e-1) = concat(sign, T_e (1 + sign q^e)).  A
    reference for binomial_product made of the other ring kernels."""
    if N == 0:
        return ring.one(0)
    head = ring.from_terms({0: sign}, 0)
    tail = head
    for e in range(N - 1, 0, -1):
        tail = ring.concat(head, ring.mul_binomial(tail, sign, e))
    return ring.concat(ring.one(0), tail)


class TestBinomialProduct:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 50, 301, 2000])
    def test_matches_both_folds_on_both_rings(self, sign, N):
        values = {}
        for ring in (se, se.GF2):
            got = ring.binomial_product(sign, N)
            ascending = ring.one(N)
            for e in range(1, N + 1):
                ascending = ring.mul_binomial(ascending, sign, e)
            descending = _binomial_product_descending(ring, sign, N)
            assert got.trunc_order == descending.trunc_order == N
            values[ring] = [got[n] for n in range(N + 1)]
            assert values[ring] == [ascending[n] for n in range(N + 1)]
            assert values[ring] == [descending[n] for n in range(N + 1)]
        assert values[se.GF2] == [c % 2 for c in values[se]]

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_bad_arguments_refused(self, ring):
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="coefficient"):
                ring.binomial_product(sign, 5)
        with pytest.raises(ValueError, match="truncation order"):
            ring.binomial_product(1, -1)


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

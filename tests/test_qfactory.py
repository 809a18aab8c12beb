import math
from math import comb

import pytest

from overmex import combinat as cb
from overmex import qfactory as qf
from overmex import series as se
from overmex import verify as vf
from overmex.qfactory import MexVariant

# Oracle-derived prefixes (exhaustive enumeration, n = 0..10).
PBAR = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]
SIGMA_OVERLINED = [1, 3, 5, 12, 20, 35, 60, 97, 152, 236, 360]
SIGMA_ALL = [1, 4, 6, 18, 28, 50, 94, 150, 238, 372, 594]
SIGMA_NON = [1, 3, 6, 13, 24, 42, 73, 120, 192, 302, 465]


# Every builder written once over the ring interface: (builder, args), with
# the truncation order left off args.
RING_GENERIC = [
    (qf.theta_neg, ()),
    (qf.pentagonal, (1,)),
    (qf.pentagonal, (2,)),
    (qf.overpartition_gf, ()),
    (qf.ramanujan_sigma, ()),
    (qf.phi11_simplified, ()),
    (qf.overlined_mex_weighted_sum, ()),
    (qf.all_mex_raw_sum, ()),
] + [(qf.sigma_mex_gf, (v,)) for v in MexVariant]
# The cached builders that build over Z only.
Z_ONLY = [(qf.pochhammer, (-1,)), (qf.pochhammer, (+1,))]
# The builders behind _cached: those whose series some run reads twice.
CACHED = {
    "pochhammer", "theta_neg", "pentagonal", "overpartition_gf",
    "ramanujan_sigma", "phi11_simplified", "sigma_mex_gf",
}


def _mul_binomial(ring, a, sign, e):
    """a (1 + sign q^e) in either ring; series.GF2 has no mul_binomial,
    and mod 2 the factor is a + q^e a whatever the sign."""
    if ring is se.GF2:
        return se.GF2Series(a.bits ^ (a.bits << e), a.trunc_order)
    return se.mul_binomial(a, sign, e)


class TestRings:
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300])
    def test_z_mod_2_equals_gf2(self, N):
        for builder, args in RING_GENERIC:
            z = builder(*args, N)
            g = builder(*args, N, ring=se.GF2)
            assert g.trunc_order == N
            assert [g[n] for n in range(N + 1)] == [c % 2 for c in z.coeffs], (
                builder.__name__, args,
            )
        # Mod 2, (q;q)_inf and (-q;q)_inf are both the pentagonal series.
        p1 = qf.pentagonal(1, N, ring=se.GF2)
        for builder, args in Z_ONLY:
            z = builder(*args, N)
            assert [p1[n] for n in range(N + 1)] == [c % 2 for c in z.coeffs], args

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300])
    def test_sparse_series_match_factorwise(self, ring, N):
        def values(s):
            return [s[n] for n in range(N + 1)]

        def product(sign, step=1):  # prod_{k>=1} (1 + sign q^(step k)), factor by factor
            acc = ring.one(N)
            for e in range(step, N + 1, step):
                acc = _mul_binomial(ring, acc, sign, e)
            return acc

        q_q, negq_q, q2_q2 = product(-1), product(+1), product(-1, step=2)
        p1, p2 = qf.pentagonal(1, N, ring=ring), qf.pentagonal(2, N, ring=ring)
        assert values(p1) == values(q_q)
        assert values(p2) == values(q2_q2)
        assert values(qf.theta_neg(N, ring=ring)) == values(ring.div(q_q, negq_q))
        assert values(ring.div(p2, p1)) == values(negq_q)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    # 54, 55, 56 and 90, 91, 92 straddle C(m+1, 2) for m = 10 and 13: a
    # numerator's lowest exponent one past, at and one below q^N.
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 54, 55, 56, 90, 91, 92, 300, 2000])
    def test_negq_sums_match_running_inverse(self, ring, N):
        def values(s):
            return [s[n] for n in range(N + 1)]

        for builder, weight, lead, one_minus_qm in NEGQ_SUMS:
            expected = _negq_sum_by_running_inverse(N, ring, weight, lead, one_minus_qm)
            assert values(builder(N, ring=ring)) == values(expected), builder.__name__

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 10, 11, 12, 100])
    def test_overlapping_numerators(self, ring, N):
        # Numerators with terms at and past the next numerator's lowest
        # exponent, and lowest exponents that repeat (L_(m+1) = L_m).
        for terms in (
            lambda m: {comb(m, 2): 3, comb(m + 1, 2): -1, comb(m + 1, 2) + 2: m + 1},
            lambda m: {comb(m // 2 + 1, 2): m + 1, comb(m // 2 + 1, 2) + 1: -2},
        ):
            expected = ring.from_terms({}, N)
            inv = ring.one(N)  # 1 / (-q;q)_m
            m = 0
            while min(terms(m)) <= N:
                if m > 0:
                    inv = ring.div_binomial(inv, +1, m)
                expected = ring.add(expected, ring.mul(inv, ring.from_terms(terms(m), N)))
                m += 1
            got = qf._negq_sum(N, ring, terms)
            assert got.trunc_order == N
            assert [got[n] for n in range(N + 1)] == [expected[n] for n in range(N + 1)]

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_prefix_of_a_larger_build(self, ring):
        # f(N) after f(M) is f(M)'s first N + 1 coefficients: it must equal
        # f(N) built afresh, and counts as a hit, not a new entry.
        M = 50
        assert {name for name, f in vars(qf).items() if hasattr(f, "cache_info")} == CACHED
        for builder, args in RING_GENERIC + (Z_ONLY if ring is se else []):
            if builder.__name__ not in CACHED:
                continue
            builder.cache_clear()
            big = builder(*args, M, ring=ring)
            for N in (0, M - 1, M):
                got = builder(*args, N, ring=ring)
                fresh = builder.__wrapped__(*args, N, ring=ring)
                assert got.trunc_order == fresh.trunc_order == N
                assert [got[n] for n in range(N + 1)] == [fresh[n] for n in range(N + 1)], (
                    builder.__name__, args, N,
                )
            assert builder(*args, M, ring=ring) is big
            assert builder.cache_info() == (4, 1, 1), builder.__name__
            builder(*args, M + 1, ring=ring)  # a larger order replaces the entry
            assert builder.cache_info() == (4, 2, 1), builder.__name__
            builder.cache_clear()
            assert builder.cache_info() == (0, 0, 0)

    def test_served_series_cannot_be_changed(self):
        # At N == M every caller gets the cached object itself; a caller that
        # could change it would change the series of every later caller.
        qf.overpartition_gf.cache_clear()
        served = qf.overpartition_gf(12)
        assert qf.overpartition_gf(12) is served
        for value in (served, qf.overpartition_gf(7)):
            with pytest.raises(AttributeError):
                value.coeffs = (1,) * (value.trunc_order + 1)
            with pytest.raises(AttributeError):
                del value.coeffs
        assert qf.overpartition_gf(12) is served
        assert served == qf.overpartition_gf.__wrapped__(12)

    def test_one_cache_entry_per_ring(self):
        # A larger P-bar cached by an earlier test would serve order 37 as
        # a fresh prefix, not the cached value itself.
        qf.overpartition_gf.cache_clear()
        before = qf.overpartition_gf.cache_info().currsize
        a = qf.overpartition_gf(37)
        assert qf.overpartition_gf(37, ring=se) is a
        assert qf.overpartition_gf.cache_info().currsize == before + 1
        qf.overpartition_gf(37, ring=se.GF2)
        assert qf.overpartition_gf.cache_info().currsize == before + 2


# The four sums over 1/(-q;q)_m as (builder, weight, lead, one_minus_qm):
# sum_m weight(m) q^lead(m) g_m / (-q;q)_m with g_m = 1 - q^m or 1.
NEGQ_SUMS = [
    (qf.ramanujan_sigma, lambda m: 1, lambda m: comb(m + 1, 2), False),
    (qf.phi11_simplified, lambda m: 2**m, lambda m: comb(m + 1, 2), False),
    (qf.overlined_mex_weighted_sum, lambda m: m, lambda m: comb(m, 2), False),
    (qf.all_mex_raw_sum, lambda m: m * 2**m // 2, lambda m: comb(m, 2), True),
]


def _negq_sum_by_running_inverse(N, ring, weight, lead, one_minus_qm):
    """The sum term by term from m = 0: a running 1/(-q;q)_m, one
    division by (1 + q^m) per term, each nonzero term times the monomial
    weight(m) q^lead(m) and added in.  The reference for Horner's rule."""
    acc = ring.from_terms({}, N)
    inv = ring.one(N)  # 1 / (-q;q)_m
    m = 0
    while lead(m) <= N:
        if m > 0:
            inv = ring.div_binomial(inv, +1, m)
        if weight(m):
            term = _mul_binomial(ring, inv, -1, m) if one_minus_qm else inv
            acc = ring.add(acc, ring.mul(term, ring.from_terms({lead(m): weight(m)}, N)))
        m += 1
    return acc


class TestPochhammer:
    def test_empty_product(self):
        # Every factor of (q;q)_inf and (-q;q)_inf lies beyond order 0.
        assert qf.pochhammer(-1, 0) == qf.pochhammer(+1, 0) == se.one(0)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 50, 301, 2000])
    def test_matches_ascending_fold(self, ring, sign, N):
        # The defining fold from the smallest factor up, in either ring;
        # pochhammer builds over Z only, so the GF(2) fold reads it mod 2.
        acc = ring.one(N)
        for e in range(1, N + 1):
            acc = _mul_binomial(ring, acc, sign, e)
        got = qf.pochhammer(sign, N)
        assert got.trunc_order == N
        read = (lambda c: c % 2) if ring is se.GF2 else (lambda c: c)
        assert [read(got[n]) for n in range(N + 1)] == [acc[n] for n in range(N + 1)]

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_gf2_build_refused_and_not_cached(self, sign):
        # series.GF2 has no binomial_product: the call raises before the
        # cache stores anything under the GF(2) key.
        before = qf.pochhammer.cache_info().currsize
        with pytest.raises(AttributeError):
            qf.pochhammer(sign, 20, ring=se.GF2)
        assert qf.pochhammer.cache_info().currsize == before

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            qf.pochhammer(2, 5)
        with pytest.raises(ValueError):
            qf.pochhammer(1, -1)
        with pytest.raises(ValueError):
            qf.pentagonal(0, 5)


class TestOverpartitionGf:
    def test_known_prefix(self):
        gf = qf.overpartition_gf(10)
        assert list(gf.coeffs) == PBAR

    def test_matches_oracle(self):
        gf = qf.overpartition_gf(20)
        for n in range(21):
            assert gf[n] == sum(1 for _ in cb.overpartitions(n))


class TestRamanujanSigma:
    def test_low_coefficients(self):
        s = qf.ramanujan_sigma(10)
        assert s[0] == 1
        assert s[1] == 1

    def test_taylor_at_small_t(self):
        # sigma(e^-t) = 2 - 2t + 5t^2 - (55/3)t^3 + (1073/12)t^4 - ...
        t = 0.05
        value = vf._evaluate(qf.ramanujan_sigma(400), math.exp(-t))
        poly = 2 - 2 * t + 5 * t**2 - 55 / 3 * t**3 + 1073 / 12 * t**4
        assert abs(value - poly) <= 2 * (32671 / 60) * t**5


class TestSigmaAdh:
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 6, 7, 300, 2500, 10000])
    def test_matches_horner_sum(self, N):
        assert qf.sigma_adh(N) == qf.ramanujan_sigma(N)

    def test_parity_is_pentagonal(self):
        # The j and -j terms cancel mod 2: sigma = (q;q)_inf mod 2.
        N = 3000
        assert [c % 2 for c in qf.sigma_adh(N).coeffs] == [
            c % 2 for c in qf.pentagonal(1, N).coeffs
        ]


def _distinct_part_tallies(N):
    """For each n <= N, over the partitions of n into distinct parts (the
    empty one at n = 0, of rank 0): sum (-1)^rank, sum 2^length (-1)^rank
    and their number Q(n), rank = largest part - number of parts.  A
    literal walk, parts in decreasing order, that calls no series kernel."""
    sigma, phi11, q = [0] * (N + 1), [0] * (N + 1), [0] * (N + 1)

    def walk(n, length, largest, bound):
        sign = (-1) ** (largest - length)
        sigma[n] += sign
        phi11[n] += 2**length * sign
        q[n] += 1
        for part in range(min(bound - 1, N - n), 0, -1):
            walk(n + part, length + 1, largest or part, part)

    walk(0, 0, 0, N + 1)
    return sigma, phi11, q


class TestDistinctPartWitness:
    """1/(-q;q)_m sums (-1)^(number of parts) over the partitions into parts
    <= m.  Conjugated, padded to m parts and plus the staircase m, ..., 1,
    such a partition becomes one into m distinct parts, whose rank is the
    number of parts it had.  So sum_m z^m q^(m+1 choose 2) / (-q;q)_m sums
    z^length (-1)^rank over the distinct-part partitions: at z = 1
    Ramanujan's sigma, as Andrews, Dyson and Hickerson define it, and at
    z = 2 the collapsed 1phi1.  The non-overlined sigma-mex series
    (-q;q)_inf^3 counts triples of them: Q * Q * Q."""

    def test_builders_match_the_walk(self):
        N = 60
        sigma, phi11, q = _distinct_part_tallies(N)
        q2 = [sum(q[i] * q[n - i] for i in range(n + 1)) for n in range(N + 1)]
        q3 = [sum(q[i] * q2[n - i] for i in range(n + 1)) for n in range(N + 1)]
        assert list(qf.ramanujan_sigma(N).coeffs) == sigma
        assert list(qf.phi11_simplified(N).coeffs) == phi11
        assert list(qf.sigma_mex_gf(MexVariant.NON_OVERLINED, N).coeffs) == q3


class TestPhi11:
    def test_constant_term(self):
        assert qf.phi11(10)[0] == 1

    def test_defining_equals_simplified(self):
        # N = 0, 1, 2: the n = 1 term's q^1, and the n = 2 term's q^3 past N.
        for N in (0, 1, 2, 300):
            assert qf.phi11(N).coeffs == qf.phi11_simplified(N).coeffs, N

    # C(n+1, 2) = 1, 3, 6, 10, 45 and the orders one either side: the last
    # term reaches q^N by one coefficient, none, or two.
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 44, 45, 46, 300])
    def test_matches_untrimmed_defining_sum(self, N):
        assert qf.phi11(N) == _phi11_untrimmed(N)

    def test_product_gives_sigma_all(self):
        gf = se.mul(qf.overpartition_gf(10), qf.phi11(10))
        assert gf[3] == 18


def _phi11_untrimmed(N):
    """The 1phi1 defining sum with every running term at the full order N,
    placed by a product with a monomial: the reference for phi11, which cuts
    term n to the coefficients below q^(N - (n+1 choose 2))."""
    acc = se.from_terms({}, N)
    term = se.one(N)
    n = 0
    while comb(n + 1, 2) <= N:
        if n > 0:
            term = se.div_binomial(term, +1, n)
            term = se.div_binomial(term, -1, n)
            term = se.mul_binomial(term, -1, n)
        acc = se.add(acc, se.mul(term, se.from_terms({comb(n + 1, 2): 2**n}, N)))
        n += 1
    return acc


class TestSigmaMexGf:
    @pytest.mark.parametrize(
        "variant,expected",
        [
            (MexVariant.OVERLINED, SIGMA_OVERLINED),
            (MexVariant.ALL, SIGMA_ALL),
            (MexVariant.NON_OVERLINED, SIGMA_NON),
        ],
    )
    def test_oracle_prefix(self, variant, expected):
        gf = qf.sigma_mex_gf(variant, 10)
        assert list(gf.coeffs) == expected

    def test_paper_fixtures(self):
        assert qf.sigma_mex_gf(MexVariant.OVERLINED, 5)[3] == 12
        assert qf.sigma_mex_gf(MexVariant.ALL, 5)[3] == 18
        assert qf.sigma_mex_gf(MexVariant.ALL, 5)[4] == 28

    def test_convention_at_zero(self):
        for v in MexVariant:
            assert qf.sigma_mex_gf(v, 0)[0] == 1

    def test_nonnegative_coefficients(self):
        for v in MexVariant:
            assert all(c >= 0 for c in qf.sigma_mex_gf(v, 60).coeffs)

    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300, 2000])
    def test_nonoverlined_matches_dense_cube_z(self, N):
        expected = _negq_cubed_dense(N, se)
        assert qf.sigma_mex_gf(MexVariant.NON_OVERLINED, N) == expected

    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300, 2000, 10000])
    def test_nonoverlined_matches_dense_cube_gf2(self, N):
        got = qf.sigma_mex_gf(MexVariant.NON_OVERLINED, N, ring=se.GF2)
        assert got.bits == _negq_cubed_dense(N, se.GF2).bits


def _kronecker_mul(a, b):
    """Cauchy product of two Z series by Kronecker substitution: each
    operand packed into one integer with a byte slot per coefficient, one
    big-integer product, and the low slots unpacked.  A dense reference
    that shares no code with se.mul."""
    n = min(a.trunc_order, b.trunc_order)
    ac, bc = a.coeffs[: n + 1], b.coeffs[: n + 1]
    # |c_k| <= (n+1) max|a| max|b| < 2^bits; one spare bit holds the sign.
    bits = max(map(abs, ac)).bit_length() + max(map(abs, bc)).bit_length()
    width = (bits + (n + 1).bit_length()) // 8 + 1
    half = 1 << (8 * width - 1)

    def pack(coeffs):  # sum c_i 2^(8 width i), positive and negative parts apart
        def part(cs):
            return int.from_bytes(
                b"".join(max(c, 0).to_bytes(width, "little") for c in cs), "little"
            )

        return part(coeffs) - part(-c for c in coeffs)

    # Biasing every slot by half makes each of the low n+1 slots
    # non-negative, so they read off without borrows.
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * (n + 1), "little")
    size = width * (n + 1)
    low = (pack(ac) * pack(bc) + bias) & ((1 << (8 * size)) - 1)
    raw = low.to_bytes(size, "little")
    return se.Series(tuple(
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, size, width)
    ))


def _negq_cubed_dense(N, ring):
    """(-q;q)_inf^3 as the dense series (q^2;q^2)_inf / (q;q)_inf cubed by
    dense products: Kronecker substitution over Z, carry-less over GF(2).
    The reference for the quotient of pentagonal cubes."""
    negq = ring.div(qf.pentagonal(2, N, ring=ring), qf.pentagonal(1, N, ring=ring))
    mul = _kronecker_mul if ring is se else ring.mul
    return mul(mul(negq, negq), negq)


class TestMexCountGf:
    def test_table_rows(self):
        assert qf.mex_count_gf(MexVariant.OVERLINED, 2, 5)[3] == 2
        assert qf.mex_count_gf(MexVariant.ALL, 3, 5)[3] == 4

    def test_bad_m(self):
        with pytest.raises(ValueError):
            qf.mex_count_gf(MexVariant.ALL, 0, 5)

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_counts_sum_to_overpartition_numbers(self, variant):
        N = 300
        total = se.from_terms({}, N)
        for m in qf.feasible_mex_values(N):
            total = se.add(total, qf.mex_count_gf(variant, m, N))
        assert total.coeffs == qf.overpartition_gf(N).coeffs

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_weighted_counts_sum_to_sigma(self, variant):
        # Every feasible m up to 25, odd and even, against all three sigma builders.
        N = 300
        total = se.from_terms({}, N)
        for m in qf.feasible_mex_values(N):
            weighted = se.mul(qf.mex_count_gf(variant, m, N), se.from_terms({0: m}, N))
            total = se.add(total, weighted)
        assert total.coeffs == qf.sigma_mex_gf(variant, N).coeffs

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_counts_match_oracle(self, variant):
        N = 12
        for m in qf.feasible_mex_values(N):
            gf = qf.mex_count_gf(variant, m, N)
            for n in range(1, N + 1):
                assert gf[n] == cb.mex_histograms(n)[n][variant].get(m, 0), (variant, m, n)

    def test_mex_beyond_order_is_zero(self):
        # q^(4 choose 2) = q^6 lies past order 3.
        assert qf.mex_count_gf(MexVariant.OVERLINED, 4, 3).coeffs == (0, 0, 0, 0)
        # Every variant, at the first two m whose q^(m choose 2) lies past N.
        for N in (0, 1, 2, 3, 300):
            past = qf.feasible_mex_values(N)[-1] + 1
            for variant in MexVariant:
                for m in (past, past + 1):
                    assert comb(m, 2) > N
                    assert qf.mex_count_gf(variant, m, N) == se.from_terms({}, N), (N, m)

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_closed_form_matches_factorwise(self, variant):
        # Every feasible m, far past the m <= 7 the oracle reaches.  The
        # orders hit (m choose 2) = N (1, 3, 6, 10, 45) and N - (m choose 2)
        # < m, where the quotient is built on fewer coefficients than it
        # has binomial factors.
        for N in (0, 1, 3, 6, 10, 45, 300):
            for m in qf.feasible_mex_values(N):
                got = qf.mex_count_gf(variant, m, N)
                assert got == _count_gf_by_factors(variant, m, N), (N, m)

    @pytest.mark.parametrize("variant", [MexVariant.OVERLINED, MexVariant.ALL])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 300])
    def test_every_m_matches_the_plus_one_chain(self, variant, N):
        # 1/(-q;q)_m as (q;q)_m / (q^2;q^2)_m, odd and even m alike, against
        # the m divisions by (1 + q^j) it cancels.
        for m in qf.feasible_mex_values(N):
            assert qf.mex_count_gf(variant, m, N) == _count_gf_at_full_order(variant, m, N), m

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_largest_m_at_order_2000(self, variant):
        # The three largest m leave 171, 110 and 48 coefficients below q^N.
        N = 2000
        for m in qf.feasible_mex_values(N)[-3:]:
            assert qf.mex_count_gf(variant, m, N) == _count_gf_at_full_order(variant, m, N), m

    def test_all_parts_mex_dominates(self):
        # Each overpartition's all-parts set contains its overlined and its
        # non-overlined set, so #{mex_all >= m} >= #{mex_v >= m} at every n.
        N = 300
        tails = {}  # variant -> m -> #{mex >= m} as a series
        for variant in MexVariant:
            tail, tails[variant] = se.from_terms({}, N), {}
            for m in reversed(qf.feasible_mex_values(N)):
                tail = tails[variant][m] = se.add(tail, qf.mex_count_gf(variant, m, N))
        for variant in (MexVariant.OVERLINED, MexVariant.NON_OVERLINED):
            for m, tail in tails[variant].items():
                assert all(map(int.__ge__, tails[MexVariant.ALL][m].coeffs, tail.coeffs)), (variant, m)


def _count_gf_at_full_order(variant, m, N):
    """The closed form of mex_count_gf with every factor applied to the
    whole P-bar at order N, 1/(-q;q)_m as m divisions by (1 + q^j), then
    shifted to q^(m choose 2) and truncated: the reference for building
    the quotient on a prefix of P-bar, in its cancelled form."""
    acc = qf.overpartition_gf(N)
    if variant is not MexVariant.NON_OVERLINED:
        for j in range(1, m + 1):
            acc = se.div_binomial(acc, +1, j)
    if variant is not MexVariant.OVERLINED:
        acc = se.mul_binomial(acc, -1, m)
    weight = 2 ** (m - 1) if variant is MexVariant.ALL else 1
    lead = comb(m, 2)
    return se.Series(tuple([0] * lead + [weight * c for c in acc.coeffs])[: N + 1])


def _count_gf_by_factors(variant, m, N):
    """The count series built from its factors with a dense div and mul
    (overlined, all parts), or as (-q;q)_inf / prod_{j != m} (1 - q^j)
    (non-overlined): the reference for the closed form."""
    lead = comb(m, 2)
    if variant is MexVariant.NON_OVERLINED:
        acc = qf.pochhammer(+1, N)
        for j in range(1, N + 1):
            if j != m:
                acc = se.div_binomial(acc, -1, j)
        return se.mul(acc, se.from_terms({lead: 1}, N))
    negq_m = se.one(N)  # (-q;q)_m
    for j in range(1, min(m, N) + 1):
        negq_m = se.mul_binomial(negq_m, +1, j)
    body = se.div(se.one(N), negq_m)
    if variant is MexVariant.ALL:
        body = se.mul(se.mul_binomial(body, -1, m), se.from_terms({0: 2 ** (m - 1)}, N))
    return se.mul(se.mul(qf.overpartition_gf(N), body), se.from_terms({lead: 1}, N))


class TestIdentityChains:
    def test_overlined_telescoping(self):
        N = 300
        pbar = qf.overpartition_gf(N)
        lhs = se.mul(pbar, qf.overlined_mex_weighted_sum(N))
        rhs = se.mul(pbar, qf.ramanujan_sigma(N))
        assert lhs.coeffs == rhs.coeffs

    def test_all_raw_equals_simplified(self):
        N = 300
        pbar = qf.overpartition_gf(N)
        lhs = se.mul(pbar, qf.all_mex_raw_sum(N))
        rhs = se.mul(pbar, qf.phi11_simplified(N))
        assert lhs.coeffs == rhs.coeffs

    def test_feasibility_bound(self):
        # m is feasible iff the forced parts 1..m-1 fit inside n.
        for n in (0, 1, 5, 20):
            ms = qf.feasible_mex_values(n)
            assert all(comb(m, 2) <= n for m in ms)
            assert comb(ms[-1] + 1, 2) > n

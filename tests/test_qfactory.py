import math
import types
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
    (qf.sigma_family, ()),
]
# The cached builders that build over Z only.
Z_ONLY = [(qf.pochhammer, ())]
# The builders behind _cached: those whose series some run reads twice.
CACHED = {"pochhammer", "theta_neg", "pentagonal", "sigma_family"}


def _values(s):
    """The coefficients of s, a series over either ring, as a list."""
    return [s[n] for n in range(s.trunc_order + 1)]


def _lanes(value):
    """The coefficients of each series of a sigma_family value, or of a
    single series, over either ring: one list per series."""
    return [_values(s) for s in value] if isinstance(value, tuple) else [_values(value)]


def _mul_binomial(ring, a, sign, e):
    """a (1 + sign q^e) in either ring; series.GF2 has no mul_binomial,
    and mod 2 the factor is a + q^e a whatever the sign."""
    if ring is se.GF2:
        return se.GF2Series(a.bits ^ (a.bits << e), a.trunc_order)
    return se.mul_binomial(a, sign, e)


def _ascending_fold(ring, sign, N, step=1, top=None):
    """prod (1 + sign q^e) over e = step, 2 step, ... <= top (N if None),
    to order N, one factor at a time from the smallest up, in either
    ring: the defining fold."""
    acc = ring.one(N)
    for e in range(step, (N if top is None else top) + 1, step):
        acc = _mul_binomial(ring, acc, sign, e)
    return acc


class TestRings:
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300])
    def test_z_mod_2_equals_gf2(self, N):
        for builder, args in RING_GENERIC:
            z = builder(*args, N)
            g = builder(*args, N, ring=se.GF2)
            assert g.trunc_order == N
            assert _lanes(g) == [[c % 2 for c in lane] for lane in _lanes(z)], (
                builder.__name__, args)
        # Mod 2, (-q;q)_inf is the pentagonal series.
        assert _values(qf.pentagonal(1, N, ring=se.GF2)) == [
            c % 2 for c in qf.pochhammer(N).coeffs]

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 300])
    def test_sparse_series_match_factorwise(self, ring, N):
        q_q, negq_q = _ascending_fold(ring, -1, N), _ascending_fold(ring, +1, N)
        q2_q2 = _ascending_fold(ring, -1, N, step=2)
        p1, p2 = qf.pentagonal(1, N, ring=ring), qf.pentagonal(2, N, ring=ring)
        assert _values(p1) == _values(q_q)
        assert _values(p2) == _values(q2_q2)
        assert _values(qf.theta_neg(N, ring=ring)) == _values(ring.div(q_q, negq_q))
        assert _values(ring.div(p2, p1)) == _values(negq_q)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    # 54, 55, 56 and 90, 91, 92 straddle C(m+1, 2) for m = 10 and 13: a
    # numerator's lowest exponent one past, at and one below q^N.
    @pytest.mark.parametrize("N", [0, 1, 2, 50, 54, 55, 56, 90, 91, 92, 300, 2000])
    def test_negq_sums_match_running_inverse(self, ring, N):
        for name, terms in NEGQ_SUMS:
            expected = _negq_sum_by_running_inverse(N, ring, terms)
            assert _values(_built_negq_sum(name, N, ring, terms)) == _values(expected), name

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 10, 11, 12, 100])
    def test_overlapping_numerators(self, ring, N):
        # Numerators with terms at and past the next numerator's lowest
        # exponent, and lowest exponents that repeat (L_(m+1) = L_m).
        for terms in (
            lambda m: {comb(m, 2): 3, comb(m + 1, 2): -1, comb(m + 1, 2) + 2: m + 1},
            lambda m: {comb(m // 2 + 1, 2): m + 1, comb(m // 2 + 1, 2) + 1: -2},
        ):
            got = qf._negq_sum(N, ring, terms)
            assert got.trunc_order == N
            assert _values(got) == _values(_negq_sum_by_running_inverse(N, ring, terms))

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    def test_prefix_of_a_larger_build(self, ring):
        # f(N) after f(M) is f(M)'s first N + 1 coefficients: it must equal
        # f(N) built afresh, and counts as a hit, not a new entry.
        M = 50
        assert {name for name, f in vars(qf).items() if hasattr(f, "cache_info")} == CACHED
        # sigma_family's prefix is one per series, of each of its six.
        for builder, args in RING_GENERIC + (Z_ONLY if ring is se else []):
            builder.cache_clear()
            big = builder(*args, M, ring=ring)
            for N in (0, M - 1, M):
                got = builder(*args, N, ring=ring)
                fresh = builder.__wrapped__(*args, N, ring=ring)
                assert got.trunc_order == fresh.trunc_order == N
                assert _lanes(got) == _lanes(fresh), (builder.__name__, args, N)
            assert builder(*args, M, ring=ring) is big
            assert builder.cache_info() == (4, 1, 1), builder.__name__
            builder(*args, M + 1, ring=ring)  # a larger order replaces the entry
            assert builder.cache_info() == (4, 2, 1), builder.__name__
            builder.cache_clear()
            assert builder.cache_info() == (0, 0, 0)

    def test_served_series_cannot_be_changed(self):
        # At N == M every caller gets the cached object itself; a caller that
        # could change it would change the series of every later caller.
        qf.sigma_family.cache_clear()
        served = qf.sigma_family(12)
        assert qf.sigma_family(12) is served
        with pytest.raises(AttributeError):
            served.pbar = served.phi_1
        for value in (*served, *qf.sigma_family(7)):
            with pytest.raises(AttributeError):
                value.coeffs = (1,) * (value.trunc_order + 1)
            with pytest.raises(AttributeError):
                del value.coeffs
        assert qf.sigma_family(12) is served
        assert served == qf.sigma_family.__wrapped__(12)

    def test_one_cache_entry_per_ring(self):
        # A larger family cached by an earlier test would serve order 37
        # as a fresh prefix, not the cached value itself.
        qf.sigma_family.cache_clear()
        a = qf.sigma_family(37)
        assert qf.sigma_family(37, ring=se) is a
        assert qf.sigma_family.cache_info().currsize == 1
        qf.sigma_family(37, ring=se.GF2)
        assert qf.sigma_family.cache_info().currsize == 2

    def test_readers_serve_the_family_series(self):
        # The uncached readers return the family's own series, not copies.
        N = 37
        qf.sigma_family.cache_clear()
        family = qf.sigma_family(N)
        assert qf.overpartition_gf(N) is family.pbar
        for v in MexVariant:
            assert qf.sigma_mex_gf(v, N) is getattr(family, v.value), v


def _family_lane_by_lane(N, ring):
    """The six series of sigma_family, each built on its own: Phi_1 and
    Phi_2 by one Horner sum each, then P-bar and the three sigma-mex
    series by one division by theta(-q) each."""
    theta = qf.theta_neg(N, ring=ring)
    p2, p1 = qf.pentagonal(2, N, ring=ring), qf.pentagonal(1, N, ring=ring)
    psi = ring.div(ring.mul(p2, p2), p1)
    phi = [qf._negq_sum(N, ring, lambda n, z=z: {comb(n + 1, 2): z**n}) for z in (1, 2)]
    quotients = [ring.div(x, theta) for x in (ring.one(N), *phi, psi)]
    return [_values(s) for s in (quotients[0], *phi, *quotients[1:])]


class TestSigmaFamily:
    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("N", [0, 1, 2, 25, 300, 2000])
    def test_equals_lane_by_lane_builds(self, ring, N):
        assert _lanes(qf.sigma_family.__wrapped__(N, ring=ring)) == _family_lane_by_lane(N, ring)

    def test_widths_hold_every_lower_lane_at_order_10_4(self):
        # A sign bit above the longest coefficient of each lane below the
        # top: Phi_1 in the Horner sum, P-bar, sigma_ov and sigma_all in
        # the division.  The division's width holds all six series.
        N = 10_000
        lanes = _lanes(qf.sigma_family.__wrapped__(N))
        pbar, phi_1, _, overlined, all_parts, _ = lanes
        v, w = qf._lane_widths(N)
        assert _longest([phi_1]) < v
        assert _longest([pbar, overlined, all_parts]) < w
        assert _longest(lanes) < w

    def test_a_width_one_bit_short_disagrees(self, monkeypatch):
        # Negative control: at the least widths that hold every lower
        # lane, the lanes read back; one bit less in either, a lane carries.
        N = 300
        expected = _family_lane_by_lane(N, se)
        pbar, phi_1, _, overlined, all_parts, _ = expected
        v, w = 1 + _longest([phi_1]), 1 + _longest([pbar, overlined, all_parts])
        for widths, agree in (((v, w), True), ((v - 1, w), False), ((v, w - 1), False)):
            monkeypatch.setattr(qf, "_lane_widths", lambda n, widths=widths: widths)
            assert (_lanes(qf.sigma_family.__wrapped__(N)) == expected) is agree, widths


def _longest(lanes):
    """The bit length of the largest coefficient, in absolute value, of
    the given coefficient lists."""
    return max(abs(c).bit_length() for lane in lanes for c in lane)


# The four sums over 1/(-q;q)_m as (name, terms): sum_m terms(m) /
# (-q;q)_m, terms(m) the m-th numerator as {exponent: coefficient}.
NEGQ_SUMS = [
    ("phi_1", lambda m: {comb(m + 1, 2): 1}),
    ("phi_2", lambda m: {comb(m + 1, 2): 2**m}),
    ("overlined_mex_weighted_sum", lambda m: {comb(m, 2): m}),
    # m 2^(m-1) q^(m choose 2) (1 - q^m)
    ("all_mex_raw_sum", lambda m: {comb(m, 2): m * 2**m // 2, comb(m + 1, 2): -(m * 2**m // 2)}),
]


def _built_negq_sum(name, N, ring, terms):
    """The sum named name as built to order N: a field of sigma_family, or
    an identity-only sum, which builds over Z only; mod 2 that one is its
    body, qf._negq_sum, on the same numerators."""
    if name.startswith("phi_"):
        return getattr(qf.sigma_family(N, ring=ring), name)
    return getattr(qf, name)(N) if ring is se else qf._negq_sum(N, ring, terms)


def _negq_sum_by_running_inverse(N, ring, terms):
    """The sum term by term from m = 0 while terms(m) reaches q^N: a
    running 1/(-q;q)_m, one division by (1 + q^m) per term, times the
    numerator and added in.  The reference for Horner's rule."""
    acc, inv, m = ring.from_terms({}, N), ring.one(N), 0  # inv = 1 / (-q;q)_m
    while min(terms(m)) <= N:
        if m > 0:
            inv = ring.div_binomial(inv, +1, m)
        acc = ring.add(acc, ring.mul(inv, ring.from_terms(terms(m), N)))
        m += 1
    return acc


class TestPochhammer:
    def test_empty_product(self):
        # Every factor of (q;q)_inf and (-q;q)_inf lies beyond order 0.
        assert se.binomial_product(-1, 0) == qf.pochhammer(0) == se.one(0)

    @pytest.mark.parametrize("ring", [se, se.GF2], ids=["Z", "GF2"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 50, 301, 2000])
    def test_matches_ascending_fold(self, ring, sign, N):
        # The defining fold from the smallest factor up, in either ring;
        # pochhammer builds (-q;q)_inf over Z only, so the GF(2) fold reads
        # it mod 2, and (q;q)_inf is the kernel's, the tests' reference
        # for the pentagonal theorem.
        got = qf.pochhammer(N) if sign > 0 else se.binomial_product(sign, N)
        assert got.trunc_order == N
        read = (lambda c: c % 2) if ring is se.GF2 else (lambda c: c)
        assert list(map(read, got.coeffs)) == _values(_ascending_fold(ring, sign, N))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_gf2_build_refused_and_not_cached(self, sign):
        # series.GF2 has no binomial_product, so neither product builds over
        # GF(2): pochhammer's call raises before the cache stores anything
        # under the GF(2) key, and (q;q)_inf has no GF(2) kernel to call.
        before = qf.pochhammer.cache_info().currsize
        with pytest.raises(AttributeError):
            if sign > 0:
                qf.pochhammer(20, ring=se.GF2)
            else:
                se.GF2.binomial_product(sign, 20)
        assert qf.pochhammer.cache_info().currsize == before

    def test_bad_spec(self):
        with pytest.raises(ValueError):  # the sign is the kernel's alone
            se.binomial_product(2, 5)
        with pytest.raises(ValueError):
            qf.pochhammer(-1)
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
        s = qf.sigma_family(10).phi_1
        assert s[0] == 1
        assert s[1] == 1


class TestSigmaAdh:
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 6, 7, 300, 2500, 10000])
    def test_matches_horner_sum(self, N):
        assert qf.sigma_adh(N) == qf.sigma_family(N).phi_1

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
        family = qf.sigma_family(N)
        assert list(family.phi_1.coeffs) == sigma
        assert list(family.phi_2.coeffs) == phi11
        assert list(family.nonoverlined.coeffs) == q3


class TestPhi11:
    def test_constant_term(self):
        assert qf.phi11(10)[0] == 1

    def test_defining_equals_simplified(self):
        # N = 0, 1, 2: the n = 1 term's q^1, and the n = 2 term's q^3 past N.
        for N in (0, 1, 2, 300):
            assert qf.phi11(N).coeffs == qf.sigma_family(N).phi_2.coeffs, N

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
        got = qf.sigma_family(N, ring=se.GF2).nonoverlined
        assert got.bits == _negq_cubed_dense(N, se.GF2).bits


def _kronecker_mul(a, b):
    """Cauchy product of two Z series with non-negative coefficients by
    Kronecker substitution: each packed into one integer with a slot of
    `width` bytes per coefficient, one big-integer product, and the low
    slots read back.  A dense reference that shares no code with se.mul."""
    n = min(a.trunc_order, b.trunc_order)
    ac, bc = a.coeffs[: n + 1], b.coeffs[: n + 1]
    assert min(ac + bc) >= 0
    # c_k <= (n+1) max(a) max(b) < 256^width, so no slot carries into the next.
    width = (max(ac).bit_length() + max(bc).bit_length() + (n + 1).bit_length()) // 8 + 1

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    raw = (pack(ac) * pack(bc)).to_bytes(2 * width * (n + 1), "little")
    return se.Series(tuple(
        int.from_bytes(raw[i : i + width], "little") for i in range(0, width * (n + 1), width)))


def _negq_cubed_dense(N, ring):
    """(-q;q)_inf^3 as the dense series (q^2;q^2)_inf / (q;q)_inf cubed by
    dense products: Kronecker substitution over Z, carry-less over GF(2).
    The reference for the build psi(q) / theta(-q)."""
    negq = ring.div(qf.pentagonal(2, N, ring=ring), qf.pentagonal(1, N, ring=ring))
    mul = _kronecker_mul if ring is se else ring.mul
    return mul(mul(negq, negq), negq)


@pytest.fixture(scope="module")
def count_series_300():
    """verify.check_count_series at order 300, every feasible m up to 25:
    the one body of the count-series laws, read by each law's test."""
    return vf.check_count_series(300)


class TestMexCountGf:
    def test_table_rows(self):
        assert qf.mex_count_gf(MexVariant.OVERLINED, 2, 5)[3] == 2
        assert qf.mex_count_gf(MexVariant.ALL, 3, 5)[3] == 4

    def test_bad_m(self):
        with pytest.raises(ValueError):
            qf.mex_count_gf(MexVariant.ALL, 0, 5)

    # Each law at order 300: a PASS means every row of the table holds, the
    # variant's sum and weighted-sum rows and every dominance row among them.
    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_counts_sum_to_overpartition_numbers(self, variant, count_series_300):
        assert count_series_300.passed, (f"count_series:{variant.value}_sum",
                                         count_series_300.to_dict())

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_weighted_counts_sum_to_sigma(self, variant, count_series_300):
        # Every feasible m up to 25, odd and even, against all three sigma builders.
        assert count_series_300.passed, (f"count_series:{variant.value}_weighted",
                                         count_series_300.to_dict())

    def test_all_parts_mex_dominates(self, count_series_300, monkeypatch):
        assert count_series_300.to_dict() == {
            "check_name": "count_series", "status": vf.PASS, "range_checked": "order <= 300"}
        # One negative control per dominance row: x, -2x, x added to v's
        # counts at m = 1, 2, 3 and n = 100 leave every tail but those at
        # m = 2 (down x) and m = 3 (up x) as they were, so both sums hold,
        # and x lifts v's tail at m = 3 past the all-parts one.
        built = qf.mex_count_gf
        tail_3 = {v: sum(built(v, m, 300)[100] for m in qf.feasible_mex_values(300)[2:])
                  for v in MexVariant}
        x = tail_3[MexVariant.ALL] + 1
        for variant in (MexVariant.OVERLINED, MexVariant.NON_OVERLINED):
            with monkeypatch.context() as patch:
                patch.setattr(qf, "mex_count_gf", lambda v, m, N, variant=variant: (
                    se.add_terms(built(v, m, N), {100: (x, -2 * x, x)[m - 1]})
                    if v is variant and m <= 3 else built(v, m, N)))
                r = vf.check_count_series(300)
            assert (r.status, r.first_failure, r.metrics) == (
                vf.FAIL, (100, tail_3[MexVariant.ALL], tail_3[variant] + x),
                {"failed_subcheck": f"count_series:all_ge_{variant.value}", "m": 3}), variant

    def test_broken_count_series_is_named(self, monkeypatch):
        # The all-parts counts at m = 25, the largest m at order 300,
        # dropped: they are nonzero only at n = 300 = C(25, 2), where the
        # all-parts sums and the tails at m <= 25 all lose them, and the
        # first row that differs there is the all-parts sum.
        built = qf.mex_count_gf
        monkeypatch.setattr(qf, "mex_count_gf", lambda v, m, N: (
            se.from_terms({}, N) if (v, m) == (MexVariant.ALL, 25) else built(v, m, N)))
        dropped, pbar = built(MexVariant.ALL, 25, 300)[300], qf.overpartition_gf(300)[300]
        r = vf.check_count_series(300)
        assert (r.status, r.first_failure, r.metrics) == (
            vf.FAIL, (300, pbar - dropped, pbar), {"failed_subcheck": "count_series:all_sum"})

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
        acc = qf.pochhammer(N)
        for j in range(1, N + 1):
            if j != m:
                acc = se.div_binomial(acc, -1, j)
        return se.mul(acc, se.from_terms({lead: 1}, N))
    body = se.div(se.one(N), _ascending_fold(se, +1, N, top=m))  # 1 / (-q;q)_m
    if variant is MexVariant.ALL:
        body = se.mul(se.mul_binomial(body, -1, m), se.from_terms({0: 2 ** (m - 1)}, N))
    return se.mul(se.mul(qf.overpartition_gf(N), body), se.from_terms({lead: 1}, N))


class TestIdentityChains:
    def test_feasibility_bound(self):
        # m is feasible iff the forced parts 1..m-1 fit inside n.
        for n in (0, 1, 5, 20):
            ms = qf.feasible_mex_values(n)
            assert all(comb(m, 2) <= n for m in ms)
            assert comb(ms[-1] + 1, 2) > n


def _seen_by_verify(monkeypatch, module, **replaced):
    """verify sees module with the given attributes replaced, on top of
    what it already sees, and the rest as they are at the call; the module
    itself, which the builders call, is unchanged."""
    name = module.__name__.rpartition(".")[2]
    monkeypatch.setattr(vf, name, types.SimpleNamespace(**{**vars(getattr(vf, name)), **replaced}))


def _seen_family(monkeypatch, in_ring, **edits):
    """verify sees every sigma_family built over in_ring with
    edits[field](series) in place of each field named in edits, by the
    family's _replace; qfactory's own readers, and the cache, keep the
    real family."""
    built = vf.qfactory.sigma_family

    def seen(N, ring=se):
        family = built(N, ring=ring)
        if ring is not in_ring:
            return family
        return family._replace(**{f: edit(getattr(family, f)) for f, edit in edits.items()})

    _seen_by_verify(monkeypatch, qf, sigma_family=seen)


def _faulted_sigma(monkeypatch, variant, terms):
    """verify sees the terms {n: c} added to variant's Z series."""
    _seen_family(monkeypatch, se, **{variant.value: lambda s: se.add_terms(s, terms)})


class TestArithmeticLaws:
    """verify.check_arithmetic at order 2000, the one body of the mod-4,
    mod-3 and dominance laws: they hold, and a fault that breaks one is
    reported in that law's row."""

    def test_broken_law_is_named(self, monkeypatch):
        # 2q^1000 turns the non-square 1000's residue 2 into 0.
        _faulted_sigma(monkeypatch, MexVariant.ALL, {1000: 2})
        r = vf.check_arithmetic(2000)
        assert (r.status, r.first_failure, r.metrics) == (
            vf.FAIL, (1000, 0, 2), {"failed_subcheck": "arithmetic:all_mod_4"})

    def test_all_parts_mod_4(self):
        assert vf.check_arithmetic(2000).to_dict() == {
            "check_name": "arithmetic", "status": vf.PASS, "range_checked": "order <= 2000"}
        # The same law on the oracle side, from the class walk: 0 at the
        # squares n >= 1 and 2 elsewhere.
        hists = cb.mex_histograms(25)
        assert [n for n in range(1, 26) if cb.mex_sum(hists[n][MexVariant.ALL]) % 4
                != (0 if math.isqrt(n) ** 2 == n else 2)] == []

    def test_nonoverlined_mod_3(self, monkeypatch):
        # q^1000 moves the residue at 1000, not a multiple of 3, off 0.
        _faulted_sigma(monkeypatch, MexVariant.NON_OVERLINED, {1000: 1})
        r = vf.check_arithmetic(2000)
        assert (r.status, r.first_failure, r.metrics) == (
            vf.FAIL, (1000, 1, 0), {"failed_subcheck": "arithmetic:nonoverlined_mod_3"})

    def test_summed_mex_dominance(self, monkeypatch):
        # sigma_v(700) raised past sigma_all(700), one dominance row at a
        # time; the rise is a multiple of 3, so the mod-3 row, which reads
        # sigma_no, still holds there.
        for variant in (MexVariant.OVERLINED, MexVariant.NON_OVERLINED):
            all_700, v_700 = (qf.sigma_mex_gf(v, 2000)[700] for v in (MexVariant.ALL, variant))
            rise = 3 * (all_700 + 1)
            with monkeypatch.context() as m:
                _faulted_sigma(m, variant, {700: rise})
                r = vf.check_arithmetic(2000)
            assert (r.status, r.first_failure, r.metrics) == (
                vf.FAIL, (700, all_700, v_700 + rise),
                {"failed_subcheck": f"arithmetic:all_ge_{variant.value}"}), variant

"""Builders for the named q-series: the sparse theta(-q) and pentagonal
series, the overpartition generating function P-bar = 1/theta(-q),
one family Phi_z = sum_n z^n q^(n+1 choose 2) / (-q;q)_n (Ramanujan's
sigma series at z = 1, the collapsed 1phi1 sum at z = 2), the three
sigma-mex generating functions, Phi_1, Phi_2 or Gauss's psi(q) over
theta(-q), and their per-m count series, each a prefix of the cached
P-bar times binomial factors (1 - q^e).  The defining forms the checks
compare these with, (-q;q)_inf and the 1phi1 defining sum, are folds of
binomial factors (1 +- q^e), each multiplied or divided in explicitly:
(-q;q)_inf by series.binomial_product, over Z only, and the 1phi1 sum
with each term cut to the coefficients that reach q^N.  (q;q)_inf is
the pentagonal series in every check; its fold,
series.binomial_product(-1, N), is the tests' factorwise reference for
the pentagonal theorem.

Infinite products are truncated at order N; any factor whose lowest
exponent exceeds N is omitted since it cannot move a retained coefficient.
The same rule bounds every sum with a leading q^(m choose 2) or
q^(m+1 choose 2) factor.  The sums over 1/(-q;q)_m run by Horner's rule,
one polynomial numerator and one division by (1 + q^(m+1)) per step, on
only the tail of the running sum from the numerator's lowest exponent
up: each step divides the tail, adds a numerator term that falls inside
it with add_terms and places the others under it with concat.  sigma(q)
= Phi_1 also has a Z-only form with no series kernel, the
Andrews-Dyson-Hickerson double sum, that the Horner sum is checked
against.

P-bar, Phi_1, Phi_2 and the three sigma-mex series are one family,
sigma_family, the one builder of them that verify reads.  Over Z one
Horner sum serves Phi_1 and Phi_2, and one division by theta(-q) the
four quotients, the series packed as lanes of one integer per
coefficient: the kernels are exact and Z-linear, so the top lane reads
back exactly, and each lane below it while it fits the width that
_lane_widths proves.  overpartition_gf and sigma_mex_gf read it, uncached.

The four cached builders take a `ring` keyword and build over Z by
default (ring=series) or mod 2 (ring=series.GF2) from one body,
pochhammer over Z only.  _cached, the one cache, serves an order as a
prefix of the largest built; it sits only on builders whose series
some run reads twice.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import Counter, namedtuple
from functools import wraps
from math import comb

from . import series
from .series import Series


_CacheInfo = namedtuple("CacheInfo", "hits misses currsize")


class MexVariant(enum.Enum):
    """Which parts of an overpartition feed the minimal-excludant set."""

    NON_OVERLINED = "nonoverlined"
    OVERLINED = "overlined"
    ALL = "all"


def _prefix(value, N: int, ring):
    """The first N + 1 coefficients of a series, or of each series of a
    tuple of them: over Z a slice, which shares its integers with value,
    and mod 2 an add, which truncates to the smaller order."""
    if isinstance(value, tuple):
        return type(value)(*(_prefix(s, N, ring) for s in value))
    if isinstance(value, Series):
        return Series(value.coeffs[: N + 1])
    return ring.add(value, ring.from_terms({}, N))


def _cached(builder):
    """Cache a builder f(*args, N, ring=...) at the largest order M built
    per leading arguments and ring.  f(M) returns the cached value and
    f(N) for N < M its first N + 1 coefficients (of each of its series,
    for a tuple with a trunc_order), every builder being exact mod
    q^(N+1).  cache_info() reads (hits, misses, currsize) and
    cache_clear() empties the cache.  Worth its memory only on a series
    that some run reads more than once."""
    built = {}  # (leading args, ring) -> f(M)
    stats = Counter()

    @wraps(builder)
    def call(*args, ring=series):
        *lead, N = args
        value = built.get((*lead, ring))
        if value is not None and N <= value.trunc_order:
            stats["hits"] += 1
            return value if N == value.trunc_order else _prefix(value, N, ring)
        stats["misses"] += 1
        built[(*lead, ring)] = value = builder(*args, ring=ring)
        return value

    def cache_clear():
        built.clear()
        stats.clear()

    call.cache_info = lambda: _CacheInfo(stats["hits"], stats["misses"], len(built))
    call.cache_clear = cache_clear
    return call


@_cached
def pochhammer(N: int, *, ring=series):
    """(-q;q)_inf = prod_{k>=1} (1 + q^k) to order N by binomial_product,
    over Z.  The ring keyword is the cache's: series.GF2 has no
    binomial_product, so a mod-2 call raises AttributeError and caches
    nothing."""
    return ring.binomial_product(+1, N)


def _theta_type(N: int, ring, exponent):
    """sum_{k in Z} (-1)^k q^(exponent(k)) to order N, exponent(k) <=
    exponent(-k) increasing in k >= 1: k's and -k's terms in one Counter."""
    terms, k = Counter({0: 1}), 1
    while exponent(k) <= N:
        terms[exponent(k)] += (-1) ** k
        terms[exponent(-k)] += (-1) ** k
        k += 1
    return ring.from_terms(terms, N)


@_cached
def theta_neg(N: int, *, ring=series):
    """theta(-q) = sum_{k in Z} (-1)^k q^(k^2) = 1 + 2 sum_{k>=1} (-1)^k q^(k^2)."""
    return _theta_type(N, ring, lambda k: k * k)


@_cached
def pentagonal(step: int, N: int, *, ring=series):
    """(q^s;q^s)_inf for s = step, by Euler's pentagonal theorem:
    sum_{k in Z} (-1)^k q^(s k(3k-1)/2)."""
    if step < 1:
        raise ValueError("step must be positive")
    return _theta_type(N, ring, lambda k: step * k * (3 * k - 1) // 2)


def _negq_sum(N: int, ring, terms):
    """sum_{m>=0} terms(m) / (-q;q)_m to order N, where terms(m) is the m-th
    numerator as a {exponent: coefficient} polynomial whose lowest
    exponent L_m does not decrease with m, from L_0 = 0.  Horner's rule
    from the last term that reaches q^N:
    t_0 + (t_1 + (t_2 + ...) / (1 + q^2)) / (1 + q).  The sum from step m
    on is q^(L_m) times a tail of order N - L_m, and only the tail is
    kept: step m divides step m + 1's tail by (1 + q^(m+1)) and places the
    numerator's terms below L_(m+1) under it with one concat.  A term at
    or past L_(m+1) (the second monomial of a two-term numerator, or any
    term when L_(m+1) = L_m) is added into the tail instead, by
    add_terms: no pass of additions over the tail.  Over Z each division
    makes two big-int operations per coefficient, one on the block walk."""
    top = 0
    while min(terms(top + 1)) <= N:
        top += 1
    low = min(terms(top))
    tail = ring.from_terms({e - low: c for e, c in terms(top).items()}, N - low)
    for m in range(top - 1, -1, -1):
        numerator, above = terms(m), low
        low = min(numerator)
        tail = ring.div_binomial(tail, +1, m + 1)
        overlap = {e - above: c for e, c in numerator.items() if e >= above}
        if overlap:
            tail = ring.add_terms(tail, overlap)
        if low < above:
            head = {e - low: c for e, c in numerator.items() if e < above}
            tail = ring.concat(ring.from_terms(head, above - low - 1), tail)
    return tail


class SigmaFamily(namedtuple("SigmaFamily", "pbar phi_1 phi_2 overlined all nonoverlined")):
    """The six series sigma_family builds at one order: P-bar, Phi_1,
    Phi_2, and the sigma-mex series, one field per MexVariant value."""

    __slots__ = ()
    trunc_order = property(lambda self: self.pbar.trunc_order)


def _lane_widths(N: int) -> tuple:
    """The lane widths of sigma_family at order N, proved from N alone:
    one for Phi_1, the lower lane of the Horner sum, and one for P-bar,
    sigma_ov and sigma_all, the lower lanes of the division.  A top lane
    (Phi_2, sigma_no) carries into none, so it needs no width.  Each width
    is a sign bit above a bound on its lanes' coefficients of q^0 .. q^N,
    a bound that grows with n and is taken at n = N; m_max is the largest
    m with (m choose 2) <= N.

    Phi_1 = sigma(q) = sum_{n>=0} sum_{|j|<=n} (-1)^(n+j)
    q^(n(3n+1)/2 - j^2) (1 - q^(2n+1)) (Andrews, Dyson and Hickerson; see
    sigma_adh).  The least exponent of row n is n(n+1)/2, so m_max rows
    reach q^k, and in each at most two j put a term +-1 at q^k and two
    more their q^(2n+1) shifts: |[q^k] Phi_1| <= 4 m_max.

    The quotient lanes are counts, so non-negative.  pbar(n) <=
    e^(pi sqrt n): pbar(n) e^(-nt) <= P-bar(e^-t) for t > 0, and
    log P-bar(e^-t) = 2 sum_{odd j} e^(-jt) / (j (1 - e^(-jt))) <=
    2 sum_{odd j} 1 / (j^2 t) = pi^2 / (4t); take t = pi / (2 sqrt n).
    A mex m needs the parts 1..m-1, so (m choose 2) <= n and m <= m_max:
    sigma_v(n) <= m_max pbar(n) < 2^b, b = log2(m_max) + pi sqrt(N) / ln 2.
    b is computed in floats, a few roundings of relative size 2^-53 each,
    so to far better than 1e-9 while b < 10^6 (N up to about 10^11); with
    that margin, ceil(b + 1e-9) + 1 bits hold [0, 2^b) and a sign bit.
    9 and 210 bits at N = 2000."""
    m_max = len(feasible_mex_values(N))
    b = math.log2(m_max) + math.pi * math.sqrt(N) / math.log(2)
    return (4 * m_max).bit_length() + 1, math.ceil(b + 1e-9) + 1


@_cached
def sigma_family(N: int, *, ring=series) -> SigmaFamily:
    """P-bar, Phi_1, Phi_2 and the three sigma-mex series to order N, from
    one Horner sum and one division by theta(-q).  Phi_z = sum_{n>=0}
    z^n q^(n+1 choose 2) / (-q;q)_n.  Each sigma-mex series is P-bar =
    1/theta(-q) (Gauss) times one q-series: Phi_1 = sigma (overlined),
    Phi_2 = the collapsed 1phi1 (all parts) or Gauss's psi(q) =
    (q^2;q^2)_inf^2 / (q;q)_inf (non-overlined, distinct parts in three
    colors: (-q;q)_inf^3 = psi(q) / theta(-q)).

    Over Z the series ride as lanes of one integer per coefficient
    (series.pack), with the widths (V, W) = _lane_widths(N): one _negq_sum
    of the numerators (1 + 2^n 2^V) q^(n+1 choose 2) gives Phi_1 + Phi_2
    2^V, and one division of 1 + Phi_1 2^W + Phi_2 2^(2W) + psi 2^(3W) by
    theta(-q) gives P-bar and the three quotients as lanes.  Every kernel
    is exact and Z-linear, so each result is its lanes' sum exactly,
    whatever the sizes on the way, and each lane below the top reads back
    exactly as it fits its width; the top lane is read whatever its size,
    so the Horner sum's integers are only Phi_1's few bits longer than
    Phi_2's.  The packed numerator is released before the quotient is
    unpacked.  Mod 2 a bitmask holds one series, and the same steps run
    lane by lane."""
    theta = theta_neg(N, ring=ring)
    p2, p1 = pentagonal(2, N, ring=ring), pentagonal(1, N, ring=ring)
    psi = ring.div(ring.mul(p2, p2), p1)
    if ring is series:
        v, w = _lane_widths(N)
        phi = series.unpack(_negq_sum(N, ring, lambda n: {comb(n + 1, 2): 1 + (2**n << v)}),
                            2, v)
        quotient = series.div(series.pack([ring.one(N), *phi, psi], w), theta)
        pbar, *sigma = series.unpack(quotient, 4, w)
    else:
        phi = [_negq_sum(N, ring, lambda n, z=z: {comb(n + 1, 2): z**n}) for z in (1, 2)]
        pbar, *sigma = (ring.div(x, theta) for x in (ring.one(N), *phi, psi))
    return SigmaFamily(pbar, *phi, *sigma)


def overpartition_gf(N: int) -> Series:
    """(-q;q)_inf / (q;q)_inf: coefficient of q^n is the overpartition
    number, 1 / theta(-q) by Gauss's identity: sigma_family's P-bar."""
    return sigma_family(N).pbar


def sigma_adh(N: int) -> Series:
    """sigma(q) to order N by Andrews, Dyson and Hickerson (Invent. Math.
    91, 1988): sum_{n>=0} sum_{|j|<=n} (-1)^(n+j) q^(n(3n+1)/2 - j^2)
    (1 - q^(2n+1)), about 2N signed unit terms and no series kernel; the
    witness the Horner sum sigma_family(N).phi_1 is checked against."""
    coeffs = [0] * (N + 1)
    n = 0
    while n * (n + 1) // 2 <= N:  # n(3n+1)/2 - n^2, the least exponent
        for j in range(-n, n + 1):
            e, sign = n * (3 * n + 1) // 2 - j * j, (-1) ** (n + j)
            if e <= N:
                coeffs[e] += sign
            if e + 2 * n + 1 <= N:
                coeffs[e + 2 * n + 1] -= sign
        n += 1
    return Series(tuple(coeffs))


def phi11(N: int) -> Series:
    """The basic hypergeometric specialization 1phi1(q; -q; q, -2q),
    computed term by term from the defining sum

        sum_n [(q;q)_n / ((-q;q)_n (q;q)_n)] * (-1)^n q^(n choose 2) * (-2q)^n

    with no symbolic cancellation: one running term takes each
    denominator factor (1+q^n)(1-q^n) by division and each numerator
    factor (1-q^n) by an explicit multiplication.  Term n is placed at
    q^(n+1 choose 2), so before its factors the running term is cut to
    order N - (n+1 choose 2), the only coefficients that reach q^N.
    """
    acc = [0] * (N + 1)
    term = series.one(N)  # (q;q)_n / ((-q;q)_n (q;q)_n)
    n = 0
    while comb(n + 1, 2) <= N:
        # (-1)^n q^(n choose 2) (-2q)^n = 2^n q^(n+1 choose 2)
        lead = comb(n + 1, 2)
        term = Series(term.coeffs[: N - lead + 1])
        if n > 0:
            term = series.div_binomial(term, +1, n)
            term = series.div_binomial(term, -1, n)
            term = series.mul_binomial(term, -1, n)
        acc[lead:] = map(operator.add, acc[lead:], map((2**n).__mul__, term.coeffs))
        n += 1
    return Series(tuple(acc))


def overlined_mex_weighted_sum(N: int) -> Series:
    """sum_{m>=1} m q^(m choose 2) / (-q;q)_m: the pre-telescoping form
    whose product with the overpartition series gives the overlined
    sigma-mex generating function."""
    return _negq_sum(N, series, lambda m: {comb(m, 2): m})


def all_mex_raw_sum(N: int) -> Series:
    """sum_{m>=1} m 2^(m-1) q^(m choose 2) (1 - q^m) / (-q;q)_m: the raw
    derivative of the all-parts double series, before simplification."""

    def terms(m):  # (1 - q^m) written out as two monomials
        c = m * 2**m // 2  # m 2^(m-1), and 0 at m = 0
        return {comb(m, 2): c, comb(m + 1, 2): -c}

    return _negq_sum(N, series, terms)


def sigma_mex_gf(variant: MexVariant, N: int) -> Series:
    """Generating function of the chosen sigma-mex statistic; the q^0
    coefficient is 1 under the value-1-at-zero convention in all three
    variants.  Each is P-bar times one q-series, read from sigma_family:
    Phi_1 = sigma (overlined), Phi_2 = the collapsed 1phi1 (all parts) or
    Gauss's psi(q) (non-overlined), divided by theta(-q) = 1 / P-bar."""
    return getattr(sigma_family(N), variant.value)


def mex_count_gf(variant: MexVariant, m: int, N: int) -> Series:
    """Series whose q^n coefficient counts overpartitions of n whose
    variant-mex equals m, with P-bar = (-q;q)_inf / (q;q)_inf:

        overlined:      q^(m choose 2) P-bar / (-q;q)_m
        non-overlined:  q^(m choose 2) P-bar (1 - q^m)
        all parts:      2^(m-1) q^(m choose 2) P-bar (1 - q^m) / (-q;q)_m

    Per line: forcing part j < m present multiplies its P-bar factor
    (1+q^j)/(1-q^j) by q^j/(1+q^j), q^j or 2q^j/(1+q^j); forcing m absent
    multiplies that of m by 1/(1+q^m), 1-q^m or (1-q^m)/(1+q^m).  With
    k = (m choose 2), the quotient is built on the first N - k + 1
    coefficients of the cached P-bar, the only ones that reach q^N once
    placed at q^k.  1/(-q;q)_m is applied with its even factors cancelled,

        (q;q)_m / (q^2;q^2)_m
            = prod_{odd j<=m} (1 - q^j) / prod_{m/2<j<=m} (1 - q^(2j)):

    about m factors (1 - q^e), each one C-level pass with one big-int
    operation per coefficient, so about m (N - k) operations, half the
    2m (N - k) of m divisions by (1 + q^j) on div_binomial's class walk.
    """
    if m < 1:
        raise ValueError("mex value m must be >= 1")
    k = comb(m, 2)
    if k > N:
        return series.from_terms({}, N)
    acc = Series(overpartition_gf(N).coeffs[: N - k + 1])
    if variant is not MexVariant.NON_OVERLINED:
        for j in range(1, m + 1, 2):
            acc = series.mul_binomial(acc, -1, j)
        for j in range(m // 2 + 1, m + 1):
            acc = series.div_binomial(acc, -1, 2 * j)
    if variant is not MexVariant.OVERLINED:
        acc = series.mul_binomial(acc, -1, m)
    weight = 2 ** (m - 1) if variant is MexVariant.ALL else 1
    return Series((0,) * k + tuple(map(weight.__mul__, acc.coeffs)))


def feasible_mex_values(n: int) -> range:
    """All m that can occur as a mex, of any variant, of some overpartition
    of n: the forced parts 1..m-1 already weigh (m choose 2)."""
    m = 1
    while comb(m, 2) <= n:
        m += 1
    return range(1, m)

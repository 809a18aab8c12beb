"""Builders for the named q-series: the sparse theta(-q) and pentagonal
series, the overpartition generating function P-bar = 1/theta(-q),
Ramanujan's sigma series, the collapsed 1phi1 sum, the three sigma-mex
generating functions, the non-overlined one a quotient of pentagonal
cubes, and their per-m count series, each a prefix of the cached P-bar
times binomial factors (1 - q^e).  The defining forms the checks compare
these with, the Pochhammer products and the 1phi1 defining sum, are folds
of binomial factors (1 +- q^e), each multiplied or divided in explicitly:
the Pochhammer products by series.binomial_product, over Z only, and the
1phi1 sum with each term cut to the coefficients that reach q^N.

Infinite products are truncated at order N; any factor whose lowest
exponent exceeds N is omitted since it cannot move a retained coefficient.
The same rule bounds every sum with a leading q^(m choose 2) or
q^(m+1 choose 2) factor.  The sums over 1/(-q;q)_m run by Horner's rule,
one polynomial numerator and one division by (1 + q^(m+1)) per step, on
only the tail of the running sum from the numerator's lowest exponent
up: each step divides the tail, adds a numerator term that falls inside
it with add_terms and places the others under it with concat.  sigma(q)
also has a Z-only form with no series kernel, the Andrews-Dyson-Hickerson
double sum, that the Horner sum is checked against.

Builders with a `ring` keyword build over Z by default (ring=series) or
mod 2 (ring=series.GF2) from one body, pochhammer over Z only.  _cached,
the one cache, serves an order as a prefix of the largest built; it sits
only on builders whose series some run reads twice.
"""

from __future__ import annotations

import enum
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


def _cached(builder):
    """Cache a builder f(*args, N, ring=...) at the largest order M built
    per leading arguments and ring.  f(M) returns the cached value and
    f(N) for N < M its first N + 1 coefficients, every builder being exact
    mod q^(N+1).  cache_info() reads (hits, misses, currsize) and
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
            # add truncates to the smaller order: f(M)'s prefix, on either ring
            return value if N == value.trunc_order else ring.add(value, ring.from_terms({}, N))
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
def pochhammer(sign: int, N: int, *, ring=series):
    """prod_{k>=1} (1 + sign q^k) to order N, over Z: sign=-1 gives
    (q;q)_inf and sign=+1 (-q;q)_inf, by binomial_product.  The ring
    keyword is the cache's: series.GF2 has no binomial_product, so a
    mod-2 call raises AttributeError and caches nothing."""
    return ring.binomial_product(sign, N)


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


@_cached
def overpartition_gf(N: int, *, ring=series):
    """(-q;q)_inf / (q;q)_inf: coefficient of q^n is the overpartition
    number.  Built by Gauss's identity as 1 / theta(-q), one division by
    a series of about sqrt(N) terms."""
    return ring.div(ring.one(N), theta_neg(N, ring=ring))


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


@_cached
def ramanujan_sigma(N: int, *, ring=series):
    """The Lost Notebook series sum_{m>=0} q^(m+1 choose 2) / (-q;q)_m."""
    return _negq_sum(N, ring, lambda m: {comb(m + 1, 2): 1})


def sigma_adh(N: int) -> Series:
    """sigma(q) to order N by Andrews, Dyson and Hickerson (Invent. Math.
    91, 1988): sum_{n>=0} sum_{|j|<=n} (-1)^(n+j) q^(n(3n+1)/2 - j^2)
    (1 - q^(2n+1)), about 2N signed unit terms and no series kernel; the
    witness the Horner sum for sigma is checked against."""
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


@_cached
def phi11_simplified(N: int, *, ring=series):
    """The collapsed form sum_n 2^n q^(n+1 choose 2) / (-q;q)_n; must agree
    with phi11 coefficient by coefficient."""
    return _negq_sum(N, ring, lambda n: {comb(n + 1, 2): 2**n})


def overlined_mex_weighted_sum(N: int, *, ring=series):
    """sum_{m>=1} m q^(m choose 2) / (-q;q)_m: the pre-telescoping form
    whose product with the overpartition series gives the overlined
    sigma-mex generating function."""
    return _negq_sum(N, ring, lambda m: {comb(m, 2): m})


def all_mex_raw_sum(N: int, *, ring=series):
    """sum_{m>=1} m 2^(m-1) q^(m choose 2) (1 - q^m) / (-q;q)_m: the raw
    derivative of the all-parts double series, before simplification."""

    def terms(m):  # (1 - q^m) written out as two monomials
        c = m * 2**m // 2  # m 2^(m-1), and 0 at m = 0
        return {comb(m, 2): c, comb(m + 1, 2): -c}

    return _negq_sum(N, ring, terms)


@_cached
def sigma_mex_gf(variant: MexVariant, N: int, *, ring=series):
    """Generating function of the chosen sigma-mex statistic; the q^0
    coefficient is 1 under the value-1-at-zero convention in all three
    variants.  Overlined and all parts are P-bar times sigma and times the
    collapsed 1phi1, computed as divisions by theta(-q) = 1 / P-bar."""
    if variant is MexVariant.OVERLINED:
        return ring.div(ramanujan_sigma(N, ring=ring), theta_neg(N, ring=ring))
    if variant is MexVariant.ALL:
        return ring.div(phi11_simplified(N, ring=ring), theta_neg(N, ring=ring))
    # Non-overlined: distinct parts in three colors, (-q;q)_inf^3, as
    # (q^2;q^2)_inf^3 / (q;q)_inf^3; each product walks a sparse operand.
    p2, p1 = pentagonal(2, N, ring=ring), pentagonal(1, N, ring=ring)
    return ring.div(ring.mul(ring.mul(p2, p2), p2), ring.mul(ring.mul(p1, p1), p1))


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

"""Executable renderings of the theorems: identity equalities to order N,
the arithmetic laws (congruences and dominance) of the sigma-mex series,
the laws of the per-m count series (sums and dominance), parity sweeps,
density measurements, and asymptotic ratio tables.

Each check returns a VerifyReport; failures carry a concrete witness, and
nothing here raises on a mathematical mismatch.  Each check is one fixed
experiment: its tolerances, grids and orders are module constants, and it
takes only what its callers vary.  The CLI's --order, the order CHECKS
passes, is the order of euler, identities and arithmetic, and the least
order of the three parity sweeps, asym_ratio and ingham_scaling, which
run at max(their constant, order); count_series and sigma_taylor run at
their constants whatever it says, and the gf_vs_oracle checks read
--max-n instead.  Every check that reports a witness n is a table of rows
in a fixed order, each row two sequences compared term by term, judged by
one rule, _judge: the FAIL is the smallest n at which any row differs,
with the witness and the metrics of the first row that differs there.
The identity, arithmetic and count-series checks and gf_vs_oracle
compare coefficient sequences (_compare_series); the three parity checks
are one sweep, _parity_sweep, whose rows are bitmasks of series built
over GF(2) (series.GF2) and of closed forms: whole-int bit operations, no
Python step per n.
The float checks sum and divide exact integers, rounding to a float only
at the end, so they report at any order: a value past the float range is
inf.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, compress, count, islice, takewhile

from . import combinat, qfactory, series
from .qfactory import MexVariant
from .series import Series

PASS = "PASS"
FAIL = "FAIL"


class VerifyReport:
    __slots__ = ("check_name", "status", "range_checked", "first_failure", "metrics")

    def __init__(self, check_name, status, range_checked, first_failure=None, metrics=None):
        self.check_name, self.status = check_name, status
        self.range_checked, self.first_failure = range_checked, first_failure
        self.metrics = {} if metrics is None else metrics  # a fresh dict per report

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        d = {
            "check_name": self.check_name,
            "status": self.status,
            "range_checked": self.range_checked,
        }
        if self.first_failure is not None:
            d["first_failure"] = list(self.first_failure)
        if self.metrics:
            d["metrics"] = self.metrics
        return d


# --------------------------------------------------------------------------
# Shared helpers


def _judge(name: str, range_desc: str, failures) -> VerifyReport:
    """The one witness rule.  failures holds, in row order, (n, a[n],
    b[n], metrics) for each row (metrics, a, b) that differs, at the lowest
    n where it does; the FAIL is the smallest such n, with the first row
    that differs there, and PASS if no row differs."""
    first = min(failures, key=operator.itemgetter(0), default=None)
    if first is None:
        return VerifyReport(name, PASS, range_desc)
    n, x, y, metrics = first
    return VerifyReport(name, FAIL, range_desc, first_failure=(n, x, y), metrics=metrics)


def _compare_series(name: str, range_desc: str, rows) -> VerifyReport:
    """The rows (metrics, a, b) of coefficient sequences, each compared up
    to the shorter of a and b, judged by _judge: a FAIL is (n, a[n], b[n])
    at the smallest n any row differs, with the metrics of the first row
    that differs there."""
    return _judge(name, range_desc, (
        (n, a[n], b[n], metrics) for metrics, a, b in rows
        for n in islice(compress(count(), map(operator.ne, a, b)), 1)))


FIXED_POINT_BITS = 128  # fraction bits of _evaluate's running sum


def _quotient(a: int, b: int) -> float:
    """a / b for b > 0, correctly rounded, and +-inf past the float range."""
    try:
        return a / b
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _evaluate(gf: Series, q0: float) -> float:
    """Sum gf[n] q0^n by Horner's rule in binary fixed point: q0 is
    num / 2^s exactly, the running sum an integer over 2^FIXED_POINT_BITS,
    and each step floors one product by q0.  The sum is off by less than
    (N + 1) 2^-FIXED_POINT_BITS / (1 - q0) for 0 <= q0 < 1, so a value
    near 1 or above is the correctly rounded float, and inf past the range."""
    num, den = q0.as_integer_ratio()
    s = den.bit_length() - 1
    acc = 0
    for c in reversed(gf.coeffs):
        acc = (acc * num >> s) + (c << FIXED_POINT_BITS)
    return _quotient(acc, 1 << FIXED_POINT_BITS)


# --------------------------------------------------------------------------
# Checks


LITERAL_CHECK_N = 12  # class counting is compared with enumeration up to here


def check_gf_vs_oracle(
    variant: MexVariant,
    n_max: int,
    count_n_max: int | None = None,
) -> VerifyReport:
    """Generating-function coefficients against the oracle: sigma values
    for n <= n_max and per-m counts for n <= count_n_max, both read from
    the mex histograms of one walk over every ordinary partition of every
    n <= max(n_max, count_n_max), which the three variants' checks share.
    For n <= LITERAL_CHECK_N each histogram is also compared with the
    literal one, from each overpartition's part sets, taken one by one, as
    bitmasks.  The rows, in order: literal per m, sigma, then counts per
    m, each (oracle, other side) by n; a FAIL is (n, expected, got) at the
    smallest n any row differs, with the first row that differs there."""
    if count_n_max is None:
        count_n_max = n_max
    hists = [h[variant] for h in combinat.mex_histograms(max(n_max, count_n_max))]
    literal = [combinat.literal_mex_histograms(n)[variant]
               for n in range(min(LITERAL_CHECK_N, len(hists) - 1) + 1)]
    rows = [({"where": "literal", "m": m}, [lit[m] for lit in literal],
             [c.get(m, 0) for c in hists[: len(literal)]])
            for m in sorted(set().union(*literal, *hists[: len(literal)]))]
    rows.append(({"where": "sigma"}, list(map(combinat.mex_sum, hists[: n_max + 1])),
                 getattr(qfactory.sigma_family(n_max), variant.value).coeffs))
    rows += [({"where": "count", "m": m}, [c.get(m, 0) for c in hists[: count_n_max + 1]],
              qfactory.mex_count_gf(variant, m, count_n_max).coeffs)
             for m in qfactory.feasible_mex_values(count_n_max)]
    return _compare_series(f"gf_vs_oracle:{variant.value}",
                           f"sigma n <= {n_max}, counts n <= {count_n_max}", rows)


def check_euler_identity(N: int) -> VerifyReport:
    """(-q;q)_inf = 1/(q;q^2)_inf = (q^2;q^2)_inf / (q;q)_inf to order N,
    with (q;q)_inf the pentagonal series p1 = qfactory.pentagonal(1, N)
    and (q^2;q^2)_inf its coefficients at even exponents.  The second row
    proves p1 exact, not only consistent: let A = (-q;q)_inf, which the
    first row pins against the odd-part fold, and h = p1 / (q;q)_inf,
    with h_0 = p1[0] = 1.  If A = p1(q^2) / p1(q) mod q^(N+1), then
    h(q^2) = h(q) there, as A = (q^2;q^2)_inf / (q;q)_inf.  At the least
    j >= 1 with h_j != 0, h(q^2) has 0 at q^j, so h = 1 to order N."""
    if N < 1:
        raise ValueError("order must be >= 1")
    a = qfactory.pochhammer(N)
    # 1/(q;q^2)_inf, one factor 1/(1 - q^k) at a time from the largest odd
    # k <= N down: prod_{odd j>=k} 1/(1 - q^j) = 1 + q^k U_k with U_k of
    # order N - k, and U_k = (1 + q^2 U_(k+2)) / (1 - q^k).
    top = N - 1 + N % 2
    u = series.div_binomial(series.one(N - top), -1, top)
    for k in range(top - 2, 0, -2):
        u = series.div_binomial(series.concat(series.one(1), u), -1, k)
    b = series.concat(series.one(0), u)
    q_q = qfactory.pentagonal(1, N)
    # (q^2;q^2)_inf is (q;q)_inf at q^2: its coefficients at even exponents.
    q2_q2 = series.from_terms(dict(zip(range(0, N + 1, 2), q_q.coeffs)), N)
    return _compare_series("euler_identity", f"order <= {N}", [
        ({"failed_subcheck": "euler:neg_vs_odd_inverse"}, a.coeffs, b.coeffs),
        ({"failed_subcheck": "euler:neg_vs_even_over_full"}, a.coeffs,
         series.div(q2_q2, q_q).coeffs),
    ])


def _triangular(N: int):
    """The triangular numbers j(j+1)/2 <= N, j >= 0: 0, 1, 3, 6, ..."""
    return takewhile(N.__ge__, accumulate(count()))


def check_identity_suite(N: int) -> VerifyReport:
    """The exact-series identity chain, each built series a field of
    qfactory.sigma_family(N): the 1phi1 defining sum against its
    collapsed form Phi_2, the raw all-parts sum against Phi_2, and the
    pre-telescoping overlined sum against sigma = Phi_1.  The last two
    are the sigma-mex identities with the common factor P-bar cancelled:
    P-bar has constant term 1, so P-bar*A and P-bar*B agree to order N
    exactly when A and B do, first differing at the same n.  Then each sparse fast path against the
    defining product (-q;q)_inf: P-bar = 1/theta(-q) against (-q;q)_inf
    over the pentagonal series (q;q)_inf, which the euler check proves
    exact, and the pentagonal quotient (q^2;q^2)_inf / (q;q)_inf, whose
    two series build psi(q) and so the non-overlined sigma-mex series
    psi(q) / theta(-q), against (-q;q)_inf.  Then the Horner sum Phi_1
    against the Andrews-Dyson-Hickerson double sum, the one witness for
    sigma that shares no series kernel with it.  Then each sigma-mex
    series, as built, times theta(-q) against its numerator, exactly:
    the overlined one against Phi_1, the all-parts one against Phi_2,
    then the non-overlined one against Gauss's psi(q) = sum_{k>=0}
    q^(k(k+1)/2), its sparse form: sigma_no = psi(q) / theta(-q), built
    from the dense psi = (q^2;q^2)_inf^2 / (q;q)_inf.  A FAIL names its
    row in failed_subcheck."""
    family = qfactory.sigma_family(N)
    phi_1, phi_2 = family.phi_1.coeffs, family.phi_2.coeffs
    psi = series.from_terms(dict.fromkeys(_triangular(N), 1), N).coeffs
    rows = [
        ("identity:phi11_defining_vs_simplified", qfactory.phi11(N).coeffs, phi_2),
        ("identity:all_raw_vs_simplified", qfactory.all_mex_raw_sum(N).coeffs, phi_2),
        ("identity:overlined_telescoped", qfactory.overlined_mex_weighted_sum(N).coeffs, phi_1),
        ("identity:pbar_theta", family.pbar.coeffs,
         series.div(qfactory.pochhammer(N), qfactory.pentagonal(1, N)).coeffs),
        ("identity:pentagonal",
         series.div(qfactory.pentagonal(2, N), qfactory.pentagonal(1, N)).coeffs,
         qfactory.pochhammer(N).coeffs),
        ("identity:sigma_adh", phi_1, qfactory.sigma_adh(N).coeffs),
        *((f"identity:{variant.value}_times_theta", series.mul(
            getattr(family, variant.value), qfactory.theta_neg(N)).coeffs, numerator)
          for variant, numerator in ((MexVariant.OVERLINED, phi_1), (MexVariant.ALL, phi_2),
                                     (MexVariant.NON_OVERLINED, psi))),
    ]
    return _compare_series("identity_suite", f"order <= {N}", [
        ({"failed_subcheck": sub}, a, b) for sub, a, b in rows])


def check_arithmetic(N: int) -> VerifyReport:
    """The arithmetic laws of the three sigma-mex series as built, to
    order N.  The all-parts one mod 4 against its closed form: 1 at n = 0,
    0 at the squares n >= 1 and 2 elsewhere.  The 2^d overpartitions of a
    class with d distinct parts share one mex_all, so a class with d >= 2
    adds 0 mod 4; the d = 1 classes k^(n/k), k | n, add 4 for k = 1 and 2
    for each k >= 2, so 2(tau(n) + 1) in all, and tau(n) is odd exactly at
    the squares.  The non-overlined one mod 3: sigma_no(n) = 0 mod 3 when
    3 does not divide n, and sigma_no(3m) = Q(m) mod 3, Q the partitions
    into distinct parts: the series is (-q;q)_inf^3, and (1 + x)^3 =
    1 + x^3 mod 3.  Q is read from the defining product (-q;q)_inf, not
    from the pentagonal series that psi(q) / theta(-q), the series' build,
    starts from.  Then dominance: each overpartition's all-parts set
    contains its overlined and its non-overlined set, so mex_all >=
    max(mex_ov, mex_no), and sigma_all >= sigma_v for v overlined, then
    non-overlined.  Each dominance row compares sigma_all with
    max(sigma_all, sigma_v), which differ exactly where the law breaks,
    so its FAIL is (n, sigma_all(n), sigma_v(n)).  A FAIL names its row
    in failed_subcheck."""
    family = qfactory.sigma_family(N)
    sigma = {v: getattr(family, v.value).coeffs for v in MexVariant}
    all_mod_4 = [1] + [2] * N
    for k in range(1, math.isqrt(N) + 1):
        all_mod_4[k * k] = 0
    no_mod_3 = [0] * (N + 1)
    no_mod_3[::3] = [c % 3 for c in qfactory.pochhammer(N // 3).coeffs]
    rows = [
        ("arithmetic:all_mod_4", [c & 3 for c in sigma[MexVariant.ALL]], all_mod_4),
        ("arithmetic:nonoverlined_mod_3",
         [c % 3 for c in sigma[MexVariant.NON_OVERLINED]], no_mod_3),
        *((f"arithmetic:all_ge_{v.value}", sigma[MexVariant.ALL],
           list(map(max, sigma[MexVariant.ALL], sigma[v])))
          for v in (MexVariant.OVERLINED, MexVariant.NON_OVERLINED)),
    ]
    return _compare_series("arithmetic", f"order <= {N}", [
        ({"failed_subcheck": sub}, a, b) for sub, a, b in rows])


COUNT_SERIES_ORDER = 300  # the count-series laws in a default run: every m <= 25


def check_count_series(N: int) -> VerifyReport:
    """The laws of the per-m count series c_m = qfactory.mex_count_gf, to
    order N, read from their tails #{mex >= m}, summed over every feasible
    m from the largest down.  For each variant: the tail at m = 1, every
    overpartition, against P-bar, then the sum of the tails against the
    sigma-mex series, as sum_m m c_m = sum_m #{mex >= m}.  Then
    dominance: each overpartition's all-parts set contains its overlined
    and its non-overlined set, so its mex_all is at least the other two,
    and the all-parts tail at m is at least the tail of v at m, for v
    overlined, then non-overlined, one row per m.  Each dominance row
    compares the all-parts tail with max(all-parts tail, tail of v), so
    its FAIL is (n, #all, #v) with the metric m.  A FAIL names its row in
    failed_subcheck."""
    ms = qfactory.feasible_mex_values(N)
    tails = {}  # tails[v][m]: #{mex >= m} by n
    for v in MexVariant:
        tail, tails[v] = [0] * (N + 1), {}
        for m in reversed(ms):
            c = qfactory.mex_count_gf(v, m, N).coeffs
            tail = tails[v][m] = list(map(operator.add, tail, c))
    family = qfactory.sigma_family(N)
    rows = []
    for v in MexVariant:
        rows += [({"failed_subcheck": f"count_series:{v.value}_sum"}, tails[v][1],
                  family.pbar.coeffs),
                 ({"failed_subcheck": f"count_series:{v.value}_weighted"},
                  list(map(sum, zip(*tails[v].values()))), getattr(family, v.value).coeffs)]
    rows += [({"failed_subcheck": f"count_series:all_ge_{v.value}", "m": m},
              tails[MexVariant.ALL][m], list(map(max, tails[MexVariant.ALL][m], tails[v][m])))
             for v in (MexVariant.OVERLINED, MexVariant.NON_OVERLINED) for m in ms]
    return _compare_series("count_series", f"order <= {N}", rows)


MOD2_CHECK_ORDER = 1000  # GF(2) series are compared with Z mod 2 up to here


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # parity bytes to base-2 digits


def _bits_mod_2(s: Series) -> int:
    """The coefficients of s mod 2 as a bitmask, bit n for q^n, by C-level
    passes: the parity bytes, highest power first, read as base-2 digits."""
    return int(bytes(map((1).__and__, reversed(s.coeffs))).translate(_BIT_DIGITS), 2)


def _lowest(bits: int) -> int:
    """The exponent of the lowest set bit of bits > 0."""
    return (bits & -bits).bit_length() - 1


def _parity_sweep(name: str, n_max: int, reads, odd: int) -> VerifyReport:
    """The report on the claim that each read (where, field), a field of
    qfactory.sigma_family, is odd up to n_max exactly at the set bits of
    the closed-form bitmask odd, q^0 included, so a PASS means every read
    equals odd in all n_max + 1 bits.  The family is built once over GF(2)
    to n_max and once over Z to MOD2_CHECK_ORDER.  The rows, bitmasks, in
    order: each read's integer series mod 2 against its GF(2) bits up to
    MOD2_CHECK_ORDER, where "mod2:<where>", then each read against odd,
    where the read's own.  They are judged by _judge: a FAIL is (n, bit
    expected, bit read) at the lowest n any row differs, with the first
    row that differs there.  Refuses n_max < 1 before any build."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = min(MOD2_CHECK_ORDER, n_max)
    gf2, z = qfactory.sigma_family(n_max, ring=series.GF2), qfactory.sigma_family(m)
    reads = [(where, getattr(gf2, field).bits, getattr(z, field)) for where, field in reads]
    window = (1 << (m + 1)) - 1
    rows = [({"where": f"mod2:{where}"}, _bits_mod_2(full), bits & window)
            for where, bits, full in reads]
    rows += [({"where": where}, odd, bits) for where, bits, _ in reads]
    return _judge(name, f"1 <= n <= {n_max}", (
        (n, a >> n & 1, b >> n & 1, metrics)
        for metrics, a, b in rows if a != b for n in [_lowest(a ^ b)]))


def check_parity_all_even(n_max: int) -> VerifyReport:
    """All-parts sigma-mex and the overpartition numbers are even for every
    1 <= n <= n_max; computed mod 2."""
    return _parity_sweep("parity_all_even", n_max, [
        ("overpartition_number", "pbar"), ("sigma_mex_all", MexVariant.ALL.value)], 1)


DENSITY_FLOOR = 0.85  # least even-density over [1, n_max]
DENSITY_TREND_SLACK = 0.01  # how far it may lie below that over [1, n_max/4]
DENSITY_MIN_N = 107  # below it even the proven pentagonal bits miss DENSITY_FLOOR


def _density_report(name: str, odd_bits: int, n_max: int) -> VerifyReport:
    """Density of even positions over [1, X] for dyadic prefixes X."""
    rng_desc = f"1 <= n <= {n_max}"

    def density(upto: int) -> float:
        mask = ((1 << (upto + 1)) - 1) & ~1  # positions 1..upto
        odd = (odd_bits & mask).bit_count()
        return 1.0 - odd / upto

    prefixes = {}
    x = n_max
    while x >= max(4, n_max // 8):
        prefixes[x] = density(x)
        x //= 2
    final = density(n_max)
    quarter = density(max(1, n_max // 4))
    metrics = {f"density_upto_{x}": d for x, d in sorted(prefixes.items())}
    metrics["density"] = final
    ok = final >= DENSITY_FLOOR and final >= quarter - DENSITY_TREND_SLACK
    return VerifyReport(name, PASS if ok else FAIL, rng_desc, metrics=metrics)


def check_parity_density(n_max: int) -> VerifyReport:
    """The overlined sigma-mex is almost always even: regression guard on
    the observed even-density over [1, n_max] and its dyadic trend.  Every
    bit read is first checked against its closed form: in the
    Andrews-Dyson-Hickerson sum for sigma the j and -j terms cancel mod 2,
    so sigma = (q;q)_inf mod 2, and with P-bar = 1 mod 2 the overlined
    sigma-mex is odd exactly at the generalized pentagonal numbers.  On a
    PASS the read equals those bits, so the density is measured on them."""
    if n_max < DENSITY_MIN_N:
        raise ValueError(f"n_max must be >= {DENSITY_MIN_N} for a meaningful density")
    name = "parity_density"
    odd = qfactory.pentagonal(1, n_max, ring=series.GF2).bits
    report = _parity_sweep(name, n_max, [("sigma_mex_overlined", MexVariant.OVERLINED.value)], odd)
    return _density_report(name, odd, n_max) if report.passed else report


def check_triangular_parity(n_max: int) -> VerifyReport:
    """The non-overlined sigma-mex is odd exactly at n = j(j+1)/2, j >= 0."""
    return _parity_sweep("triangular_parity", n_max, [
        ("sigma_mex_nonoverlined", MexVariant.NON_OVERLINED.value),
    ], sum(1 << t for t in _triangular(n_max)))


# The grid starts at 100: e^(pi sqrt(n))/(4n) is judged only in its regime.
DEFAULT_ASYM_POINTS = (100, 400, 900, 1600, 2500)
ASYM_FINAL_DEV = 0.25
ASYM_STEP_SLACK = 1.02


def asym_ratio_table(gf: Series) -> VerifyReport:
    """Exact overlined sigma-mex, read from gf, against e^(pi sqrt(n))/(4n).

    Passes iff |ratio - 1| is non-increasing (up to ASYM_STEP_SLACK) across
    DEFAULT_ASYM_POINTS, and the deviation at the largest point is below
    ASYM_FINAL_DEV.  With e^(pi sqrt(n)) = 2^x, each ratio is the integer
    quotient 4n gf[n] / 2^int(x), divided by 2^(x - int(x)).
    """
    name = "asym_ratio"
    rng_desc = f"points {list(DEFAULT_ASYM_POINTS)}"
    if gf.trunc_order < DEFAULT_ASYM_POINTS[-1]:
        raise ValueError(
            f"gf has order {gf.trunc_order}, below the largest point {DEFAULT_ASYM_POINTS[-1]}"
        )
    devs = []
    for n in DEFAULT_ASYM_POINTS:
        x = math.pi * math.sqrt(n) / math.log(2)
        ratio = _quotient(4 * n * gf[n], 1 << int(x)) / 2 ** (x - int(x))
        devs.append((n, abs(ratio - 1.0)))
    metrics = {f"dev_at_{n}": d for n, d in devs}
    ok = devs[-1][1] < ASYM_FINAL_DEV
    for (n0, d0), (n1, d1) in zip(devs, devs[1:]):
        if d1 > d0 * ASYM_STEP_SLACK:
            ok = False
            metrics["monotonicity_break_at"] = n1
            break
    return VerifyReport(name, PASS if ok else FAIL, rng_desc, metrics=metrics)


# Degree-4 prefix of the sigma(e^-t) expansion at t -> 0+, with the
# magnitude of the next coefficient for the tolerance band.
_SIGMA_TAYLOR = (2.0, -2.0, 5.0, -55.0 / 3.0, 1073.0 / 12.0)
_SIGMA_NEXT_COEFF = 32671.0 / 60.0
# At t >= 0.05 the tail past q^400 is below e^-20 per unit coefficient.
SIGMA_TAYLOR_T = (0.05, 0.1)
SIGMA_TAYLOR_ORDER = 400


def check_sigma_taylor() -> VerifyReport:
    """Truncated sigma(q) evaluated at q = e^-t, t in SIGMA_TAYLOR_T,
    against the degree-4 expansion polynomial, within twice the next
    term's magnitude."""
    name = "sigma_taylor"
    rng_desc = f"t in {list(SIGMA_TAYLOR_T)}"
    sigma = qfactory.sigma_family(SIGMA_TAYLOR_ORDER).phi_1
    metrics = {}
    for t in SIGMA_TAYLOR_T:
        value = _evaluate(sigma, math.exp(-t))
        poly = math.fsum(c * t**k for k, c in enumerate(_SIGMA_TAYLOR))
        bound = 2.0 * _SIGMA_NEXT_COEFF * t**5
        err = abs(value - poly)
        metrics[f"err_at_t={t}"] = err
        if err > bound:
            return VerifyReport(
                name, FAIL, rng_desc, first_failure=(t, poly, value), metrics=metrics
            )
    return VerifyReport(name, PASS, rng_desc, metrics=metrics)


INGHAM_T = (0.30, 0.25, 0.20)  # the points t, in the order they are judged


def check_ingham_scaling(gf: Series) -> VerifyReport:
    """The overlined sigma-mex series gf at q = e^-t, rescaled by the
    Tauberian growth sqrt(t)/sqrt(pi) * e^(pi^2/(4t)), approaches 1
    monotonically as t decreases through INGHAM_T; also checks the weakly
    increasing coefficient precondition over the whole order."""
    N = gf.trunc_order
    # From order 800 on, the truncation tail at the smallest t in INGHAM_T
    # is below e^(-0.2 * 800) = e^-160 per unit coefficient.
    if N < 800:
        raise ValueError("order must be >= 800 for a trustworthy tail")
    name = "ingham_scaling"
    rng_desc = f"N={N}, t in {list(INGHAM_T)}"
    c = gf.coeffs
    drops = list(map(operator.lt, c[1:], c))  # drops[n]: gf[n + 1] < gf[n]
    if True in drops:
        n = drops.index(True)
        return VerifyReport(
            name, FAIL, rng_desc, first_failure=(n, c[n], c[n + 1]),
            metrics={"where": "weakly_increasing"},
        )
    scaled = [_evaluate(gf, math.exp(-t)) * math.sqrt(math.pi) / math.sqrt(t)
              * math.exp(-math.pi**2 / (4 * t)) for t in INGHAM_T]
    metrics = {f"scaled_at_t={t}": s for t, s in zip(INGHAM_T, scaled)}
    devs = [abs(s - 1.0) for s in scaled]
    ok = all(map(math.isfinite, scaled)) and all(
        d1 <= d0 for d0, d1 in zip(devs, devs[1:])
    )
    return VerifyReport(name, PASS if ok else FAIL, rng_desc, metrics=metrics)


# --------------------------------------------------------------------------
# The checks the CLI runs, in a fixed order

PARITY_SWEEP_N = 10000  # the least n_max of parity_all_even and parity_density
TRIANGULAR_N = 5000  # the least n_max of triangular_parity


def _overlined(order: int) -> Series:  # read by asym_ratio and ingham_scaling
    asym_n = max(DEFAULT_ASYM_POINTS[-1], order)
    return qfactory.sigma_family(asym_n).overlined


#: Every check the CLI runs, in run order: name -> check(order, oracle_n_max).
#: A check with a least size of its own (the three parity sweeps,
#: asym_ratio and ingham_scaling) runs at max(that size, order): order
#: only deepens it.
CHECKS = {
    **{
        f"gf_vs_oracle:{v.value}": lambda order, n, v=v: check_gf_vs_oracle(v, n)
        for v in MexVariant
    },
    "euler": lambda order, n: check_euler_identity(order),
    "identities": lambda order, n: check_identity_suite(order),
    "parity_all_even": lambda order, n: check_parity_all_even(max(PARITY_SWEEP_N, order)),
    "parity_density": lambda order, n: check_parity_density(max(PARITY_SWEEP_N, order)),
    "triangular_parity": lambda order, n: check_triangular_parity(max(TRIANGULAR_N, order)),
    "asym_ratio": lambda order, n: asym_ratio_table(_overlined(order)),
    "sigma_taylor": lambda order, n: check_sigma_taylor(),
    "ingham_scaling": lambda order, n: check_ingham_scaling(_overlined(order)),
    "arithmetic": lambda order, n: check_arithmetic(order),
    "count_series": lambda order, n: check_count_series(COUNT_SERIES_ORDER),
}

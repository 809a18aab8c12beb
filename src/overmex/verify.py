"""Executable renderings of the theorems: identity equalities to order N,
parity sweeps, density measurements, and asymptotic ratio tables.

Each check returns a VerifyReport; failures carry a concrete witness, and
nothing here raises on a mathematical mismatch.  The identity checks and
gf_vs_oracle are each a table of comparisons in a fixed order, and the
first failing row is reported: its witness and, in the metrics, its
name.  Each check is one fixed experiment: its tolerances, grids and
orders are module constants, and it takes only what its callers vary.
The three parity checks are one sweep, _parity_sweep, over series built
over GF(2) (series.GF2).  Each read is built once, compared to order
1000 with its integer series mod 2, then at every n <= n_max, q^0
included, with the closed-form bitmask of the n where it is odd (q^0
only, the generalized pentagonal or the triangular numbers): whole-int
bit operations, no Python step per n.  A FAIL's n is the lowest set bit
of the mismatch, and its where names the read that differs, as
mod2:<read> in the integer comparison.
The float checks sum and divide exact integers, rounding to a float only
at the end, so they report at any order: a value past the float range is
inf.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import reduce
from itertools import accumulate, count, takewhile

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


def _compare_series(name: str, range_desc: str, parts: Sequence[tuple]) -> VerifyReport:
    """The first (subcheck, a, b) row of parts whose series differ up to
    the smaller order, as a FAIL with witness (n, a[n], b[n]) at its lowest
    such n and failed_subcheck the row's name; PASS if no row differs."""
    for subcheck, a, b in parts:
        n = min(a.trunc_order, b.trunc_order)
        x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
        if x != y:
            i = list(map(operator.ne, x, y)).index(True)
            return VerifyReport(
                name, FAIL, range_desc, first_failure=(i, x[i], y[i]),
                metrics={"failed_subcheck": subcheck},
            )
    return VerifyReport(name, PASS, range_desc)


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
    n <= max(n_max, count_n_max), which the three variants' checks share;
    the smallest failing n is reported.  For n <= LITERAL_CHECK_N each
    histogram is first compared with the literal one, from each
    overpartition's part sets, taken one by one, as bitmasks."""
    if count_n_max is None:
        count_n_max = n_max
    name = f"gf_vs_oracle:{variant.value}"
    rng = f"sigma n <= {n_max}, counts n <= {count_n_max}"
    gf = qfactory.sigma_mex_gf(variant, n_max)
    count_gfs = {
        m: qfactory.mex_count_gf(variant, m, count_n_max)
        for m in qfactory.feasible_mex_values(count_n_max)
    }
    for n, hists in enumerate(combinat.mex_histograms(max(n_max, count_n_max))):
        counts = hists[variant]
        rows = []  # (metrics, expected, got), in the order they are judged
        if n <= LITERAL_CHECK_N:
            literal = combinat.literal_mex_histograms(n)[variant]
            rows += [({"where": "literal", "m": m}, literal[m], counts.get(m, 0))
                     for m in sorted(literal.keys() | counts.keys())]
        if n <= n_max:
            rows.append(({"where": "sigma"}, combinat.mex_sum(counts), gf[n]))
        if n <= count_n_max:
            rows += [({"where": "count", "m": m}, counts.get(m, 0), gf_m[n])
                     for m, gf_m in count_gfs.items()]
        for metrics, expected, got in rows:
            if expected != got:
                return VerifyReport(
                    name, FAIL, rng, first_failure=(n, expected, got), metrics=metrics
                )
    return VerifyReport(name, PASS, rng)


def check_euler_identity(N: int) -> VerifyReport:
    """(-q;q)_inf = 1/(q;q^2)_inf = (q^2;q^2)_inf / (q;q)_inf to order N."""
    if N < 1:
        raise ValueError("order must be >= 1")
    a = qfactory.pochhammer(+1, N)
    # 1/(q;q^2)_inf, one factor 1/(1 - q^k) at a time from the largest odd
    # k <= N down: prod_{odd j>=k} 1/(1 - q^j) = 1 + q^k U_k with U_k of
    # order N - k, and U_k = (1 + q^2 U_(k+2)) / (1 - q^k).
    top = N - 1 + N % 2
    u = series.div_binomial(series.one(N - top), -1, top)
    for k in range(top - 2, 0, -2):
        u = series.div_binomial(series.concat(series.one(1), u), -1, k)
    b = series.concat(series.one(0), u)
    q_q = qfactory.pochhammer(-1, N)
    # (q^2;q^2)_inf is (q;q)_inf at q^2: its coefficients at even exponents.
    q2_q2 = series.from_terms(dict(zip(range(0, N + 1, 2), q_q.coeffs)), N)
    return _compare_series("euler_identity", f"order <= {N}", [
        ("euler:neg_vs_odd_inverse", a, b),
        ("euler:neg_vs_even_over_full", a, series.div(q2_q2, q_q)),
    ])


def check_identity_suite(N: int) -> VerifyReport:
    """The exact-series identity chain: the 1phi1 defining sum against its
    collapsed form, the raw all-parts sum against the collapsed 1phi1, and
    the pre-telescoping overlined sum against sigma.  The last two are the
    sigma-mex identities with the common factor P-bar cancelled: P-bar has
    constant term 1, so P-bar*A and P-bar*B agree to order N exactly when
    A and B do, first differing at the same n.  Then each sparse fast
    path against its defining product: P-bar = 1/theta(-q) against
    (-q;q)_inf / (q;q)_inf, and the pentagonal quotient (q^2;q^2)_inf /
    (q;q)_inf, whose two series build psi(q) and so the non-overlined
    sigma-mex series psi(q) / theta(-q), against (-q;q)_inf (the euler
    check builds the same products).  Then the Horner sum for sigma
    against the Andrews-Dyson-Hickerson double sum, the one witness for
    sigma that shares no series kernel with it.  Last, the all-parts
    sigma-mex series mod 4 against its closed form: 1 at n = 0, 0 at the
    squares n >= 1 and 2 elsewhere.  The 2^d overpartitions of a class
    with d distinct parts share one mex_all, so a class with d >= 2 adds
    0 mod 4; the d = 1 classes k^(n/k), k | n, add 4 for k = 1 and 2
    for each k >= 2, so 2(tau(n) + 1) in all, and tau(n) is odd exactly
    at the squares."""
    all_mod_4 = series.add_terms(
        Series((1,) + (2,) * N), {k * k: -2 for k in range(1, math.isqrt(N) + 1)}
    )
    return _compare_series("identity_suite", f"order <= {N}", [
        ("identity:phi11_defining_vs_simplified",
         qfactory.phi11(N), qfactory.phi11_simplified(N)),
        ("identity:all_raw_vs_simplified",
         qfactory.all_mex_raw_sum(N), qfactory.phi11_simplified(N)),
        ("identity:overlined_telescoped",
         qfactory.overlined_mex_weighted_sum(N), qfactory.ramanujan_sigma(N)),
        ("identity:pbar_theta", qfactory.overpartition_gf(N),
         series.div(qfactory.pochhammer(+1, N), qfactory.pochhammer(-1, N))),
        ("identity:pentagonal",
         series.div(qfactory.pentagonal(2, N), qfactory.pentagonal(1, N)),
         qfactory.pochhammer(+1, N)),
        ("identity:sigma_adh", qfactory.ramanujan_sigma(N), qfactory.sigma_adh(N)),
        ("identity:all_mod_4", Series(tuple(
            map((3).__and__, qfactory.sigma_mex_gf(MexVariant.ALL, N).coeffs))), all_mod_4),
    ])


MOD2_CHECK_ORDER = 1000  # GF(2) series are compared with Z mod 2 up to here


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # parity bytes to base-2 digits


def _lowest(bits: int) -> int:
    """The exponent of the lowest set bit of bits > 0."""
    return (bits & -bits).bit_length() - 1


def _parity_sweep(name: str, n_max: int, builds, odd: int) -> VerifyReport:
    """The report on the claim that each build (where, builder, args), the
    order N left off args, is odd up to n_max exactly at the set bits of
    the closed-form bitmask odd, q^0 included, so a PASS means every read
    equals odd in all n_max + 1 bits.  Each GF(2) series is first compared
    up to MOD2_CHECK_ORDER with its integer series mod 2, packed highest
    power first into a bitmask by C-level passes; a FAIL there is (n,
    integer bit, GF(2) bit) with where "mod2:<where>".  Then each read is
    XORed with odd; a FAIL is (n, closed-form bit, read bit) at the lowest
    n any read differs, with where the first read that differs there.
    Refuses n_max < 1 before any build."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rng_desc = f"1 <= n <= {n_max}"
    m = min(MOD2_CHECK_ORDER, n_max)
    reads = []
    for where, builder, args in builds:
        bits = builder(*args, n_max, ring=series.GF2)
        full = builder(*args, m)
        digits = bytes(map((1).__and__, reversed(full.coeffs))).translate(_BIT_DIGITS)
        diff = (int(digits, 2) ^ bits.bits) & ((1 << (m + 1)) - 1)
        if diff:
            n = _lowest(diff)
            return VerifyReport(
                name, FAIL, rng_desc, first_failure=(n, full[n] % 2, bits[n]),
                metrics={"where": f"mod2:{where}"},
            )
        reads.append((where, bits))
    diff = reduce(operator.or_, (bits.bits ^ odd for _, bits in reads))
    if diff:
        n = _lowest(diff)
        where, bits = next((w, b) for w, b in reads if b[n] != odd >> n & 1)
        return VerifyReport(
            name, FAIL, rng_desc, first_failure=(n, odd >> n & 1, bits[n]),
            metrics={"where": where},
        )
    return VerifyReport(name, PASS, rng_desc)


def check_parity_all_even(n_max: int) -> VerifyReport:
    """All-parts sigma-mex and the overpartition numbers are even for every
    1 <= n <= n_max; computed mod 2."""
    return _parity_sweep("parity_all_even", n_max, [
        ("overpartition_number", qfactory.overpartition_gf, ()),
        ("sigma_mex_all", qfactory.sigma_mex_gf, (MexVariant.ALL,)),
    ], 1)


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
    report = _parity_sweep(name, n_max, [
        ("sigma_mex_overlined", qfactory.sigma_mex_gf, (MexVariant.OVERLINED,)),
    ], odd)
    return _density_report(name, odd, n_max) if report.passed else report


def check_triangular_parity(n_max: int) -> VerifyReport:
    """The non-overlined sigma-mex is odd exactly at n = j(j+1)/2, j >= 0."""
    triangular = takewhile(n_max.__ge__, accumulate(count()))  # 0, 1, 3, 6, ... <= n_max
    return _parity_sweep("triangular_parity", n_max, [
        ("sigma_mex_nonoverlined", qfactory.sigma_mex_gf, (MexVariant.NON_OVERLINED,)),
    ], sum(1 << t for t in triangular))


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
    sigma = qfactory.ramanujan_sigma(SIGMA_TAYLOR_ORDER)
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

def _overlined(order: int) -> Series:  # read by asym_ratio and ingham_scaling
    asym_n = max(DEFAULT_ASYM_POINTS[-1], order)
    return qfactory.sigma_mex_gf(MexVariant.OVERLINED, asym_n)


#: Every check the CLI runs, in run order: name -> check(order, oracle_n_max).
CHECKS = {
    **{
        f"gf_vs_oracle:{v.value}": lambda order, n, v=v: check_gf_vs_oracle(v, n)
        for v in MexVariant
    },
    "euler": lambda order, n: check_euler_identity(order),
    "identities": lambda order, n: check_identity_suite(order),
    "parity_all_even": lambda order, n: check_parity_all_even(10000),
    "parity_density": lambda order, n: check_parity_density(10000),
    "triangular_parity": lambda order, n: check_triangular_parity(5000),
    "asym_ratio": lambda order, n: asym_ratio_table(_overlined(order)),
    "sigma_taylor": lambda order, n: check_sigma_taylor(),
    "ingham_scaling": lambda order, n: check_ingham_scaling(_overlined(order)),
}

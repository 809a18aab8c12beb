"""Truncated formal power series over two rings, Z and GF(2).

Every generating function in this package lives in Z[[q]] truncated at a
fixed order N: a Series keeps the coefficients of q^0 .. q^N and nothing
else.  Binary operations silently truncate to the smaller of the two
operands' orders; callers build every factor at one global N, so the
common case never loses information.

This module is the Z ring the q-series builders are written against:
one, from_terms, add, add_terms, concat, mul, div, mul_binomial,
div_binomial and binomial_product, and pack and unpack, which hold
several series as the lanes of one integer per coefficient, so that one
pass of a Z-linear kernel serves them all.  GF2 is the part of it that
the builders with a `ring` keyword call mod 2, on Python-int bitmasks:
all of it but mul_binomial, binomial_product, pack and unpack.  The
parity checks run every GF2 kernel but add_terms, which only
qfactory._negq_sum calls, on numerators with a term at or past the next
one's lowest exponent: over GF(2) only the tests build such a sum.  A
monomial c q^k is from_terms({k: c}, N), so a shift or a scaling is a
product with one; concat(head, tail) places a tail right above a head,
the one kernel that returns a higher order than its operands.  Each
kernel's docstring gives its cost.

Values are immutable; all operations are pure functions returning new
values.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, compress


class Series:
    """Immutable coefficients of q^0 .. q^trunc_order, exact Python integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if not coeffs:
            raise ValueError("a Series needs at least the q^0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("a Series is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, Series) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{head}{tail}], N={self.trunc_order})"


def add(a: Series, b: Series) -> Series:
    n = min(a.trunc_order, b.trunc_order)
    return Series(tuple(map(operator.add, a.coeffs[: n + 1], b.coeffs[: n + 1])))


def add_terms(a: Series, terms: dict) -> Series:
    """a + sum c q^e over the (e, c) items of terms, exponents past a's
    order dropped: a's coefficients copied and only the terms' own added
    in, where add(a, from_terms(terms, N)) would make every one anew."""
    if min(terms, default=0) < 0:
        raise ValueError("exponents must be non-negative")
    coeffs = list(a.coeffs)
    for e, c in terms.items():
        if e < len(coeffs):
            coeffs[e] += c
    return Series(tuple(coeffs))


def concat(head: Series, tail: Series) -> Series:
    """head + q^(N_head + 1) tail, of order N_head + 1 + N_tail: tail's
    coefficients placed right after head's, nothing truncated."""
    return Series(head.coeffs + tail.coeffs)


def from_terms(terms: dict, trunc_order: int) -> Series:
    """The series sum c q^e over the (e, c) items of terms, the terms
    added to zero: exponents past the truncation order are dropped."""
    if trunc_order < 0:
        raise ValueError("truncation order must be non-negative")
    return add_terms(Series((0,) * (trunc_order + 1)), terms)


def one(trunc_order: int) -> Series:
    return from_terms({0: 1}, trunc_order)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order N, exact arithmetic:
    the nonzero pairs with exponents summing to at most N are walked from
    the operand with fewer nonzero terms, O(nnz(a) * nnz(b)).  Two
    theta-like series of about sqrt(N) terms multiply in O(N), a sparse
    by a dense one in O(N * nnz), and a monomial shifts and scales."""
    n = min(a.trunc_order, b.trunc_order)
    x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
    kx, ky = list(compress(range(n + 1), x)), list(compress(range(n + 1), y))
    if len(ky) < len(kx):
        x, y, kx, ky = y, x, ky, kx
    # One C-level map over y per term of x would not be faster: at N = 300
    # to 4000 (2-core Xeon, Python 3.11) it won by at most 11%, with both
    # operands fully dense, and lost by up to 3x once y is half zero.
    out = [0] * (n + 1)
    for i in kx:
        c = x[i]
        for j in ky[: bisect_right(ky, n - i)]:
            out[i + j] += c * y[j]
    return Series(tuple(out))


def div(a: Series, d: Series) -> Series:
    """a / d truncated to the smaller order; d's constant term must be +1
    or -1.  The recurrence walks only d's nonzero terms, O(N * nnz(d)),
    each joining the walk when i reaches its exponent; each distinct
    coefficient multiplies the sum of its terms once (+-1 not at all)."""
    d0 = d.coeffs[0]
    if d0 not in (1, -1):
        raise ValueError(
            f"cannot divide by series with constant term {d0}; only units +-1 supported"
        )
    n = min(a.trunc_order, d.trunc_order)
    nz = [(k, dk) for k, dk in enumerate(d.coeffs[1 : n + 1], 1) if dk]
    groups = {dk: [] for _, dk in nz}  # dk -> its exponents joined so far
    joins = {k: groups[dk] for k, dk in nz}
    b = list(a.coeffs[: n + 1])
    for i in range(n + 1):
        if i in joins:
            joins[i].append(i)
        s = b[i]
        for dk, ks in groups.items():
            t = 0
            for k in ks:
                t += b[i - k]
            s -= t if dk == 1 else -t if dk == -1 else dk * t
        b[i] = d0 * s
    return Series(tuple(b))


def _check_binomial(coefficient: int, exponent: int) -> None:
    """The binomial kernels' contract, on both rings: the factor is
    (1 +- q^exponent) with exponent >= 1."""
    if exponent < 1:
        raise ValueError("binomial exponent must be positive")
    if coefficient not in (1, -1):
        raise ValueError(f"binomial coefficient must be +1 or -1, got {coefficient}")


def mul_binomial(a: Series, coefficient: int, exponent: int) -> Series:
    """a * (1 +- q^e): c_i +- c_(i-e), one C-level map over the
    coefficients: phi11's numerator and mex_count_gf's (1 - q^j) factors."""
    _check_binomial(coefficient, exponent)
    op = operator.add if coefficient > 0 else operator.sub
    c = a.coeffs
    return Series((*c[:exponent], *map(op, c[exponent:], c)))


def div_binomial(a: Series, coefficient: int, exponent: int) -> Series:
    """a / (1 +- q^e): out_i = a_i -+ out_(i-e).  While e^2 < N + 1, one
    accumulate per residue class mod e; for +1, as 1/(1 + q^e) =
    (1 - q^e)/(1 - q^(2e)), one C-level pass by (1 - q^e) first and then
    classes mod 2e, two big-int operations per coefficient.  Else each
    e-block is combined with the block before it: one per coefficient."""
    _check_binomial(coefficient, exponent)
    out = list(a.coeffs)
    n, e = len(out), exponent
    if e * e < n:
        if coefficient > 0:
            out[e:] = map(operator.sub, out[e:], out)
            e *= 2
        for r in range(e):
            out[r::e] = accumulate(out[r::e])
    else:
        op = operator.sub if coefficient > 0 else operator.add
        for s in range(e, n, e):
            out[s : s + e] = map(op, out[s : s + e], out[s - e : s])
    return Series(tuple(out))


def binomial_product(sign: int, trunc_order: int) -> Series:
    """prod_{e=1..N} (1 + sign q^e) to order N, in place from e = N down.
    P_e = prod_{j>e} (1 + sign q^j) is 1 plus terms from q^(e+1) up, so
    P_e (1 + sign q^e) only sets q^e to sign and adds sign P_e[i-e] at
    i >= 2e + 1: one C-level map over N - 2e coefficients per factor."""
    _check_binomial(sign, 1)
    op = operator.add if sign > 0 else operator.sub
    p, n = list(one(trunc_order).coeffs), trunc_order
    for e in range(n, 0, -1):
        p[2 * e + 1 :] = map(op, p[2 * e + 1 :], p[e + 1 : n - e + 1])
        p[e] = sign
    return Series(tuple(p))


def pack(parts, width: int) -> Series:
    """sum_i parts[i] 2^(width i) to the smallest part's order: each
    coefficient one integer holding part i in lane i, width bits wide.
    The kernels above are Z-linear in each series operand, so on one
    packed operand they do the work of all lanes in one pass (a
    multiplier or divisor stays unpacked), and unpack reads each lane
    back exactly if the coefficients of every lane of the result but the
    top one lie in [-2^(width-1), 2^(width-1)).  Horner's rule in
    2^width from the top lane down: two C-level passes per lane."""
    n = min(p.trunc_order for p in parts)
    acc = parts[-1].coeffs[: n + 1]
    for p in reversed(parts[:-1]):
        acc = map(operator.add, map(width.__rlshift__, acc), p.coeffs)
    return Series(tuple(acc))


def unpack(s: Series, k: int, width: int) -> list:
    """The k lanes of a series packed width bits a lane, each below the
    top read in [-2^(width-1), 2^(width-1)) and the top lane whatever its
    size: adding 2^(width-1) to every lane makes each lower lane's digits
    non-negative, so lane i is bits width i up to width (i + 1) of the
    biased coefficient, less 2^(width-1), and the top lane all bits from
    width (k - 1) up.  Three or four C-level passes per lane, and no
    biased copy of s kept."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    bias = sum(half << (width * i) for i in range(k))
    lanes = []
    for i in range(k):
        lane = map((width * i).__rrshift__, map(bias.__add__, s.coeffs))
        if i < k - 1:
            lane = map(mask.__and__, lane)
        lanes.append(Series(tuple(map((-half).__add__, lane))))
    return lanes


class GF2Series:
    """A series mod 2 truncated at trunc_order: bit n of `bits` is the
    coefficient of q^n."""

    __slots__ = ("bits", "trunc_order")

    def __init__(self, bits: int, trunc_order: int):
        self.bits = bits & ((1 << (trunc_order + 1)) - 1)
        self.trunc_order = trunc_order

    def __getitem__(self, n: int) -> int:
        return (self.bits >> n) & 1


def _exponents(bits: int, n: int) -> list:
    """The exponents <= n of the set bits, ascending: one pass over the
    binary digits from q^0 up, stopping at q^n."""
    digits = bin(bits)
    last = len(digits) - 1  # the digit of q^0; that of q^e is at last - e
    stop = max(2, last - n)  # past the "0b" prefix and the digit of q^n
    out = []
    i = digits.rfind("1", stop)
    while i >= 0:
        out.append(last - i)
        i = digits.rfind("1", stop, i)
    return out


def _shifted_sum(bits: int, exponents) -> int:
    """bits times sum q^e over the exponents, mod 2 and not truncated."""
    return reduce(operator.xor, map(bits.__lshift__, exponents), 0)


class _GF2Ring:
    """The part of this module's ring interface that the ring-generic
    builders call mod 2, on GF2Series values: every kernel but
    mul_binomial, binomial_product, pack and unpack (a bitmask holds one
    series).  div_binomial takes coefficient +-1 and refuses any other,
    as over Z; mod 2, (1 - q^k) and (1 + q^k) coincide."""

    def one(self, trunc_order: int) -> GF2Series:
        return self.from_terms({0: 1}, trunc_order)

    def from_terms(self, terms: dict, trunc_order: int) -> GF2Series:
        if trunc_order < 0 or min(terms, default=0) < 0:
            raise ValueError("truncation order and exponents must be non-negative")
        bits = 0
        for e, c in terms.items():
            if c % 2 and e <= trunc_order:
                bits ^= 1 << e
        return GF2Series(bits, trunc_order)

    def add(self, a: GF2Series, b: GF2Series) -> GF2Series:
        return GF2Series(a.bits ^ b.bits, min(a.trunc_order, b.trunc_order))

    def add_terms(self, a: GF2Series, terms: dict) -> GF2Series:
        return self.add(a, self.from_terms(terms, a.trunc_order))

    def concat(self, head: GF2Series, tail: GF2Series) -> GF2Series:
        n = head.trunc_order + 1
        return GF2Series(head.bits | tail.bits << n, n + tail.trunc_order)

    def mul(self, a: GF2Series, b: GF2Series) -> GF2Series:
        """Carry-less product: the denser operand shifted to each exponent
        <= N of the sparser one's set bits."""
        n = min(a.trunc_order, b.trunc_order)
        x, y = a.bits, b.bits
        if y.bit_count() < x.bit_count():
            x, y = y, x
        return GF2Series(_shifted_sum(y, _exponents(x, n)), n)

    def div(self, a: GF2Series, d: GF2Series) -> GF2Series:
        """a / d truncated to the smaller order; d's constant term must be 1.
        Mod 2, d(q)^(2^i) = d(q^(2^i)), and that is 1 mod q^(N+1) once
        2^i > N, so 1/d = prod_{2^i <= N} d(q^(2^i)): log2(N) products,
        each factor's exponents the last one's doubled, up to N."""
        if not d.bits & 1:
            raise ValueError("cannot divide by a series with even constant term")
        n = min(a.trunc_order, d.trunc_order)
        mask = (1 << (n + 1)) - 1
        out = a.bits & mask
        exponents = _exponents(d.bits, n)  # of d(q^(2^i)), from i = 0
        while len(exponents) > 1:
            out = _shifted_sum(out, exponents) & mask
            exponents = [2 * e for e in exponents[: bisect_right(exponents, n // 2)]]
        return GF2Series(out, n)

    def div_binomial(self, a: GF2Series, coefficient: int, exponent: int) -> GF2Series:
        """a / (1 + q^k) via 1/(1 + x) = prod_i (1 + x^(2^i)).  A zero
        dividend is returned as is: every step of Phi_2's Horner sum has
        one, its numerators 2^n q^(n+1 choose 2) being 0 mod 2 for n >= 1."""
        _check_binomial(coefficient, exponent)
        if not a.bits:
            return a
        n = a.trunc_order
        mask = (1 << (n + 1)) - 1
        out = a.bits
        s = exponent
        while s <= n:
            out = (out ^ (out << s)) & mask
            s *= 2
        return GF2Series(out, n)


GF2 = _GF2Ring()

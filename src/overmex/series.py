"""Truncated formal power series over two rings, Z and GF(2).

Every generating function in this package lives in Z[[q]] truncated at a
fixed order N: a Series keeps the coefficients of q^0 .. q^N and nothing
else.  Binary operations silently truncate to the smaller of the two
operands' orders; callers build every factor at one global N, so the
common case never loses information.

This module is the Z ring the q-series builders are written against
(one, zero, add, scale, shift, mul, mul_binomial, div_binomial); GF2 is
the same interface mod 2, on Python-int bitmasks.

Values are immutable and safe to share between workers; all operations
are pure functions returning new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Series:
    """Coefficients of q^0 .. q^trunc_order, exact Python integers."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a Series needs at least the q^0 coefficient")

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{head}{tail}], N={self.trunc_order})"


def from_coeffs(values: Sequence[int], trunc_order: int) -> Series:
    """Series with the given low-order coefficients, zero-padded up to N."""
    if trunc_order < 0:
        raise ValueError("trunc_order must be non-negative")
    if not values:
        raise ValueError("values must be non-empty")
    if trunc_order < len(values) - 1:
        raise ValueError(
            f"trunc_order {trunc_order} cannot hold {len(values)} coefficients"
        )
    coeffs = tuple(values) + (0,) * (trunc_order + 1 - len(values))
    return Series(coeffs)


def zero(trunc_order: int) -> Series:
    return from_coeffs([0], trunc_order)


def one(trunc_order: int) -> Series:
    return from_coeffs([1], trunc_order)


def add(a: Series, b: Series) -> Series:
    n = min(a.trunc_order, b.trunc_order)
    return Series(tuple(x + y for x, y in zip(a.coeffs[: n + 1], b.coeffs[: n + 1])))


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order, exact arithmetic.

    The outer loop runs over the operand with fewer nonzero coefficients,
    which makes products against sparse series (theta-like sums, single
    monomials) effectively linear.
    """
    n = min(a.trunc_order, b.trunc_order)
    ac = a.coeffs[: n + 1]
    bc = b.coeffs[: n + 1]
    if bc.count(0) > ac.count(0):
        ac, bc = bc, ac
    out = [0] * (n + 1)
    for i, ai in enumerate(ac):
        if ai:
            for j, bj in enumerate(bc[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return Series(tuple(out))


def invert(a: Series) -> Series:
    """Multiplicative inverse to order N; constant term must be +1 or -1."""
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise ValueError(
            f"cannot invert series with constant term {a0}; only units +-1 supported"
        )
    n = a.trunc_order
    nz = [(k, ak) for k, ak in enumerate(a.coeffs) if k > 0 and ak]
    b = [0] * (n + 1)
    b[0] = a0
    for i in range(1, n + 1):
        s = 0
        for k, ak in nz:
            if k > i:
                break
            s += ak * b[i - k]
        b[i] = -a0 * s
    return Series(tuple(b))


def evaluate_real(a: Series, q0: float) -> float:
    """Sum coeffs[n] * q0^n in double precision, Horner from the top down."""
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie in (0, 1), got {q0}")
    acc = 0.0
    for c in reversed(a.coeffs):
        acc = acc * q0 + c
    return acc


def mul_binomial(a: Series, coefficient: int, exponent: int) -> Series:
    """a * (1 + coefficient * q^exponent) in O(N) -- the Pochhammer workhorse."""
    if exponent < 1:
        raise ValueError("binomial exponent must be positive")
    n = a.trunc_order
    out = list(a.coeffs)
    for i in range(n, exponent - 1, -1):
        out[i] += coefficient * a.coeffs[i - exponent]
    return Series(tuple(out))


def div_binomial(a: Series, coefficient: int, exponent: int) -> Series:
    """a / (1 + coefficient * q^exponent) in O(N)."""
    if exponent < 1:
        raise ValueError("binomial exponent must be positive")
    out = list(a.coeffs)
    for i in range(exponent, a.trunc_order + 1):
        out[i] -= coefficient * out[i - exponent]
    return Series(tuple(out))


def shift(a: Series, k: int) -> Series:
    """a * q^k; coefficients pushed past the truncation order are dropped."""
    if k < 0:
        raise ValueError("shift must be non-negative")
    n = a.trunc_order
    if k == 0:
        return a
    if k > n:
        return zero(n)
    return Series((0,) * k + a.coeffs[: n + 1 - k])


def scale(a: Series, c: int) -> Series:
    return Series(tuple(c * x for x in a.coeffs))


def pad(a: Series, trunc_order: int) -> Series:
    """Zero-extend up to the given order (no-op if already there)."""
    if trunc_order < a.trunc_order:
        raise ValueError("pad cannot shrink a series; use truncate")
    return Series(a.coeffs + (0,) * (trunc_order - a.trunc_order))


def truncate(a: Series, trunc_order: int) -> Series:
    """Drop coefficients above the given order (which must not exceed N)."""
    if trunc_order > a.trunc_order:
        raise ValueError("cannot extend a truncated series")
    return Series(a.coeffs[: trunc_order + 1])


class GF2Series:
    """A series mod 2 truncated at trunc_order: bit n of `bits` is the
    coefficient of q^n."""

    __slots__ = ("bits", "trunc_order")

    def __init__(self, bits: int, trunc_order: int):
        self.bits = bits & ((1 << (trunc_order + 1)) - 1)
        self.trunc_order = trunc_order

    def __getitem__(self, n: int) -> int:
        return (self.bits >> n) & 1


class _GF2Ring:
    """The ring interface of this module, mod 2 and on GF2Series values.
    The binomial kernels take coefficient +-1, the only one the builders
    use; mod 2, (1 - q^k) and (1 + q^k) coincide."""

    def zero(self, trunc_order: int) -> GF2Series:
        return GF2Series(0, trunc_order)

    def one(self, trunc_order: int) -> GF2Series:
        return GF2Series(1, trunc_order)

    def add(self, a: GF2Series, b: GF2Series) -> GF2Series:
        return GF2Series(a.bits ^ b.bits, min(a.trunc_order, b.trunc_order))

    def scale(self, a: GF2Series, c: int) -> GF2Series:
        return a if c % 2 else GF2Series(0, a.trunc_order)

    def shift(self, a: GF2Series, k: int) -> GF2Series:
        return GF2Series(a.bits << k, a.trunc_order)

    def mul(self, a: GF2Series, b: GF2Series) -> GF2Series:
        """Carry-less product; walks only the set bits of the sparser operand."""
        n = min(a.trunc_order, b.trunc_order)
        x, y = a.bits, b.bits
        if y.bit_count() < x.bit_count():
            x, y = y, x
        out = 0
        while x:
            low = x & -x
            out ^= y << (low.bit_length() - 1)
            x ^= low
        return GF2Series(out, n)

    def mul_binomial(self, a: GF2Series, coefficient: int, exponent: int) -> GF2Series:
        return GF2Series(a.bits ^ (a.bits << exponent), a.trunc_order)

    def div_binomial(self, a: GF2Series, coefficient: int, exponent: int) -> GF2Series:
        """a / (1 + q^k) via 1/(1 + x) = prod_i (1 + x^(2^i))."""
        if exponent < 1:
            raise ValueError("binomial exponent must be positive")
        n = a.trunc_order
        mask = (1 << (n + 1)) - 1
        out = a.bits
        s = exponent
        while s <= n:
            out = (out ^ (out << s)) & mask
            s *= 2
        return GF2Series(out, n)


GF2 = _GF2Ring()

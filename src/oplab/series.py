"""Exact truncated power series over the integers in the formal variable q.

Everything here is exact. Coefficients are Python ints, truncation is a hard
cutoff at a fixed order, and no operation ever reads or writes an exponent
beyond that order. On top of the core arithmetic the module provides the
q-series building blocks used by the identity checkers: q-Pochhammer
products (qproduct: finite, infinite, dilated, any step), Gaussian binomial
polynomials, pentagonal and theta sums, and the partition and
overpartition generating functions.

Conventions:

* a series of order N holds coefficients for q^0 .. q^N inclusive;
* binary operations require both operands to have the same order;
* changing the order is always an explicit step (truncate, dilate);
* an infinite product or sum is truncated by dropping every factor or term
  whose minimal exponent exceeds the order, which is exact mod q^(N+1).
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, mul, sub
from typing import Sequence

__all__ = [
    "TruncatedSeries",
    "make",
    "zero",
    "one",
    "monomial",
    "qproduct",
    "gauss_binomial",
    "pentagonal_series",
    "theta_partial",
    "gauss_theta",
    "partition_gf",
    "overpartition_gf",
    "poch_ratio",
]


class TruncatedSeries:
    """Integer power series truncated (inclusively) at a fixed order.

    Instances are immutable; every operation returns a new series. Two
    series are equal only when both the order and all coefficients agree.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Sequence[int] = ()) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) > order + 1:
            raise ValueError(
                f"{len(coeffs)} coefficients exceed order {order} (max {order + 1})"
            )
        full = list(coeffs) + [0] * (order + 1 - len(coeffs))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_coeffs", tuple(full))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff(self, exponent: int) -> int:
        """Coefficient of q^exponent; exponents beyond the order are not knowable."""
        if exponent < 0 or exponent > self._order:
            raise IndexError(
                f"exponent {exponent} outside truncation range 0..{self._order}"
            )
        return self._coeffs[exponent]

    # -- arithmetic ---------------------------------------------------------

    def _same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self._order != other._order:
            raise ValueError(
                f"order mismatch: {self._order} vs {other._order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(
            self._order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(
            self._order, [a - b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self._order, [-a for a in self._coeffs])

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(self._order, [c * a for a in self._coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product mod q^(order+1)."""
        self._same_order(other)
        n = self._order
        a, b = self._coeffs, other._coeffs
        if a.count(0) < b.count(0):  # loop over the sparser operand
            a, b = b, a
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                out[i:] = map(add, out[i:], map(ai.__mul__, b[: n + 1 - i]))
        return TruncatedSeries(n, out)

    def shift(self, exponent: int) -> "TruncatedSeries":
        """Multiply by q^exponent, dropping anything pushed past the order."""
        if exponent < 0:
            raise ValueError("shift exponent must be >= 0")
        n = self._order
        out = [0] * (n + 1)
        if exponent <= n:  # past the order the slice would extend out
            out[exponent:] = self._coeffs[: n + 1 - exponent]
        return TruncatedSeries(n, out)

    def times_factor(self, exponent: int, sign: int = 1) -> "TruncatedSeries":
        """Multiply by the single factor (1 - sign*q^exponent) in O(order) time."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if exponent < 0:
            raise ValueError("factor exponent must be >= 0")
        out = list(self._coeffs)
        _times_factor_into(out, exponent, sign)
        return TruncatedSeries(self._order, out)

    def div_factor(self, exponent: int, sign: int = 1) -> "TruncatedSeries":
        """Divide by the single factor (1 - sign*q^exponent) in O(order) time.

        Division by a unit (exponent >= 1) is always well defined mod
        q^(order+1); the exponent-zero factor is not a unit and is rejected.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if exponent <= 0:
            raise ValueError("can only divide by factors with exponent >= 1")
        out = list(self._coeffs)
        _div_factor_into(out, exponent, sign)
        return TruncatedSeries(self._order, out)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod q^(order+1).

        Requires constant term +1 or -1 so that the inverse keeps integer
        coefficients. Uses the standard recurrence: with a0*b0 = 1 and
        sum_{i<=m} a_i b_{m-i} = 0 for m >= 1, each b_m is determined by the
        earlier ones.
        """
        a = self._coeffs
        c0 = a[0]
        if c0 not in (1, -1):
            raise ValueError(
                f"constant term must be +1 or -1 to invert, got {c0}"
            )
        n = self._order
        rev = a[:0:-1]  # a_n .. a_1, so rev[n-m:] is a_m .. a_1
        b = [c0]
        for m in range(1, n + 1):
            b.append(-c0 * sum(map(mul, b, rev[n - m :])))
        return TruncatedSeries(n, b)

    def truncate(self, new_order: int) -> "TruncatedSeries":
        """Re-truncate to a lower (or equal) order. Extension would fabricate
        coefficients that were never computed, so it is not allowed."""
        if new_order > self._order:
            raise ValueError(
                f"cannot extend order {self._order} to {new_order}: "
                "coefficients beyond the truncation are unknown"
            )
        return TruncatedSeries(new_order, self._coeffs[: new_order + 1])

    def dilate(self, ell: int, order: int) -> "TruncatedSeries":
        """Substitute q -> q^ell by re-indexing coefficients onto a series of
        the given order, dropping exponents that land past it.

        The source must be known through exponent order//ell, otherwise the
        result would be missing coefficients it claims to have.
        """
        if ell < 1:
            raise ValueError("dilation must be >= 1")
        top = order // ell
        if self._order < top:
            raise ValueError(
                f"source order {self._order} too small to dilate by {ell} "
                f"up to order {order} (needs {top})"
            )
        out = [0] * (order + 1)
        out[: ell * top + 1 : ell] = self._coeffs[: top + 1]
        return TruncatedSeries(order, out)

    # -- misc ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def _terms(self, limit: int = 8) -> str:
        pieces = []
        for e, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if e == 0:
                pieces.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "q" if e == 1 else f"q^{e}"
                sign = "-" if c < 0 else "+"
                if not pieces:
                    pieces.append(("-" if c < 0 else "") + mag + var)
                else:
                    pieces.append(f"{sign} {mag}{var}")
            if len(pieces) >= limit:
                pieces.append("...")
                break
        return " ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self._order}, {self._terms()})"


def _times_factor_into(c: list[int], exponent: int, sign: int) -> None:
    """c <- c * (1 - sign*q^exponent) in place, for exponent >= 0; the
    truncation order is len(c) - 1."""
    if exponent == 0:
        c[:] = map((1 - sign).__mul__, c)
    elif exponent < len(c):
        c[exponent:] = map(sub if sign == 1 else add, c[exponent:], c[:-exponent])


def _div_factor_into(c: list[int], exponent: int, sign: int) -> None:
    """c <- c / (1 - sign*q^exponent) in place, for exponent >= 1.

    Dividing by (1 - q^e) is a running sum over each residue class mod e.
    With few classes (e*e <= len(c)) each class is one accumulate; with
    many short ones, each block of e coefficients adds the block before it.
    """
    n = len(c)
    if exponent >= n:
        return
    if sign == -1:  # 1/(1 + x) = (1 - x)/(1 - x^2)
        _times_factor_into(c, exponent, 1)
        _div_factor_into(c, 2 * exponent, 1)
    elif exponent * exponent <= n:
        for r in range(exponent):
            c[r::exponent] = accumulate(c[r::exponent])
    else:
        for lo in range(exponent, n, exponent):
            hi = lo + exponent
            c[lo:hi] = map(add, c[lo:hi], c[lo - exponent : lo])


def make(order: int, coeffs: Sequence[int] = ()) -> TruncatedSeries:
    """Build a series from low-order coefficients, zero padded up to order."""
    return TruncatedSeries(order, coeffs)


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (1,))


def monomial(order: int, exponent: int, coeff: int = 1) -> TruncatedSeries:
    if exponent < 0 or exponent > order:
        raise ValueError(f"exponent {exponent} outside 0..{order}")
    c = [0] * (order + 1)
    c[exponent] = coeff
    return TruncatedSeries(order, c)


def qproduct(
    sign: int,
    start: int,
    step: int,
    length: int | None,
    order: int,
) -> TruncatedSeries:
    """Product of (1 - sign*q^(start + step*i)) for i = 0 .. length-1.

    length None gives the infinite product. Factor exponents are strictly
    increasing, so once one exceeds the order every remaining factor is
    congruent to 1 and the product is complete mod q^(order+1).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if start < 0 or step < 1:
        raise ValueError("need start >= 0 and step >= 1")
    if length is not None and length < 0:
        raise ValueError("length must be >= 0 or None")
    if sign == 1 and start == 0 and length is None:
        raise ValueError("infinite product with a (1 - q^0) factor is zero")
    c = [1] + [0] * order
    i = 0
    while length is None or i < length:
        e = start + step * i
        if e > order:
            break
        _times_factor_into(c, e, sign)
        i += 1
    return TruncatedSeries(order, c)


def gauss_binomial(m: int, n: int, order: int) -> TruncatedSeries:
    """Gaussian binomial coefficient as a truncated series.

    Defined as (q;q)_m / ((q;q)_n (q;q)_{m-n}); zero when n < 0 or m < n.
    The full object is a polynomial of degree n*(m-n) with nonnegative
    coefficients; truncation at any order commutes with the division.
    """
    if n < 0 or m < n:
        return zero(order)
    c = list(qproduct(1, 1, 1, m, order).coeffs)
    for i in range(1, min(n, order) + 1):
        _div_factor_into(c, i, 1)
    for i in range(1, min(m - n, order) + 1):
        _div_factor_into(c, i, 1)
    return TruncatedSeries(order, c)


def pentagonal_series(order: int, dilation: int = 1) -> TruncatedSeries:
    """Euler's expansion of (q;q)oo as an alternating pentagonal-number sum,
    optionally dilated q -> q^dilation.

    sum_{j>=0} (-1)^j q^(j(3j+1)/2) (1 - q^(2j+1)); terms whose minimal
    exponent exceeds the order are omitted.
    """
    base_order = order // dilation
    c = [0] * (base_order + 1)
    j = 0
    while True:
        g = j * (3 * j + 1) // 2
        if g > base_order:
            break
        s = 1 if j % 2 == 0 else -1
        c[g] += s
        h = g + 2 * j + 1
        if h <= base_order:
            c[h] -= s
        j += 1
    base = TruncatedSeries(base_order, c)
    return base if dilation == 1 else base.dilate(dilation, order)


def theta_partial(j_lo: int, j_hi: int, order: int) -> TruncatedSeries:
    """sum_{j=j_lo..j_hi} (-1)^j q^(j^2), dropping terms with j^2 > order."""
    c = [0] * (order + 1)
    for j in range(j_lo, j_hi + 1):
        e = j * j
        if e <= order:
            c[e] += 1 if j % 2 == 0 else -1
    return TruncatedSeries(order, c)


def gauss_theta(k: int | None, order: int) -> TruncatedSeries:
    """1 + 2*sum_{j=1..k} (-1)^j q^(j^2); k None takes the full theta sum."""
    if k is None:
        k = isqrt(order)
    elif k < 0:
        raise ValueError("k must be >= 0 or None for the full sum")
    return theta_partial(-k, k, order)


def partition_gf(order: int) -> TruncatedSeries:
    """1/(q;q)oo, the partition generating function."""
    c = [1] + [0] * order
    for i in range(1, order + 1):
        _div_factor_into(c, i, 1)
    return TruncatedSeries(order, c)


def overpartition_gf(order: int) -> TruncatedSeries:
    """(-q;q)oo/(q;q)oo, the overpartition generating function."""
    c = list(qproduct(-1, 1, 1, None, order).coeffs)
    for i in range(1, order + 1):
        _div_factor_into(c, i, 1)
    return TruncatedSeries(order, c)


def poch_ratio(numer_start: int, denom_start: int, order: int) -> TruncatedSeries:
    """(-q^numer_start;q)oo / (q^denom_start;q)oo mod q^(order+1)."""
    if numer_start < 1 or denom_start < 1:
        raise ValueError("both start exponents must be >= 1")
    c = list(qproduct(-1, numer_start, 1, None, order).coeffs)
    for e in range(denom_start, order + 1):
        _div_factor_into(c, e, 1)
    return TruncatedSeries(order, c)

"""Exact truncated power series over the integers in the formal variable q.

Everything here is exact. Coefficients are Python ints, truncation is a hard
cutoff at a fixed order, and no operation ever reads or writes an exponent
beyond that order. On top of the core arithmetic the module provides the
q-series building blocks used by the identity checkers: q-Pochhammer
products (qproduct: finite, infinite, dilated, any step), and pentagonal
and theta sums. Dividing one whole series by another has one kernel,
_div_sparse: long division over the divisor's nonzero terms only, so it is
fast for a pentagonal or theta sum; invert divides 1 by it.

Conventions:

* a series of order N holds coefficients for q^0 .. q^N inclusive, and N
  is at most MAX_ORDER;
* binary operations require both operands to have the same order, and no
  operation changes the order;
* an infinite product or sum is truncated by dropping every factor or term
  whose minimal exponent exceeds the order, which is exact mod q^(N+1).

Every rejected input raises BadParamsError, the package's one rejected-input
error, defined here in the bottom layer and re-exported by the layers above.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf, isqrt
from operator import add, sub
from typing import Sequence

__all__ = [
    "BadParamsError",
    "TruncatedSeries",
    "zero",
    "one",
    "monomial",
    "qproduct",
    "pentagonal_series",
    "theta_partial",
    "gauss_theta",
]


class BadParamsError(ValueError):
    """A caller-supplied value was rejected: of the wrong type, out of its
    range, or a weight or bound past its ceiling."""


# The largest order of any series, and the largest weight that pbar
# counts; the identities layer re-exports it.
MAX_ORDER = 2000


def _checked_int(v: object, lo: float, hi: float, message: str) -> int:
    """v when it is an int, not a bool, with lo <= v <= hi (an infinite bound
    leaves that side open); otherwise BadParamsError(message)."""
    if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
        raise BadParamsError(message)
    return v


def _checked_order(order: object) -> int:
    """order when it is an int within 0..MAX_ORDER, else BadParamsError;
    every public constructor checks it before it allocates a coefficient."""
    return _checked_int(
        order, 0, MAX_ORDER, f"order must be within 0..{MAX_ORDER}, got {order!r}"
    )


def _checked_sign(sign: object) -> None:
    """Raise BadParamsError unless sign is the int 1 or -1 (not a bool)."""
    if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
        raise BadParamsError("sign must be +1 or -1")


class TruncatedSeries:
    """Integer power series truncated (inclusively) at a fixed order.

    Instances are immutable; every operation returns a new series. Two
    series are equal only when both the order and all coefficients agree.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: list[int] | tuple[int, ...] = ()) -> None:
        _checked_order(order)
        if not isinstance(coeffs, (list, tuple)):
            raise BadParamsError(
                f"coefficients must be a list or tuple, got {type(coeffs).__name__}"
            )
        size = len(coeffs)
        if size > order + 1:
            raise BadParamsError(
                f"{size} coefficients exceed order {order} (max {order + 1})"
            )
        full = list(coeffs) + [0] * (order + 1 - size)
        for t in set(map(type, full)) - {int}:
            if not issubclass(t, int) or issubclass(t, bool):
                raise BadParamsError(f"coefficients must be ints, got {t.__name__}")
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
        """Coefficient of q^exponent; exponents beyond the order are not knowable.

        A non-int or bool exponent raises BadParamsError; an int outside
        0..order raises IndexError."""
        _checked_int(
            exponent, -inf, inf, f"exponent must be an int, got {exponent!r}"
        )
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
            raise BadParamsError(
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
        _checked_int(c, -inf, inf, "scale factor must be an int")
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

    def times_factor(self, exponent: int, sign: int = 1) -> "TruncatedSeries":
        """Multiply by the single factor (1 - sign*q^exponent) in O(order) time."""
        _checked_sign(sign)
        _checked_int(exponent, 0, inf, "factor exponent must be >= 0")
        out = list(self._coeffs)
        _times_factor_into(out, exponent, sign)
        return TruncatedSeries(self._order, out)

    def div_factor(self, exponent: int, sign: int = 1) -> "TruncatedSeries":
        """Divide by the single factor (1 - sign*q^exponent) in O(order) time.

        Division by a unit (exponent >= 1) is always well defined mod
        q^(order+1); the exponent-zero factor is not a unit and is rejected.
        """
        _checked_sign(sign)
        _checked_int(
            exponent, 1, inf, "can only divide by factors with exponent >= 1"
        )
        out = list(self._coeffs)
        _div_factor_into(out, exponent, sign)
        return TruncatedSeries(self._order, out)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod q^(order+1), by long division of 1.

        Requires constant term +1 or -1 so that the inverse keeps integer
        coefficients."""
        return TruncatedSeries(
            self._order, _div_sparse([1] + [0] * self._order, self._coeffs)
        )

    # -- misc ---------------------------------------------------------------

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


def _div_sparse(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num/den mod q^len(num) as a new list, for den with constant term +1
    or -1; fast when den has few nonzero terms (a pentagonal or theta sum).

    Long division, c[n] = den[0] * (num[n] - sum_{e>=1} den[e] * c[n-e]),
    with the sum over den's nonzero terms only, so a divisor with
    O(sqrt(order)) terms touches each coefficient O(sqrt(order)) times.
    The terms are grouped by value (+-1 in a pentagonal sum, +-2 in a theta
    sum): each group is a plain sum of earlier coefficients and costs one
    multiply per coefficient.
    """
    d0 = den[0]
    if d0 not in (1, -1):
        raise BadParamsError(
            f"constant term must be +1 or -1 to divide, got {d0}"
        )
    size = len(num)
    terms = [(e, d) for e, d in enumerate(den[:size]) if e and d]
    c = list(num)
    groups: dict[int, list[int]] = {}  # value -> exponents e <= n so far
    k = 0
    for n in range(size):
        if k < len(terms) and terms[k][0] <= n:
            e, d = terms[k]
            groups.setdefault(d, []).append(e)
            k += 1
        acc = c[n]
        for d, exps in groups.items():
            t = 0
            for e in exps:
                t += c[n - e]
            acc -= d * t
        c[n] = d0 * acc
    return c


def _times_ratio(c: list[int], a: int, b: int) -> list[int]:
    """c * (1 - q^a) / (1 + q^b) mod q^len(c) as a new list, for
    1 <= a <= b, the one case identities._tail_sum steps with.

    One blockwise pass of y[i] = c[i] - c[i-a] - y[i-b]. Below b a term
    whose index is negative drops out; from b on, each block of b
    coefficients reads the input and the block before it.
    """
    y = c[:b]
    y[a:] = map(sub, y[a:], c)
    for lo in range(b, len(c), b):
        y += map(sub, map(sub, c[lo : lo + b], c[lo - a : lo - a + b]),
                 y[lo - b : lo])
    return y


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (1,))


def monomial(order: int, exponent: int, coeff: int = 1) -> TruncatedSeries:
    _checked_order(order)
    _checked_int(exponent, 0, order, f"exponent {exponent} outside 0..{order}")
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
    _checked_sign(sign)
    _checked_int(start, 0, inf, "need start >= 0 and step >= 1")
    _checked_int(step, 1, inf, "need start >= 0 and step >= 1")
    _checked_order(order)
    if length is not None:
        _checked_int(length, 0, inf, "length must be >= 0 or None")
    if sign == 1 and start == 0 and length is None:
        raise BadParamsError("infinite product with a (1 - q^0) factor is zero")
    c = [1] + [0] * order
    i = 0
    while length is None or i < length:
        e = start + step * i
        if e > order:
            break
        _times_factor_into(c, e, sign)
        i += 1
    return TruncatedSeries(order, c)


def pentagonal_series(order: int, dilation: int = 1) -> TruncatedSeries:
    """Euler's expansion of (q;q)oo as an alternating pentagonal-number sum,
    optionally dilated q -> q^dilation.

    sum_{j>=0} (-1)^j q^(j(3j+1)/2) (1 - q^(2j+1)); terms whose minimal
    exponent exceeds the order are omitted.
    """
    _checked_order(order)
    _checked_int(dilation, 1, inf, "dilation must be >= 1")
    c = [0] * (order + 1)
    j = 0
    while True:
        g = j * (3 * j + 1) // 2 * dilation
        if g > order:
            break
        s = 1 if j % 2 == 0 else -1
        c[g] += s
        h = g + (2 * j + 1) * dilation
        if h <= order:
            c[h] -= s
        j += 1
    return TruncatedSeries(order, c)


def theta_partial(j_lo: int, j_hi: int, order: int) -> TruncatedSeries:
    """sum_{j=j_lo..j_hi} (-1)^j q^(j^2), dropping terms with j^2 > order."""
    _checked_int(j_lo, -inf, inf, "theta sum bounds must be ints")
    _checked_int(j_hi, -inf, inf, "theta sum bounds must be ints")
    _checked_order(order)
    root = isqrt(order)  # the terms past it have j^2 > order
    c = [0] * (order + 1)
    for j in range(max(j_lo, -root), min(j_hi, root) + 1):
        c[j * j] += 1 if j % 2 == 0 else -1
    return TruncatedSeries(order, c)


def gauss_theta(k: int | None, order: int) -> TruncatedSeries:
    """1 + 2*sum_{j=1..k} (-1)^j q^(j^2); k None takes the full theta sum."""
    _checked_order(order)
    if k is None:
        k = isqrt(order)
    else:
        _checked_int(k, 0, inf, "k must be >= 0 or None for the full sum")
    return theta_partial(-k, k, order)


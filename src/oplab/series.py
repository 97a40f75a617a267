"""Exact truncated power series over the integers in the formal variable q.

Everything here is exact. Coefficients are Python ints, truncation is a hard
cutoff at a fixed order, and no operation ever reads or writes an exponent
beyond that order. On top of the core arithmetic the module provides the
q-series building blocks used by the identity checkers: q-Pochhammer
products (qproduct: finite, infinite, dilated, any step), pentagonal and
theta sums, and the partition generating function.

Conventions:

* a series of order N holds coefficients for q^0 .. q^N inclusive;
* binary operations require both operands to have the same order;
* changing the order is always an explicit step (dilate);
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
    "partition_gf",
]


class BadParamsError(ValueError):
    """A caller-supplied value was rejected: of the wrong type, out of its
    range, or a weight or bound past its ceiling."""


def _checked_int(v: object, lo: float, hi: float, message: str) -> int:
    """v when it is an int, not a bool, with lo <= v <= hi (an infinite bound
    leaves that side open); otherwise BadParamsError(message)."""
    if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
        raise BadParamsError(message)
    return v


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
        _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
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
        """Multiplicative inverse mod q^(order+1).

        Requires constant term +1 or -1 so that the inverse keeps integer
        coefficients. Newton iteration: b = 1/a0 = a0 is exact mod q, and if
        b is exact mod q^h then b*(2 - a*b) is exact mod q^(2h). As
        a*b = 1 + q^h*e mod q^(2h), that step keeps b and appends the
        coefficients of -b*e, so each step is two _packed_product calls:
        a few big-integer multiplications in place of the O(order^2)
        coefficient loop.
        """
        a = self._coeffs
        c0 = a[0]
        if c0 not in (1, -1):
            raise BadParamsError(
                f"constant term must be +1 or -1 to invert, got {c0}"
            )
        size = self._order + 1
        b = [c0]
        while len(b) < size:
            h = len(b)
            k = min(2 * h, size)
            e = _packed_product(a[:k], b, k)[h:]
            b += [-x for x in _packed_product(b[: k - h], e, k - h)]
        return TruncatedSeries(self._order, b)

    def dilate(self, ell: int, order: int) -> "TruncatedSeries":
        """Substitute q -> q^ell by re-indexing coefficients onto a series of
        the given order, dropping exponents that land past it.

        The source must be known through exponent order//ell, otherwise the
        result would be missing coefficients it claims to have.
        """
        _checked_int(ell, 1, inf, "dilation must be >= 1")
        _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
        top = order // ell
        if self._order < top:
            raise BadParamsError(
                f"source order {self._order} too small to dilate by {ell} "
                f"up to order {order} (needs {top})"
            )
        out = [0] * (order + 1)
        out[: ell * top + 1 : ell] = self._coeffs[: top + 1]
        return TruncatedSeries(order, out)

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


def _times_ratio(c: list[int], a: int, b: int) -> list[int]:
    """c * (1 - q^a) / (1 + q^b) mod q^len(c) as a new list, for a, b >= 1.

    One blockwise pass of y[i] = c[i] - c[i-a] - y[i-b]. Below
    s = max(a, b) a term whose index is negative drops out; from s on,
    each block of b coefficients reads the input and the block before it.
    """
    n = len(c)
    s = max(a, b)
    y = c[:s]
    y[a:] = map(sub, y[a:], c)
    for lo in range(b, min(s, n), b):
        y[lo : lo + b] = map(sub, y[lo : lo + b], y[lo - b : lo])
    for lo in range(s, n, b):
        y += map(sub, map(sub, c[lo : lo + b], c[lo - a : lo - a + b]),
                 y[lo - b : lo])
    return y


def _packed_product(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    """The first count coefficients of the product of the polynomials a and
    b, exact, by Kronecker substitution.

    Each operand is packed into one int, coefficient i in slot i of w bits,
    the two ints are multiplied once, and the slots of the result are read
    back as balanced digits. A product coefficient is a sum of at most
    m = min(len(a), len(b)) terms, each below 2^bits(max|a|) *
    2^bits(max|b|) in size, so it lies strictly inside +-2^(w-1) once w is
    that bit count plus bits(m) plus one sign bit. That makes every slot
    exact whatever the operands hold; w is rounded up to whole bytes so
    that packing and reading are bytes conversions.
    """
    width = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    nbytes = (width + 7) // 8
    w = 8 * nbytes
    half = 1 << (w - 1)
    # slots of ones: the per-slot borrow of the two's-complement packing
    # and the balancing offset of the read are both multiples of it
    ones = int.from_bytes(
        (b"\x01" + bytes(nbytes - 1)) * max(len(a), len(b), count), "little"
    )

    def pack(c: Sequence[int]) -> int:
        raw = int.from_bytes(
            b"".join([x.to_bytes(nbytes, "little", signed=True) for x in c]),
            "little",
        )
        # a negative slot holds x + 2^w: take back the 2^w it carries up
        return raw - (((raw >> (w - 1)) & ones) << w)

    top = w * count
    low = (pack(a) * pack(b) + (ones << (w - 1))) & ((1 << top) - 1)
    buf = memoryview(low.to_bytes(top // 8, "little"))
    return [
        int.from_bytes(buf[i : i + nbytes], "little") - half
        for i in range(0, top // 8, nbytes)
    ]


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order)


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (1,))


def monomial(order: int, exponent: int, coeff: int = 1) -> TruncatedSeries:
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
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
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
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
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
    _checked_int(dilation, 1, inf, "dilation must be >= 1")
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
    _checked_int(j_lo, -inf, inf, "theta sum bounds must be ints")
    _checked_int(j_hi, -inf, inf, "theta sum bounds must be ints")
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    for j in range(j_lo, j_hi + 1):
        e = j * j
        if e <= order:
            c[e] += 1 if j % 2 == 0 else -1
    return TruncatedSeries(order, c)


def gauss_theta(k: int | None, order: int) -> TruncatedSeries:
    """1 + 2*sum_{j=1..k} (-1)^j q^(j^2); k None takes the full theta sum."""
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
    if k is None:
        k = isqrt(order)
    else:
        _checked_int(k, 0, inf, "k must be >= 0 or None for the full sum")
    return theta_partial(-k, k, order)


def partition_gf(order: int) -> TruncatedSeries:
    """1/(q;q)oo, the partition generating function."""
    _checked_int(order, 0, inf, f"order must be >= 0, got {order}")
    c = [1] + [0] * order
    for i in range(1, order + 1):
        _div_factor_into(c, i, 1)
    return TruncatedSeries(order, c)

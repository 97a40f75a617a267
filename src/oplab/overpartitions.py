"""Overpartitions, their enumeration, and their minimal-excludant statistics.

An overpartition is a partition in which the last occurrence of a value may
carry an overline. Parts are totally ordered with each overlined value just
below its plain twin:

    1bar < 1 < 2bar < 2 < 3bar < 3 < ...

Internally a part is a (value, overlined) pair and an overpartition is the
tuple of its parts, sorted largest first in that order, so the final entry
is the smallest part. Everything in this module is exact integer counting;
generating-function coefficients are used only where enumeration would be
wasteful (large-n counts), and tests pin the two routes against each other.

Enumeration walks only half of each weight n >= 1, the overpartitions whose
smallest part is plain, and caches none of it: each walk is a generator
that builds its objects afresh. Overlining that part pairs them with the
other half, which is built from the walked half on demand and never kept.

Every caller-supplied integer (a weight, a k, a part value) must be an
int, not a bool, within its range. A value that fails, a malformed part
and a weight past its counting route's ceiling (OBJECT_CEILING for
materialised overpartitions, SHAPE_CEILING for the shape-counted
statistics) all raise BadParamsError, the package's one rejected-input
error, which the series layer defines, this layer and the identities layer
re-export, and the CLI maps to exit 2.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from math import inf
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from . import series
from .series import BadParamsError, _checked_int

__all__ = [
    "Part",
    "Overpartition",
    "BadParamsError",
    "EnumerationCapError",
    "OBJECT_CEILING",
    "SHAPE_CEILING",
    "enumerate_overpartitions",
    "pbar",
    "partition_count",
    "overline_mex",
    "op_class_counts",
    "op21",
    "mbar",
    "nbar",
    "mk_stat",
]


class Part(NamedTuple):
    value: int
    overlined: bool

    @property
    def rank(self) -> int:
        """Position in the total part order: 1bar=1, 1=2, 2bar=3, 2=4, ..."""
        return 2 * self.value - (1 if self.overlined else 0)

    def __str__(self) -> str:
        text = str(self.value)
        if self.overlined:
            text = "".join(ch + "̅" for ch in text)
        return text


def _check_part(p: object) -> None:
    """Raise BadParamsError unless p is a Part (or a subclass) whose value is
    an int >= 1, not a bool, and whose overline flag is a bool."""
    if not isinstance(p, Part):
        raise BadParamsError("parts must be Part instances")
    value, overlined = p
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParamsError(f"part values must be ints, got {value!r}")
    if value < 1:
        raise BadParamsError(f"part values must be >= 1, got {value}")
    if not isinstance(overlined, bool):
        raise BadParamsError(f"overline flags must be bools, got {overlined!r}")


class Overpartition(tuple):
    """Immutable overpartition: the tuple of its parts, sorted largest first
    in the part order, one object per overpartition.

    Any iterable of parts is taken; the constructor copies it into the tuple
    once and validates every part. Equality, hashing and `<` are the
    tuple's, so an Overpartition equals the plain tuple of the same parts,
    and `<` follows tuple order (the parts as (value, overlined) pairs, as
    for Part), not the part order."""

    __slots__ = ()

    def __new__(cls, parts):
        try:
            self = tuple.__new__(cls, parts)
        except TypeError:
            raise BadParamsError(
                "parts must be an iterable of Part instances, "
                f"got {type(parts).__name__}"
            ) from None
        prev_value, prev_overlined = inf, False
        for p in self:
            # one exact-type test accepts the common part; anything else,
            # subclasses included, takes the full checks
            if p.__class__ is Part:
                value, overlined = p
                if not (
                    value.__class__ is int and value >= 1
                    and overlined.__class__ is bool
                ):
                    _check_part(p)
            else:
                _check_part(p)
                value, overlined = p
            # each value drops, or repeats after a plain copy: sorted largest
            # first, with one overline per value, on its last copy
            if value > prev_value or (value == prev_value and prev_overlined):
                if value == prev_value and overlined:
                    raise BadParamsError(
                        f"value {value} carries more than one overline"
                    )
                raise BadParamsError("parts are not sorted largest first")
            prev_value, prev_overlined = value, overlined
        return self

    @property
    def weight(self) -> int:
        return sum(map(itemgetter(0), self))

    def smallest(self) -> Part | None:
        return self[-1] if self else None

    def to_jsonable(self) -> list[list[int | bool]]:
        return [[p.value, p.overlined] for p in self]

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(parts={tuple.__repr__(self)})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"


# Exhaustive counting grows with the weight, so each counting route stops at
# a fixed ceiling, measured with Python 3.11.7 on 2 cores (host speed varies
# about 2x between runs): a first check_weight_down(30) in a fresh process
# takes 0.4-0.55 s and peaks at 15 MB RSS, the interpreter and package
# included, as it keeps no object of its walk; filling every shape table
# up to n = 50 takes 1.4-2.8 s (n = 60: 7 s).
OBJECT_CEILING = 30  # materialised overpartitions
SHAPE_CEILING = 50  # statistics counted over partition shapes


class EnumerationCapError(BadParamsError):
    """Raised when exhaustive counting is asked past its route's ceiling."""


def _check_weight(n: int, lo: int, name: str, ceiling: int = SHAPE_CEILING) -> None:
    """n is an int, not a bool (else a message naming its type), at least lo
    (else "<name> must be >= <lo>") and within the ceiling (else
    EnumerationCapError)."""
    if n.__class__ is not int:
        _checked_int(
            n, -inf, inf, f"{name} must be an int, got {type(n).__name__} {n!r}"
        )
    _checked_int(n, lo, inf, f"{name} must be >= {lo}")
    if n > ceiling:
        raise EnumerationCapError(f"weight {n} exceeds the ceiling {ceiling}")


def _value_blocks(n: int):
    """Yield every partition shape of n once, as ((value, count), ...) with
    values strictly decreasing, starting from ((n, 1),).

    An iterative walk in multiplicity form (Nijenhuis and Wilf's NEXPAR;
    Zoghbi and Stojmenovic's ZS1): one list of blocks per walk, and each
    step strips the 1s, takes one copy off the smallest part v >= 2 and
    refills the freed weight with as many parts v - 1 as fit plus one
    remainder part, so a step touches only the last few blocks."""
    if n == 0:
        yield ()
        return
    blocks = [(n, 1)]
    while True:
        yield tuple(blocks)
        freed = 0
        if blocks[-1][0] == 1:
            freed = blocks.pop()[1]
            if not blocks:
                return
        v, c = blocks[-1]
        if c > 1:
            blocks[-1] = (v, c - 1)
        else:
            blocks.pop()
        count, rest = divmod(freed + v, v - 1)
        blocks.append((v - 1, count))
        if rest:
            blocks.append((rest, 1))


def _rank_parts(top: int) -> list[Part]:
    """One shared Part per rank 0..top (1bar=1, 1=2, 2bar=3, ...); rank 0 is
    a placeholder that no walk reads."""
    return [Part((r + 1) // 2, r % 2 == 1) for r in range(top + 1)]


def _a_chunks(prefix: tuple, remaining: int, top: int, parts: list[Part],
              tails: tuple, firsts: tuple):
    """Yield the rank walk of the A(n) objects that start with prefix and
    fill the remaining weight with ranks at most top, as (prefix, tails)
    chunks: each object is prefix + tail, for tail in tails, in that order.

    A depth-first walk tries each position's ranks upward, with one shared
    Part per rank from parts. Ranks never rise along a sequence, and after
    an overlined part the next rank is strictly smaller, as the overline
    marks a value's last copy. The last part is never overlined. Once the
    weight left is below len(tails), the walk stops recursing: tails[w] is
    the rank walk of weight w as plain tuples, tails[0] the one empty
    suffix, and firsts[w] their first ranks (0 for the empty one), so the
    rest is tails[w][:bisect_right(firsts[w], top)]. Only chunks pass up the
    recursion, never an object."""
    if remaining < len(tails):
        count = bisect_right(firsts[remaining], top)
        yield prefix, tails[remaining][:count]
        return
    # 1bar (rank 1) and the overlined part that would use up the remaining
    # weight (rank 2 * remaining - 1) could only come last
    last_bar = 2 * remaining - 1
    for r in range(2, min(top, 2 * remaining) + 1):
        if r != last_bar:
            # next ranks: up to r after a plain part, r - 1 after an overline
            yield from _a_chunks(
                prefix + (parts[r],), remaining - (r + 1) // 2, r & -2,
                parts, tails, firsts,
            )


def _a_tails(top_weight: int) -> tuple[tuple, tuple]:
    """The tails and first ranks that _a_chunks splices, for weights
    0..top_weight: each weight's walk recurses one level and splices the
    lighter walks built before it."""
    parts = _rank_parts(2 * top_weight)
    tails: list[tuple] = [((),)]
    firsts: list[tuple] = [(0,)]
    for w in range(1, top_weight + 1):
        walk = [
            prefix + tail
            for prefix, chunk in _a_chunks((), w, 2 * w, parts, tails, firsts)
            for tail in chunk
        ]
        tails.append(tuple(walk))
        firsts.append(tuple(tail[0].rank for tail in walk))
    return tuple(tails), tuple(firsts)


# Up to this weight left to fill, the walk splices precomputed tails, 322
# tuples built once per process, instead of recursing.
_TAIL_WEIGHT = 10
_TAILS, _TAIL_FIRST_RANKS = _a_tails(_TAIL_WEIGHT)


def _class_a(n: int):
    """Yield every overpartition of n whose smallest part is not overlined
    (A(n) in bijections' terms; none for n = 0), in increasing
    lexicographic order of its part ranks (1bar=1, 1=2, 2bar=3, ...),
    largest part first.

    Nothing is cached: each call walks again and builds its objects afresh,
    each through the validating constructor, from the prefix and a tail of
    an _a_chunks chunk."""
    if n == 0:
        return
    chunks = _a_chunks(
        (), n, 2 * n, _rank_parts(2 * n), _TAILS, _TAIL_FIRST_RANKS
    )
    for prefix, tails in chunks:
        for tail in tails:
            yield Overpartition(prefix + tail)


def _overpartitions(n: int):
    """Yield every overpartition of n, in the rank order of _class_a, from
    one walk of A(n); nothing is kept.

    Each object of A(n) comes just after its twin with the last part
    overlined: toggling changes only the last rank, from 2t to 2t - 1, and
    no other overpartition of n lies between the two. The twins are built
    on demand; every overlined last part is one shared Part per value."""
    if n == 0:
        yield Overpartition(())
        return
    bars = [Part(v, True) for v in range(n + 1)]
    for pi in _class_a(n):
        yield Overpartition(pi[:-1] + (bars[pi[-1].value],))
        yield pi


def enumerate_overpartitions(n: int) -> tuple[Overpartition, ...]:
    """All overpartitions of n in a fixed deterministic order.

    Exhaustive enumeration grows like the overpartition numbers themselves,
    so weights above OBJECT_CEILING are refused rather than attempted.
    """
    _check_weight(n, 0, "weight", OBJECT_CEILING)
    return tuple(_overpartitions(n))


# -- counting via generating functions --------------------------------------

# One cache per counting function, pbar and partition_count, each keyed by a
# power-of-two table order (_table_order), so every caller below that order
# shares one entry. Both tables come from Euler's pentagonal sums alone,
# which have O(sqrt(order)) terms, by long division over their few nonzero
# terms (series._div_sparse), so no table sweeps the full length once per
# factor or multiplies two dense series. Every other product a series side
# needs is built at that side's own order, uncached.

@lru_cache(maxsize=None)
def _pbar_table(order: int) -> tuple[int, ...]:
    """(-q;q)oo/(q;q)oo = (q^2;q^2)oo/(q;q)oo/(q;q)oo mod q^(order+1), two
    sparse divisions of the pentagonal sums. Besides pbar, the series
    sides that multiply by the overpartition generating function read it
    (identities._pbar_gf)."""
    p = series.pentagonal_series(order).coeffs
    p2 = series.pentagonal_series(order, 2).coeffs
    return tuple(series._div_sparse(series._div_sparse(p2, p), p))


@lru_cache(maxsize=None)
def _p_table(order: int) -> tuple[int, ...]:
    """1/(q;q)oo mod q^(order+1), one sparse division of 1 by the pentagonal
    sum."""
    p = series.pentagonal_series(order).coeffs
    return tuple(series._div_sparse([1] + [0] * order, p))


def _table_order(n: int) -> int:
    order = 64
    while order < n:
        order *= 2
    return order


def pbar(n: int) -> int:
    """Number of overpartitions of n; pbar(0) = 1 and pbar(n) = 0 for n < 0.

    A bool or non-int n raises BadParamsError."""
    if n.__class__ is not int:  # one exact-type test accepts the common case
        _checked_int(n, -inf, inf, f"n must be an int, got {n!r}")
    if n < 0:
        return 0
    return _pbar_table(_table_order(n))[n]


def partition_count(n: int) -> int:
    """Number of ordinary partitions of n; 1 at n = 0 and 0 for n < 0.

    A bool or non-int n raises BadParamsError."""
    if n.__class__ is not int:
        _checked_int(n, -inf, inf, f"n must be an int, got {n!r}")
    if n < 0:
        return 0
    return _p_table(_table_order(n))[n]


# -- statistics --------------------------------------------------------------

def overline_mex(pi: Overpartition) -> int:
    """The overline-mex: the smallest odd value that does not occur as a
    non-overlined part of pi. Overlined parts never block a candidate."""
    candidate = 1
    # the bare pair equals Part(candidate, False) and skips building a Part
    while (candidate, False) in pi:
        candidate += 2
    return candidate


# -- statistic tables over partition shapes ----------------------------------
#
# Each statistic depends only on the shape of an overpartition, its
# (value, multiplicity) blocks, and on which blocks carry an overline. A
# shape with b blocks stands for 2^b overpartitions, one per flag
# assignment, so one pass over the p(n) shapes, weighing the assignments in
# closed form, fills the column for every k. This is still exhaustive
# counting: no table reads pbar or any generating function.


class _ShapeTables(NamedTuple):
    """Counts for one weight n, all filled by one pass over its shapes.

    mbar, nbar and mk are indexed by k, and mex[m] counts the
    overpartitions of n whose overline-mex is m. An index past the end
    counts 0. b counts the overpartitions of n in the class B of the
    weight-down bijection (bijections.in_b)."""

    mbar: tuple[int, ...]
    nbar: tuple[int, ...]
    mk: tuple[int, ...]
    mex: tuple[int, ...]
    b: int


@lru_cache(maxsize=None)
def _shape_tables(n: int) -> _ShapeTables:
    mbar_diff = [0] * (n + 2)
    nbar_col = [0] * (n + 2)
    mk_col = [0] * (n + 2)
    # the overline-mex 2j + 1 needs 1, 3, ..., 2j - 1: j^2 <= n, 2j + 1 <= n + 3
    mex_col = [0] * (n + 4)
    b = 0
    for blocks in _value_blocks(n):
        weight = 1 << len(blocks)
        half = weight >> 1
        b += weight
        # B fails only with an overlined 1 (c1 copies of 1, r = c1 - 1 of
        # them plain) whose next value v2 ranks below the plain part c1 + 1:
        # as v2bar when v2 <= c1 + 1, as plain v2 when v2 <= c1; the other
        # blocks' flags are free
        if len(blocks) > 1 and blocks[-1][0] == 1:
            v2, c1 = blocks[-2][0], blocks[-1][1]
            b -= (half >> 1) * ((v2 <= c1 + 1) + (v2 <= c1))
        prev = prev_c = 0
        parts = below = 0
        gap = 1  # least value missing so far: the mex of the plain values
        odd = 1  # least odd value not yet seen present as a plain part
        odd_weight = weight
        for v, c in reversed(blocks):  # values increasing
            parts += c
            # mbar: for prev <= k < v the smallest value above k is v, which
            # occurs c times whatever the flags, so k <= c - 1 qualifies
            top = v if v < c else c
            if top > prev:
                mbar_diff[prev] += weight
                mbar_diff[top] -= weight
            # nbar, prev < k < v: the smallest part >= k has value v and must
            # be plain, so v is plain and c == k
            if prev < c < v:
                nbar_col[c] += half
            # nbar, k == v: v plain needs c == k; v overlined with c >= 2 is
            # exempt once, leaving c - 1 == k plain copies
            if c == v or c - 1 == v:
                nbar_col[v] += half
            # nbar, k == prev overlined with one copy: it is exempt entirely,
            # so this block decides and must be plain with k copies
            if prev_c == 1 and c == prev:
                nbar_col[prev] += half >> 1
            # mk: values 1..gap-1 are the first blocks, the rest lie above gap
            if v == gap:
                gap += 1
                below += c
            # overline-mex: a value occurring twice or more is always plain; a
            # single copy is plain in half the assignments, and in the other
            # half the mex is v
            if v == odd:
                if c == 1:
                    odd_weight >>= 1
                    mex_col[v] += odd_weight
                odd += 2
            prev, prev_c = v, c
        if parts - below > below:
            mk_col[gap] += 1
        mex_col[odd] += odd_weight
    return _ShapeTables(
        tuple(itertools.accumulate(mbar_diff)), tuple(nbar_col), tuple(mk_col),
        tuple(mex_col), b,
    )


def _column(col: tuple[int, ...], k: int) -> int:
    return col[k] if k < len(col) else 0


def op_class_counts(n: int) -> tuple[int, int]:
    """Split pbar(n) by the overline-mex mod 4: returns (low, high),
    where low counts mex = 1 mod 4 and high mex = 3 mod 4.

    Both are sums over the mex column of the shape table that op21 reads."""
    _check_weight(n, 0, "weight")
    mex = _shape_tables(n).mex
    return sum(mex[1::4]), sum(mex[3::4])


def op21(n: int, k: int) -> int:
    """Count overpartitions of n whose overline-mex m satisfies
    m >= 2k+1 and m = 2k+1 mod 4."""
    _check_weight(n, 1, "n")
    _checked_int(k, 0, inf, "op21 requires k >= 0")
    return sum(_shape_tables(n).mex[2 * k + 1 :: 4])


def mbar(n: int, k: int) -> int:
    """Count overpartitions of n whose smallest part value above k exists and
    occurs at least k+1 times, overlined and plain occurrences together."""
    _check_weight(n, 1, "n")
    _checked_int(k, 0, inf, "mbar requires k >= 0")
    return _column(_shape_tables(n).mbar, k)


def nbar(n: int, k: int) -> int:
    """Count overpartitions of n in which, after exempting an overlined k if
    present, the smallest remaining part of value >= k exists, is not
    overlined, and its value occurs exactly k times among the non-exempt
    parts."""
    _check_weight(n, 1, "n")
    _checked_int(k, 1, inf, "nbar requires k >= 1")
    return _column(_shape_tables(n).nbar, k)


def mk_stat(n: int, k: int) -> int:
    """Count ordinary partitions of n whose least non-part is exactly k and
    which have more parts above k than below k."""
    _check_weight(n, 1, "n")
    _checked_int(k, 1, inf, "mk_stat requires k >= 1")
    return _column(_shape_tables(n).mk, k)

"""Overpartitions, their enumeration, and their minimal-excludant statistics.

An overpartition is a partition in which the last occurrence of a value may
carry an overline. Parts are totally ordered with each overlined value just
below its plain twin:

    1bar < 1 < 2bar < 2 < 3bar < 3 < ...

A part is a (value, overlined) pair, the NamedTuple Part, and an
overpartition is the tuple of its parts, sorted largest first in that
order, so the final entry is the smallest part; both print as the tuples
they are. Everything in this module is exact integer counting;
generating-function coefficients are used only where enumeration would be
wasteful (large-n counts), and tests pin the two routes against each other.

Enumeration walks only half of each weight n >= 1, the overpartitions whose
smallest part is plain, and caches none of it: each walk is a generator
that yields plain tuples of parts. Overlining that part pairs them with the
other half, which is made from the walked half on demand and never kept.
The walks validate nothing; enumerate_overpartitions builds each object
through the one validating constructor, and the bijection checks build
only their images (see bijections).

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
from collections import defaultdict
from math import inf
from functools import lru_cache
from operator import add, itemgetter
from typing import NamedTuple

from . import series
from .series import MAX_ORDER, BadParamsError, _checked_int

__all__ = [
    "Part",
    "Overpartition",
    "BadParamsError",
    "OBJECT_CEILING",
    "SHAPE_CEILING",
    "enumerate_overpartitions",
    "pbar",
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


# the value of a part, as a map or sort key
_part_value = itemgetter(0)
# no part is this object, so the constructor's first part is never a repeat
_NO_PART = object()


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
    once and validates every part. Equality, hashing, `<` and the repr are
    the tuple's, so an Overpartition equals the plain tuple of the same parts,
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
        prev, prev_value, prev_overlined = _NO_PART, inf, False
        for p in self:
            # a plain part object repeated as is passed its checks on its
            # first copy, and a plain repeat keeps the order
            if p is prev and not prev_overlined:
                continue
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
            prev, prev_value, prev_overlined = p, value, overlined
        return self

    @property
    def weight(self) -> int:
        return sum(map(_part_value, self))

    def smallest(self) -> Part | None:
        return self[-1] if self else None

    def to_jsonable(self) -> list[list[int | bool]]:
        return [[p.value, p.overlined] for p in self]


# Exhaustive counting grows with the weight, so each counting route stops at
# a fixed ceiling, measured with Python 3.11.7 on 2 cores (host speed varies
# about 2x between runs): a first check_weight_down(30) in a fresh process
# takes 0.4-0.55 s and peaks at 15 MB RSS, the interpreter and package
# included, as it keeps no object of its walk; filling every shape table
# up to n = 50 takes 0.5-0.7 s (n = 60: 2.4-2.7 s).
OBJECT_CEILING = 30  # materialised overpartitions
SHAPE_CEILING = 50  # statistics counted over partition shapes

# One shared Part per rank 0..2 * OBJECT_CEILING (1bar=1, 1=2, 2bar=3, ...),
# built once: every walk yields these objects, and bijections takes its 1,
# 1bar and 2bar from here. Rank 0 is a placeholder that no walk reads.
_PARTS = tuple(Part((r + 1) // 2, r % 2 == 1)
               for r in range(2 * OBJECT_CEILING + 1))


def _check_weight(n: int, lo: int, name: str, ceiling: int = SHAPE_CEILING) -> None:
    """n is an int, not a bool (else a message naming its type), at least lo
    (else "<name> must be >= <lo>") and within the ceiling (else "weight <n>
    exceeds the ceiling <ceiling>")."""
    if n.__class__ is not int:
        _checked_int(
            n, -inf, inf, f"{name} must be an int, got {type(n).__name__} {n!r}"
        )
    _checked_int(n, lo, inf, f"{name} must be >= {lo}")
    if n > ceiling:
        raise BadParamsError(f"weight {n} exceeds the ceiling {ceiling}")


def _check_k(k: int, lo: int, stat: str) -> None:
    """k is an int, not a bool, and at least lo, else "<stat> requires k >=
    <lo>, got <k>". The stat scans call this once per cell, so the message
    is formatted only for a k that fails."""
    if k.__class__ is not int or k < lo:
        _checked_int(k, lo, inf, f"{stat} requires k >= {lo}, got {k!r}")


def _a_chunks(prefix: tuple, remaining: int, top: int, tails: tuple,
              firsts: tuple):
    """Yield the rank walk of the A(n) objects that start with prefix and
    fill the remaining weight with ranks at most top, as (prefix, tails)
    chunks: each object is prefix + tail, for tail in tails, in that order.

    A depth-first walk tries each position's ranks upward, with the shared
    Part of each rank from _PARTS. Ranks never rise along a sequence, and
    after an overlined part the next rank is strictly smaller, as the
    overline marks a value's last copy. The last part is never overlined.
    Once the weight left is below len(tails), the walk stops recursing:
    tails[w] is the rank walk of weight w as plain tuples, tails[0] the one
    empty suffix, and firsts[w] their first ranks (0 for the empty one), so
    the rest is tails[w][:bisect_right(firsts[w], top)]. Only chunks pass up
    the recursion, never an object."""
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
                prefix + (_PARTS[r],), remaining - (r + 1) // 2, r & -2,
                tails, firsts,
            )


def _a_tails(top_weight: int) -> tuple[tuple, tuple]:
    """The tails and first ranks that _a_chunks splices, for weights
    0..top_weight: each weight's walk recurses one level and splices the
    lighter walks built before it."""
    tails: list[tuple] = [((),)]
    firsts: list[tuple] = [(0,)]
    for w in range(1, top_weight + 1):
        walk = [
            prefix + tail
            for prefix, chunk in _a_chunks((), w, 2 * w, tails, firsts)
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
    """Yield the parts of every overpartition of n whose smallest part is
    not overlined (A(n) in bijections' terms; none for n = 0), as plain
    tuples, in increasing lexicographic order of the part ranks (1bar=1,
    1=2, 2bar=3, ...), largest part first. n must be at most
    OBJECT_CEILING, the last weight _PARTS covers; every caller checks it.

    Nothing is cached and nothing is validated: each call walks again, and
    each tuple is the prefix plus a tail of an _a_chunks chunk. A caller
    that needs an Overpartition passes the tuple to the constructor."""
    if n == 0:
        return
    chunks = _a_chunks((), n, 2 * n, _TAILS, _TAIL_FIRST_RANKS)
    for prefix, tails in chunks:
        yield from map(prefix.__add__, tails)


def _overpartitions(n: int):
    """Yield the parts of every overpartition of n as plain tuples, in the
    rank order of _class_a, from one walk of A(n); nothing is kept or
    validated.

    Each tuple of A(n) comes just after its twin with the last part
    overlined: toggling changes only the last rank, from 2t to 2t - 1, and
    no other overpartition of n lies between the two. The twins are made
    on demand; every part yielded is the _PARTS entry of its rank."""
    if n == 0:
        yield ()
        return
    bars = _PARTS[1::2]  # value v overlined is bars[v - 1]
    for pi in _class_a(n):
        yield pi[:-1] + (bars[pi[-1].value - 1],)
        yield pi


def enumerate_overpartitions(n: int) -> tuple[Overpartition, ...]:
    """All overpartitions of n in a fixed deterministic order.

    Exhaustive enumeration grows like the overpartition numbers themselves,
    so weights above OBJECT_CEILING are refused rather than attempted.
    """
    _check_weight(n, 0, "weight", OBJECT_CEILING)
    return tuple(map(Overpartition, _overpartitions(n)))


# -- counting via generating functions --------------------------------------

# One product table, the overpartition generating function behind pbar,
# cached per power-of-two table order capped at MAX_ORDER (_table_order), so
# every caller below that order shares one entry. It comes from Euler's
# pentagonal sums alone, which have O(sqrt(order)) terms, by long division
# over their few nonzero terms (series._div_sparse), so it never sweeps the
# full length once per factor or multiplies two dense series. Every other
# product a series side needs is built at that side's own order, uncached.

@lru_cache(maxsize=None)
def _pbar_table(order: int) -> tuple[int, ...]:
    """(-q;q)oo/(q;q)oo = (q^2;q^2)oo/(q;q)oo/(q;q)oo mod q^(order+1), two
    sparse divisions of the pentagonal sums. Besides pbar, the series
    sides that multiply by the overpartition generating function read it
    (identities._pbar_gf)."""
    p = series.pentagonal_series(order).coeffs
    p2 = series.pentagonal_series(order, 2).coeffs
    return tuple(series._div_sparse(series._div_sparse(p2, p), p))


def _table_order(n: int) -> int:
    """The order of the table that holds weight n, for n <= MAX_ORDER: the
    least power of two from 64 up that reaches n, capped at MAX_ORDER."""
    order = 64
    while order < n:
        order *= 2
    return min(order, MAX_ORDER)


def pbar(n: int) -> int:
    """Number of overpartitions of n; pbar(0) = 1 and pbar(n) = 0 for n < 0.

    A bool, a non-int or an n past MAX_ORDER raises BadParamsError before
    any table is built."""
    # one exact-type test and one comparison accept the common case
    if n.__class__ is not int or n > MAX_ORDER:
        _checked_int(
            n, -inf, MAX_ORDER,
            f"n must be an int at most MAX_ORDER = {MAX_ORDER}, got {n!r}",
        )
    if n < 0:
        return 0
    return _pbar_table(_table_order(n))[n]


# -- statistics --------------------------------------------------------------

def overline_mex(pi: Overpartition) -> int:
    """The overline-mex: the smallest odd value that does not occur as a
    non-overlined part of pi. Overlined parts never block a candidate."""
    pi = pi if isinstance(pi, Overpartition) else Overpartition(pi)
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
# assignment, weighed in closed form. Every shape is a 1-free shape S, one
# with no part 1, plus c1 >= 0 plain 1s, and S + c1 ones differs from S
# only in terms that the block of 1s decides. So one incremental fill scans
# each 1-free shape once, p(n) of them for every weight up to n (204 226
# for n = 50, against 1 295 971 shapes for one walk per weight),
# and writes each c1 >= 1 in closed form, as rows over the weight. This is
# still exhaustive counting: no table reads pbar or any generating
# function.


class _ShapeTables(NamedTuple):
    """Counts for one weight n, over the shapes of n.

    mbar, nbar and mk are indexed by k, and mex[m] counts the
    overpartitions of n whose overline-mex is m. An index past the end
    counts 0. b counts the overpartitions of n in the class B of the
    weight-down bijection (bijections.in_b)."""

    mbar: tuple[int, ...]
    nbar: tuple[int, ...]
    mk: tuple[int, ...]
    mex: tuple[int, ...]
    b: int


def _blocks_without_ones(m: int):
    """Yield every partition shape of m with no part 1 once, as
    ((value, count), ...) with values strictly decreasing, starting from
    ((m, 1),); there is none for m = 1.

    An iterative walk in multiplicity form (Nijenhuis and Wilf's NEXPAR;
    Zoghbi and Stojmenovic's ZS1) with 2 as the smallest part, in reverse
    lexicographic order: one list of blocks per walk, and each step strips
    the 2s, takes one copy off the smallest part v above 2 and refills the
    freed weight with as many parts v - 1 as fit plus one remainder part;
    where that remainder would be 1, the last part v - 1 and the 1 become
    v - 2 and 2. A copy of 3 cannot be refilled with 2s alone, so the 3s
    go two at a time, or a single 3 goes with a copy of the next value."""
    if m < 2:
        if m == 0:
            yield ()
        return
    blocks = [(m, 1)]
    while True:
        yield tuple(blocks)
        freed = 0
        if blocks[-1][0] == 2:
            freed = 2 * blocks.pop()[1]
            if not blocks:
                return
        v, c = blocks.pop()
        if v == 3:
            if c > 1:
                if c > 2:
                    blocks.append((3, c - 2))
                blocks.append((2, freed // 2 + 3))
                continue
            if not blocks:
                return
            freed += 3
            v, c = blocks.pop()
        if c > 1:
            blocks.append((v, c - 1))
        count, rest = divmod(freed + v, v - 1)
        if rest == 1:
            # the last part v - 1 and the 1 left over make v, as v - 2 and 2
            if count > 1:
                blocks.append((v - 1, count - 1))
            blocks.extend(((2, 2),) if v == 4 else ((v - 2, 1), (2, 1)))
        else:
            blocks.append((v - 1, count))
            if rest:
                blocks.append((rest, 1))


def _fill():
    """Yield the _ShapeTables of n = 0, 1, 2, ... in turn.

    Weight m's 1-free shapes S are scanned once each, as the shape S itself
    (c1 = 0), and for every c1 >= 1 as S + c1 ones, written as rows of
    later weights: a running row holds what is the same for every c1 >= 1
    and is added to each later weight, and the terms that hold only for
    some c1 go to the weight where they start or end. With c1 >= 1 the
    ones are the smallest block, so S + c1 ones has twice S's assignments:
    - mbar: k = 0 qualifies in every assignment, by the 1s, and each k >= 1
      as for S;
    - nbar: as for S, except that a first block of S with a single copy no
      longer counts at k = 1 (its value is not the smallest part >= 1);
      the block of 1s decides k = 1 when c1 is 1 or 2, and an overlined
      single 1 is exempt before such a single-copy block;
    - mk: the gap is the least value >= 2 missing from S, and with P parts
      of S, B of them below the gap, it counts while c1 < P - 2B;
    - mex: a 1 is present, so the odd values continue from 3 over S's
      blocks; with c1 >= 2 a 1 is always plain, and with c1 = 1 it is plain
      in half the assignments, and the mex is 1 in the other half;
    - b: B fails only with an overlined 1 whose next value v ranks below
      the plain part c1 + 1: as a vbar from c1 = v - 1, as a plain v from
      c1 = v.
    Weight n's table is final once every 1-free shape of weight <= n is
    scanned, so each weight is scanned once, in order, when first asked."""
    # the c1 >= 1 rows of the shapes scanned so far
    mbar_ones, nbar_ones, mk_ones = [0] * 3, [0] * 3, [0] * 3
    b_ones = 0
    # mex: the c1 = 1 rows less their mex 1, which are the c1 >= 2 rows
    # halved, summed over the weights below m and below m - 1
    mex_ones, mex_twos = [0] * 3, [0] * 3
    mk_ends = defaultdict(list)  # weight -> gaps of the mk windows ending there
    b_ends = defaultdict(int)  # weight -> b brackets starting there
    # the assignments of every shape (total) and of the shapes whose first
    # block has a single copy (single): summed over the weights below m, and
    # at weights m - 1 and m - 2
    singles = 0
    total1 = total2 = single1 = 0
    for m in itertools.count():
        size = m + 4  # index room for every column of weight m
        for row in (mbar_ones, nbar_ones, mk_ones, mex_ones, mex_twos):
            row.append(0)
        mbar_diff, nbar_col, mex_half = [0] * size, [0] * size, [0] * size
        mk_new, b_new = [0] * size, [0] * size
        total = single = shapes = 0
        for blocks in _blocks_without_ones(m):
            weight = 1 << len(blocks)
            half = weight >> 1
            total += weight
            prev = prev_c = 0
            parts = below = 0
            gap = 2  # least value >= 2 missing so far
            odd = 3  # least odd value >= 3 not yet seen as a plain part
            odd_weight = weight
            for v, c in reversed(blocks):  # values increasing
                parts += c
                # mbar: for prev <= k < v the smallest value above k is v,
                # which occurs c times whatever the flags, so k <= c - 1
                # qualifies
                top = v if v < c else c
                if top > prev:
                    mbar_diff[prev] += weight
                    mbar_diff[top] -= weight
                # nbar, prev < k < v: the smallest part >= k has value v and
                # must be plain, so v is plain and c == k
                if prev < c < v:
                    nbar_col[c] += half
                # nbar, k == v: v plain needs c == k; v overlined with c >= 2
                # is exempt once, leaving c - 1 == k plain copies
                if c == v or c - 1 == v:
                    nbar_col[v] += half
                # nbar, k == prev overlined with one copy: it is exempt
                # entirely, so this block decides and must be plain with k
                # copies
                if prev_c == 1 and c == prev:
                    nbar_col[prev] += half >> 1
                # mk: values 2..gap-1 are the first blocks
                if v == gap:
                    gap += 1
                    below += c
                # overline-mex: a value occurring twice or more is always
                # plain; a single copy is plain in half the assignments, and
                # in the other half the mex is v
                if v == odd:
                    if c == 1:
                        odd_weight >>= 1
                        mex_half[v] += odd_weight
                    odd += 2
                prev, prev_c = v, c
            mex_half[odd] += odd_weight
            if prev:
                shapes += 1
                first, first_c = blocks[-1]
                b_new[first] += half
                if first_c == 1:
                    single += weight
                end = parts - 2 * below
                if end > 1:
                    mk_new[gap] += 1
                    mk_ends[m + end].append(gap)

        # weight m: S itself, S + 1, S + 2 and the open rows of every c1
        b_ones += b_ends.pop(m, 0)
        for g in mk_ends.pop(m, ()):
            mk_ones[g] -= 1
        mbar = list(itertools.accumulate(mbar_diff[: m + 2]))
        nbar = list(map(add, nbar_col[: m + 2], nbar_ones))
        # k = 1: the 1s decide at c1 = 1 and 2, an overlined single 1 is
        # exempt before a single-copy first block, and that block no longer
        # counts for any c1 >= 1
        nbar[1] += total1 + total2 + (single1 >> 1) - singles
        mk = mk_ones[: m + 2]
        mk[1] += shapes  # S itself: no 1, and at least one part
        mex = list(map(add, mex_ones, mex_twos))
        mex[1] += total + total1  # S itself, and S + 1 with 1 overlined
        tables = _ShapeTables(
            tuple(map(add, mbar, mbar_ones)), tuple(nbar), tuple(mk),
            tuple(mex), total + b_ones,
        )

        # the rows every later weight reads
        mbar_ones[0] += 2 * total
        for k in range(1, m + 2):
            mbar_ones[k] += 2 * mbar[k]
        for k in range(size):
            nbar_ones[k] += 2 * nbar_col[k]
            mk_ones[k] += mk_new[k]
            if b_new[k]:
                b_ends[m + k - 1] -= b_new[k]
                b_ends[m + k] -= b_new[k]
        mex_twos[:] = mex_ones
        mex_ones[:] = map(add, mex_ones, mex_half)
        b_ones += 2 * total
        singles += single
        total1, total2, single1 = total, total1, single
        yield tables


# The tables of the weights filled so far, in order, and the fill that
# extends them: no weight is scanned twice in a process.
_TABLES: list[_ShapeTables] = []
_FILL = _fill()


def _shape_tables(n: int) -> _ShapeTables:
    """The tables of weight n, extending the fill up to n if it is short."""
    global _TABLES, _FILL
    try:
        while len(_TABLES) <= n:
            _TABLES.append(next(_FILL))
    except BaseException:
        # an exception, an interrupt included, ends the generator, so a fill
        # cut short starts over from weight 0
        _TABLES, _FILL = [], _fill()
        raise
    return _TABLES[n]


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
    _check_k(k, 0, "op21")
    return sum(_shape_tables(n).mex[2 * k + 1 :: 4])


def mbar(n: int, k: int) -> int:
    """Count overpartitions of n whose smallest part value above k exists and
    occurs at least k+1 times, overlined and plain occurrences together."""
    _check_weight(n, 1, "n")
    _check_k(k, 0, "mbar")
    return _column(_shape_tables(n).mbar, k)


def nbar(n: int, k: int) -> int:
    """Count overpartitions of n in which, after exempting an overlined k if
    present, the smallest remaining part of value >= k exists, is not
    overlined, and its value occurs exactly k times among the non-exempt
    parts."""
    _check_weight(n, 1, "n")
    _check_k(k, 1, "nbar")
    return _column(_shape_tables(n).nbar, k)


def mk_stat(n: int, k: int) -> int:
    """Count ordinary partitions of n whose least non-part is exactly k and
    which have more parts above k than below k."""
    _check_weight(n, 1, "n")
    _check_k(k, 1, "mk_stat")
    return _column(_shape_tables(n).mk, k)

"""Registry of verifiable identities with exact series and counting checks.

Each identity is registered under a stable string id together with a
human-readable statement of what is being compared (echoed in reports as
the anchor) and the parameter ranges it is verified over by default.
Three forms of check exist:

* series equality: both sides are built as TruncatedSeries and compared
  coefficient by coefficient up to a fixed order;
* enumerative equality: both sides are computed as integer rows over
  n = 1..n_max, by exhaustive enumeration on one side and alternating sums
  or generating-function coefficients on the other;
* inequality: one-component rows (v,) whose values must be nonnegative,
  with an optional threshold past which they must be strictly positive.
  Strictness failures are reported distinctly from sign failures.

An identity may carry several forms; each runs through one verification
pipeline, and verify_identity picks the forms from the bounds given. All
comparisons are exact, a mismatch carries the first differing index and
both values, and a verifier accepts an optional single-coefficient
perturbation of its left-hand side so the harness can prove its own
sensitivity.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from . import bijections
from . import overpartitions as op
from . import series
from .overpartitions import OBJECT_CEILING, SHAPE_CEILING, BadParamsError
from .series import MAX_ORDER, TruncatedSeries

__all__ = [
    "IdentityDescriptor",
    "VerificationReport",
    "UnknownIdentityError",
    "BadParamsError",
    "MAX_ORDER",
    "list_identities",
    "get_identity",
    "expand_grid",
    "verify_series",
    "verify_enumerative",
    "verify_inequality",
    "verify_identity",
    "run_default_suite",
]

SeriesBuilder = Callable[[Mapping[str, int], int], TruncatedSeries]
RowsBuilder = Callable[[Mapping[str, int], int], "list[tuple[int, ...]]"]
Perturb = Optional[Tuple[int, int]]  # (index, delta) added to the left side
# a check's first mismatch (index, lhs, rhs) or None, and its detail text
Outcome = Tuple[Optional[Tuple[int, int, int]], Optional[str]]


class UnknownIdentityError(KeyError):
    def __str__(self) -> str:  # KeyError would repr-quote the message
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class IdentityDescriptor:
    """One identity: its statement, parameters and form builders.

    series_lhs, enum_lhs and ineq_values mark the series, enumerative and
    inequality forms. Series builders map (params, order) to a
    TruncatedSeries; the others map (params, n_max) to one row per
    n = 1..n_max, and the rows of ineq_values are 1-tuples (v,).
    ceiling, when set, is the highest bound of every form of the identity,
    in place of the default ceiling of the form's kind (_FORMS).
    """

    id: str
    statement: str
    # validation bounds per parameter and the default verification ranges
    schema: tuple[tuple[str, int, int], ...] = ()
    param_ranges: tuple[tuple[str, int, int], ...] = ()
    requires_m_le_k: bool = False
    default_order: int | None = None
    default_n_max: int | None = None
    series_lhs: SeriesBuilder | None = None
    series_rhs: SeriesBuilder | None = None
    enum_lhs: RowsBuilder | None = None
    enum_rhs: RowsBuilder | None = None
    ineq_values: RowsBuilder | None = None
    strict_from: Callable[[Mapping[str, int]], int] | None = None
    ceiling: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    id: str
    params: tuple[tuple[str, int], ...]
    compared: str
    status: str  # "pass" | "fail"
    first_mismatch: tuple[int, int, int] | None
    elapsed_ms: float
    anchor: str
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_jsonable(self, include_timing: bool = True) -> dict:
        out: dict = {
            "id": self.id,
            "params": {k: v for k, v in self.params},
            "range": self.compared,
            "status": self.status,
        }
        if self.first_mismatch is not None:
            out["firstMismatch"] = list(self.first_mismatch)
        out["elapsedMs"] = round(self.elapsed_ms, 3) if include_timing else 0
        out["anchor"] = self.anchor
        if self.detail is not None:
            out["detail"] = self.detail
        return out


# -- shared numeric helpers ---------------------------------------------------

def _sign(e: int) -> int:
    return 1 if e % 2 == 0 else -1


def _pbar_gf(order: int) -> TruncatedSeries:
    """The overpartition generating function (-q;q)oo/(q;q)oo, read from
    the one product table that series sides share (op._pbar_table) and
    truncated to the order.

    The table is built once per power-of-two table order, from Euler's
    pentagonal sums and sparse long division by them, and shared by every
    caller. Of the sides that read it here, only cor-2-6's two share it, as
    a common factor; every other reader is an inequality's one side or
    faces a side built independently (a theta sum, a recurrence, a shape
    count, zero, or a tail sum, which divides by the theta sum itself).
    Any other product a side needs is built at that side's own order."""
    table = op._pbar_table(op._table_order(order))
    return TruncatedSeries(order, table[: order + 1])


def _horner_sum(order: int, first: int, step: int, n_lo: int,
                ratio: Callable[[list[int], int], list[int]]) -> list[int] | None:
    """U(n_lo) for sum_{n>=n_lo} q^(first+step*(n-n_lo)) * T(n) whose summands
    differ by a few single factors, T(n+1) = T(n) * r(n): the sum is
    q^first * T(n_lo) * U(n_lo) with the truncated Horner scheme
    U(n) = 1 + q^step * r(n) * U(n+1), ratio(u, n) giving u * r(n) at u's
    length (in place or not). U(n) is kept only to the length its shift
    leaves visible: 1 padded to that length at the last term, step more
    coefficients per step, down to order - first + 1. None means no term is
    visible (first > order); the caller applies the head T(n_lo)."""
    if first > order:
        return None
    n_hi = n_lo + (order - first) // step
    u = [1] + [0] * (order - first - step * (n_hi - n_lo))
    pad = [1] + [0] * (step - 1)
    for n in range(n_hi - 1, n_lo - 1, -1):
        u = pad + ratio(u, n)
    return u


@lru_cache(maxsize=64)
def _tail_sum(order: int, m_lo: int, denom_off: int) -> TruncatedSeries:
    """sum_{m>=m_lo} q^(m_lo*m) * R(m) with
    R(m) = (-q^(m+1);q)oo / (q^(m+denom_off);q)oo.

    Successive ratios differ by one factor on each side,
    R(m+1) = R(m) * (1 - q^(m+denom_off)) / (1 + q^(m+1)), so the sum is
    q^(m_lo^2) * R(m_lo) * U(m_lo) by _horner_sum, each step one fused
    pass (series._times_ratio).
    The head R(m_lo) is the overpartition generating function times
    (q;q)_{m_lo+denom_off-1} and divided by (-q;q)_{m_lo}. Its finite
    factors are applied to U(m_lo) one at a time, and the overpartition
    generating function is 1/theta by Gauss, so the sum ends with one
    sparse long division by the full theta sum (series._div_sparse). It
    reads no product table, so a side built from a tail sum shares nothing
    with a side that reads _pbar_table.

    Each sum is built once per process and kept, keyed by the exact order,
    in a bounded cache (64 entries of at most order+1 coefficients). The
    cached series is shared by every caller, so callers copy before they
    mutate: _times_neg_poch and _div_qpoch start from list(s.coeffs), and
    times_factor returns a new series. Identities may share a sum, but no
    identity reads the same one on both sides.
    """
    u = _horner_sum(order, m_lo * m_lo, m_lo, m_lo,
                    lambda u, m: series._times_ratio(u, m + denom_off, m + 1))
    if u is None:
        return series.zero(order)
    for i in range(1, m_lo + denom_off):
        series._times_factor_into(u, i, 1)
    for i in range(1, m_lo + 1):
        series._div_factor_into(u, i, -1)
    theta = series.gauss_theta(None, len(u) - 1).coeffs
    tail = series._div_sparse(u, theta)
    return TruncatedSeries(order, [0] * (m_lo * m_lo) + tail)


def _odd_square_theta(k: int, order: int) -> TruncatedSeries:
    """sum_{j>=0} (q^((k+2j+1)^2) - q^((k+2j+2)^2)) truncated at order: the
    theta window j = k+1 .. sqrt(order), signed so that it starts at +1."""
    window = series.theta_partial(k + 1, math.isqrt(order), order)
    return window.scale(_sign(k + 1))


def _times_neg_poch(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by (-q;q)_k, one factor at a time."""
    c = list(s.coeffs)
    for i in range(1, min(k, s.order) + 1):
        series._times_factor_into(c, i, -1)
    return TruncatedSeries(s.order, c)


def _div_qpoch(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """Divide by (q;q)_n, one factor at a time."""
    c = list(s.coeffs)
    for i in range(1, min(n, s.order) + 1):
        series._div_factor_into(c, i, 1)
    return TruncatedSeries(s.order, c)


def _large_tail(kappa: int, order: int) -> TruncatedSeries:
    """(-q;q)_kappa/(q;q)_kappa sum_{m>=kappa+1} q^((kappa+1)m)
    (-q^(m+1);q)oo / (q^m;q)oo."""
    tail = _times_neg_poch(_tail_sum(order, kappa + 1, 0), kappa)
    return _div_qpoch(tail, kappa)


def _li_tail(k: int, order: int) -> TruncatedSeries:
    """(-q;q)_k/(q;q)_{k-1} sum_{m>=k} q^(km) (-q^(m+1);q)oo / (q^(m+1);q)oo."""
    return _div_qpoch(_times_neg_poch(_tail_sum(order, k, 1), k), k - 1)


def _mbar_gf(kappa: int, order: int) -> TruncatedSeries:
    """Generating function of the repeated-first-large-part counts."""
    return _large_tail(kappa, order).scale(2)


def _op21_gf(k: int, order: int) -> TruncatedSeries:
    """(-q;q)oo/(q;q)oo sum_{j>=0} q^((k+2j+1)^2) (1-q^(2k+4j+3)): the pbar
    table times the odd-square theta tail, by gen-op the generating function
    of op21(n|k+1)."""
    return _pbar_gf(order) * _odd_square_theta(k, order)


# -- series builders ----------------------------------------------------------

def _pent_am_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """The first k terms of the pentagonal sum over (q;q)oo: the full sum
    below q^(k(3k+1)/2), where term k starts and term k-1 has ended, then
    one sparse long division by the full sum, at this side's own order."""
    k = p["k"]
    end = k * (3 * k + 1) // 2
    pent = series.pentagonal_series(order).coeffs
    head = [c if e < end else 0 for e, c in enumerate(pent)]
    return TruncatedSeries(order, series._div_sparse(head, pent))


def _pent_am_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """Summands T(n) = qbin(n-1|k-1)/(q;q)_n at q^(k(k-1)/2+(k+1)n) vanish
    below n = k. Successive ones differ by three factors, so the sum is the
    Horner scheme U(n) = 1 + q^(k+1) (1-q^n) / ((1-q^(n-k+1)) (1-q^(n+1)))
    U(n+1), with the head T(k) = 1/(q;q)_k applied once at the end."""
    k = p["k"]

    def ratio(u: list[int], n: int) -> list[int]:
        series._times_factor_into(u, n, 1)
        series._div_factor_into(u, n - k + 1, 1)
        series._div_factor_into(u, n + 1, 1)
        return u

    first = k * (k - 1) // 2 + (k + 1) * k
    u = _horner_sum(order, first, k + 1, k, ratio)
    if u is None:
        return series.one(order)
    tail = _div_qpoch(TruncatedSeries(order, [0] * first + u), k)
    return series.one(order) + tail.scale(_sign(k - 1))


def _gauss_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    return series.gauss_theta(None, order)


def _gauss_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """(q;q)oo/(-q;q)oo = (q;q)oo^2/(q^2;q^2)oo by Euler: the pentagonal sum
    squared, then one sparse long division by the dilated pentagonal sum.
    It reads neither a product table nor the theta sum."""
    qq = series.pentagonal_series(order)
    q2q2 = series.pentagonal_series(order, 2).coeffs
    return TruncatedSeries(order, series._div_sparse((qq * qq).coeffs, q2q2))


def _guo_zeng_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    return _pbar_gf(order) * series.gauss_theta(p["k"], order)


def _guo_zeng_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """Summands T(n) = (-q;q)_k (-1;q)_{n-k} qbin(n-1|k)/(q;q)_n at q^((k+1)n)
    start at n = k+1. Successive ones differ by four factors, so the sum is
    the Horner scheme
    U(n) = 1 + q^(k+1) (1-q^n)(1+q^(n-k)) / ((1-q^(n-k))(1-q^(n+1))) U(n+1),
    with the head T(k+1) = (-1;q)_{k+1}/(q;q)_{k+1} = 2(-q;q)_k/(q;q)_{k+1}
    applied once at the end."""
    k = p["k"]

    def ratio(u: list[int], n: int) -> list[int]:
        series._times_factor_into(u, n, 1)
        series._times_factor_into(u, n - k, -1)
        series._div_factor_into(u, n - k, 1)
        series._div_factor_into(u, n + 1, 1)
        return u

    first = (k + 1) * (k + 1)
    u = _horner_sum(order, first, k + 1, k + 1, ratio)
    if u is None:
        return series.one(order)
    tail = _times_neg_poch(TruncatedSeries(order, [0] * first + u), k)
    return series.one(order) + _div_qpoch(tail, k + 1).scale(2 * _sign(k))


def _am2018_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return series.one(order) + _large_tail(k, order).scale(2 * _sign(k))


def _li_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return _pbar_gf(order) * series.theta_partial(-k, k - 1, order)


def _li_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return series.one(order) + _li_tail(k, order).scale(_sign(k - 1))


def _cor26_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return series.one(order) + _op21_gf(k, order).scale(2 * _sign(k))


def _cor29_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return _mbar_gf(k - 1, order) - _mbar_gf(k, order)


def _cor29_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    return _li_tail(p["k"], order).scale(2)


def _sec5_main_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return _large_tail(k - 1, order) - _large_tail(k, order)


def _sec5_main_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    return _li_tail(p["k"], order)


def _sec5_red_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    s1 = _tail_sum(order, k, 0)
    s2 = _tail_sum(order, k + 1, 0)
    return s1.times_factor(k, 1) - s2.times_factor(k, -1)


def _sec5_red_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k = p["k"]
    return _tail_sum(order, k, 1).times_factor(2 * k, 1)


def _euler_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """1/(q;q^2)oo, the product over odd parts, divided out one factor at a
    time. The rhs is (q^2;q^2)oo/(q;q)oo, so this side reads no pentagonal
    sum and no product table."""
    c = [1] + [0] * order
    for e in range(1, order + 1, 2):
        series._div_factor_into(c, e, 1)
    return TruncatedSeries(order, c)


def _euler_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """(-q;q)oo = (q^2;q^2)oo/(q;q)oo by Euler: one sparse long division of
    the dilated pentagonal sum by the plain one."""
    q2q2 = series.pentagonal_series(order, 2).coeffs
    qq = series.pentagonal_series(order).coeffs
    return TruncatedSeries(order, series._div_sparse(q2q2, qq))


def _yao_lhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    """Built from enumerated counts: the repeated-first-large-part counts
    (0 at weight 0) times Euler's pentagonal sum for (q^ell;q^ell)oo, so
    coefficient n is their alternating sum over the dilated generalized
    pentagonal shifts."""
    k = p["k"]
    counts = [0] + [op.mbar(m, k) for m in range(1, order + 1)]
    pent = series.pentagonal_series(order, p["ell"])
    return pent * TruncatedSeries(order, counts)


def _yao_rhs(p: Mapping[str, int], order: int) -> TruncatedSeries:
    k, ell = p["k"], p["ell"]
    # (q^ell;q^ell)oo/(q;q)oo
    s = _div_qpoch(series.qproduct(1, ell, ell, None, order), order)
    c = list(s.coeffs)
    for e in range(1, order + 1, 2):  # 1/(q;q^2)oo
        series._div_factor_into(c, e, 1)
    return (TruncatedSeries(order, c) * _odd_square_theta(k, order)).scale(2)


# -- enumerative builders -----------------------------------------------------

def _rows(fn: Callable[[int], tuple[int, ...]], n_max: int) -> list[tuple[int, ...]]:
    return [fn(n) for n in range(1, n_max + 1)]


def _rows_of(s: TruncatedSeries) -> list[tuple[int, ...]]:
    """Coefficients 1..order of s, one row (c,) each.

    Coefficient n of the pbar series times a theta window
    sum_{j=m..k} (-1)^j q^(j^2) is the window's alternating sum of
    pbar(n - j^2), so every coefficient side of a truncated Gauss sum is
    the rows of that one product."""
    return [(c,) for c in s.coeffs[1:]]


def _thm11_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    """Coefficient n of pentagonal-am's lhs is the statement's alternating
    sum of p(n - ...), so the rows are read off that series."""
    return _rows_of(_pent_am_lhs(p, n_max).scale(_sign(p["k"] - 1)))


def _thm11_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.mk_stat(n, k),), n_max)


def _gauss_enum_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_pbar_gf(n_max) * series.gauss_theta(None, n_max))


def _gauss_enum_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return [(0,)] * n_max


def _thm13_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_guo_zeng_lhs(p, n_max).scale(_sign(p["k"])))


def _thm13_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.mbar(n, k),), n_max)


def _thm14_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_li_lhs(p, n_max).scale(_sign(p["k"] - 1)))


def _thm14_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.nbar(n, k),), n_max)


def _thm22_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows(lambda n: (2 * op.op21(n, 0),), n_max)


def _thm23_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows(lambda n: (2 * op.op21(n, 1),), n_max)


def _pbar_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_pbar_gf(n_max))


def _split21_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows(lambda n: (sum(op.op_class_counts(n)),), n_max)


def _thm24_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    m, k = p["m"], p["k"]
    window = series.theta_partial(m, k, n_max).scale(_sign(min(abs(m), k)))
    return _rows_of(_pbar_gf(n_max) * window)


def _thm24_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    m, k = p["m"], p["k"]
    a, b = min(abs(m), abs(k)), max(abs(m), abs(k))
    eps = _sign(m + k)
    low = a if m * k > 0 else a + 1
    return _rows(lambda n: (op.op21(n, low) + eps * op.op21(n, b + 1),), n_max)


def _cor25a_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (2 * op.op21(n, k + 1),), n_max)


def _cor25b_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.op21(n, k) - op.op21(n, k + 1),), n_max)


def _cor27_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(
        lambda n: (2 * op.op21(n, k + 1), op.op21(n, k) - op.op21(n, k + 1)), n_max
    )


def _cor27_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.mbar(n, k), op.nbar(n, k)), n_max)


def _gen_op_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.op21(n, k + 1),), n_max)


def _gen_op_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_op21_gf(p["k"], n_max))


def _cor29_enum_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    k = p["k"]
    return _rows(lambda n: (op.mbar(n, k - 1) - op.mbar(n, k),), n_max)


def _cor29_enum_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    return _rows_of(_cor29_rhs(p, n_max))


def _lemma41_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    j = p["j"]
    return _rows(lambda n: (op.pbar(n - j * j),), n_max)


def _lemma41_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    j = p["j"]
    return _rows(lambda n: (op.op21(n, j) + op.op21(n, j + 1),), n_max)


def _sec3_lhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    def row(n: int) -> tuple[int, ...]:
        # the check's walk alone, not the check, which also reads the shape
        # tables and pbar that the rhs reads
        a_count, images_in_b, round_trip_ok, weights_ok, witness_ok = (
            bijections._weight_down_walk(n)
        )
        # C(n-1) from objects: for n <= 3 by testing the at most 4
        # overpartitions of n - 1, above by the witness
        if n <= 3:
            lower = op.enumerate_overpartitions(n - 1)
            c_comp = sum(not bijections.in_b(lam) for lam in lower)
        else:
            c_comp = int(witness_ok is True)
        bijective = int(round_trip_ok and weights_ok)
        return (a_count, images_in_b, bijective, c_comp)

    return _rows(row, n_max)


def _sec3_rhs(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    def row(n: int) -> tuple[int, ...]:
        pbar = op.pbar(n)
        half = pbar // 2 if pbar % 2 == 0 else -1
        return (half, op._shape_tables(n - 1).b, 1, 0 if n <= 3 else 1)

    return _rows(row, n_max)


# -- inequality builders ------------------------------------------------------

def _ineq_xyz_rows(p: Mapping[str, int], n_max: int) -> list[tuple[int, ...]]:
    """The window (-1)^(k-1) sum_{j=-k..k} (-1)^j q^(j^2) plus q^(k(k+1)),
    times the pbar series."""
    k = p["k"]
    window = series.gauss_theta(k, n_max).scale(_sign(k - 1))
    if k * (k + 1) <= n_max:
        window = window + series.monomial(n_max, k * (k + 1))
    return _rows_of(_pbar_gf(n_max) * window)


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, IdentityDescriptor] = {}


def _register(desc: IdentityDescriptor) -> None:
    if desc.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {desc.id!r}")
    _REGISTRY[desc.id] = desc


_K_MAX = 64  # the largest |k| (and |m|) a parameter range may reach
_K = (("k", 1, _K_MAX),)
_MK = (("m", -_K_MAX, _K_MAX), ("k", -_K_MAX, _K_MAX))

_register(
    IdentityDescriptor(
        id="pentagonal-am",
        statement=(
            "1/(q;q)oo * sum_{j=0..k-1} (-1)^j q^(j(3j+1)/2) (1-q^(2j+1)) = 1 + "
            "(-1)^(k-1) sum_{n>=1} q^(k(k-1)/2+(k+1)n) / (q;q)_n * qbin(n-1|k-1)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        series_lhs=_pent_am_lhs,
        series_rhs=_pent_am_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-1-1",
        statement=(
            "(-1)^(k-1) sum_{j=0..k-1} (-1)^j (p(n-j(3j+1)/2) - p(n-j(3j+5)/2-1)) "
            "counts partitions of n with least non-part k and more parts above k "
            "than below"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=30,
        enum_lhs=_thm11_lhs,
        enum_rhs=_thm11_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="gauss",
        statement=(
            "1 + 2 sum_{j>=1} (-1)^j q^(j^2) = (q;q)oo / (-q;q)oo; equivalently "
            "pbar(n) + 2 sum_{j>=1} (-1)^j pbar(n-j^2) = 0 for n >= 1"
        ),
        default_order=200,
        default_n_max=25,
        ceiling=MAX_ORDER,  # reads pbar, not a shape count
        series_lhs=_gauss_lhs,
        series_rhs=_gauss_rhs,
        enum_lhs=_gauss_enum_lhs,
        enum_rhs=_gauss_enum_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="guo-zeng-truncation",
        statement=(
            "(-q;q)oo/(q;q)oo (1 + 2 sum_{j=1..k} (-1)^j q^(j^2)) = 1 + (-1)^k "
            "sum_{n>=k+1} (-q;q)_k (-1;q)_{n-k} q^((k+1)n) / (q;q)_n * qbin(n-1|k)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        series_lhs=_guo_zeng_lhs,
        series_rhs=_guo_zeng_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="ineq-guo-zeng",
        statement=(
            "(-1)^k (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) >= 0 with strict "
            "inequality for n >= (k+1)^2"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=60,
        ineq_values=_thm13_lhs,
        strict_from=lambda p: (p["k"] + 1) ** 2,
    )
)

_register(
    IdentityDescriptor(
        id="am-2018-truncation",
        statement=(
            "(-q;q)oo/(q;q)oo (1 + 2 sum_{j=1..k} (-1)^j q^(j^2)) = 1 + 2 (-1)^k "
            "(-q;q)_k/(q;q)_k sum_{j>=0} q^((k+1)(k+j+1)) (-q^(k+j+2);q)oo / "
            "(q^(k+j+1);q)oo"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        series_lhs=_guo_zeng_lhs,
        series_rhs=_am2018_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-1-3",
        statement=(
            "(-1)^k (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) counts "
            "overpartitions of n whose smallest part value above k occurs at "
            "least k+1 times (overlined occurrences included)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        enum_lhs=_thm13_lhs,
        enum_rhs=_thm13_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="yao",
        statement=(
            "sum_n sum_j (-1)^j Mbar_k(n - l j(3j-1)/2) q^n = 2 (q^l;q^l)oo / "
            "(q;q)oo / (q;q^2)oo * sum_{j>=0} q^((k+2j+1)^2) (1-q^(2k+4j+3))"
        ),
        schema=(("k", 1, 64), ("ell", 1, 16)),
        param_ranges=(("k", 1, 3), ("ell", 1, 3)),
        default_order=25,
        ceiling=SHAPE_CEILING,  # its lhs reads the shape-counted mbar
        series_lhs=_yao_lhs,
        series_rhs=_yao_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="ineq-conj-1-5",
        statement=(
            "(-1)^(k-1) (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) + "
            "pbar(n-k^2) >= 0 with strict inequality for n >= k^2"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=60,
        # the window's j = k term (-1)^k pbar(n-k^2), times (-1)^(k-1), is
        # -pbar(n-k^2) and cancels the + pbar(n-k^2): what is left is
        # thm-1-4's window -k..k-1
        ineq_values=_thm14_lhs,
        strict_from=lambda p: p["k"] * p["k"],
    )
)

_register(
    IdentityDescriptor(
        id="ineq-xyz",
        statement=(
            "(-1)^(k-1) (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) + "
            "pbar(n-k(k+1)) >= 0"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=60,
        ineq_values=_ineq_xyz_rows,
    )
)

_register(
    IdentityDescriptor(
        id="li-truncation",
        statement=(
            "(-q;q)oo/(q;q)oo sum_{j=-k..k-1} (-1)^j q^(j^2) = 1 + (-1)^(k-1) "
            "(-q;q)_k/(q;q)_{k-1} sum_{j>=0} q^(k(k+j)) (-q^(k+j+1);q)oo / "
            "(q^(k+j+1);q)oo"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        series_lhs=_li_lhs,
        series_rhs=_li_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-1-4",
        statement=(
            "(-1)^(k-1) sum_{j=-k..k-1} (-1)^j pbar(n-j^2) counts overpartitions "
            "of n in which after exempting an overlined k the smallest remaining "
            "part of value >= k is plain and its value occurs exactly k times"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        enum_lhs=_thm14_lhs,
        enum_rhs=_thm14_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="ineq-m-k",
        statement=(
            "(-1)^min(|m| k) sum_{j=m..k} (-1)^j pbar(n-j^2) >= 0 for m <= k"
        ),
        schema=_MK,
        param_ranges=(("m", -4, 4), ("k", -4, 4)),
        requires_m_le_k=True,
        default_n_max=60,
        ineq_values=_thm24_lhs,
    )
)

_register(
    IdentityDescriptor(
        id="op-split-2-1",
        statement="op_{2 1}(n) + opbar_{2 1}(n) = pbar(n)",
        default_n_max=25,
        enum_lhs=_split21_lhs,
        enum_rhs=_pbar_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-2-2",
        statement="2 op21(n|0) = pbar(n)",
        default_n_max=25,
        enum_lhs=_thm22_lhs,
        enum_rhs=_pbar_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-2-3",
        statement="2 op21(n|1) = pbar(n)",
        default_n_max=25,
        enum_lhs=_thm23_lhs,
        enum_rhs=_pbar_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="thm-2-4",
        statement=(
            "(-1)^min(|m| k) sum_{j=m..k} (-1)^j pbar(n-j^2) = op21(n|a) + "
            "(-1)^(m+k) op21(n|b+1) when mk > 0 and op21(n|a+1) + (-1)^(m+k) "
            "op21(n|b+1) when mk <= 0 where a=min(|m| |k|) b=max(|m| |k|)"
        ),
        schema=_MK,
        param_ranges=(("m", -4, 4), ("k", -4, 4)),
        requires_m_le_k=True,
        default_n_max=25,
        enum_lhs=_thm24_lhs,
        enum_rhs=_thm24_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="cor-2-5-first",
        statement=(
            "(-1)^k (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) = 2 op21(n|k+1)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        enum_lhs=_thm13_lhs,
        enum_rhs=_cor25a_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="cor-2-5-second",
        statement=(
            "(-1)^(k-1) (pbar(n) + 2 sum_{j=1..k} (-1)^j pbar(n-j^2)) + "
            "pbar(n-k^2) = op21(n|k) - op21(n|k+1)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        # the same sum as ineq-conj-1-5's values: thm-1-4's window -k..k-1
        enum_lhs=_thm14_lhs,
        enum_rhs=_cor25b_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="gen-op",
        statement=(
            "sum_n op21(n|k+1) q^n = (-q;q)oo/(q;q)oo sum_{j>=0} "
            "q^((k+2j+1)^2) (1-q^(2k+4j+3))"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        enum_lhs=_gen_op_lhs,
        enum_rhs=_gen_op_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="cor-2-6",
        statement=(
            "(-q;q)oo/(q;q)oo (1 + 2 sum_{j=1..k} (-1)^j q^(j^2)) = 1 + 2 (-1)^k "
            "(-q;q)oo/(q;q)oo sum_{j>=0} q^((k+2j+1)^2) (1-q^(2k+4j+3))"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        series_lhs=_guo_zeng_lhs,
        series_rhs=_cor26_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="cor-2-7",
        statement=(
            "2 op21(n|k+1) = Mbar_k(n) and op21(n|k) - op21(n|k+1) = Nbar_k(n)"
        ),
        schema=_K,
        param_ranges=(("k", 1, 4),),
        default_n_max=25,
        enum_lhs=_cor27_lhs,
        enum_rhs=_cor27_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="cor-2-9",
        statement=(
            "sum_n (Mbar_{k-1}(n) - Mbar_k(n)) q^n = 2 (-q;q)_k/(q;q)_{k-1} "
            "sum_{j>=0} q^(k(k+j)) (-q^(k+j+1);q)oo / (q^(k+j+1);q)oo"
        ),
        schema=_K,
        param_ranges=(("k", 1, 8),),
        default_order=100,
        default_n_max=25,
        series_lhs=_cor29_lhs,
        series_rhs=_cor29_rhs,
        enum_lhs=_cor29_enum_lhs,
        enum_rhs=_cor29_enum_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="euler-odd-distinct",
        statement="1/(q;q^2)oo = (-q;q)oo",
        default_order=200,
        series_lhs=_euler_lhs,
        series_rhs=_euler_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="lemma-4-1",
        statement="pbar(n-j^2) = op21(n|j) + op21(n|j+1)",
        schema=(("j", 1, 16),),
        param_ranges=(("j", 1, 4),),
        default_n_max=25,
        enum_lhs=_lemma41_lhs,
        enum_rhs=_lemma41_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="sec3-bijection",
        statement=(
            "dropping or spreading the smallest non-overlined part is a "
            "weight-1-decreasing bijection between the smallest-part-plain "
            "class of n and the gap-conditioned class of n-1; both have size "
            "pbar(n)/2 and the complement class is empty exactly for n <= 3"
        ),
        default_n_max=20,
        ceiling=OBJECT_CEILING,  # maps materialised overpartitions
        enum_lhs=_sec3_lhs,
        enum_rhs=_sec3_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="sec5-main",
        statement=(
            "(-q;q)_{k-1}/(q;q)_{k-1} sum_j q^(k(k+j)) (-q^(k+j+1);q)oo/"
            "(q^(k+j);q)oo - (-q;q)_k/(q;q)_k sum_j q^((k+1)(k+j+1)) "
            "(-q^(k+j+2);q)oo/(q^(k+j+1);q)oo = (-q;q)_k/(q;q)_{k-1} "
            "sum_j q^(k(k+j)) (-q^(k+j+1);q)oo/(q^(k+j+1);q)oo"
        ),
        schema=_K,
        param_ranges=(("k", 1, 10),),
        default_order=100,
        series_lhs=_sec5_main_lhs,
        series_rhs=_sec5_main_rhs,
    )
)

_register(
    IdentityDescriptor(
        id="sec5-reduced",
        statement=(
            "(1-q^k) sum_j q^(k(k+j)) (-q^(k+j+1);q)oo/(q^(k+j);q)oo - (1+q^k) "
            "sum_j q^((k+1)(k+j+1)) (-q^(k+j+2);q)oo/(q^(k+j+1);q)oo = "
            "(1-q^(2k)) sum_j q^(k(k+j)) (-q^(k+j+1);q)oo/(q^(k+j+1);q)oo"
        ),
        schema=_K,
        param_ranges=(("k", 1, 10),),
        default_order=100,
        series_lhs=_sec5_red_lhs,
        series_rhs=_sec5_red_rhs,
    )
)


# -- verification -------------------------------------------------------------

def list_identities() -> tuple[IdentityDescriptor, ...]:
    return tuple(_REGISTRY.values())


def get_identity(ident: str) -> IdentityDescriptor:
    if not isinstance(ident, str):
        raise BadParamsError(
            f"identity id must be a str, got {type(ident).__name__} {ident!r}"
        )
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity id {ident!r}") from None


def _validate_params(
    desc: IdentityDescriptor, params: Mapping[str, int] | None
) -> dict[str, int]:
    given = dict(_checked_mapping(params, "params"))
    names = [name for name, _, _ in desc.schema]
    unknown = _sorted_names(set(given) - set(names))
    if unknown:
        raise BadParamsError(
            f"{desc.id} does not take parameter(s) {unknown}; expects {names}"
        )
    missing = sorted(set(names) - set(given))
    if missing:
        raise BadParamsError(f"{desc.id} requires parameter(s) {missing}")
    for name, lo, hi in desc.schema:
        v = given[name]
        series._checked_int(
            v, lo, hi, f"{desc.id}: parameter {name}={v!r} outside {lo}..{hi}"
        )
    if desc.requires_m_le_k and given["m"] > given["k"]:
        raise BadParamsError(f"{desc.id}: requires m <= k, got {given}")
    return given


def _sorted_names(names) -> list:
    """Caller-supplied parameter names in a fixed order for a message: by
    their text, so names of mixed types (1 and "a") still sort."""
    return sorted(names, key=lambda name: (str(name), type(name).__name__))


def _checked_mapping(v: object, name: str) -> Mapping:
    """v when it is a mapping, {} when it is None, else BadParamsError."""
    if v is None:
        return {}
    if not isinstance(v, Mapping):
        raise BadParamsError(
            f"{name} must be a mapping, got {type(v).__name__} {v!r}"
        )
    return v


def _checked_pair(v: object, message: str) -> tuple:
    """v when it is a tuple or list of two items, else BadParamsError."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise BadParamsError(message)
    return v


def _series_check(
    desc: IdentityDescriptor, p: Mapping[str, int], n: int, perturb: Perturb
) -> Outcome:
    """Coefficients q^0..q^n of both sides; perturb adds delta*q^index to
    the left."""
    lhs = desc.series_lhs(p, n)
    rhs = desc.series_rhs(p, n)
    if perturb is not None:
        lhs = lhs + series.monomial(n, *perturb)
    for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return (i, a, b), None
    return None, None


def _apply_perturb(rows: list[tuple[int, ...]], perturb: Perturb) -> None:
    """Shift the first component of the row at the perturbation index."""
    if perturb is not None:
        idx, delta = perturb
        rows[idx - 1] = (rows[idx - 1][0] + delta,) + rows[idx - 1][1:]


def _enum_check(
    desc: IdentityDescriptor, p: Mapping[str, int], n: int, perturb: Perturb
) -> Outcome:
    """Rows for weights 1..n; perturb shifts the first component of the
    left row at the index."""
    lhs = desc.enum_lhs(p, n)
    rhs = desc.enum_rhs(p, n)
    _apply_perturb(lhs, perturb)
    for w, (lrow, rrow) in enumerate(zip(lhs, rhs), start=1):
        for ci, (a, b) in enumerate(zip(lrow, rrow)):
            if a != b:
                detail = f"display {ci + 1} of {len(lrow)}"
                return (w, a, b), detail if len(lrow) > 1 else None
    return None, None


def _ineq_check(
    desc: IdentityDescriptor, p: Mapping[str, int], n: int, perturb: Perturb
) -> Outcome:
    """Values for weights 1..n against 0, and against strictness past the
    descriptor's threshold; perturb shifts the value at the index."""
    values = desc.ineq_values(p, n)
    _apply_perturb(values, perturb)
    threshold = desc.strict_from(p) if desc.strict_from is not None else None
    for w, (v,) in enumerate(values, start=1):
        if v < 0:
            return (w, v, 0), "sign violation: value below 0"
        if threshold is not None and w >= threshold and v == 0:
            return (w, v, 0), (
                f"strictness violation: zero at n={w} >= {threshold}"
            )
    return None, None


class _Form(NamedTuple):
    attr: str  # descriptor field that is set when the identity has the form
    low: int  # lowest compared index, and lowest allowed bound
    bound: str  # name of the bound; the descriptor default is default_<bound>
    compared: str  # report label, formatted with the bound
    check: Callable[..., Outcome]
    ceiling: int  # highest allowed bound, unless the descriptor sets one


# series and inequality forms read tables and series only; enumerative forms
# count over shapes, so they stop at the shape ceiling
_FORMS = {
    "series": _Form("series_lhs", 0, "order", "order={}", _series_check, MAX_ORDER),
    "enumerative": _Form("enum_lhs", 1, "n_max", "n=1..{}", _enum_check, SHAPE_CEILING),
    "inequality": _Form("ineq_values", 1, "n_max", "n=1..{}", _ineq_check, MAX_ORDER),
}


def _checked_bound(desc: IdentityDescriptor, form: str, bound: int | None) -> int:
    """The bound of one form, or the descriptor's default, checked against
    the form's ceiling."""
    f = _FORMS[form]
    n = getattr(desc, f"default_{f.bound}") if bound is None else bound
    ceiling = f.ceiling if desc.ceiling is None else desc.ceiling
    message = f"{desc.id}: {f.bound} must be within {f.low}..{ceiling}, got {n!r}"
    return series._checked_int(n, f.low, ceiling, message)


def _checked_forms(
    desc: IdentityDescriptor, order: int | None, n_max: int | None
) -> list[tuple[str, int | None]]:
    """(form, bound) for every form of desc that the bounds select, in
    _FORMS order: order alone selects the series form, n_max alone the
    enumerative and inequality forms, both or neither every form.

    Each bound given must be within its forms' range even when no form
    uses it, and each selected form's bound within its ceiling."""
    given = {"order": order, "n_max": n_max}
    neither = order is None and n_max is None
    forms = []
    for form, f in _FORMS.items():
        bound = given[f.bound]
        if bound is not None:
            series._checked_int(
                bound, f.low, MAX_ORDER,
                f"{f.bound} must be within {f.low}..{MAX_ORDER}, got {bound!r}",
            )
        if getattr(desc, f.attr) is not None and (bound is not None or neither):
            _checked_bound(desc, form, bound)
            forms.append((form, bound))
    return forms


def _verify(
    form: str,
    ident: str,
    params: Mapping[str, int] | None,
    bound: int | None,
    perturb: Perturb,
) -> VerificationReport:
    """The one verification pipeline: validate the parameters, the bound and
    any perturbation index before either side is built, then time the
    form's check and report its first mismatch."""
    f = _FORMS[form]
    desc = get_identity(ident)
    if getattr(desc, f.attr) is None:
        raise BadParamsError(f"{ident} has no {form} form")
    p = _validate_params(desc, params)
    n = _checked_bound(desc, form, bound)
    if perturb is not None:
        idx, delta = _checked_pair(perturb, "perturb must be an (index, delta) pair")
        series._checked_int(
            idx, f.low, n, f"perturbation index {idx} outside {f.low}..{n}"
        )
        series._checked_int(
            delta, -math.inf, math.inf, f"perturbation delta {delta!r} not an int"
        )
    t0 = perf_counter()
    mismatch, detail = f.check(desc, p, n, perturb)
    elapsed = (perf_counter() - t0) * 1000.0
    return VerificationReport(
        id=ident,
        params=tuple(sorted(p.items())),
        compared=f.compared.format(n),
        status="pass" if mismatch is None else "fail",
        first_mismatch=mismatch,
        elapsed_ms=elapsed,
        anchor=desc.statement,
        detail=detail,
    )


def verify_series(
    ident: str,
    params: Mapping[str, int] | None = None,
    order: int | None = None,
    *,
    perturb: tuple[int, int] | None = None,
) -> VerificationReport:
    """Compare both series sides coefficientwise up to the order.

    perturb=(index, delta) adds delta*q^index to the left side before the
    comparison; it exists so tests can confirm the check actually bites.
    """
    return _verify("series", ident, params, order, perturb)


def verify_enumerative(
    ident: str,
    params: Mapping[str, int] | None = None,
    n_max: int | None = None,
    *,
    perturb: tuple[int, int] | None = None,
) -> VerificationReport:
    """Compare both integer sequences for n = 1..n_max.

    Rows may carry several components (an identity with two displays); the
    first mismatching component of the first mismatching n is reported.
    """
    return _verify("enumerative", ident, params, n_max, perturb)


def verify_inequality(
    ident: str,
    params: Mapping[str, int] | None = None,
    n_max: int | None = None,
    *,
    perturb: tuple[int, int] | None = None,
) -> VerificationReport:
    """Scan the value sequence for sign violations and, where a strictness
    threshold applies, for zeros at or past it. The two failure modes are
    reported distinctly through the detail field."""
    return _verify("inequality", ident, params, n_max, perturb)


def verify_identity(
    ident: str,
    params: Mapping[str, int] | None = None,
    *,
    order: int | None = None,
    n_max: int | None = None,
) -> list[VerificationReport]:
    """Run the registered forms of one identity for one parameter set.

    The bounds given choose the forms: order alone runs the series form,
    n_max alone the enumerative and inequality forms, both or neither every
    form. An identity with none of the chosen forms yields no report, but
    every bound given is checked against its forms' range, and every chosen
    form's bound against its ceiling, before any form runs.
    """
    desc = get_identity(ident)
    # looked up per call, so wrappers set on this module see every check
    verify = {"series": verify_series, "enumerative": verify_enumerative,
              "inequality": verify_inequality}
    return [verify[form](ident, params, bound)
            for form, bound in _checked_forms(desc, order, n_max)]


def expand_grid(
    desc: IdentityDescriptor,
    overrides: Mapping[str, tuple[int, int]] | None = None,
) -> list[dict[str, int]]:
    """Parameter sets for one identity: its default ranges, with any override
    ranges substituted, expanded one set per value combination.

    An override for a parameter desc does not take is ignored, which lets
    run_default_suite pass one overrides mapping to every selected id.
    Sets with m > k are dropped where the identity requires m <= k; ranges
    that leave no set at all, and a desc that is not a descriptor, raise
    BadParamsError."""
    if not isinstance(desc, IdentityDescriptor):
        raise BadParamsError(
            f"expand_grid takes an IdentityDescriptor, got {type(desc).__name__}"
        )
    overrides = _checked_mapping(overrides, "overrides")
    ranges = []
    bounds = {name: (lo, hi) for name, lo, hi in desc.schema}
    for name, lo, hi in desc.param_ranges:
        if name in overrides:
            lo, hi = _checked_pair(
                overrides[name], f"{desc.id}: range for {name} must be a (lo, hi) pair"
            )
            b_lo, b_hi = bounds[name]
            message = (
                f"{desc.id}: range {lo}..{hi} for {name} outside {b_lo}..{b_hi}"
            )
            series._checked_int(lo, b_lo, b_hi, message)
            series._checked_int(hi, lo, b_hi, message)  # an empty range fails too
        ranges.append((name, lo, hi))
    grids = []
    for combo in itertools.product(
        *[range(lo, hi + 1) for _, lo, hi in ranges]
    ):
        params = {name: value for (name, _, _), value in zip(ranges, combo)}
        if desc.requires_m_le_k and params["m"] > params["k"]:
            continue
        grids.append(params)
    if not grids:
        raise BadParamsError(
            f"{desc.id}: no parameter set in the given ranges has m <= k"
        )
    return grids


def run_default_suite(
    ids: Sequence[str] | None = None,
    *,
    order: int | None = None,
    n_max: int | None = None,
    overrides: Mapping[str, tuple[int, int]] | None = None,
) -> list[VerificationReport]:
    """Verify identities over their default parameter grids.

    Reports are merged deterministically, sorted by id then parameters then
    compared range. A string or non-iterable ids, an id that is not a
    string, an empty selection, an id selected more than once, a bound
    outside its range or past the ceiling of a form it selects, overrides
    that are not a mapping, an override for a parameter that no selected
    identity takes or that is not a (lo, hi) pair, overrides that leave a
    selected identity with no parameter set, or a bound that selects no form
    of any selected identity raise BadParamsError before any check runs.
    """
    if ids is None:
        ids = _REGISTRY
    elif isinstance(ids, str) or not isinstance(ids, Iterable):
        raise BadParamsError(f"ids must be a sequence of identity ids, got {ids!r}")
    selected = [get_identity(i) for i in ids]
    if not selected:
        raise BadParamsError("no identity selected")
    for n, desc in enumerate(selected):
        if desc in selected[:n]:
            raise BadParamsError(f"identity id {desc.id!r} is selected twice")
    overrides = _checked_mapping(overrides, "overrides")
    taken = {name for desc in selected for name, _, _ in desc.schema}
    stray = _sorted_names(set(overrides) - taken)
    if stray:
        raise BadParamsError(
            f"{selected[0].id} does not take parameter(s) {stray}"
            if len(selected) == 1
            else f"no selected identity takes parameter(s) {stray}"
        )
    chosen = [_checked_forms(desc, order, n_max) for desc in selected]
    grids = [(desc.id, expand_grid(desc, overrides)) for desc in selected]
    if not any(chosen):
        # every identity has a form, so only one bound alone selects none
        form = "series" if n_max is None else "enumerative or inequality"
        raise BadParamsError(f"{', '.join(d.id for d in selected)}: no {form} form")
    reports: list[VerificationReport] = []
    for ident, grid in grids:
        for params in grid:
            reports.extend(
                verify_identity(ident, params, order=order, n_max=n_max)
            )
    reports.sort(key=lambda r: (r.id, r.params, r.compared))
    return reports

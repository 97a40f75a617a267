"""Reference oracles that only the tests use: the shortest direct
definitions of things the package does not provide itself, the per-weight
shape tables that the package's incremental fill replaced, probes that
record which weights the package walks and tabulates, and the read ledger
that shows which helpers a side builder reads."""

import itertools

import pytest

from oplab import identities, overpartitions, series
from oplab.overpartitions import Overpartition, Part
from oplab.series import TruncatedSeries


def shift(f, e):
    """f times q^e, dropping what lands past the order."""
    return TruncatedSeries(f.order, ((0,) * e + f.coeffs)[: f.order + 1])


def dilate(f, ell, order):
    """f with q -> q^ell, at the given order; f must reach order // ell."""
    c = [0] * (order + 1)
    c[::ell] = f.coeffs[: order // ell + 1]
    return TruncatedSeries(order, c)


def div_product(f, start, step, sign=1):
    """f / prod_{i>=0} (1 - sign*q^(start + step*i)), one factor at a time."""
    for e in range(start, f.order + 1, step):
        f = f.div_factor(e, sign)
    return f


def partition_gf(order):
    """1/(q;q)oo, one factor at a time."""
    return div_product(series.one(order), 1, 1)


def ref_invert(a):
    """1/a for a coefficient list with constant term +1 or -1, by the
    coefficient-at-a-time recurrence."""
    n = len(a) - 1
    b = [a[0]] + [0] * n
    for m in range(1, n + 1):
        b[m] = -a[0] * sum(a[i] * b[m - i] for i in range(1, m + 1))
    return b


def overpartition_gf(order):
    """(-q;q)oo/(q;q)oo from its two products, one factor at a time."""
    return div_product(series.qproduct(-1, 1, 1, None, order), 1, 1)


def poch_ratio(numer_start, denom_start, order):
    """(-q^numer_start;q)oo / (q^denom_start;q)oo, one factor at a time."""
    return div_product(series.qproduct(-1, numer_start, 1, None, order),
                       denom_start, 1)


def gauss_binomial(m, n, order):
    """[m, n]_q = (q;q)_m / ((q;q)_n (q;q)_{m-n}); zero unless 0 <= n <= m."""
    if n < 0 or m < n:
        return series.zero(order)
    f = series.qproduct(1, 1, 1, m, order)
    for i in [*range(1, n + 1), *range(1, m - n + 1)]:
        f = f.div_factor(i)
    return f


def of(*parts):
    """An Overpartition from parts in any order: an int is a plain part, a
    (value, overlined) pair or a Part is taken as it is."""
    norm = [Part(p, False) if isinstance(p, int) else Part(*p) for p in parts]
    return Overpartition(tuple(sorted(norm, key=lambda p: p.rank, reverse=True)))


def rank_walk(n):
    """Every overpartition of n in increasing lexicographic order of its
    part ranks (1bar=1, 1=2, 2bar=3, ...), by a depth-first walk over both
    halves of the weight: ranks never rise along a sequence, after an
    overlined part the next rank is strictly smaller, and 1bar only ever
    comes last."""
    values = [(r + 1) // 2 for r in range(2 * n + 1)]
    parts = [Part(v, r % 2 == 1) for r, v in enumerate(values)]
    stack, out = [], []

    def walk(remaining, top):
        if not remaining:
            out.append(Overpartition(stack))
            return
        lo = 1 if remaining == 1 else 2
        for r in range(lo, min(top, 2 * remaining) + 1):
            stack.append(parts[r])
            walk(remaining - values[r], r & -2)
            stack.pop()

    walk(n, 2 * n)
    return tuple(out)


def _record_calls(monkeypatch, module, name, key=lambda n: n, calls=None):
    """Patch module.name so each call appends key(*args) to calls, a new
    list unless one is given, and return calls."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def recording(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def record_walks(monkeypatch):
    """Patch the A(n) walk, overpartitions._class_a, so each call appends
    its weight to the returned list."""
    return _record_calls(monkeypatch, overpartitions, "_class_a")


def record_tables(monkeypatch):
    """Patch overpartitions._shape_tables, which every shape-counted
    statistic reads, so each call appends its weight to the returned list."""
    return _record_calls(monkeypatch, overpartitions, "_shape_tables")


# The helpers a read ledger records, each with the arguments of every call:
# the cached intermediates, the A(n) walk, the named derived-series helpers
# and the pentagonal and theta sums. Every side builder reaches them through
# these module attributes, so patching them sees every call.
LEDGER_HELPERS = (
    (overpartitions, ("_pbar_table", "_shape_tables", "_class_a")),
    (identities, ("_tail_sum", "_pbar_gf", "_large_tail", "_li_tail",
                  "_op21_gf", "_odd_square_theta")),
    (series, ("pentagonal_series", "gauss_theta", "theta_partial")),
)
# the division kernel, recorded by the length it divides to; it is no
# intermediate, so no independence check reads it
KERNEL = "_div_sparse"
# cleared before each build, so a cached helper's own reads are recorded
# whatever ran before it
LEDGER_CACHES = (identities._tail_sum, overpartitions._pbar_table)


def reads(build, *args):
    """The read ledger of build(*args): the set of (helper, key) pairs it
    reads, directly or through another helper, from cold caches."""
    calls = []
    for cache in LEDGER_CACHES:
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        for module, names in LEDGER_HELPERS:
            for name in names:
                _record_calls(m, module, name,
                              lambda *a, name=name: (name, a), calls)
        _record_calls(m, series, KERNEL,
                      lambda num, den: (KERNEL, len(num)), calls)
        build(*args)
    return set(calls)


def helpers(ledger):
    """The names of the helpers a ledger holds."""
    return {name for name, _ in ledger}


def value_blocks(n):
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


def shape_tables(n):
    """The shape tables of weight n from one pass over its p(n) shapes,
    each weight walked on its own: each shape of b blocks stands for its 2^b
    overline assignments, weighed in closed form."""
    mbar_diff = [0] * (n + 2)
    nbar_col = [0] * (n + 2)
    mk_col = [0] * (n + 2)
    # the overline-mex 2j + 1 needs 1, 3, ..., 2j - 1: j^2 <= n, 2j + 1 <= n + 3
    mex_col = [0] * (n + 4)
    b = 0
    for blocks in value_blocks(n):
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
    return overpartitions._ShapeTables(
        tuple(itertools.accumulate(mbar_diff)), tuple(nbar_col), tuple(mk_col),
        tuple(mex_col), b,
    )

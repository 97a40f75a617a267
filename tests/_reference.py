"""Reference oracles that only the tests use: the shortest direct
definitions of things the package does not provide itself."""

from oplab import series
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

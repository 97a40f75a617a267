"""Series layer: frozen expansions, algebraic round trips, error paths."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oplab import overpartitions as op
from oplab import series as s
from oplab.series import TruncatedSeries

from _reference import dilate, partition_gf, poch_ratio, ref_invert

# hand-checked low-order expansions
QQ_INF_7 = (1, -1, -1, 0, 0, 1, 0, 1)
NEGQ_INF_4 = (1, 1, 1, 2, 2)
PARTITIONS_5 = (1, 1, 2, 3, 5, 7)
OVERPARTITIONS_8 = (1, 2, 4, 8, 14, 24, 40, 64, 100)


def test_qq_infinite_product_low_order():
    assert s.qproduct(1, 1, 1, None, 7).coeffs == QQ_INF_7


def test_negq_infinite_product_low_order():
    assert s.qproduct(-1, 1, 1, None, 4).coeffs == NEGQ_INF_4


def test_partition_gf_matches_inverse_of_product():
    assert partition_gf(5).coeffs == PARTITIONS_5
    assert s.qproduct(1, 1, 1, None, 5).invert().coeffs == PARTITIONS_5


def test_overpartition_gf_low_order():
    assert op._pbar_table(64)[:9] == OVERPARTITIONS_8
    assert tuple(map(op.pbar, range(9))) == OVERPARTITIONS_8


def test_leading_minus_one_factor_gives_two():
    # (-1;q)_1 = 1 + 1
    assert s.qproduct(-1, 0, 1, 1, 6).coeffs == (2, 0, 0, 0, 0, 0, 0)


def test_make_and_coeff():
    f = TruncatedSeries(4, (3, 0, -2))
    assert f.order == 4
    assert f.coeffs == (3, 0, -2, 0, 0)
    assert f.coeff(2) == -2
    with pytest.raises(IndexError):
        f.coeff(5)
    with pytest.raises(IndexError):
        f.coeff(-1)
    # a bool or non-int exponent is a rejected parameter, not an index
    for exponent in (True, 2.0):
        with pytest.raises(s.BadParamsError, match="exponent must be an int"):
            f.coeff(exponent)


def test_series_is_immutable():
    f = s.one(3)
    with pytest.raises(AttributeError):
        f.order = 5


def test_too_many_coefficients_rejected():
    with pytest.raises(s.BadParamsError):
        TruncatedSeries(1, (1, 2, 3))
    with pytest.raises(s.BadParamsError):
        TruncatedSeries(-1)


def test_binary_ops_require_equal_orders():
    with pytest.raises(s.BadParamsError):
        s.one(3) + s.one(4)
    with pytest.raises(s.BadParamsError):
        s.one(3) * s.one(4)
    with pytest.raises(TypeError):
        s.one(3) + 1


def test_add_sub_neg_scale():
    f = TruncatedSeries(3, (1, 2, 3, 4))
    g = TruncatedSeries(3, (4, 3, 2, 1))
    assert (f + g).coeffs == (5, 5, 5, 5)
    assert (f - g).coeffs == (-3, -1, 1, 3)
    assert (-f).coeffs == (-1, -2, -3, -4)
    assert f.scale(-2).coeffs == (-2, -4, -6, -8)


def test_mul_truncates_cauchy_product():
    f = TruncatedSeries(3, (1, 1))  # 1 + q
    assert (f * f).coeffs == (1, 2, 1, 0)
    g = s.monomial(3, 2)
    assert g * g == s.zero(3)  # q^4 is beyond the order


def test_times_and_div_factor_invert_each_other():
    f = TruncatedSeries(20, tuple(range(1, 22)))
    for e, sign in ((1, 1), (3, -1), (7, 1), (20, -1)):
        assert f.times_factor(e, sign).div_factor(e, sign) == f
        assert f.div_factor(e, sign).times_factor(e, sign) == f


def test_times_factor_exponent_zero_is_scaling():
    f = TruncatedSeries(3, (1, 1, 1, 1))
    assert f.times_factor(0, 1) == s.zero(3)  # times (1 - q^0) = 0
    assert f.times_factor(0, -1).coeffs == (2, 2, 2, 2)


def test_div_factor_rejects_non_units():
    with pytest.raises(s.BadParamsError):
        s.one(3).div_factor(0, 1)
    with pytest.raises(s.BadParamsError):
        s.one(3).times_factor(2, 5)


def test_invert_requires_unit_constant_term():
    with pytest.raises(s.BadParamsError):
        TruncatedSeries(3, (2, 1)).invert()
    with pytest.raises(s.BadParamsError):
        s.zero(3).invert()


def test_invert_round_trip_high_order():
    f = s.qproduct(1, 1, 1, None, 200)
    assert (f * f.invert()) == s.one(200)
    g = s.qproduct(-1, 1, 1, None, 150)
    assert g.invert().invert() == g


def test_equality_and_hash():
    assert TruncatedSeries(3, (1, 2)) == TruncatedSeries(3, (1, 2, 0, 0))
    assert TruncatedSeries(3, (1, 2)) != TruncatedSeries(4, (1, 2))
    assert hash(s.one(5)) == hash(s.one(5))
    assert s.one(3) != 1


def test_repr_shows_leading_terms():
    text = repr(TruncatedSeries(5, (1, -1, 0, 2)))
    assert "q" in text and "2*q^3" in text


def test_pentagonal_series_equals_product_every_order():
    for n in range(0, 201):
        assert s.pentagonal_series(n) == s.qproduct(1, 1, 1, None, n), n


def test_pentagonal_series_dilated():
    # the only check of where the dilated terms land: orders below, at and
    # past a dilation, and past a power of two
    for order in (0, 1, 2, 5, 60, 1025, 2000):
        for dilation in (1, 2, 3, 5, 7, 2001):
            assert s.pentagonal_series(order, dilation) == s.qproduct(
                1, dilation, dilation, None, order
            ), (order, dilation)


def test_pochhammer_with_dilation_reindexes():
    # (a q^(ell*s); q^ell)_n is (a q^s; q)_n with q -> q^ell
    for sign, start, ell, n, order in (
        (1, 1, 2, None, 50),
        (-1, 1, 5, 4, 41),
        (-1, 0, 3, 6, 40),
        (1, 2, 4, 3, 9),
    ):
        undilated = s.qproduct(sign, start, 1, n, order // ell)
        assert s.qproduct(sign, ell * start, ell, n, order) == (
            dilate(undilated, ell, order)
        )


def test_qproduct_validation():
    with pytest.raises(s.BadParamsError):
        s.qproduct(0, 1, 1, None, 5)
    with pytest.raises(s.BadParamsError):
        s.qproduct(1, -1, 1, None, 5)
    with pytest.raises(s.BadParamsError):
        s.qproduct(1, 1, 0, None, 5)
    with pytest.raises(s.BadParamsError):
        s.qproduct(1, 0, 1, None, 5)
    assert s.qproduct(1, 1, 1, 0, 5) == s.one(5)  # empty product


def test_theta_partial_and_gauss_theta():
    assert s.theta_partial(0, 0, 5) == s.one(5)
    assert s.gauss_theta(None, 5).coeffs == (1, -2, 0, 0, 2, 0)
    t = s.gauss_theta(None, 25)
    expected = {0: 1, 1: -2, 4: 2, 9: -2, 16: 2, 25: -2}
    for e in range(26):
        assert t.coeff(e) == expected.get(e, 0)
    assert s.gauss_theta(2, 30) == s.theta_partial(-2, 2, 30)
    # a window past sqrt(order) adds nothing, and costs nothing to skip
    assert s.gauss_theta(10**12, 5) == s.gauss_theta(None, 5)
    assert s.theta_partial(-(10**12), 10**12, 30) == s.gauss_theta(None, 30)
    assert s.theta_partial(-(10**12), 2, 30) == s.theta_partial(-5, 2, 30)
    assert s.theta_partial(6, 10**12, 30) == s.zero(30)
    with pytest.raises(s.BadParamsError):
        s.gauss_theta(-1, 10)


def test_theta_partial_asymmetric_window():
    # window -k..k-1 differs from the symmetric window by the q^(k^2) term
    k = 3
    sym = s.gauss_theta(k, 40)
    asym = s.theta_partial(-k, k - 1, 40)
    assert (sym - asym).coeffs == s.monomial(40, 9, -1).coeffs


def test_poch_ratio_is_quotient():
    # the reference ratio behind ref_tail_sum in test_identities
    r = poch_ratio(3, 2, 60)
    numer = s.qproduct(-1, 3, 1, None, 60)
    denom = s.qproduct(1, 2, 1, None, 60)
    assert r * denom == numer


def test_monomial_bounds():
    assert s.monomial(5, 5, -3).coeff(5) == -3
    with pytest.raises(s.BadParamsError):
        s.monomial(5, 6)


# -- the kernel against plain index loops ------------------------------------
#
# The kernel runs its inner loops as slice maps and running sums; these are
# the coefficient-at-a-time definitions it must agree with exactly.

def ref_times_factor(c, e, sign):
    out = list(c)
    if e == 0:
        return [(1 - sign) * x for x in c]
    for i in range(e, len(c)):
        out[i] -= sign * c[i - e]
    return out


def ref_div_factor(c, e, sign):
    out = list(c)
    for i in range(e, len(c)):
        out[i] += sign * out[i - e]
    return out


def ref_mul(a, b):
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n - i + 1):
            out[i + j] += a[i] * b[j]
    return out


def _random_coeffs(rng, order, density=1.0, bits=40):
    return [
        rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0
        for _ in range(order + 1)
    ]


def _kernel_exponents(order):
    """e = 1, both sides of sqrt(order + 1) (the two division strategies
    switch there: at order 100, e = 10 sums residue classes and e = 11 adds
    blocks), e = order and e = order + 1 (a factor past the order)."""
    root = math.isqrt(order + 1)
    return sorted({1, root, root + 1, order, order + 1} - {0})


@pytest.mark.parametrize("order", [0, 1, 2, 3, 10, 37, 100, 257])
def test_factor_kernel_matches_index_loops(order):
    rng = random.Random(order)
    for e in _kernel_exponents(order):
        for sign in (1, -1):
            c = _random_coeffs(rng, order)
            f = TruncatedSeries(order, c)
            assert list(f.times_factor(e, sign).coeffs) == ref_times_factor(c, e, sign)
            assert list(f.div_factor(e, sign).coeffs) == ref_div_factor(c, e, sign)
    c = _random_coeffs(rng, order)
    for sign in (1, -1):
        assert list(TruncatedSeries(order, c).times_factor(0, sign).coeffs) == (
            ref_times_factor(c, 0, sign)
        )


@pytest.mark.parametrize("order", [0, 1, 5, 30, 63, 64, 65, 120, 500])
@pytest.mark.parametrize("density", [1.0, 0.5, 0.05])
def test_mul_and_invert_match_index_loops(order, density):
    rng = random.Random(1000 * order + int(100 * density))
    a = _random_coeffs(rng, order, density)
    b = _random_coeffs(rng, order)
    fa, fb = TruncatedSeries(order, a), TruncatedSeries(order, b)
    assert list((fa * fb).coeffs) == ref_mul(a, b)
    assert list((fb * fa).coeffs) == ref_mul(a, b)
    for c0 in (1, -1):
        u = [c0] + a[1:]
        assert list(TruncatedSeries(order, u).invert().coeffs) == ref_invert(u)


def test_invert_of_qq_matches_partition_table_at_max_order():
    # 1/(q;q)oo twice: invert of the factor-built product, and the product
    # divided out one factor at a time
    order = 2000
    inverse = s.qproduct(1, 1, 1, None, order).invert()
    assert inverse == partition_gf(order)


def _padded(c, count):
    return (list(c) + [0] * count)[:count]


_ORDERS = st.integers(min_value=0, max_value=60)


def _series_of(order, first=st.integers(-(10**12), 10**12)):
    rest = st.lists(
        st.integers(-(10**12), 10**12), min_size=order, max_size=order
    )
    return st.tuples(first, rest).map(lambda t: TruncatedSeries(order, [t[0]] + t[1]))


@settings(deadline=None)
@given(
    _ORDERS.flatmap(_series_of),
    st.integers(min_value=1, max_value=70),
    st.sampled_from((1, -1)),
)
def test_div_factor_undoes_times_factor(f, e, sign):
    assert f.times_factor(e, sign).div_factor(e, sign) == f
    assert f.div_factor(e, sign).times_factor(e, sign) == f


# (a, b) with 1 <= a <= b, the exponents _tail_sum's steps pass
_RATIO_EXPONENTS = st.integers(1, 70).flatmap(
    lambda b: st.tuples(st.integers(1, b), st.just(b))
)


@settings(deadline=None)
@given(st.lists(st.integers(-(2**70), 2**70), max_size=60), _RATIO_EXPONENTS)
@example([2, 7, -1, 8, 2, -8, 1, 8], (3, 3))  # a = b
@example([2, 7, -1, 8, 2, -8, 1, 8], (2, 3))  # a = b - 1
@example([3, -1, 4, 1, -5], (5, 6))  # a >= len, b > a
@example([3, -1, 4, 1, -5], (2, 7))  # b >= len
@example([2, 7, -1, 8, 2, -8, 1, 8], (1, 1))  # b = 1
@example([], (1, 1))
@example([9], (1, 1))
def test_times_ratio_matches_factor_then_division(c, exponents):
    # the fused Horner step against the two one-factor passes it replaces
    a, b = exponents
    want = list(c)
    s._times_factor_into(want, a, 1)
    s._div_factor_into(want, b, -1)
    assert s._times_ratio(list(c), a, b) == want


_DIV_VALUES = st.sampled_from((1, -1, 2, -2)) | st.integers(-(2**70), 2**70)

# a divisor tail of a few nonzero terms, as in a pentagonal or theta sum,
# or of any coefficients at all
_DIVISOR_TAILS = st.dictionaries(
    st.integers(1, 70), _DIV_VALUES, max_size=6
).map(lambda d: [d.get(e, 0) for e in range(1, max(d, default=0) + 1)]) | (
    st.lists(_DIV_VALUES, max_size=70)
)


@pytest.mark.parametrize("c0", [1, -1])
@settings(deadline=None)
@given(
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=61),
    _DIVISOR_TAILS,
)
@example([1] + [0] * 9, [-2, 0, 0, 2, 0, 0, 0, 0, -2])  # 1/theta
@example([5, 0, 0, 1], [0, 0, 0, 7])  # first term at the last index
@example([3, 1, 4], [2, 0, 0, 0, 0, 9])  # divisor longer than the quotient
def test_div_sparse_matches_index_loop(c0, num, tail):
    den = [c0] + tail
    padded = _padded(den, len(num))
    want = ref_mul(num, ref_invert(padded))
    assert s._div_sparse(num, den) == want
    assert s._div_sparse(tuple(num), tuple(den)) == want


@pytest.mark.parametrize("c0", [0, 2, -2, 3])
def test_div_sparse_requires_unit_constant_term(c0):
    with pytest.raises(s.BadParamsError, match="constant term"):
        s._div_sparse([1, 2, 3], [c0, 1])


@settings(deadline=None)
@given(_ORDERS.flatmap(lambda n: _series_of(n, st.sampled_from((1, -1)))))
def test_series_times_its_inverse_is_one(f):
    assert f * f.invert() == s.one(f.order)


@settings(deadline=None)
@given(
    _ORDERS.flatmap(
        lambda n: st.tuples(
            _series_of(n),
            st.dictionaries(
                st.integers(0, n), st.integers(-(10**6), 10**6), max_size=3
            ).map(lambda d: TruncatedSeries(n, [d.get(i, 0) for i in range(n + 1)])),
        )
    )
)
def test_sparse_times_dense_commutes(pair):
    dense, sparse = pair
    assert sparse * dense == dense * sparse
    assert list((sparse * dense).coeffs) == ref_mul(sparse.coeffs, dense.coeffs)


@settings(deadline=None)
@given(_ORDERS.flatmap(lambda n: st.tuples(*[_series_of(n)] * 3)))
def test_mul_is_associative_and_distributes_over_add(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(deadline=None)
@given(
    st.sampled_from((1, -1)),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=40),
    _ORDERS,
)
def test_pochhammer_splitting(sign, start, n, order):
    # (a;q)_n (a q^n;q)oo = (a;q)oo for a = sign * q^start
    assume(not (sign == 1 and start == 0))  # (q^0;q)oo is zero
    finite = s.qproduct(sign, start, 1, n, order)
    rest = s.qproduct(sign, start + n, 1, None, order)
    assert finite * rest == s.qproduct(sign, start, 1, None, order)

"""Series layer: frozen expansions, the kernel against index loops, and
algebraic laws as properties, each with its fixed cases as examples. The
rejections are rows of tests/test_bad_params.py."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oplab import series as s
from oplab.series import TruncatedSeries

from _reference import partition_gf, poch_ratio, product, ref_invert

# hand-checked low-order expansions
QQ_INF_7 = (1, -1, -1, 0, 0, 1, 0, 1)
NEGQ_INF_4 = (1, 1, 1, 2, 2)


def test_qq_infinite_product_low_order():
    # Euler's pentagonal sum, and the seven factors one at a time
    assert s.pentagonal_series(7).coeffs == QQ_INF_7
    f = s.one(7)
    for e in range(1, 8):
        f = f.times_factor(e)
    assert f.coeffs == QQ_INF_7


def test_negq_infinite_product_low_order():
    f = s.one(4)
    for e in range(1, 5):
        f = f.times_factor(e, -1)
    assert f.coeffs == NEGQ_INF_4


def test_make_pads_to_the_order():
    f = TruncatedSeries(4, (3, 0, -2))
    assert f.order == 4
    assert f.coeffs == (3, 0, -2, 0, 0)
    assert s.monomial(5, 5, -3).coeffs == (0, 0, 0, 0, 0, -3)


def test_series_is_immutable():
    f = s.one(3)
    with pytest.raises(AttributeError):
        f.order = 5


def test_add_sub_scale():
    f = TruncatedSeries(3, (1, 2, 3, 4))
    g = TruncatedSeries(3, (4, 3, 2, 1))
    assert (f + g).coeffs == (5, 5, 5, 5)
    assert (f - g).coeffs == (-3, -1, 1, 3)
    assert f.scale(-1).coeffs == (-1, -2, -3, -4)
    assert f.scale(-2).coeffs == (-2, -4, -6, -8)
    with pytest.raises(TypeError):
        f + 1


def test_mul_truncates_cauchy_product():
    f = TruncatedSeries(3, (1, 1))  # 1 + q
    assert (f * f).coeffs == (1, 2, 1, 0)
    g = s.monomial(3, 2)
    assert g * g == s.zero(3)  # q^4 is beyond the order


def test_equality_and_hash():
    assert TruncatedSeries(3, (1, 2)) == TruncatedSeries(3, (1, 2, 0, 0))
    assert TruncatedSeries(3, (1, 2)) != TruncatedSeries(4, (1, 2))
    assert hash(s.one(5)) == hash(s.one(5))
    assert s.one(3) != 1


def test_repr_is_the_constructor_call():
    f = TruncatedSeries(5, (1, -1, 0, 2))
    assert repr(f) == "TruncatedSeries(5, (1, -1, 0, 2, 0, 0))"
    assert repr(s.zero(0)) == "TruncatedSeries(0, (0,))"


def test_pentagonal_series_equals_product_every_order():
    for n in range(0, 201):
        assert s.pentagonal_series(n) == product(1, 1, n), n


def test_pentagonal_series_dilated():
    # the only check of where the dilated terms land: orders below, at and
    # past a dilation, and past a power of two
    for order in (0, 1, 2, 5, 60, 1025, 2000):
        for dilation in (1, 2, 3, 5, 7, 2001):
            assert s.pentagonal_series(order, dilation) == product(
                dilation, dilation, order
            ), (order, dilation)


def test_theta_partial_and_gauss_theta():
    assert s.theta_partial(0, 0, 5) == s.one(5)
    assert s.gauss_theta(None, 5).coeffs == (1, -2, 0, 0, 2, 0)
    t = s.gauss_theta(None, 25)
    expected = {0: 1, 1: -2, 4: 2, 9: -2, 16: 2, 25: -2}
    for e in range(26):
        assert t.coeffs[e] == expected.get(e, 0)
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
    numer = product(3, 1, 60, -1)
    denom = product(2, 1, 60)
    assert r * denom == numer


# -- the kernel against plain index loops ------------------------------------
#
# The kernel runs its inner loops as slice maps and running sums; these are
# the coefficient-at-a-time definitions it must agree with exactly.

def ref_times_factor(c, e, sign):
    out = list(c)
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
    inverse = product(1, 1, order).invert()
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
# at order 20, e = 7 and (for 1/(1 + q^3) = (1 - q^3)/(1 - q^6)) e = 6
# divide block by block; the last block is full at e = 7, short at e = 6
@example(TruncatedSeries(20, tuple(range(1, 22))), 1, 1)
@example(TruncatedSeries(20, tuple(range(1, 22))), 3, -1)
@example(TruncatedSeries(20, tuple(range(1, 22))), 7, 1)
@example(TruncatedSeries(20, tuple(range(1, 22))), 20, -1)
def test_div_factor_undoes_times_factor(f, e, sign):
    # the repr is the constructor call, exact
    assert eval(repr(f)) == f
    assert f.times_factor(e, sign).div_factor(e, sign) == f
    assert f.div_factor(e, sign).times_factor(e, sign) == f


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.tuples(_series_of(n), st.integers(1, n))
    ),
    st.sampled_from((1, -1)),
)
def test_times_factor_is_the_product_with_its_binomial(fe, sign):
    # the one-factor kernel against the Cauchy product by 1 - sign*q^e
    f, e = fe
    binomial = s.one(f.order) - s.monomial(f.order, e, sign)
    assert f.times_factor(e, sign) == f * binomial


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
@example(product(1, 1, 200))
@example(product(1, 1, 150, -1))
def test_series_times_its_inverse_is_one(f):
    assert f * f.invert() == s.one(f.order)
    assert f.invert().invert() == f


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


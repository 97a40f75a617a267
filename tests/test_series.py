"""Series layer: frozen expansions, algebraic round trips, error paths."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplab import series as s
from oplab.series import TruncatedSeries

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
    assert s.partition_gf(5).coeffs == PARTITIONS_5
    assert s.qproduct(1, 1, 1, None, 5).invert().coeffs == PARTITIONS_5


def test_overpartition_gf_low_order():
    assert s.overpartition_gf(8).coeffs == OVERPARTITIONS_8


def test_leading_minus_one_factor_gives_two():
    # (-1;q)_1 = 1 + 1
    assert s.qproduct(-1, 0, 1, 1, 6).coeffs == (2, 0, 0, 0, 0, 0, 0)


def test_make_and_coeff():
    f = s.make(4, (3, 0, -2))
    assert f.order == 4
    assert f.coeffs == (3, 0, -2, 0, 0)
    assert f.coeff(2) == -2
    with pytest.raises(IndexError):
        f.coeff(5)
    with pytest.raises(IndexError):
        f.coeff(-1)


def test_series_is_immutable():
    f = s.one(3)
    with pytest.raises(AttributeError):
        f.order = 5


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(1, (1, 2, 3))
    with pytest.raises(ValueError):
        TruncatedSeries(-1)


def test_binary_ops_require_equal_orders():
    with pytest.raises(ValueError):
        s.one(3) + s.one(4)
    with pytest.raises(ValueError):
        s.one(3) * s.one(4)
    with pytest.raises(TypeError):
        s.one(3) + 1


def test_add_sub_neg_scale():
    f = s.make(3, (1, 2, 3, 4))
    g = s.make(3, (4, 3, 2, 1))
    assert (f + g).coeffs == (5, 5, 5, 5)
    assert (f - g).coeffs == (-3, -1, 1, 3)
    assert (-f).coeffs == (-1, -2, -3, -4)
    assert f.scale(-2).coeffs == (-2, -4, -6, -8)


def test_mul_truncates_cauchy_product():
    f = s.make(3, (1, 1))  # 1 + q
    assert (f * f).coeffs == (1, 2, 1, 0)
    g = s.monomial(3, 2)
    assert (g * g).is_zero()  # q^4 is beyond the order


def test_shift():
    f = s.make(4, (1, 2, 3))
    assert f.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert f.shift(4).coeffs == (0, 0, 0, 0, 1)
    # past the order nothing is left, and the series keeps its order
    assert f.shift(5).coeffs == (0, 0, 0, 0, 0)
    assert f.shift(7).coeffs == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        f.shift(-1)


def test_times_and_div_factor_invert_each_other():
    f = s.make(20, tuple(range(1, 22)))
    for e, sign in ((1, 1), (3, -1), (7, 1), (20, -1)):
        assert f.times_factor(e, sign).div_factor(e, sign) == f
        assert f.div_factor(e, sign).times_factor(e, sign) == f


def test_times_factor_exponent_zero_is_scaling():
    f = s.make(3, (1, 1, 1, 1))
    assert f.times_factor(0, 1).is_zero()  # times (1 - q^0) = 0
    assert f.times_factor(0, -1).coeffs == (2, 2, 2, 2)


def test_div_factor_rejects_non_units():
    with pytest.raises(ValueError):
        s.one(3).div_factor(0, 1)
    with pytest.raises(ValueError):
        s.one(3).times_factor(2, 5)


def test_invert_requires_unit_constant_term():
    with pytest.raises(ValueError):
        s.make(3, (2, 1)).invert()
    with pytest.raises(ValueError):
        s.zero(3).invert()


def test_invert_round_trip_high_order():
    f = s.qproduct(1, 1, 1, None, 200)
    assert (f * f.invert()) == s.one(200)
    g = s.qproduct(-1, 1, 1, None, 150)
    assert g.invert().invert() == g


def test_truncate_shrinks_only():
    f = s.make(6, (1, 2, 3, 4, 5, 6, 7))
    assert f.truncate(3).coeffs == (1, 2, 3, 4)
    assert f.truncate(6) == f
    with pytest.raises(ValueError):
        f.truncate(7)


def test_dilate():
    f = s.make(3, (1, 2, 3, 4))
    assert f.dilate(2, 7).coeffs == (1, 0, 2, 0, 3, 0, 4, 0)
    # source must know everything up to order//ell
    with pytest.raises(ValueError):
        s.make(2, (1, 2, 3)).dilate(2, 7)
    with pytest.raises(ValueError):
        f.dilate(0, 3)


def test_equality_and_hash():
    assert s.make(3, (1, 2)) == s.make(3, (1, 2, 0, 0))
    assert s.make(3, (1, 2)) != s.make(4, (1, 2))
    assert hash(s.one(5)) == hash(s.one(5))
    assert s.one(3) != 1


def test_repr_shows_leading_terms():
    text = repr(s.make(5, (1, -1, 0, 2)))
    assert "q" in text and "2*q^3" in text


def test_pentagonal_series_equals_product_every_order():
    for n in range(0, 201):
        assert s.pentagonal_series(n) == s.qproduct(1, 1, 1, None, n), n


def test_pentagonal_series_dilated():
    assert s.pentagonal_series(60, dilation=3) == s.qproduct(1, 3, 3, None, 60)


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
            undilated.dilate(ell, order)
        )


def test_qproduct_validation():
    with pytest.raises(ValueError):
        s.qproduct(0, 1, 1, None, 5)
    with pytest.raises(ValueError):
        s.qproduct(1, -1, 1, None, 5)
    with pytest.raises(ValueError):
        s.qproduct(1, 1, 0, None, 5)
    with pytest.raises(ValueError):
        s.qproduct(1, 0, 1, None, 5)
    assert s.qproduct(1, 1, 1, 0, 5) == s.one(5)  # empty product


def test_gauss_binomial_frozen_values():
    assert s.gauss_binomial(2, 1, 6).coeffs[:3] == (1, 1, 0)
    assert s.gauss_binomial(4, 2, 6).coeffs == (1, 1, 2, 1, 1, 0, 0)
    assert s.gauss_binomial(1, 3, 6).is_zero()
    assert s.gauss_binomial(3, -1, 6).is_zero()
    assert s.gauss_binomial(5, 0, 6) == s.one(6)
    assert s.gauss_binomial(5, 5, 6) == s.one(6)


def test_gauss_binomial_degree_and_positivity():
    for m in range(0, 13):
        for n in range(0, m + 1):
            deg = n * (m - n)
            poly = s.gauss_binomial(m, n, deg + 5)
            cs = poly.coeffs
            assert all(c >= 0 for c in cs)
            assert cs[deg] != 0 or deg == 0
            assert all(c == 0 for c in cs[deg + 1 :])
            # evaluation at q = 1 gives the ordinary binomial
            assert sum(cs) == math.comb(m, n)


def test_gauss_binomial_pascal_recurrence():
    # [m, n] = [m-1, n-1] + q^n [m-1, n], checked as full polynomials
    order = 100
    for m in range(1, 21):
        for n in range(0, m + 1):
            lhs = s.gauss_binomial(m, n, order)
            rhs = s.gauss_binomial(m - 1, n - 1, order) + s.gauss_binomial(
                m - 1, n, order
            ).shift(n)
            assert lhs == rhs, (m, n)


def test_gauss_binomial_truncation_commutes():
    full = s.gauss_binomial(12, 5, 40)
    assert s.gauss_binomial(12, 5, 9) == full.truncate(9)


def test_theta_partial_and_gauss_theta():
    assert s.theta_partial(0, 0, 5) == s.one(5)
    assert s.gauss_theta(None, 5).coeffs == (1, -2, 0, 0, 2, 0)
    t = s.gauss_theta(None, 25)
    expected = {0: 1, 1: -2, 4: 2, 9: -2, 16: 2, 25: -2}
    for e in range(26):
        assert t.coeff(e) == expected.get(e, 0)
    assert s.gauss_theta(2, 30) == s.theta_partial(-2, 2, 30)
    with pytest.raises(ValueError):
        s.gauss_theta(-1, 10)


def test_theta_partial_asymmetric_window():
    # window -k..k-1 differs from the symmetric window by the q^(k^2) term
    k = 3
    sym = s.gauss_theta(k, 40)
    asym = s.theta_partial(-k, k - 1, 40)
    assert (sym - asym).coeffs == s.monomial(40, 9, -1).coeffs


def test_poch_ratio_is_quotient():
    r = s.poch_ratio(3, 2, 60)
    numer = s.qproduct(-1, 3, 1, None, 60)
    denom = s.qproduct(1, 2, 1, None, 60)
    assert r * denom == numer
    with pytest.raises(ValueError):
        s.poch_ratio(0, 1, 10)
    with pytest.raises(ValueError):
        s.poch_ratio(1, 0, 10)


def test_monomial_bounds():
    assert s.monomial(5, 5, -3).coeff(5) == -3
    with pytest.raises(ValueError):
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


def ref_invert(a):
    n = len(a) - 1
    b = [a[0]] + [0] * n
    for m in range(1, n + 1):
        b[m] = -a[0] * sum(a[i] * b[m - i] for i in range(1, m + 1))
    return b


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
            f = s.make(order, c)
            assert list(f.times_factor(e, sign).coeffs) == ref_times_factor(c, e, sign)
            assert list(f.div_factor(e, sign).coeffs) == ref_div_factor(c, e, sign)
    c = _random_coeffs(rng, order)
    for sign in (1, -1):
        assert list(s.make(order, c).times_factor(0, sign).coeffs) == (
            ref_times_factor(c, 0, sign)
        )


@pytest.mark.parametrize("order", [0, 1, 5, 30, 120])
@pytest.mark.parametrize("density", [1.0, 0.5, 0.05])
def test_mul_and_invert_match_index_loops(order, density):
    rng = random.Random(1000 * order + int(100 * density))
    a = _random_coeffs(rng, order, density)
    b = _random_coeffs(rng, order)
    fa, fb = s.make(order, a), s.make(order, b)
    assert list((fa * fb).coeffs) == ref_mul(a, b)
    assert list((fb * fa).coeffs) == ref_mul(a, b)
    for c0 in (1, -1):
        u = [c0] + a[1:]
        assert list(s.make(order, u).invert().coeffs) == ref_invert(u)


_ORDERS = st.integers(min_value=0, max_value=60)


def _series_of(order, first=st.integers(-(10**12), 10**12)):
    rest = st.lists(
        st.integers(-(10**12), 10**12), min_size=order, max_size=order
    )
    return st.tuples(first, rest).map(lambda t: s.make(order, [t[0]] + t[1]))


@settings(deadline=None)
@given(
    _ORDERS.flatmap(_series_of),
    st.integers(min_value=1, max_value=70),
    st.sampled_from((1, -1)),
)
def test_div_factor_undoes_times_factor(f, e, sign):
    assert f.times_factor(e, sign).div_factor(e, sign) == f
    assert f.div_factor(e, sign).times_factor(e, sign) == f


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
            ).map(lambda d: s.make(n, [d.get(i, 0) for i in range(n + 1)])),
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
    _ORDERS.flatmap(_series_of),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_dilate_and_truncate_commute(f, ell, data):
    order = data.draw(st.integers(0, ell * f.order + ell - 1), label="order")
    new_order = data.draw(st.integers(0, order), label="new_order")
    assert f.dilate(ell, order).truncate(new_order) == (
        f.truncate(new_order // ell).dilate(ell, new_order)
    )


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=120),
)
def test_gauss_binomial_q_pascal(m, n, order):
    # [m, n] = [m-1, n-1] + q^n [m-1, n] = q^(m-n) [m-1, n-1] + [m-1, n]
    whole = s.gauss_binomial(m, n, order)
    left = s.gauss_binomial(m - 1, n - 1, order)
    right = s.gauss_binomial(m - 1, n, order)
    assert whole == left + right.shift(n)
    if n <= m:
        assert whole == left.shift(m - n) + right


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

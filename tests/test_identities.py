"""Identity registry and verification harness.

What is pinned here: registry shape, report schema, perturbation plumbing,
parameter validation, every side against its statement as tests/_reference.py
reads it, and the tail sums, tables and read ledgers behind the builders; the
full configured sweeps live in test_acceptance.
"""

import dataclasses
import functools
import inspect
import itertools
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oplab import cli
from oplab import identities as idn
from oplab import overpartitions as op
from oplab import series

from _reference import (
    KERNEL, UNREADABLE, div_product, helpers, overpartition_gf, poch_ratio,
    read, reads, record_tables, record_walks, schema_grid, shift,
    statement_mismatches, statement_sides,
)

EXPECTED_IDS = [
    "pentagonal-am",
    "thm-1-1",
    "gauss",
    "guo-zeng-truncation",
    "ineq-guo-zeng",
    "am-2018-truncation",
    "thm-1-3",
    "yao",
    "ineq-conj-1-5",
    "ineq-xyz",
    "li-truncation",
    "thm-1-4",
    "ineq-m-k",
    "op-split-2-1",
    "thm-2-2",
    "thm-2-3",
    "thm-2-4",
    "cor-2-5-first",
    "cor-2-5-second",
    "gen-op",
    "cor-2-6",
    "cor-2-7",
    "cor-2-9",
    "euler-odd-distinct",
    "lemma-4-1",
    "sec3-bijection",
    "sec5-main",
    "sec5-reduced",
]


def test_registry_ids_exact_order():
    assert [d.id for d in idn.list_identities()] == EXPECTED_IDS


def test_every_descriptor_has_a_form_and_kind():
    for d in idn.list_identities():
        assert (d.series_lhs, d.enum_lhs, d.ineq_values) != (None, None, None)
        if d.series_lhs is not None:
            assert d.series_rhs is not None and d.default_order is not None
        if d.enum_lhs is not None or d.ineq_values is not None:
            assert d.default_n_max is not None
        assert d.statement


def test_statements_are_csv_safe():
    for d in idn.list_identities():
        assert "," not in d.statement, d.id


def test_unknown_identity():
    with pytest.raises(idn.UnknownIdentityError, match="unknown identity"):
        idn.get_identity("nope")
    assert str(idn.UnknownIdentityError("plain text")) == "plain text"


def test_verify_identity_runs_every_form():
    reports = idn.verify_identity("gauss", order=50, n_max=10)
    assert [r.compared for r in reports] == ["order=50", "n=1..10"]
    assert all(r.passed for r in reports)
    reports = idn.verify_identity("ineq-xyz", {"k": 2}, n_max=30)
    assert len(reports) == 1
    # the bounds given choose the forms; an identity without the chosen
    # form yields no report
    for bounds, ranges in (
        ({"order": 50}, ["order=50"]),
        ({"n_max": 10}, ["n=1..10"]),
        ({}, ["order=100", "n=1..25"]),
    ):
        reports = idn.verify_identity("cor-2-9", {"k": 1}, **bounds)
        assert [r.compared for r in reports] == ranges
    assert idn.verify_identity("thm-2-2", order=50) == []
    assert idn.verify_identity("euler-odd-distinct", n_max=10) == []


def test_series_perturbation_hits_exact_index():
    r = idn.verify_series("gauss", order=50, perturb=(3, 1))
    assert r.status == "fail"
    assert r.first_mismatch == (3, 1, 0)


def test_enum_perturbation_hits_exact_index():
    r = idn.verify_enumerative("thm-2-2", n_max=12, perturb=(9, 2))
    assert r.status == "fail"
    assert r.first_mismatch is not None and r.first_mismatch[0] == 9
    assert r.first_mismatch[1] - r.first_mismatch[2] == 2


def test_inequality_sign_and_strictness_are_distinct():
    r = idn.verify_inequality("ineq-guo-zeng", {"k": 1}, 30, perturb=(7, -10**9))
    assert r.status == "fail" and r.first_mismatch[0] == 7
    assert "sign violation" in r.detail
    # cancel the exact value at an n past the threshold: strictness trips
    values = idn.get_identity("ineq-guo-zeng").ineq_values({"k": 1}, 30)
    r = idn.verify_inequality(
        "ineq-guo-zeng", {"k": 1}, 30, perturb=(10, -values[9][0])
    )
    assert r.status == "fail" and r.first_mismatch == (10, 0, 0)
    assert "strictness violation" in r.detail


def test_boundary_of_strict_threshold_is_tested_literally():
    # threshold n >= k^2 includes the boundary point itself
    desc = idn.get_identity("ineq-conj-1-5")
    assert desc.strict_from({"k": 3}) == 9
    values = desc.ineq_values({"k": 3}, 20)
    r = idn.verify_inequality("ineq-conj-1-5", {"k": 3}, 20, perturb=(9, -values[8][0]))
    assert r.status == "fail" and "strictness" in r.detail


def test_two_display_identities_report_the_display():
    r = idn.verify_enumerative("cor-2-7", {"k": 1}, 10, perturb=(6, 1))
    assert r.status == "fail"
    assert r.first_mismatch[0] == 6
    assert r.detail == "display 1 of 2"


def test_param_validation():
    with pytest.raises(idn.BadParamsError, match="requires parameter"):
        idn.verify_series("li-truncation", {}, 30)
    with pytest.raises(idn.BadParamsError, match="does not take"):
        idn.verify_series("gauss", {"k": 1}, 30)
    with pytest.raises(idn.BadParamsError, match="outside"):
        idn.verify_series("li-truncation", {"k": 0}, 30)
    with pytest.raises(idn.BadParamsError, match="outside"):
        idn.verify_series("li-truncation", {"k": 65}, 30)
    with pytest.raises(idn.BadParamsError, match="m <= k"):
        idn.verify_enumerative("thm-2-4", {"m": 3, "k": 1}, 10)
    with pytest.raises(idn.BadParamsError):
        idn.verify_series("li-truncation", {"k": True}, 30)


def test_form_and_bound_validation():
    with pytest.raises(idn.BadParamsError, match="no series form"):
        idn.verify_series("thm-2-2")
    with pytest.raises(idn.BadParamsError, match="no enumerative form"):
        idn.verify_enumerative("euler-odd-distinct")
    with pytest.raises(idn.BadParamsError, match="no inequality form"):
        idn.verify_inequality("gauss")
    with pytest.raises(idn.BadParamsError, match="order"):
        idn.verify_series("gauss", order=idn.MAX_ORDER + 1)
    with pytest.raises(idn.BadParamsError, match="n_max"):
        idn.verify_enumerative("thm-2-2", n_max=0)
    with pytest.raises(idn.BadParamsError, match="perturbation index"):
        idn.verify_enumerative("thm-2-2", n_max=5, perturb=(6, 1))
    for idx in (-1, 31):
        with pytest.raises(idn.BadParamsError, match="perturbation index"):
            idn.verify_series("gauss", order=30, perturb=(idx, 1))
    for n_max in (0, idn.MAX_ORDER + 1):
        with pytest.raises(idn.BadParamsError, match="n_max"):
            idn.verify_enumerative("gauss", n_max=n_max)
        with pytest.raises(idn.BadParamsError, match="n_max"):
            idn.verify_inequality("ineq-xyz", {"k": 1}, n_max=n_max)
    assert idn.verify_inequality("ineq-xyz", {"k": 1}, idn.MAX_ORDER).passed


def _never_built(p, n):
    raise AssertionError("a side was built for a rejected perturbation")


@pytest.mark.parametrize("idx", [0, 6])
@pytest.mark.parametrize(
    "verify, builders",
    [
        (idn.verify_enumerative, dict(enum_lhs=_never_built,
                                      enum_rhs=_never_built)),
        (idn.verify_inequality, dict(ineq_values=_never_built)),
    ],
    ids=["enum", "ineq"],
)
def test_counting_perturbation_index_checked_before_building(
    monkeypatch, verify, builders, idx
):
    desc = idn.IdentityDescriptor(
        id="never-built", statement="", default_n_max=5, **builders
    )
    monkeypatch.setitem(idn._REGISTRY, "never-built", desc)
    with pytest.raises(idn.BadParamsError, match="perturbation index"):
        verify("never-built", perturb=(idx, 1))


def test_expand_grid_shapes():
    pairs = idn.expand_grid(idn.get_identity("thm-2-4"))
    assert len(pairs) == 45
    assert all(p["m"] <= p["k"] for p in pairs)
    assert {"m": -4, "k": -4} in pairs and {"m": 4, "k": 4} in pairs
    ks = idn.expand_grid(idn.get_identity("li-truncation"))
    assert ks == [{"k": k} for k in range(1, 9)]
    assert idn.expand_grid(idn.get_identity("gauss")) == [{}]


def test_expand_grid_overrides():
    desc = idn.get_identity("thm-2-4")
    small = idn.expand_grid(desc, {"m": (0, 1), "k": (1, 2)})
    assert small == [
        {"m": 0, "k": 1},
        {"m": 0, "k": 2},
        {"m": 1, "k": 1},
        {"m": 1, "k": 2},
    ]
    with pytest.raises(idn.BadParamsError):
        idn.expand_grid(desc, {"m": (-100, 0)})


def test_expand_grid_ignores_an_override_the_identity_does_not_take():
    # run_default_suite passes one overrides mapping to every selected id
    gauss = idn.get_identity("gauss")
    assert idn.expand_grid(gauss, {"k": (1, 2)}) == [{}]
    li = idn.get_identity("li-truncation")
    assert idn.expand_grid(li, {"k": (2, 3), "m": (0, 0)}) == [
        {"k": 2}, {"k": 3},
    ]


def test_run_default_suite_subset_sorted():
    reports = idn.run_default_suite(
        ["thm-2-3", "euler-odd-distinct"], n_max=8, order=30
    )
    assert [r.id for r in reports] == ["euler-odd-distinct", "thm-2-3"]
    assert all(r.passed for r in reports)
    # an override applies to the ids that take the parameter; gauss takes
    # no k and keeps its default grid
    reports = idn.run_default_suite(
        ["li-truncation", "gauss"], order=30, overrides={"k": (2, 3)}
    )
    assert [(r.id, r.params) for r in reports] == [
        ("gauss", ()),
        ("li-truncation", (("k", 2),)),
        ("li-truncation", (("k", 3),)),
    ]


def test_bounds_are_checked_even_when_no_form_uses_them():
    # thm-1-1 has no series form and euler-odd-distinct no counting form,
    # so these bounds select no form, but an out-of-range bound still fails
    with pytest.raises(idn.BadParamsError, match="order must be within"):
        idn.verify_identity("thm-1-1", order=idn.MAX_ORDER + 1)
    with pytest.raises(idn.BadParamsError, match="n_max must be within"):
        idn.verify_identity("euler-odd-distinct", n_max=-3)


def test_stray_override_is_rejected():
    with pytest.raises(idn.BadParamsError) as exc:
        idn.run_default_suite(["gauss"], overrides={"k": (1, 2)})
    assert str(exc.value) == "gauss does not take parameter(s) ['k']"
    with pytest.raises(idn.BadParamsError) as exc:
        idn.run_default_suite(overrides={"zz": (1, 1)})
    assert str(exc.value) == "no selected identity takes parameter(s) ['zz']"


def test_every_side_builder_is_registered():
    # a builder no descriptor points at is a duplicate or dead code
    fields = ("series_lhs", "series_rhs", "enum_lhs", "enum_rhs", "ineq_values")
    used = {getattr(d, f) for d in idn.list_identities() for f in fields}
    builders = [
        fn
        for name, fn in inspect.getmembers(idn, inspect.isfunction)
        if fn.__module__ == idn.__name__
        and name != "_rows"
        and name.endswith(("_lhs", "_rhs", "_rows"))
    ]
    assert len(builders) > 40
    unused = sorted(fn.__name__ for fn in builders if fn not in used)
    assert unused == []


def test_report_jsonable_schema():
    r = idn.verify_series("euler-odd-distinct", order=30)
    blob = r.to_jsonable(include_timing=False)
    assert set(blob) == {"id", "params", "range", "status", "elapsedMs", "anchor"}
    assert blob["anchor"] == idn.get_identity("euler-odd-distinct").statement
    assert blob["elapsedMs"] == 0 and blob["status"] == "pass"
    r = idn.verify_series("gauss", order=30, perturb=(2, 5))
    blob = r.to_jsonable()
    assert blob["firstMismatch"] == [2, 5, 0]
    assert blob["elapsedMs"] >= 0


# -- every side against its statement, read literally -----------------------

READABLE = [d for d in idn.list_identities() if d.id not in UNREADABLE]


@pytest.mark.parametrize("desc, side", [
    pytest.param(d, side, id=f"{d.id}-{side}")
    for d in READABLE for _, side in statement_sides(d)])
def test_every_side_computes_its_statement(desc, side):
    # series sides at order min(default, 30), counting sides at the default
    # n_max, a side that reads a statistic up to REF_N_MAX
    for p in idn.expand_grid(desc):
        assert statement_mismatches(desc, p, only=side) == [], p


def test_only_the_listed_statements_are_unreadable():
    # an entry whose statement now parses is stale
    for ident, construct in UNREADABLE.items():
        with pytest.raises(SyntaxError):
            read(ident)
        assert construct


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_sides_compute_their_statements_over_the_whole_schema(data):
    desc = data.draw(st.sampled_from(READABLE), label="id")
    p = data.draw(st.sampled_from(schema_grid(desc)), label="params")
    bound = data.draw(st.integers(1, 20), label="bound")
    assert statement_mismatches(desc, p, bound) == []


# -- the tail sums and product tables behind the builders -------------------

def test_repeated_part_gf_matches_overpartition_gf_at_k_zero():
    # with threshold 0 every nonempty overpartition qualifies, so the
    # generating function is the overpartition gf minus its constant term
    built = idn._mbar_gf(0, 40)
    whole = overpartition_gf(40) - series.one(40)
    assert built == whole


@functools.cache
def ref_tail_sum(order, m_lo, denom_off):
    """sum_{m>=m_lo} q^(m_lo*m) (-q^(m+1);q)oo / (q^(m+denom_off);q)oo, one
    expanded ratio per term and nothing shared with the builders; memoized
    per key, as both call orders ask for the same references."""
    acc = series.zero(order)
    for m in range(m_lo, order // m_lo + 1):
        acc = acc + shift(
            poch_ratio(m + 1, m + denom_off, order), m_lo * m
        )
    return acc


# the (m_lo, denom_off) keys the builders read for k = 1..4:
# _large_tail(k-1) and _large_tail(k) read (k, 0) and (k+1, 0),
# _li_tail(k) reads (k, 1)
TAIL_KEYS = sorted(
    {(k, 0) for k in range(1, 6)} | {(k, 1) for k in range(1, 5)}
)
TAIL_ORDERS = (0, 1, 2, 17, 150)


@pytest.mark.parametrize("reverse", [False, True], ids=["low-first", "high-first"])
def test_tail_sum_matches_reference_in_either_call_order(reverse):
    # one sweep reads each order low to high and each key d=0 before d=1,
    # the other the reverse, so a cache key that dropped the order or the
    # denominator offset would hand back a series built for another key
    idn._tail_sum.cache_clear()
    orders = TAIL_ORDERS[::-1] if reverse else TAIL_ORDERS
    keys = TAIL_KEYS[::-1] if reverse else TAIL_KEYS
    for order in orders:
        for key in keys:
            want = ref_tail_sum(order, *key)
            assert idn._tail_sum(order, *key) == want, (order, key)
            hits = idn._tail_sum.cache_info().hits
            assert idn._tail_sum(order, *key) == want, (order, key)
            assert idn._tail_sum.cache_info().hits == hits + 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 60), st.integers(1, 6), st.sampled_from((0, 1)))
@example(17, 2, 1)  # order % m_lo != 0
@example(11, 3, 0)  # a single term: order // m_lo == m_lo
@example(15, 4, 1)  # an empty sum: m_lo^2 > order
@example(60, 1, 0)
def test_tail_sum_matches_reference(order, m_lo, denom_off):
    got = idn._tail_sum.__wrapped__(order, m_lo, denom_off)
    assert got == ref_tail_sum(order, m_lo, denom_off)


def test_product_caches_stay_bounded_over_orders():
    # a library loop over orders must not keep one product per order: the
    # table is keyed by power-of-two table order, 64 .. 512 here
    desc = idn.get_identity("guo-zeng-truncation")
    op._pbar_table.cache_clear()
    for order in range(0, 301):
        lhs = desc.series_lhs({"k": 1}, order)
        assert lhs == desc.series_rhs({"k": 1}, order), order
        idn._tail_sum.__wrapped__(order, 4, 1)
    assert op._pbar_table.cache_info().currsize <= 4


def test_pbar_table_built_once_for_its_readers():
    # am-2018, guo-zeng and li read the overpartition table _pbar_table,
    # (-q;q)oo/(q;q)oo, on their left sides, and gauss and
    # euler-odd-distinct none; one process builds it once for all of them
    op._pbar_table.cache_clear()
    for ident in ("gauss", "euler-odd-distinct", "am-2018-truncation",
                  "guo-zeng-truncation", "li-truncation"):
        params = idn.expand_grid(idn.get_identity(ident))[0]
        r = idn.verify_series(ident, params, idn.MAX_ORDER)
        assert r.passed, (ident, r.first_mismatch)
    assert op._pbar_table.cache_info().misses == 1


def test_product_tables_match_their_factor_products():
    # the table comes from pentagonal sums and sparse long division by
    # them; the factor-by-factor product it replaced is the oracle
    order = op._table_order(idn.MAX_ORDER)
    assert op._pbar_table(order) == overpartition_gf(order).coeffs


def test_gauss_and_euler_sides_match_their_products_at_max_order():
    # factor division, which shares nothing with the sparse division; the
    # statement test reads both statements up to order 30
    order = idn.MAX_ORDER
    qq = series.qproduct(1, 1, 1, None, order)
    assert idn._gauss_rhs({}, order) == div_product(qq, 1, 1, -1)
    assert idn._euler_lhs({}, order) == div_product(series.one(order), 1, 2)
    assert idn._euler_rhs({}, order) == series.qproduct(-1, 1, 1, None, order)


PRODUCT_TABLES = {"_pbar_table"}


def test_series_sides_keep_their_own_routes():
    # euler-odd-distinct's rhs is (q^2;q^2)oo/(q;q)oo, so an lhs that read a
    # pentagonal sum, a sparse division or a product table could agree
    # with it by construction; gauss's lhs is the theta sum; a tail sum
    # divides by theta and reads no product table
    order = idn.MAX_ORDER
    assert reads(idn._euler_lhs, {}, order) == set()
    called = helpers(reads(idn._gauss_rhs, {}, order))
    assert "gauss_theta" not in called
    # the ledger sees the calls the rhs does make
    assert {"pentagonal_series", KERNEL} <= called
    # pentagonal-am's lhs is a sparse division by the pentagonal sum, and
    # guo-zeng-truncation's lhs reads the theta sum and the pbar table; each
    # rhs is a Horner scheme of one-factor steps
    for build in (idn._pent_am_rhs, idn._guo_zeng_rhs):
        assert reads(build, {"k": 1}, order) == set(), build
    # gauss's and euler-odd-distinct's rhs and pentagonal-am's lhs build
    # their products at their own order from the pentagonal sums
    assert not called & PRODUCT_TABLES
    for build, args in ((idn._euler_rhs, ({}, order)),
                        (idn._pent_am_lhs, ({"k": 1}, order)),
                        (idn._tail_sum, (order, 1, 0))):
        assert not helpers(reads(build, *args)) & PRODUCT_TABLES, build


def test_theta_inverse_matches_pbar_table():
    # two routes to the overpartition generating function: 1 divided by
    # the theta sum, which ends every tail sum, and the pentagonal table
    # the other sides read
    order = op._table_order(idn.MAX_ORDER)
    unit = [1] + [0] * order
    inverse = series._div_sparse(unit, series.gauss_theta(None, order).coeffs)
    assert tuple(inverse) == op._pbar_table(order)


def test_tail_sums_read_no_product_table():
    # the series sides of cor-2-9 and sec5-main and li-truncation's rhs
    # build three cold tail sums at MAX_ORDER; each divides by the theta sum
    # itself, so none of them reads a product table (li-truncation's lhs
    # reads the pbar table)
    order = idn.MAX_ORDER

    def build():
        for ident in ("cor-2-9", "sec5-main"):
            desc = idn.get_identity(ident)
            lhs = desc.series_lhs({"k": 1}, order)
            assert lhs == desc.series_rhs({"k": 1}, order), ident
        idn.get_identity("li-truncation").series_rhs({"k": 1}, order)

    ledger = reads(build)
    assert len({key for helper, key in ledger if helper == "_tail_sum"}) == 3
    # the ledger sees the reads inside the tail sums
    assert "gauss_theta" in helpers(ledger)
    assert not helpers(ledger) & PRODUCT_TABLES
    assert idn.verify_series("li-truncation", {"k": 1}, order).passed


def test_cached_tail_sums_survive_their_callers():
    # sec5-reduced multiplies cached sums by factors on both sides; a
    # caller that mutated a cached result would change the second build
    idn._tail_sum.cache_clear()
    desc = idn.get_identity("sec5-reduced")
    for k in range(1, 5):
        first = (desc.series_lhs({"k": k}, 150), desc.series_rhs({"k": k}, 150))
        cached = {key: idn._tail_sum(150, *key).coeffs for key in TAIL_KEYS}
        second = (desc.series_lhs({"k": k}, 150), desc.series_rhs({"k": k}, 150))
        assert first[0].coeffs == second[0].coeffs, k
        assert first[1].coeffs == second[1].coeffs, k
        for key, coeffs in cached.items():
            assert idn._tail_sum(150, *key).coeffs == coeffs, (k, key)


def test_tail_sum_cache_is_bounded():
    # a library loop over orders must not grow the cache without limit
    for order in range(201):
        idn._tail_sum(order, 4, 1)
    assert idn._tail_sum.cache_info().currsize <= 64


# -- the read ledger: what each side of every form reads ---------------------

@pytest.fixture(scope="module")
def ledgers():
    """{(id, form, params): (lhs reads, rhs reads)} for every series and
    enumerative form over its default grid, at its default bound. An
    inequality form has one side, so it has nothing to compare."""
    out = {}
    for desc in idn.list_identities():
        for form, lhs, rhs, bound in (
            ("series", desc.series_lhs, desc.series_rhs, desc.default_order),
            ("enumerative", desc.enum_lhs, desc.enum_rhs, desc.default_n_max),
        ):
            if lhs is None:
                continue
            for p in idn.expand_grid(desc):
                key = (desc.id, form, tuple(sorted(p.items())))
                out[key] = (reads(lhs, p, bound), reads(rhs, p, bound))
    return out


_THETA_HEAD = (
    "a common unit factor: both sides' tail sums divide by the full theta "
    "sum at order - k^2, so a wrong theta divides both sides alike; the "
    "tail sums of am-2018-truncation, li-truncation and cor-2-9's "
    "enumerative form face a side that reads no theta sum, and fail"
)

# (id, helper): why the two sides of a form of id may both read the helper
# with one key; the reason is what keeps the shared value from making the
# sides agree by construction
SHARED_READS = {
    ("cor-2-6", "_pbar_gf"): (
        "a common factor: both sides multiply by the pbar series X, and "
        "X * theta = 1 fails for a wrong X"
    ),
    ("cor-2-6", "_pbar_table"): "the table _pbar_gf reads",
    ("cor-2-6", "pentagonal_series"): "the sums _pbar_table is built from",
    ("cor-2-7", "_shape_tables"): (
        "the lhs reads the mex column and the rhs the mbar and nbar columns "
        "of one walk; a wrong column fails the id"
    ),
    **{
        (ident, helper): _THETA_HEAD
        for ident in ("cor-2-9", "sec5-main", "sec5-reduced")
        for helper in ("gauss_theta", "theta_partial")
    },
}


def test_the_sides_of_a_form_share_no_read_but_the_allowed(ledgers):
    # the two sides of a check never share a derived intermediate that would
    # make them agree by construction, whatever helper it comes from
    shared = {}
    tails_on_both_sides = set()
    for (ident, form, params), (left, right) in ledgers.items():
        for helper, key in left & right:
            if helper != KERNEL:
                shared.setdefault((ident, helper), set()).add((form, params, key))
        if "_tail_sum" in helpers(left) & helpers(right):
            tails_on_both_sides.add(ident)
    unexplained = {k: v for k, v in shared.items() if k not in SHARED_READS}
    assert not unexplained, unexplained
    # an allowance that no form needs any more goes
    assert sorted(set(SHARED_READS) - set(shared)) == []
    # the ledger sees the reads: these read tail sums on both sides
    assert tails_on_both_sides == {"cor-2-9", "sec5-main", "sec5-reduced"}


# (id, id): why two series forms that run one check twice both stay
KNOWN_COPIES = {
    ("cor-2-9", "sec5-main"): (
        "cor-2-9's series sides are sec5-main's doubled; deleting that form "
        "changes the verify --all bytes and the benchmark goldens"
    ),
}


def _proportional(x, y):
    """Whether x = c * y for one rational c != 0."""
    i = next((i for i, v in enumerate(y) if v), None)
    if i is None:
        return not any(x)
    return x[i] != 0 and all(a * y[i] == x[i] * b for a, b in zip(x, y))


def test_no_series_form_is_a_copy_of_another(ledgers):
    # two forms whose lhs reads and rhs reads are both equal, and whose sides
    # agree up to one scale, fail on one mutant at one index: one check run
    # twice
    groups = {}
    for (ident, form, params), sides in ledgers.items():
        if form == "series":
            groups.setdefault(tuple(map(frozenset, sides)), []).append(
                (idn.get_identity(ident), dict(params))
            )

    def coeffs(desc, p):
        n = desc.default_order
        return desc.series_lhs(p, n).coeffs + desc.series_rhs(p, n).coeffs

    copies = {
        tuple(sorted((a.id, b.id)))
        for group in groups.values()
        for (a, pa), (b, pb) in itertools.combinations(group, 2)
        if _proportional(coeffs(a, pa), coeffs(b, pb))
    }
    assert copies == set(KNOWN_COPIES)


SERIES_AT_MAX_ORDER = [
    d.id for d in idn.list_identities()
    if d.series_lhs is not None and d.id != "yao"
]


@pytest.mark.parametrize("ident", SERIES_AT_MAX_ORDER)
def test_series_identity_at_max_order_within_budget(ident, capsys):
    # every series builder is O(order^2); yao's lhs is counted over shapes,
    # so the shape ceiling bounds it far below MAX_ORDER
    params = idn.expand_grid(idn.get_identity(ident))[0]
    # run as `oplab verify --id X [--k 1] --order 2000`, so the exit code
    # of that command line is asserted too
    argv = ["verify", "--id", ident]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    argv += ["--order", str(idn.MAX_ORDER)]
    # cold tail sums and tables, as one `oplab verify --id X --order 2000`
    # pays them
    for cache in (idn._tail_sum, op._pbar_table):
        cache.cache_clear()
    t0 = time.perf_counter()
    code = cli.main(argv)
    dt = time.perf_counter() - t0
    [record] = json.loads(capsys.readouterr().out)
    assert code == 0 and record["status"] == "pass", record
    assert dt < 3.0, f"{ident} took {dt:.1f}s at order {idn.MAX_ORDER}"


def test_series_set_at_max_order_within_budget():
    # the whole set in one process builds each tail sum once
    idn._tail_sum.cache_clear()
    t0 = time.perf_counter()
    for ident in SERIES_AT_MAX_ORDER:
        params = idn.expand_grid(idn.get_identity(ident))[0]
        r = idn.verify_series(ident, params, idn.MAX_ORDER)
        assert r.passed, (ident, r.first_mismatch)
    dt = time.perf_counter() - t0
    assert dt < 2.5, f"the series set took {dt:.1f}s at order {idn.MAX_ORDER}"


# -- ceilings -------------------------------------------------------------------

# each form's highest bound is its kind's ceiling, except for three forms
KIND_CEILINGS = {
    "series": idn.MAX_ORDER,
    "enumerative": op.SHAPE_CEILING,
    "inequality": idn.MAX_ORDER,
}
CEILING_EXCEPTIONS = {
    ("gauss", "enumerative"): idn.MAX_ORDER,  # reads pbar only
    ("yao", "series"): op.SHAPE_CEILING,  # its lhs reads mbar
    ("sec3-bijection", "enumerative"): op.OBJECT_CEILING,  # maps objects
}
FORM_CEILINGS = [
    pytest.param(
        desc.id, form,
        CEILING_EXCEPTIONS.get((desc.id, form), KIND_CEILINGS[form]),
        id=f"{desc.id}-{form}",
    )
    for desc in idn.list_identities()
    for form, f in idn._FORMS.items()
    if getattr(desc, f.attr) is not None
]
VERIFIERS = {
    "series": idn.verify_series,
    "enumerative": idn.verify_enumerative,
    "inequality": idn.verify_inequality,
}
BUILDERS = ("series_lhs", "series_rhs", "enum_lhs", "enum_rhs", "ineq_values")


def _never_built_registry(monkeypatch):
    for desc in idn.list_identities():
        sides = {a: _never_built for a in BUILDERS if getattr(desc, a)}
        monkeypatch.setitem(
            idn._REGISTRY, desc.id, dataclasses.replace(desc, **sides)
        )


@pytest.fixture(scope="session")
def shape_tables_to_the_ceiling():
    # every shape-counted form at its ceiling reads these; fill them once
    for n in range(op.SHAPE_CEILING + 1):
        op._shape_tables(n)


@pytest.mark.parametrize("ident, form, ceiling", FORM_CEILINGS)
def test_every_form_passes_at_its_ceiling_and_rejects_one_more(
    ident, form, ceiling, shape_tables_to_the_ceiling, monkeypatch
):
    params = idn.expand_grid(idn.get_identity(ident))[0]
    r = VERIFIERS[form](ident, params, ceiling)
    assert r.passed, r.first_mismatch
    # one more is rejected, naming the ceiling, before either side is built
    _never_built_registry(monkeypatch)
    walks = record_walks(monkeypatch)
    tables = record_tables(monkeypatch)
    tails = idn._tail_sum.cache_info()
    bound = idn._FORMS[form].bound
    for call in (
        lambda: VERIFIERS[form](ident, params, ceiling + 1),
        lambda: idn.run_default_suite([ident], **{bound: ceiling + 1}),
    ):
        with pytest.raises(idn.BadParamsError, match=rf"\.\.{ceiling}\b"):
            call()
    assert idn._tail_sum.cache_info() == tails
    assert walks == tables == []


def test_suite_checks_every_ceiling_before_any_check_runs(monkeypatch):
    # series forms registered before yao would run first without the
    # up-front pass
    _never_built_registry(monkeypatch)
    for kwargs, message in [
        ({"order": 51}, "yao: order must be within 0..50, got 51"),
        ({"n_max": 51}, "thm-1-1: n_max must be within 1..50, got 51"),
        ({"ids": ["gauss", "sec3-bijection"], "n_max": 31},
         "sec3-bijection: n_max must be within 1..30, got 31"),
        # a bound that selects no form of any selected id checks nothing
        ({"ids": ["thm-2-2"], "order": 50}, "thm-2-2: no series form"),
        ({"ids": ["thm-2-2", "thm-1-1"], "order": 50},
         "thm-2-2, thm-1-1: no series form"),
        ({"ids": ["pentagonal-am"], "n_max": 5},
         "pentagonal-am: no enumerative or inequality form"),
        # an empty selection checks nothing either
        ({"ids": []}, "no identity selected"),
    ]:
        with pytest.raises(idn.BadParamsError) as exc:
            idn.run_default_suite(**kwargs)
        assert str(exc.value) == message

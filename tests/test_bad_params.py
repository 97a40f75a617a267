"""One input contract: every caller-supplied integer is an int, not a bool,
within its range, and every rejection is a BadParamsError.

Each row names an entry point, a call taking the value under test and one
int just outside that value's range (None where every int is in range, as
for a coefficient), or for a pair, a mapping, an id or a selection, one
value of the wrong shape; the call must reject that value, True and the
float 2.0 alike.
"""

import math

import pytest

from oplab import bijections as bj
from oplab import identities as idn
from oplab import overpartitions as op
from oplab import series
from oplab.overpartitions import Overpartition, Part

from _reference import of

_MU = of(3, 1)
_EMPTY_GRID = {"m": (3, 3), "k": (1, 1)}  # m > k: thm-2-4 takes no set

ENTRY_POINTS = {
    "verify_series order": (lambda v: idn.verify_series("gauss", order=v), -1),
    "verify_enumerative n_max": (
        lambda v: idn.verify_enumerative("thm-2-2", n_max=v), 0
    ),
    "verify_inequality n_max": (
        lambda v: idn.verify_inequality("ineq-xyz", {"k": 1}, n_max=v),
        idn.MAX_ORDER + 1,
    ),
    "verify_identity order": (
        lambda v: idn.verify_identity("gauss", order=v), idn.MAX_ORDER + 1
    ),
    "verify_identity n_max": (
        lambda v: idn.verify_identity("euler-odd-distinct", n_max=v), 0
    ),
    "parameter k": (lambda v: idn.verify_series("li-truncation", {"k": v}), 0),
    "verify_series params": (lambda v: idn.verify_series("gauss", v, 10), 5),
    # an unknown name of another type than "a" must not break the message
    "parameter name": (
        lambda v: idn.verify_series("gauss", {v: 0, "a": 0}, 5), 1
    ),
    "override name": (
        lambda v: idn.run_default_suite(
            ["thm-1-1"], overrides={v: (1, 1), "a": (1, 1)}
        ),
        1,
    ),
    "get_identity id": (idn.get_identity, ["gauss"]),
    "perturbation index": (
        lambda v: idn.verify_series("gauss", order=10, perturb=(v, 1)), 11
    ),
    "perturbation delta": (
        lambda v: idn.verify_series("gauss", order=10, perturb=(3, v)), None
    ),
    "perturbation shape": (
        lambda v: idn.verify_series("gauss", order=5, perturb=v), (1, 1, 1)
    ),
    "override shape": (
        lambda v: idn.run_default_suite(["thm-1-1"], overrides={"k": v}), 3
    ),
    "run_default_suite ids": (idn.run_default_suite, "gauss"),
    "run_default_suite repeated id": (
        lambda v: idn.run_default_suite(["gauss", "thm-2-2", v], n_max=3),
        "gauss",
    ),
    "run_default_suite overrides": (
        lambda v: idn.run_default_suite(["thm-1-1"], overrides=v), "k"
    ),
    "override range": (
        lambda v: idn.run_default_suite(["li-truncation"], order=5,
                                        overrides={"k": (v, v)}),
        65,
    ),
    "run_default_suite empty grid order": (
        lambda v: idn.run_default_suite(["thm-2-4"], order=v,
                                        overrides=_EMPTY_GRID),
        idn.MAX_ORDER + 1,
    ),
    "run_default_suite empty grid n_max": (
        lambda v: idn.run_default_suite(["thm-2-4"], n_max=v,
                                        overrides=_EMPTY_GRID),
        0,
    ),
    "run_default_suite override leaving no set": (
        lambda v: idn.run_default_suite(["thm-2-4"], n_max=5,
                                        overrides={"m": (3, 3), "k": (v, v)}),
        2,
    ),
    "expand_grid override high end": (
        lambda v: idn.expand_grid(idn.get_identity("li-truncation"),
                                  {"k": (2, v)}),
        1,
    ),
    # a weight past MAX_ORDER is rejected before any table is built
    "pbar": (op.pbar, idn.MAX_ORDER + 1),
    "pbar far past MAX_ORDER": (op.pbar, 10**18),
    "enumerate_overpartitions": (op.enumerate_overpartitions, -1),
    "op_class_counts": (op.op_class_counts, -1),
    "op21 n": (lambda v: op.op21(v, 1), 0),
    "op21 k": (lambda v: op.op21(5, v), -1),
    "mbar n": (lambda v: op.mbar(v, 0), 0),
    "mbar k": (lambda v: op.mbar(5, v), -1),
    "nbar n": (lambda v: op.nbar(v, 1), 0),
    "nbar k": (lambda v: op.nbar(5, v), 0),
    "mk_stat n": (lambda v: op.mk_stat(v, 1), 0),
    "mk_stat k": (lambda v: op.mk_stat(5, v), 0),
    "check_weight_down": (bj.check_weight_down, 0),
    "check_staircase n": (lambda v: bj.check_staircase(v, 1), 0),
    "check_staircase j": (lambda v: bj.check_staircase(4, v), 3),
    "staircase_insert": (lambda v: bj.staircase_insert(_MU, v), 0),
    "staircase_remove": (lambda v: bj.staircase_remove(_MU, v), 0),
    "c_witness": (bj.c_witness, 3),
    # a map whose image would weigh past MAX_ORDER builds none of its parts
    "c_witness image weight": (bj.c_witness, idn.MAX_ORDER + 2),
    "map_a_to_b image weight": (
        lambda v: bj.map_a_to_b(Overpartition((Part(v, False),))),
        idn.MAX_ORDER + 2,
    ),
    "staircase_insert j squared": (
        lambda v: bj.staircase_insert(_MU, v), math.isqrt(idn.MAX_ORDER) + 1
    ),
    "staircase_insert image weight": (
        lambda v: bj.staircase_insert(Overpartition((Part(v, False),)), 1),
        idn.MAX_ORDER,
    ),
    "TruncatedSeries order": (series.TruncatedSeries, -1),
    "TruncatedSeries coefficient": (lambda v: series.TruncatedSeries(3, (1, v)),
                                    None),
    "TruncatedSeries coefficients": (lambda v: series.TruncatedSeries(3, v), 5),
    "TruncatedSeries order below its coefficients": (
        lambda v: series.TruncatedSeries(v, (1, 2, 3)), 1
    ),
    # the operands of a sum or a product share one order
    "sum order": (lambda v: series.one(3) + series.one(v), 4),
    "difference order": (lambda v: series.one(3) - series.one(v), 4),
    "product order": (lambda v: series.one(3) * series.one(v), 4),
    "monomial exponent": (lambda v: series.monomial(5, v), 6),
    "monomial coefficient": (lambda v: series.monomial(3, 1, v), None),
    "times_factor sign": (lambda v: series.one(3).times_factor(1, v), 0),
    "times_factor sign far outside": (
        lambda v: series.one(3).times_factor(2, v), 5
    ),
    "div_factor sign": (lambda v: series.one(3).div_factor(1, v), 0),
    "div_factor sign far outside": (
        lambda v: series.one(3).div_factor(2, v), 5
    ),
    # (1 - q^0) is the constant 1 - sign: a scale, and no unit
    "times_factor exponent": (lambda v: series.one(3).times_factor(v, 1), 0),
    "div_factor exponent": (lambda v: series.one(3).div_factor(v, 1), 0),
    # only a constant term of +1 or -1 keeps the inverse's coefficients ints
    "invert constant term": (
        lambda v: series.TruncatedSeries(3, (v, 1)).invert(), 2
    ),
    "scale factor": (lambda v: series.one(3).scale(v), None),
    "monomial order": (lambda v: series.monomial(v, 1), -1),
    "pentagonal_series order": (series.pentagonal_series, -1),
    "pentagonal_series dilation": (
        lambda v: series.pentagonal_series(10, v), 0
    ),
    "theta_partial j_lo": (lambda v: series.theta_partial(v, 2, 10), None),
    "theta_partial j_hi": (lambda v: series.theta_partial(0, v, 10), None),
    "theta_partial order": (lambda v: series.theta_partial(0, 2, v), -1),
    "gauss_theta order": (lambda v: series.gauss_theta(None, v), -1),
    "gauss_theta k": (lambda v: series.gauss_theta(v, 10), -1),
}

# a weight past its ceiling raises the one class too, not a subclass
ENTRY_POINTS.update({
    f"{name} past its ceiling": (call, ceiling + 1)
    for name, call, ceiling in (
        ("enumerate_overpartitions", op.enumerate_overpartitions,
         op.OBJECT_CEILING),
        ("op_class_counts", op.op_class_counts, op.SHAPE_CEILING),
        ("op21 n", lambda v: op.op21(v, 1), op.SHAPE_CEILING),
        ("mbar n", lambda v: op.mbar(v, 0), op.SHAPE_CEILING),
        ("nbar n", lambda v: op.nbar(v, 1), op.SHAPE_CEILING),
        ("mk_stat n", lambda v: op.mk_stat(v, 1), op.SHAPE_CEILING),
        ("check_weight_down", bj.check_weight_down, op.OBJECT_CEILING),
    )
})

# every series constructor rejects an order past MAX_ORDER before it
# allocates a coefficient
SERIES_ORDERS = {
    "TruncatedSeries": series.TruncatedSeries,
    "zero": series.zero,
    "one": series.one,
    "monomial": lambda v: series.monomial(v, 0),
    "pentagonal_series": series.pentagonal_series,
    "theta_partial": lambda v: series.theta_partial(0, 1, v),
    "gauss_theta": lambda v: series.gauss_theta(None, v),
}
ENTRY_POINTS.update({
    f"{name} order {how} MAX_ORDER": (call, order)
    for name, call in SERIES_ORDERS.items()
    for how, order in (("past", idn.MAX_ORDER + 1), ("far past", 10**18))
})

CASES = [
    pytest.param(call, value, id=f"{name}-{value!r}")
    for name, (call, outside) in ENTRY_POINTS.items()
    for value in (True, 2.0, outside)
    if value is not None
]


@pytest.mark.parametrize("call, value", CASES)
def test_entry_point_rejects_with_bad_params_error(call, value):
    with pytest.raises(op.BadParamsError) as exc:
        call(value)
    assert type(exc.value) is op.BadParamsError


def test_one_rejection_error_class():
    assert idn.BadParamsError is op.BadParamsError is series.BadParamsError
    assert issubclass(op.BadParamsError, ValueError)


# an object outside a map's domain, or coefficients that are not a sequence,
# are rejected the same way
REJECTED_OBJECTS = {
    "map_a_to_b overlined smallest": lambda: bj.map_a_to_b(
        of(3, (1, True))
    ),
    "map_a_to_b empty": lambda: bj.map_a_to_b(of()),
    "map_b_to_a complement class": lambda: bj.map_b_to_a(bj.c_witness(5)),
    "map_b_to_a complement class at weight 3": lambda: bj.map_b_to_a(
        of((2, True), (1, True))
    ),
    "map_b_to_a None": lambda: bj.map_b_to_a(None),
    "map_b_to_a int": lambda: bj.map_b_to_a(5),
    "staircase_remove None": lambda: bj.staircase_remove(None, 1),
    # junk where a predicate or a forward map takes an overpartition
    "in_a None": lambda: bj.in_a(None),
    "in_b None": lambda: bj.in_b(None),
    "in_b str": lambda: bj.in_b("ab"),
    "map_a_to_b None": lambda: bj.map_a_to_b(None),
    "staircase_insert None": lambda: bj.staircase_insert(None, 1),
    "overline_mex None": lambda: op.overline_mex(None),
    "overline_mex int": lambda: op.overline_mex(5),
    "staircase_remove missing stair": lambda: bj.staircase_remove(
        of(3, 2), 2
    ),
    "TruncatedSeries coefficients None": lambda: series.TruncatedSeries(3, None),
    "TruncatedSeries coefficients generator": lambda: series.TruncatedSeries(
        3, (x for x in [1])
    ),
    # sized but not a list or tuple: once coerced to keys, set order or zero
    "TruncatedSeries coefficients dict": lambda: series.TruncatedSeries(
        3, {5: 0, 7: 1}
    ),
    "TruncatedSeries coefficients set": lambda: series.TruncatedSeries(3, {2, 1}),
    "TruncatedSeries coefficients str": lambda: series.TruncatedSeries(3, ""),
    "TruncatedSeries coefficients bytes": lambda: series.TruncatedSeries(3, b""),
    "invert of zero": lambda: series.zero(3).invert(),
    # an identity id where its descriptor belongs
    "expand_grid id string": lambda: idn.expand_grid("gauss"),
}


@pytest.mark.parametrize("call", REJECTED_OBJECTS.values(), ids=REJECTED_OBJECTS)
def test_rejected_object_raises_bad_params_error(call):
    with pytest.raises(op.BadParamsError):
        call()


def test_rejection_names_a_wrong_type_and_quotes_a_string():
    with pytest.raises(op.BadParamsError,
                       match=r"^weight must be an int, got float 2\.0$"):
        op.enumerate_overpartitions(2.0)
    with pytest.raises(op.BadParamsError, match=r"^order must be .*, got '5'$"):
        idn.verify_identity("gauss", {}, order="5")
    # a well-typed value out of range keeps its message
    with pytest.raises(op.BadParamsError, match=r"^weight must be >= 0$"):
        op.enumerate_overpartitions(-1)
    with pytest.raises(op.BadParamsError,
                       match=r"^order must be within 0\.\.2000, got 2001$"):
        idn.verify_identity("gauss", {}, order=2001)


def test_staircase_rejection_names_the_bound():
    # each check names its own argument and the value given, j first
    for args, message in (((3, 2), r"^n must be >= j\^2 = 4, got 3$"),
                          ((0, 1), r"^n must be >= j\^2 = 1, got 0$"),
                          ((0, 0), r"^j must be >= 1, got 0$")):
        with pytest.raises(op.BadParamsError, match=message):
            bj.check_staircase(*args)
    with pytest.raises(op.BadParamsError, match=r"^nbar requires k >= 1, got 0$"):
        op.nbar(5, 0)


def test_bound_is_checked_before_the_grid():
    # an empty grid is rejected too, but a bad bound is named first
    with pytest.raises(op.BadParamsError, match="order"):
        idn.run_default_suite(["thm-2-4"], order=idn.MAX_ORDER + 1,
                              overrides=_EMPTY_GRID)
    with pytest.raises(op.BadParamsError, match="no parameter set"):
        idn.run_default_suite(["thm-2-4"], order=5, overrides=_EMPTY_GRID)

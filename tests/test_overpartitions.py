"""Enumeration layer: object validity, frozen tables, statistic identities.

The individual statistic values below were worked out by hand from the
definitions and are treated as ground truth, as is the weight-4 mex table
of the acceptance gate; the larger sweeps then pin enumeration against
generating-function coefficients, and the shape-weighted statistic tables
against direct scans of the enumerated objects.
"""

import itertools

import pytest

from oplab import bijections as bj
from oplab import overpartitions as op
from oplab.overpartitions import Overpartition, Part

from _reference import (
    REF_N_MAX, of, overpartition_gf, partition_gf, rank_walk, record_tables,
    record_walks, ref_mbar, ref_mk_stat, ref_nbar, ref_op21, ref_value_blocks,
    shape_tables,
)

PBAR_LOW = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504)
P_LOW = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_part_order():
    # 1bar < 1 < 2bar < 2 < ...
    ranks = [Part(1, True).rank, Part(1, False).rank, Part(2, True).rank, Part(2, False).rank]
    assert ranks == sorted(ranks) and len(set(ranks)) == 4


def test_overpartition_construction():
    pi = of((2, True), 1)
    assert [(p.value, p.overlined) for p in pi] == [(2, True), (1, False)]
    assert pi.weight == 3


def test_overpartition_of_sorts_by_part_order():
    pi = of(1, (3, True), 3, (1, True))
    assert [(p.value, p.overlined) for p in pi] == [
        (3, False),
        (3, True),
        (1, False),
        (1, True),
    ]


def test_overpartition_validation():
    with pytest.raises(ValueError):
        Overpartition((Part(1, True), Part(1, True)))  # doubled overline
    with pytest.raises(ValueError):
        Overpartition((Part(1, False), Part(2, False)))  # unsorted
    with pytest.raises(ValueError):
        Overpartition((Part(0, False),))
    with pytest.raises(ValueError):
        Overpartition((1, 2))  # raw ints are not Parts
    for parts in (
        (Part(2.5, False),),  # a value must be an int
        (Part(True, True),),  # ... and not a bool
        (Part(2, False), Part(True, False)),
        (Part(2, 1),),  # the overline flag must be a bool
        (Part(2, True), Part(2, False)),  # plain copy after the overlined one
        (Part(3, False), Part(2, True), Part(2, True)),  # doubled overline
        (Part(1, False), Part(-1, False)),
        (1, 2),
    ):
        with pytest.raises(op.BadParamsError):
            Overpartition(parts)
    with pytest.raises(op.BadParamsError, match="more than one overline"):
        Overpartition((Part(1, True), Part(1, True)))
    with pytest.raises(op.BadParamsError, match="not sorted"):
        Overpartition((Part(1, True), Part(1, False)))


class _Int(int):
    pass


class _Part(Part):
    pass


def test_overpartition_accepts_subclasses():
    # an int subclass value and a Part subclass fail the exact-type accept
    # test but pass the full checks
    pi = Overpartition((Part(_Int(3), False), _Part(2, True), Part(1, False)))
    assert pi.weight == 6
    assert pi == of(3, (2, True), 1)
    assert Overpartition((_Part(_Int(2), False),)).weight == 2
    # a subclass part object repeated after a plain copy of its value
    two = _Part(_Int(2), False)
    pi = Overpartition((Part(2, False), two, two, Part(1, True)))
    assert pi == of(2, 2, 2, (1, True)) and pi.weight == 7


# each input breaks one rule, after a valid leading part that the accept
# test passes, and must raise today's message for that rule; one overlined
# Part object repeated is not taken for an already checked plain repeat
_BAR5 = Part(5, True)
SINGLE_FAULTS = {
    "not a Part": ((Part(5, False), (3, False)), r"^parts must be Part instances$"),
    "int not a Part": ((Part(5, False), 3), r"^parts must be Part instances$"),
    "non-int value": ((Part(5, False), Part(2.5, False)), r"^part values must be ints, got 2\.5$"),
    "bool value": ((Part(5, False), Part(True, False)), r"^part values must be ints, got True$"),
    "value below 1": ((Part(5, False), Part(0, False)), r"^part values must be >= 1, got 0$"),
    "negative subclass value": ((Part(5, False), _Part(_Int(-1), False)), r"^part values must be >= 1, got -1$"),
    "non-bool flag": ((Part(5, False), Part(2, 1)), r"^overline flags must be bools, got 1$"),
    "unsorted": ((Part(5, False), Part(6, False)), r"^parts are not sorted largest first$"),
    "plain after overline": ((Part(5, True), Part(5, False)), r"^parts are not sorted largest first$"),
    "doubled overline": ((Part(5, True), Part(5, True)), r"^value 5 carries more than one overline$"),
    "repeated overlined object": ((_BAR5, _BAR5), r"^value 5 carries more than one overline$"),
}


@pytest.mark.parametrize("parts, message", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS)
def test_overpartition_single_fault_messages(parts, message):
    with pytest.raises(op.BadParamsError, match=message):
        Overpartition(parts)


def test_overpartition_checks_its_first_part():
    # no part before the first one, so nothing is taken for its repeat
    for parts in [(None,), (None, None)]:
        with pytest.raises(op.BadParamsError,
                           match="^parts must be Part instances$"):
            Overpartition(parts)


def test_overpartition_from_any_iterable():
    # a list, a generator or an iterator gives the same immutable, hashable
    # object as a tuple: the parts are copied once, so the source list can
    # change afterwards and a used-up iterator still leaves its parts
    parts = [Part(2, False), Part(1, True)]
    want = Overpartition(tuple(parts))
    from_list = Overpartition(parts)
    parts.append(Part(5, False))
    for pi in (from_list, Overpartition(iter(want)), Overpartition(p for p in want)):
        assert pi == want and hash(pi) == hash(want) and pi.weight == 3
        assert type(pi) is Overpartition
        assert not hasattr(pi, "append")
    assert len({from_list, want}) == 1
    with pytest.raises(AttributeError):
        from_list.parts = ()


def test_overpartition_rejects_a_non_iterable():
    for parts in (5, None, Part):
        with pytest.raises(op.BadParamsError, match="iterable of Part instances"):
            Overpartition(parts)


def test_overpartition_is_the_tuple_of_its_parts():
    # equality and hashing are the tuple's, and < is tuple order on
    # (value, overlined) pairs, not the part order
    pi = of(3, (1, True))
    assert pi == (Part(3, False), Part(1, True)) and pi == ((3, False), (1, True))
    assert hash(pi) == hash(((3, False), (1, True)))
    assert of(1) < of((1, True)) and of(1).weight == of((1, True)).weight
    assert repr(pi) == repr(tuple(pi))


def test_overpartition_accessors():
    pi = of(3, 2, 2, (2, True), (1, True))
    assert pi.count(Part(2, False)) == 2
    assert Part(2, True) in pi and Part(1, True) in pi
    assert Part(3, True) not in pi
    assert pi.smallest() == Part(1, True)
    assert of().smallest() is None
    assert pi.to_jsonable()[0] == [3, False]


def _plain_only(n):
    """The overpartitions of n with no overlined part: the partitions of n."""
    return [
        pi for pi in op.enumerate_overpartitions(n)
        if not any(p.overlined for p in pi)
    ]


def test_enumeration_matches_gf_counts():
    p = partition_gf(16)
    for n in range(0, 17):
        assert len(op.enumerate_overpartitions(n)) == op.pbar(n), n
        assert len(_plain_only(n)) == p.coeffs[n], n


def test_enumeration_is_deterministic_and_distinct():
    ops = op.enumerate_overpartitions(6)
    assert len(set(ops)) == len(ops)
    assert ops == op.enumerate_overpartitions(6)


def test_enumeration_order_is_pinned():
    # the walk emits objects already sorted by the rank sequence, largest
    # part first
    for n in range(21):
        ops = op.enumerate_overpartitions(n)
        assert len(set(ops)) == len(ops) == op.pbar(n), n
        assert list(ops) == sorted(
            ops, key=lambda pi: tuple(p.rank for p in pi)
        ), n


def test_enumeration_matches_the_full_rank_walk():
    # the library walks only A(n) and builds the other half by overlining
    # each smallest part; the reference walks both halves at once
    for n in range(23):
        full = rank_walk(n)
        ops = op.enumerate_overpartitions(n)
        assert len(ops) == len(full), n
        for pi, ref in zip(ops, full):
            assert type(pi) is Overpartition and pi == ref, (n, pi, ref)
        # weights 0..22 span the precomputed tails, which end at weight 10
        assert tuple(op._class_a(n)) == tuple(filter(bj.in_a, full)), n
    # nothing is kept between walks: each builds its objects afresh
    first, again = next(op._class_a(12)), next(op._class_a(12))
    assert first == again and first is not again


def test_walks_share_one_part_per_rank():
    # every walked part, and bijections' 1 and 1bar, is an entry of the one
    # rank table, which reaches the top rank of the ceiling weight
    table = set(map(id, op._PARTS))
    assert all(id(p) in table for pi in op._overpartitions(12) for p in pi)
    assert bj._ONE is op._PARTS[2] and bj._ONE_BAR is op._PARTS[1]
    for last in op._class_a(op.OBJECT_CEILING):
        pass
    assert last == (op._PARTS[2 * op.OBJECT_CEILING],)
    assert last[0] is op._PARTS[2 * op.OBJECT_CEILING]


def test_shape_b_column_matches_in_b():
    for m in range(21):
        count = sum(map(bj.in_b, op.enumerate_overpartitions(m)))
        assert op._shape_tables(m).b == count, m


def test_pbar_frozen_values():
    assert tuple(op.pbar(n) for n in range(len(PBAR_LOW))) == PBAR_LOW
    assert op.pbar(-3) == 0
    # large n goes through the doubling gf table, beyond the first block
    assert op.pbar(100) == overpartition_gf(128).coeffs[100]


def test_partition_gf_frozen_values():
    # the oracle that stands in for p(n) wherever the tests count partitions
    assert partition_gf(len(P_LOW) - 1).coeffs == P_LOW


def test_overline_mex_ignores_overlined_parts():
    assert op.overline_mex(of((1, True), (3, True))) == 1
    assert op.overline_mex(of(1, 3, 5)) == 7
    assert op.overline_mex(of()) == 1


def test_op21_frozen():
    assert (op.op21(4, 0), op.op21(4, 1), op.op21(4, 2)) == (7, 7, 1)


def test_mbar_frozen():
    assert op.mbar(4, 1) == 2  # (2,2) and (2,2bar)
    for n in range(1, 13):
        assert op.mbar(n, 0) == op.pbar(n)  # every overpartition qualifies


def test_nbar_frozen():
    assert op.nbar(4, 1) == 6
    assert op.nbar(5, 2) == 2  # (2,2,1) and (2,2,1bar)


def test_mk_stat_frozen():
    assert op.mk_stat(4, 1) == 2  # (4) and (2,2): no 1s, all parts above 1
    assert op.mk_stat(5, 1) == 2
    assert op.mk_stat(1, 2) == 0


def test_enumeration_ceilings(monkeypatch):
    assert (op.OBJECT_CEILING, op.SHAPE_CEILING) == (30, 50)
    walks = record_walks(monkeypatch)
    tables = record_tables(monkeypatch)
    with pytest.raises(op.BadParamsError, match="weight 31 .* ceiling 30$"):
        op.enumerate_overpartitions(31)
    for stat in (op.op21, op.mbar, op.nbar, op.mk_stat):
        with pytest.raises(op.BadParamsError, match="weight 51 .* ceiling 50$"):
            stat(51, 1)
    with pytest.raises(op.BadParamsError, match="ceiling 50$"):
        op.op_class_counts(51)
    # rejected before anything is walked or built
    assert walks == tables == []
    # the shape counts reach past the object ceiling
    assert sum(op.op_class_counts(31)) == op.pbar(31)


# -- the shape tables against the object scans of tests/_reference.py -------

@pytest.mark.parametrize("n", range(1, REF_N_MAX + 1))
def test_shape_tables_match_object_scans(n):
    for k in range(0, n + 3):
        assert op.op21(n, k) == ref_op21(n, k), ("op21", n, k)
        assert op.mbar(n, k) == ref_mbar(n, k), ("mbar", n, k)
    for k in range(1, n + 3):
        assert op.nbar(n, k) == ref_nbar(n, k), ("nbar", n, k)
        assert op.mk_stat(n, k) == ref_mk_stat(n, k), ("mk_stat", n, k)


def test_op_class_counts_match_object_scans():
    assert op.op_class_counts(0) == (1, 0)
    for n in range(0, REF_N_MAX + 1):
        split = op.op_class_counts(n)
        assert split == (ref_op21(n, 0), ref_op21(n, 1)), n
        # pinned to enumeration, not to the generating function
        assert sum(split) == len(op.enumerate_overpartitions(n)), n


def test_one_shape_walk_per_weight(monkeypatch):
    # a fresh fill, as in a new process
    monkeypatch.setattr(op, "_TABLES", [])
    monkeypatch.setattr(op, "_FILL", op._fill())
    walks, shapes = [], []
    walk = op._blocks_without_ones

    def counted(m):
        walks.append(m)
        for blocks in walk(m):
            shapes.append(blocks)
            yield blocks

    monkeypatch.setattr(op, "_blocks_without_ones", counted)
    n = 12
    for stat in (op.op21, op.mbar, op.nbar, op.mk_stat):
        stat(n, 1)
    op.op_class_counts(n)
    # every weight up to n walked once, in order, and nothing past it; the
    # 1-free shapes of weight <= n are the partitions of n less their 1s
    assert walks == list(range(n + 1))
    assert len(shapes) == len(set(shapes)) == partition_gf(n).coeffs[n]
    # a smaller n, or the same n again, walks nothing
    for m in (5, 0, n):
        op._shape_tables(m)
        op.mk_stat(max(m, 1), 1)
    assert walks == list(range(n + 1))
    assert len(op._TABLES) == n + 1


def test_fill_cut_short_starts_over(monkeypatch):
    monkeypatch.setattr(op, "_TABLES", [])
    monkeypatch.setattr(op, "_FILL", op._fill())
    walk = op._blocks_without_ones

    def interrupted(m):
        if m == 7:
            raise KeyboardInterrupt
        return walk(m)

    monkeypatch.setattr(op, "_blocks_without_ones", interrupted)
    with pytest.raises(KeyboardInterrupt):
        op._shape_tables(10)
    monkeypatch.setattr(op, "_blocks_without_ones", walk)
    assert [op._shape_tables(n) for n in range(11)] == list(
        map(shape_tables, range(11))
    )


# -- the 1-free walk the fill scans, and the tables it fills ----------------
#
# The library walks partition shapes iteratively; the recursive
# _reference.ref_value_blocks enumerates the same shapes in another order.

WALK_N_MAX = 30
ONE_FREE_N_MAX = 40


@pytest.mark.parametrize("n", range(0, ONE_FREE_N_MAX + 1))
def test_shape_walk_matches_recursive_reference(n):
    expected = sorted(ref_value_blocks(n, n, 2))
    # one shape past the expected count, so a walk that never ends fails
    shapes = list(itertools.islice(op._blocks_without_ones(n), len(expected) + 1))
    assert len(shapes) == len(set(shapes)) == len(expected)
    assert sorted(shapes) == expected
    for blocks in shapes:
        values = [v for v, _ in blocks]
        assert values == sorted(set(values), reverse=True)
        assert all(v >= 2 and c >= 1 for v, c in blocks)
        assert sum(v * c for v, c in blocks) == n


@pytest.mark.parametrize("n", range(0, WALK_N_MAX + 1))
def test_tables_match_reference_walk_tables(n):
    # every column, with its length, equals the tables that one walk of
    # weight n's shapes builds; CI compares every n up to SHAPE_CEILING
    assert op._shape_tables(n) == shape_tables(n)

"""Bijection layer: frozen small cases, exhaustive sweeps, failing checks."""

import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplab import bijections as bj
from oplab import identities as idn
from oplab import overpartitions as op
from oplab.overpartitions import Overpartition, Part

from _reference import REF_N_MAX, of as _ov, record_tables, record_walks, ref_op21


def test_classify_weight_3_split():
    # B(3) holds seven of the eight overpartitions of 3; (2bar,1bar) is the
    # single member of the complement class
    expected_b = {
        _ov(3),
        _ov((3, True)),
        _ov(2, 1),
        _ov((2, True), 1),
        _ov(2, (1, True)),
        _ov(1, 1, 1),
        _ov(1, 1, (1, True)),
    }
    b, c = set(), set()
    for pi in op.enumerate_overpartitions(3):
        (b if bj.in_b(pi) else c).add(pi)
    assert b == expected_b
    assert c == {_ov((2, True), (1, True))}


def test_classify_a_side():
    assert bj.in_a(_ov(3, 1)) is True
    assert bj.in_a(_ov(3, (1, True))) is False
    assert bj.in_a(_ov()) is False


def test_map_a_to_b_frozen_cases():
    assert bj.map_a_to_b(_ov(3, 1)) == _ov(3)
    assert bj.map_a_to_b(_ov(2, 2)) == _ov(2, (1, True))
    assert bj.map_a_to_b(_ov(4)) == _ov(1, 1, (1, True))


def test_map_a_to_b_rejects_overlined_smallest():
    with pytest.raises(ValueError):
        bj.map_a_to_b(_ov(3, (1, True)))
    with pytest.raises(ValueError):
        bj.map_a_to_b(_ov())


def test_map_b_to_a_frozen_cases():
    assert bj.map_b_to_a(_ov(3)) == _ov(3, 1)
    assert bj.map_b_to_a(_ov(2, (1, True))) == _ov(2, 2)
    assert bj.map_b_to_a(_ov(1, 1, (1, True))) == _ov(4)
    assert bj.map_b_to_a(_ov()) == _ov(1)


def test_map_b_to_a_rejects_complement_class():
    with pytest.raises(ValueError):
        bj.map_b_to_a(_ov((2, True), (1, True)))


def test_c_witness():
    assert bj.c_witness(4) == _ov((2, True), (1, True))
    w = bj.c_witness(7)
    assert w == _ov((2, True), 1, 1, 1, (1, True))
    assert w.weight == 6
    assert bj.in_b(w) is False
    with pytest.raises(ValueError):
        bj.c_witness(3)


def test_weight_down_bijection_exhaustive():
    for n in range(1, 19):
        result = bj.check_weight_down(n)
        assert result["ok"], result
        assert result["a_count"] == op.pbar(n) // 2


def test_complement_class_empty_iff_small():
    assert bj.check_weight_down(1)["c_count"] == 0
    assert bj.check_weight_down(2)["c_count"] == 0
    assert bj.check_weight_down(3)["c_count"] == 0
    assert bj.check_weight_down(4)["c_count"] == 1
    for n in range(5, 15):
        assert bj.check_weight_down(n)["c_count"] >= 1


def test_trace_preserves_overlines_above_smallest():
    # the map only touches the smallest part: every other overline survives,
    # and the spread case adds exactly the overlined 1
    for n in range(1, 11):
        for pi in op.enumerate_overpartitions(n):
            if not bj.in_a(pi):
                continue
            out = bj.map_a_to_b(pi)
            before = {p.value for p in pi if p.overlined}
            after = {p.value for p in out if p.overlined}
            if pi.smallest().value == 1:
                assert after == before
            else:
                assert after == before | {1}
            assert out.weight == n - 1


def test_staircase_insert_frozen():
    assert bj.staircase_insert(_ov((2, True), 1), 2) == _ov(3, (2, True), 1, 1)


def test_staircase_insert_accepts_a_list_built_object():
    # a list of parts gives the same object as a tuple, so the maps take it
    pi = Overpartition([Part(2, False)])
    assert bj.staircase_insert(pi, 1) == _ov(2, 1)
    assert bj.staircase_remove(bj.staircase_insert(pi, 2), 2) == pi


def test_staircase_remove_frozen():
    assert bj.staircase_remove(_ov(3, 1), 2) == _ov()
    with pytest.raises(ValueError, match="overline-mex"):
        bj.staircase_remove(_ov(3, (1, True)), 1)
    # with 1 and 3 both missing, the message names the smallest, 1
    with pytest.raises(ValueError, match="missing plain part 1:"):
        bj.staircase_remove(_ov(2), 2)
    with pytest.raises(ValueError):
        bj.staircase_insert(_ov(1), 0)


def test_staircase_remove_rejects_a_huge_j_before_building_stairs():
    # the overline-mex names the smallest missing stair, so no stair of
    # _stairs(10**8) is built to find it
    bj._stairs.cache_clear()
    with pytest.raises(
        op.BadParamsError,
        match=r"^missing plain part 5: overline-mex precondition "
        r">= 200000001 is violated$",
    ):
        bj.staircase_remove(_ov(3, 1), 10**8)
    assert bj._stairs.cache_info().misses == 0


def test_staircase_forces_mex():
    for n in range(1, 13):
        for mu in op.enumerate_overpartitions(n):
            for j in (1, 2):
                lam = bj.staircase_insert(mu, j)
                assert op.overline_mex(lam) >= 2 * j + 1


def test_staircase_bijection_exhaustive():
    for n in range(1, 15):
        j = 1
        while j * j <= n:
            result = bj.check_staircase(n, j)
            assert result["ok"], result
            assert result["source_count"] == op.pbar(n - j * j)
            j += 1
    with pytest.raises(ValueError):
        bj.check_staircase(3, 2)


def test_staircase_target_count_matches_object_scan():
    # check_staircase counts its target by shapes; the exhaustive scan of
    # the enumerated weight-n objects stays the reference
    for n in range(1, REF_N_MAX + 1):
        for j in range(1, math.isqrt(n) + 1):
            expected = ref_op21(n, j) + ref_op21(n, j + 1)
            assert bj.check_staircase(n, j)["target_count"] == expected, (n, j)


def test_check_weight_down_validation():
    with pytest.raises(ValueError):
        bj.check_weight_down(0)


def test_check_weight_down_catches_a_wrong_weight(monkeypatch):
    # the checks map each walked tuple through the forward core
    for name, mutant, flag in [
        # the identity map keeps weight n instead of going down to n-1
        ("_a_to_b_parts", lambda pi: pi, "weights_ok"),
        # an image in the complement class C is reported, not raised
        ("_a_to_b_parts",
         lambda pi: tuple(bj.c_witness(sum(p.value for p in pi))),
         "round_trip_ok"),
        # an inverse core that returns the image, not the source
        ("_b_to_a_parts", lambda lam: lam, "round_trip_ok"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(bj, name, mutant)
            result = bj.check_weight_down(6)
        assert result[flag] is False
        assert result["ok"] is False


def test_check_staircase_catches_a_broken_round_trip(monkeypatch):
    for name, mutant, flag in [
        # a removal that leaves the stairs in returns the image, not the source
        ("_remove_stairs", lambda lam, stairs: lam, "round_trip_ok"),
        # an insertion that adds nothing leaves every image outside the target
        ("_insert_stairs", lambda mu, stairs: mu, "matched"),
        # adding the weight j^2 = 4 as one plain 4 keeps the weight but leaves
        # the stairs 1 and 3 missing: every image is outside the target
        ("_insert_stairs",
         lambda mu, stairs: sorted((Part(4, False),) + mu,
                                   key=op._part_value, reverse=True),
         "matched"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(bj, name, mutant)
            result = bj.check_staircase(6, 2)
        assert result[flag] is False
        assert result["ok"] is False


def test_an_unsorted_inverse_core_fails_the_round_trip_without_raising(
    monkeypatch,
):
    # the checks compare the core's tuple with the source and never build
    # an Overpartition from it, so an invalid result is a failed round trip
    for name, check, args in [("_b_to_a_parts", bj.check_weight_down, (6,)),
                              ("_remove_stairs", bj.check_staircase, (6, 1))]:
        core = getattr(bj, name)
        with monkeypatch.context() as m:
            # the core's None, for an image outside the target, stays None
            m.setattr(bj, name, lambda *a, core=core: (
                None if (parts := core(*a)) is None else parts[::-1]
            ))
            result = check(*args)
        assert result["round_trip_ok"] is False, name
        assert result["ok"] is False


def test_an_inverse_core_that_rejects_every_image_fails_without_raising(
    monkeypatch,
):
    # None from an inverse core puts the image outside the target class,
    # which the checks report and never raise
    for name, check, args, flag in [
        ("_b_to_a_parts", bj.check_weight_down, (6,), "round_trip_ok"),
        ("_remove_stairs", bj.check_staircase, (6, 1), "matched"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(bj, name, lambda *a: None)
            result = check(*args)
        assert result[flag] is False, name
        assert result["ok"] is False


def test_public_inverses_wrap_their_cores():
    # the forward maps too: the checks call the cores, the public maps wrap
    # them in the validating constructor, and an inverse core returns None
    # exactly outside its map's domain
    for n in range(13):
        for lam in op.enumerate_overpartitions(n):
            if bj.in_a(lam):
                core = bj._a_to_b_parts(lam)
                assert type(core) is tuple
                assert bj.map_a_to_b(lam) == Overpartition(core)
            core = bj._b_to_a_parts(lam)
            if bj.in_b(lam):
                assert type(core) is tuple
                assert bj.map_b_to_a(lam) == Overpartition(core)
            else:
                assert core is None
            for j in range(1, 4):
                stairs = bj._stairs(j)
                core = bj._insert_stairs(lam, stairs)
                assert type(core) is list
                assert bj.staircase_insert(lam, j) == Overpartition(core)
                core = bj._remove_stairs(lam, stairs)
                if op.overline_mex(lam) >= 2 * j + 1:
                    assert type(core) is tuple
                    assert bj.staircase_remove(lam, j) == Overpartition(core)
                else:
                    assert core is None


def test_checks_build_one_object_per_source_object(monkeypatch):
    class Counting(Overpartition):
        __slots__ = ()
        built = 0

        def __new__(cls, parts):
            Counting.built += 1
            return super().__new__(cls, parts)

    # constructions through either module's name count, so the walk, which
    # yields plain tuples, is pinned to build nothing
    for check, args, key, extra in [
        # check_weight_down also builds its C witness (n >= 4)
        (bj.check_weight_down, (12,), "a_count", 1),
        (bj.check_staircase, (12, 1), "source_count", 0),
    ]:
        check(*args)  # warm the enumeration and the shape tables
        with monkeypatch.context() as m:
            m.setattr(bj, "Overpartition", Counting)
            m.setattr(op, "Overpartition", Counting)
            Counting.built = 0
            result = check(*args)
        assert result["ok"], result
        assert Counting.built == result[key] + extra, check.__name__


def test_checks_reject_a_weight_past_its_ceiling_before_enumerating(
    monkeypatch,
):
    walks = record_walks(monkeypatch)
    tables = record_tables(monkeypatch)
    with pytest.raises(op.EnumerationCapError, match="weight 31 .* ceiling 30$"):
        bj.check_weight_down(31)
    # the source weight 28 is in range, the target weight is not
    with pytest.raises(op.EnumerationCapError, match="weight 64 .* ceiling 50$"):
        bj.check_staircase(64, 6)
    with pytest.raises(op.EnumerationCapError, match="weight 31 .* ceiling 30$"):
        bj.check_staircase(32, 1)
    assert walks == tables == []


def _merge_smallest(pi):
    # keeps the weight but sends both (3) and (1,1,1) to (1,1)
    return pi[:-1] + (Part(1, False),) * (pi[-1].value - 1)


def test_check_weight_down_catches_a_map_that_is_not_injective(monkeypatch):
    monkeypatch.setattr(bj, "_a_to_b_parts", _merge_smallest)
    result = bj.check_weight_down(6)
    assert result["weights_ok"] is True
    assert result["round_trip_ok"] is False
    assert result["distinct_images"] is None
    assert result["ok"] is False
    r = idn.verify_enumerative("sec3-bijection", None, 8)
    assert not r.passed
    # at n = 2 both objects of A map to (1): each side counts two images,
    # and the bijectivity display is the first to differ
    assert r.first_mismatch == (2, 0, 1)
    assert r.detail == "display 3 of 4"


def _reversed(pi):
    return pi[::-1]


def _double_an_overline(pi):
    # (..., v, vbar, ...) -> (..., vbar, vbar, ...): the weight is kept, v
    # carries two overlines
    for i in range(len(pi) - 1):
        if pi[i].value == pi[i + 1].value and pi[i + 1].overlined:
            return pi[:i] + (pi[i + 1],) + pi[i + 1:]
    return pi


@pytest.mark.parametrize("mutant", [_reversed, _double_an_overline])
def test_a_walk_that_yields_bad_tuples_never_passes(monkeypatch, mutant):
    # the checks validate only the images: a bad source tuple makes the
    # image's constructor raise or fails the round trip, never a pass
    real = op._class_a
    assert any(mutant(pi) != pi for pi in real(6))
    monkeypatch.setattr(op, "_class_a", lambda n: map(mutant, real(n)))
    for check, args in [(bj.check_weight_down, (6,)),
                        (bj.check_staircase, (7, 1))]:
        try:
            result = check(*args)
        except op.BadParamsError:
            continue
        assert result["ok"] is False, (check.__name__, result)


def test_a_walk_outside_a_fails_the_weight_down_round_trip(monkeypatch):
    # valid tuples whose smallest part is overlined map to valid images in
    # B, and the round trip, whose results end in a plain part, rejects them
    real = op._class_a
    monkeypatch.setattr(op, "_class_a", lambda n: (
        pi[:-1] + (Part(pi[-1].value, True),) for pi in real(n)
    ))
    result = bj.check_weight_down(6)
    assert result["weights_ok"] is True
    assert result["round_trip_ok"] is False
    assert result["ok"] is False


def test_a_walk_that_repeats_each_twin_fails_the_staircase_check(monkeypatch):
    # with every last part overlined, each overlined-smallest source comes
    # twice and no plain-smallest one comes: every image is in the target
    # and maps back, and the count of sources is right, so only the half
    # with an overlined smallest part tells
    real = op._class_a
    monkeypatch.setattr(op, "_class_a", lambda n: (
        pi[:-1] + (Part(pi[-1].value, True),) for pi in real(n)
    ))
    result = bj.check_staircase(7, 1)
    assert result["source_count"] == result["target_count"] == 40
    assert result["round_trip_ok"] is True
    assert result["matched"] is False and result["ok"] is False


def test_checks_keep_no_objects():
    # a first call holds counters only: what it allocates, the walk of its
    # source weight included, does not grow with the number of objects it
    # maps (pbar(20) = 7336, pbar(23) = 17728); only the shape tables and
    # pbar, the caches meant to stay, are filled beforehand
    for check, args in [(bj.check_weight_down, (20,)),
                        (bj.check_staircase, (20, 1)),
                        (bj.check_staircase, (24, 1))]:
        n = args[0]
        op._shape_tables(n - 1), op._shape_tables(n), op.pbar(n)
        # CPython 3.11 keeps every freed 20-item tuple, up to 2000 of them,
        # on a free list that it never reuses; fill that list first, so the
        # peak is what the check holds, not that list
        for _ in range(2000):
            tuple(range(20))
        tracemalloc.start()
        try:
            assert check(*args)["ok"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 1024, (check.__name__, args, peak)


def test_weight_down_walks_only_its_source_weight(monkeypatch):
    # B(n-1) and C(n-1) are counted over shapes: the check walks A(n) once
    # and no other weight, and the sec3 rhs walks nothing
    walks = record_walks(monkeypatch)
    assert bj.check_weight_down(9)["ok"]
    assert walks == [9]
    idn.get_identity("sec3-bijection").enum_rhs({}, 10)
    assert walks == [9]


# -- properties past the object ceiling ------------------------------------

MAX_WEIGHT = 200

# half the values are small, so overlined 1s and the gap condition around
# them (classes B and C) come up often
_BLOCKS = st.lists(
    st.tuples(st.integers(1, 3) | st.integers(1, 60), st.integers(1, 6),
              st.booleans()),
    unique_by=lambda block: block[0],
    max_size=14,
)


@st.composite
def overpartitions(draw):
    """A canonical overpartition built from (value, multiplicity, overline)
    blocks, largest value first, dropping any block that would take the
    weight past MAX_WEIGHT. An overlined block ends in its one overlined
    copy, which sits just below the plain copies in the part order."""
    parts, weight = [], 0
    for value, count, overlined in sorted(draw(_BLOCKS), reverse=True):
        if weight + value * count > MAX_WEIGHT:
            continue
        weight += value * count
        parts += [Part(value, False)] * (count - 1) + [Part(value, overlined)]
    return Overpartition(tuple(parts))


@settings(deadline=None)
@given(overpartitions())
def test_weight_down_round_trip_past_the_cap(pi):
    assume(bj.in_a(pi))
    lam = bj.map_a_to_b(pi)
    assert bj.in_b(lam)
    assert lam.weight == pi.weight - 1
    assert bj.map_b_to_a(lam) == pi
    assert bj._a_to_b_parts(pi) == lam
    assert bj._b_to_a_parts(lam) == pi


@settings(deadline=None)
@given(overpartitions())
def test_weight_down_inverse_round_trip_past_the_cap(lam):
    assume(bj.in_b(lam))
    pi = bj.map_b_to_a(lam)
    assert bj._b_to_a_parts(lam) == pi
    assert bj.in_a(pi)
    assert pi.weight == lam.weight + 1
    assert bj.map_a_to_b(pi) == lam
    assert bj._a_to_b_parts(pi) == lam


@settings(deadline=None)
@given(overpartitions(), st.integers(1, 12))
def test_staircase_round_trip_past_the_cap(mu, j):
    lam = bj.staircase_insert(mu, j)
    assert tuple(bj._insert_stairs(mu, bj._stairs(j))) == lam
    assert lam.weight == mu.weight + j * j
    assert op.overline_mex(lam) >= 2 * j + 1
    assert bj.staircase_remove(lam, j) == mu
    assert bj._remove_stairs(lam, bj._stairs(j)) == mu

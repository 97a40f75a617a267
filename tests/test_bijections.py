"""Bijection layer: frozen small cases, exhaustive sweeps, trace audits."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplab import bijections as bj
from oplab import overpartitions as op
from oplab.bijections import SetLabel
from oplab.overpartitions import Overpartition, Part


def _ov(*parts):
    return Overpartition.of(*parts)


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
        label = bj.classify(pi, "B")
        (b if label is SetLabel.B else c).add(pi)
    assert b == expected_b
    assert c == {_ov((2, True), (1, True))}


def test_classify_a_side():
    assert bj.classify(_ov(3, 1), "A") is SetLabel.A
    assert bj.classify(_ov(3, (1, True)), "A") is SetLabel.NONE
    assert bj.classify(_ov(), "A") is SetLabel.NONE
    with pytest.raises(ValueError):
        bj.classify(_ov(1), "X")


def test_map_a_to_b_frozen_cases():
    out, tr = bj.map_a_to_b(_ov(3, 1))
    assert out == _ov(3) and tr.case_tag == "t=1" and tr.weight_delta == -1
    out, tr = bj.map_a_to_b(_ov(2, 2))
    assert out == _ov(2, (1, True)) and tr.case_tag == "t>=2"
    out, tr = bj.map_a_to_b(_ov(4))
    assert out == _ov(1, 1, (1, True))
    assert tr.input == _ov(4) and tr.output == out


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
    assert bj.classify(w, "B") is SetLabel.C
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
            if bj.classify(pi, "A") is not SetLabel.A:
                continue
            out, tr = bj.map_a_to_b(pi)
            before = {p.value for p in pi.parts if p.overlined}
            after = {p.value for p in out.parts if p.overlined}
            if tr.case_tag == "t=1":
                assert after == before
            else:
                assert after == before | {1}
            assert tr.weight_delta == -1
            assert out.weight == n - 1


def test_trace_jsonable_shape():
    _, tr = bj.map_a_to_b(_ov(2, 2))
    blob = tr.to_jsonable()
    assert set(blob) == {"input", "output", "case", "weightDelta"}
    assert blob["input"] == [[2, False], [2, False]]
    assert blob["output"] == [[2, False], [1, True]]
    assert blob["weightDelta"] == -1


def test_staircase_insert_frozen():
    out, tr = bj.staircase_insert(_ov((2, True), 1), 2)
    assert out == _ov(3, (2, True), 1, 1)
    assert tr.case_tag == "insert" and tr.weight_delta == 4


def test_staircase_remove_frozen():
    out, tr = bj.staircase_remove(_ov(3, 1), 2)
    assert out == _ov()
    assert tr.weight_delta == -4
    with pytest.raises(ValueError, match="overline-mex"):
        bj.staircase_remove(_ov(3, (1, True)), 1)
    # stairs are removed smallest first: with 1 and 3 both missing, the
    # message names 1
    with pytest.raises(ValueError, match="missing plain part 1:"):
        bj.staircase_remove(_ov(2), 2)
    with pytest.raises(ValueError):
        bj.staircase_insert(_ov(1), 0)


def test_staircase_forces_mex():
    for n in range(1, 13):
        for mu in op.enumerate_overpartitions(n):
            for j in (1, 2):
                lam, _ = bj.staircase_insert(mu, j)
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
    for n in range(1, 21):
        mex_values = [op.overline_mex(pi) for pi in op.enumerate_overpartitions(n)]
        j = 1
        while j * j <= n:
            expected = sum(1 for m in mex_values if m >= 2 * j + 1)
            assert bj.check_staircase(n, j)["target_count"] == expected, (n, j)
            j += 1


def test_check_weight_down_validation():
    with pytest.raises(ValueError):
        bj.check_weight_down(0)


# -- properties past the enumeration cap ------------------------------------

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
    assume(bj.classify(pi, "A") is SetLabel.A)
    lam, trace = bj.map_a_to_b(pi)
    assert bj.classify(lam, "B") is SetLabel.B
    assert lam.weight == pi.weight - 1 and trace.weight_delta == -1
    assert bj.map_b_to_a(lam) == pi


@settings(deadline=None)
@given(overpartitions())
def test_weight_down_inverse_round_trip_past_the_cap(lam):
    assume(bj.classify(lam, "B") is SetLabel.B)
    pi = bj.map_b_to_a(lam)
    assert bj.classify(pi, "A") is SetLabel.A
    assert pi.weight == lam.weight + 1
    assert bj.map_a_to_b(pi)[0] == lam


@settings(deadline=None)
@given(overpartitions(), st.integers(1, 12))
def test_staircase_round_trip_past_the_cap(mu, j):
    lam, trace = bj.staircase_insert(mu, j)
    assert lam.weight == mu.weight + j * j and trace.weight_delta == j * j
    assert op.overline_mex(lam) >= 2 * j + 1
    back, trace = bj.staircase_remove(lam, j)
    assert back == mu and trace.weight_delta == -j * j

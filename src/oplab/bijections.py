"""Constructive weight bijections on overpartitions.

Two maps live here, each with an explicit inverse and a trace record so a
run can be audited part by part.

The first is a weight-1-decreasing bijection. Its domain A(n) holds the
overpartitions of n whose smallest part is not overlined; its image B(n-1)
holds the overpartitions of n-1 that satisfy a gap condition around an
overlined 1: if 1bar is present, the smallest part of value >= 2 must be at
least as large (in the part order) as the plain value 2 + r, where r counts
the non-overlined 1s. Overpartitions of n-1 outside B form the complement
class C. The map deletes a smallest part 1, or spreads a smallest part
t >= 2 into t-2 plain 1s plus an overlined 1.

The second inserts the odd staircase 1, 3, ..., 2j-1 as plain parts, adding
weight j^2 and forcing the overline-mex (mod 2, residue 1) to at least
2j+1; removal is its inverse. Each check maps its source weight there and
back, and tests every image for membership in the target class and the
number of distinct images against a separate count of that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import inf
from operator import itemgetter

from .overpartitions import (
    MEX_2_1,
    BadParamsError,
    Overpartition,
    Part,
    _checked_int,
    enumerate_overpartitions,
    op21,
    overline_mex,
    pbar,
)

__all__ = [
    "SetLabel",
    "BijectionTrace",
    "classify",
    "map_a_to_b",
    "map_b_to_a",
    "c_witness",
    "staircase_insert",
    "staircase_remove",
    "check_weight_down",
    "check_staircase",
]


_ONE = Part(1, False)
_ONE_BAR = Part(1, True)


class SetLabel(Enum):
    A = "A"
    B = "B"
    C = "C"
    NONE = "NONE"


@dataclass(frozen=True)
class BijectionTrace:
    input: Overpartition
    output: Overpartition
    case_tag: str  # "t=1" | "t>=2" | "insert" | "remove"
    weight_delta: int

    def to_jsonable(self) -> dict:
        return {
            "input": self.input.to_jsonable(),
            "output": self.output.to_jsonable(),
            "case": self.case_tag,
            "weightDelta": self.weight_delta,
        }


def classify(pi: Overpartition, side: str) -> SetLabel:
    """Classify pi for the weight-down bijection.

    side "A": label A when the smallest part exists and is not overlined,
    NONE otherwise. side "B": label B or C by the gap condition; the empty
    overpartition and anything without an overlined 1 are in B, and when
    1bar is present the smallest part of value >= 2 (if any) must be >= the
    plain part 2 + r in the part order, r = number of non-overlined 1s.
    """
    if side == "A":
        smallest = pi.smallest()
        ok = smallest is not None and not smallest.overlined
        return SetLabel.A if ok else SetLabel.NONE
    if side == "B":
        # parts run largest first, so an overlined 1 is the last part and
        # the r plain 1s come just before it
        parts = pi.parts
        if not parts or parts[-1] != _ONE_BAR:
            return SetLabel.B
        r = pi.plain_count(1)
        if len(parts) <= r + 1:
            return SetLabel.B
        # the smallest part of value >= 2, against the plain part 2 + r
        return SetLabel.B if parts[-r - 2].rank >= 2 * (2 + r) else SetLabel.C
    raise BadParamsError(f"side must be 'A' or 'B', got {side!r}")


def map_a_to_b(pi: Overpartition) -> tuple[Overpartition, BijectionTrace]:
    """Send an overpartition with non-overlined smallest part t to weight-1
    less: delete t when t = 1, otherwise replace t by t-2 plain 1s and an
    overlined 1."""
    if classify(pi, "A") is not SetLabel.A:
        raise BadParamsError("input must have a non-overlined smallest part")
    t = pi.parts[-1].value
    rest = pi.parts[:-1]
    if t == 1:
        out = Overpartition(rest)
        tag = "t=1"
    else:
        # rest consists of parts >= t in the part order, so appending the
        # 1-block keeps the largest-first sorting
        out = Overpartition(rest + (_ONE,) * (t - 2) + (_ONE_BAR,))
        tag = "t>=2"
    return out, BijectionTrace(pi, out, tag, -1)


def map_b_to_a(lam: Overpartition) -> Overpartition:
    """Inverse of map_a_to_b. The case split is read off the presence of an
    overlined 1: absent means append a plain 1, present means gather the
    overlined 1 and the r plain 1s back into a plain part r+2."""
    if classify(lam, "B") is SetLabel.C:
        raise BadParamsError("input lies in the complement class C")
    if not lam.has_overline(1):
        return Overpartition(lam.parts + (_ONE,))
    r = lam.plain_count(1)
    kept = tuple(p for p in lam.parts if p.value != 1)
    # the gap condition guarantees every kept part is >= the new part r+2
    return Overpartition(kept + (Part(r + 2, False),))


def c_witness(n: int) -> Overpartition:
    """An explicit member of C(n-1) for n >= 4: (2bar, 1^(n-4), 1bar)."""
    _checked_int(n, 4, inf, "the complement class is empty below weight 3")
    return Overpartition(
        (Part(2, True),) + (Part(1, False),) * (n - 4) + (Part(1, True),)
    )


@lru_cache(maxsize=64)
def _stairs(j: int) -> tuple[Part, ...]:
    """The plain parts 2j-1, ..., 3, 1, largest first."""
    return tuple(Part(2 * i - 1, False) for i in range(j, 0, -1))


def staircase_insert(
    mu: Overpartition, j: int
) -> tuple[Overpartition, BijectionTrace]:
    """Insert the plain odd staircase 1, 3, ..., 2j-1, adding weight j^2."""
    _checked_int(j, 1, inf, "j must be >= 1")
    # both tuples run largest first, so the sort is one merge of two runs;
    # it is stable, so each plain stair lands before mu's copies of its
    # value, and so before an overlined one
    parts = sorted(_stairs(j) + mu.parts, key=itemgetter(0), reverse=True)
    out = Overpartition(tuple(parts))
    return out, BijectionTrace(mu, out, "insert", j * j)


def staircase_remove(
    lam: Overpartition, j: int
) -> tuple[Overpartition, BijectionTrace]:
    """Remove one plain copy of each of 1, 3, ..., 2j-1; the inverse of
    staircase_insert. Requires every odd value below 2j as a plain part,
    which is exactly the overline-mex >= 2j+1 precondition."""
    _checked_int(j, 1, inf, "j must be >= 1")
    parts = list(lam.parts)
    # smallest stair first, so a failure names the smallest missing value
    for stair in reversed(_stairs(j)):
        try:
            parts.remove(stair)
        except ValueError:
            raise BadParamsError(
                f"missing plain part {stair.value}: overline-mex precondition "
                f">= {2 * j + 1} is violated"
            ) from None
    out = Overpartition(tuple(parts))
    return out, BijectionTrace(lam, out, "remove", -j * j)


# -- exhaustive checks used by the identity harness and the CLI -------------

def check_weight_down(n: int) -> dict:
    """Exhaustively verify the weight-down bijection at weight n.

    Returns a dict of counts and flags: sizes of A(n), B(n-1), C(n-1) (the
    last two by classifying weight n-1), how many distinct images weigh n-1
    and classify as B, whether every round trip returns the original, and
    whether the witness behaves when n >= 4.
    """
    _checked_int(n, 1, inf, "n must be >= 1")
    a_side = [
        pi
        for pi in enumerate_overpartitions(n)
        if classify(pi, "A") is SetLabel.A
    ]
    lower = enumerate_overpartitions(n - 1)
    b_count = sum(1 for lam in lower if classify(lam, "B") is SetLabel.B)
    c_count = len(lower) - b_count

    images: set[Overpartition] = set()
    round_trip_ok = True
    weights_ok = True
    for pi in a_side:
        lam, trace = map_a_to_b(pi)
        if lam.weight != n - 1 or trace.weight_delta != -1:
            weights_ok = False
        images.add(lam)
        if map_b_to_a(lam) != pi:
            round_trip_ok = False

    in_b = sum(
        1 for lam in images if lam.weight == n - 1 and classify(lam, "B") is SetLabel.B
    )
    witness_ok: bool | None = None
    if n >= 4:
        w = c_witness(n)
        witness_ok = (
            w.weight == n - 1 and classify(w, "B") is SetLabel.C
        )

    return {
        "n": n,
        "a_count": len(a_side),
        "b_count": b_count,
        "c_count": c_count,
        "images_in_b": in_b,
        "distinct_images": len(images),
        "round_trip_ok": round_trip_ok,
        "weights_ok": weights_ok,
        "witness_ok": witness_ok,
        "pbar_half": pbar(n) // 2 if pbar(n) % 2 == 0 else -1,
        "ok": (
            len(a_side) == b_count == in_b == pbar(n) // 2
            and pbar(n) % 2 == 0
            and round_trip_ok
            and weights_ok
            and (n > 3 or c_count == 0)
            and (n < 4 or (witness_ok is True and c_count >= 1))
        ),
    }


def check_staircase(n: int, j: int) -> dict:
    """Exhaustively verify the staircase bijection between overpartitions of
    n - j^2 and overpartitions of n with overline-mex at least 2j+1. Every
    image must weigh n with mex >= 2j+1, and the distinct images must be as
    many as the target's shape count op21(n, j) + op21(n, j + 1)."""
    _checked_int(j, 1, inf, "need 1 <= j and j^2 <= n")
    _checked_int(n, j * j, inf, "need 1 <= j and j^2 <= n")
    source = enumerate_overpartitions(n - j * j)
    target_count = op21(n, j) + op21(n, j + 1)
    images: set[Overpartition] = set()
    round_trip_ok = True
    for mu in source:
        lam, _ = staircase_insert(mu, j)
        images.add(lam)
        back, trace = staircase_remove(lam, j)
        if back != mu or trace.weight_delta != -j * j:
            round_trip_ok = False
    matched = len(images) == target_count and all(
        lam.weight == n and overline_mex(lam, MEX_2_1) >= 2 * j + 1 for lam in images
    )
    return {
        "n": n,
        "j": j,
        "source_count": len(source),
        "target_count": target_count,
        "matched": matched,
        "round_trip_ok": round_trip_ok,
        "ok": matched and round_trip_ok and len(images) == len(source),
    }

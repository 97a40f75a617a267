"""Constructive weight bijections on overpartitions.

Two maps live here, each with an explicit inverse. Every map returns just
its image. `oplab bijection` prints a check's record as returned here, and
its --trace maps each object of the same walk the check makes.

The first is a weight-1-decreasing bijection. Its domain A(n) holds the
overpartitions of n whose smallest part is not overlined (in_a); its image
B(n-1) holds the overpartitions of n-1 that satisfy a gap condition around
an overlined 1 (in_b): if 1bar is present, the smallest part of value >= 2
must be at least as large (in the part order) as the plain value 2 + r,
where r counts the non-overlined 1s. Overpartitions of n-1 outside B form
the complement class C. The map deletes a smallest part 1, or spreads a
smallest part t >= 2 into t-2 plain 1s plus an overlined 1.

The second inserts the odd staircase 1, 3, ..., 2j-1 as plain parts, adding
weight j^2 and forcing the overline-mex to at least 2j+1; removal is its
inverse. Each check walks its source weight once, keeping only counters
and flags: it maps every image back with the inverse core, which decides
on the way whether the image lies in the target class, and compares the
source size with a count of that class over partition shapes, which reads
no object. A map with a left inverse is injective, so the round trip
stands in for a set of distinct images. The weight-down check walks A(n)
alone; the staircase check walks every overpartition of its source weight,
making the half with an overlined smallest part as it goes. Both walks are
uncached generators of plain part tuples, so a check keeps no object of
its source weight, during the check or after it.

The predicates and the public maps take an Overpartition as it is and send
anything else through its validating constructor, so junk input raises
BadParamsError. Every map has a tuple-level core (_a_to_b_parts,
_b_to_a_parts, _insert_stairs, _remove_stairs) that validates nothing. The
two inverse cores decide their own target class: _b_to_a_parts returns
None for an overpartition outside B, and in_b is that verdict;
_remove_stairs returns None when a stair is missing, which is exactly an
overline-mex below 2j+1. The staircase cores take the stairs tuple, so a
check looks it up once. The public map validates its input, guards its
domain with BadParamsError (in_a, the inverse core's None, or, before any
stair is built, the overline-mex precondition), refuses an image heavier
than MAX_ORDER before building it when a number it is given sets the
image's size (c_witness, map_a_to_b, staircase_insert), and builds the
core's result through the constructor.

The checks build only the images, each as Overpartition(core(source)), so
each mapped object is built and validated once, and the source tuples from
the walk are never validated themselves. No check is lost by that:

- the image is validated by its constructor;
- each inverse core sends a valid member of its target class to a valid
  tuple: it removes plain parts, or gathers the overlined 1 and the r plain
  1s into a plain part r+2, which the gap condition of B keeps in order;
- so a round trip that returns the source proves the source valid, and
  (the inverse of the weight-down map ends every result in a plain part)
  in A.

A walk that yields a bad tuple therefore either makes the image's
constructor raise BadParamsError or fails the round trip; it never passes
a check.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from . import overpartitions as op
from . import series
from .overpartitions import (
    OBJECT_CEILING,
    BadParamsError,
    Overpartition,
    Part,
    _part_value,
)
from .series import MAX_ORDER

__all__ = [
    "in_a",
    "in_b",
    "map_a_to_b",
    "map_b_to_a",
    "c_witness",
    "staircase_insert",
    "staircase_remove",
    "check_weight_down",
    "check_staircase",
]


_ONE = op._PARTS[2]
_ONE_BAR = op._PARTS[1]


def _check_image_weight(weight: int) -> None:
    """Refuse an image that weighs at least weight > MAX_ORDER, unbuilt."""
    if weight > MAX_ORDER:
        raise BadParamsError(f"the image would weigh at least {weight}, "
                             f"past MAX_ORDER = {MAX_ORDER}")


def in_a(pi: Overpartition) -> bool:
    """Whether pi is in A: its smallest part exists and is not overlined."""
    pi = pi if isinstance(pi, op.Overpartition) else Overpartition(pi)
    smallest = pi.smallest()
    return smallest is not None and not smallest.overlined


def in_b(lam: Overpartition) -> bool:
    """Whether lam is in B rather than the complement class C. The empty
    overpartition and anything without an overlined 1 are in B; when 1bar
    is present the smallest part of value >= 2 (if any) must be >= the
    plain part 2 + r in the part order, r = number of non-overlined 1s.
    The inverse core decides it (_b_to_a_parts)."""
    lam = lam if isinstance(lam, op.Overpartition) else Overpartition(lam)
    return _b_to_a_parts(lam) is not None


def map_a_to_b(pi: Overpartition) -> Overpartition:
    """Send an overpartition with non-overlined smallest part t to weight-1
    less: delete t when t = 1, otherwise replace t by t-2 plain 1s and an
    overlined 1."""
    pi = pi if isinstance(pi, op.Overpartition) else Overpartition(pi)
    if not in_a(pi):
        raise BadParamsError("input must have a non-overlined smallest part")
    _check_image_weight(pi.weight - 1)
    return Overpartition(_a_to_b_parts(pi))


def _a_to_b_parts(pi: tuple[Part, ...]) -> tuple[Part, ...]:
    """The parts of map_a_to_b(pi) as a plain tuple, for pi in A; neither
    the class nor the result is checked."""
    t = pi[-1].value
    rest = pi[:-1]
    if t == 1:
        return rest
    # rest consists of parts >= t in the part order, so appending the
    # 1-block keeps the largest-first sorting
    return rest + (_ONE,) * (t - 2) + (_ONE_BAR,)


def map_b_to_a(lam: Overpartition) -> Overpartition:
    """Inverse of map_a_to_b. The case split is read off the presence of an
    overlined 1: absent means append a plain 1, present means gather the
    overlined 1 and the r plain 1s back into a plain part r+2."""
    lam = Overpartition(lam)
    parts = _b_to_a_parts(lam)
    if parts is None:
        raise BadParamsError("input lies in the complement class C")
    return Overpartition(parts)


def _b_to_a_parts(lam: Overpartition) -> tuple[Part, ...] | None:
    """The parts of map_b_to_a(lam) as a plain tuple, or None when lam is
    outside B; lam must be a valid overpartition, and the result is not
    validated."""
    # parts run largest first, so an overlined 1 is the last part and the
    # r plain 1s come just before it
    if not lam or lam[-1] != _ONE_BAR:
        return lam + (_ONE,)
    r = lam.count(_ONE)
    # the gap condition: the smallest part of value >= 2, if any, is at
    # least the plain part r + 2, so every kept part is >= the new part
    if len(lam) > r + 1 and lam[-r - 2].rank < 2 * (r + 2):
        return None
    return lam[:-r - 1] + (Part(r + 2, False),)


def c_witness(n: int) -> Overpartition:
    """An explicit member of C(n-1) for 4 <= n <= MAX_ORDER + 1:
    (2bar, 1^(n-4), 1bar)."""
    series._checked_int(
        n, 4, inf, "the complement class is empty below weight 3"
    )
    _check_image_weight(n - 1)
    return Overpartition((op._PARTS[3],) + (_ONE,) * (n - 4) + (_ONE_BAR,))


@lru_cache(maxsize=64)
def _stairs(j: int) -> tuple[Part, ...]:
    """The plain parts 2j-1, ..., 3, 1, largest first."""
    return tuple(Part(2 * i - 1, False) for i in range(j, 0, -1))


def staircase_insert(mu: Overpartition, j: int) -> Overpartition:
    """Insert the plain odd staircase 1, 3, ..., 2j-1, adding weight j^2."""
    series._checked_int(j, 1, inf, "j must be >= 1")
    mu = mu if isinstance(mu, op.Overpartition) else Overpartition(mu)
    _check_image_weight(mu.weight + j * j)
    return Overpartition(_insert_stairs(mu, _stairs(j)))


def _insert_stairs(
    mu: tuple[Part, ...], stairs: tuple[Part, ...]
) -> list[Part]:
    """The parts of staircase_insert(mu, j) as a plain list, for stairs =
    _stairs(j); the result is not validated."""
    # both tuples run largest first, so the sort is one merge of two runs;
    # it is stable, so each plain stair lands before mu's copies of its
    # value, and so before an overlined one
    return sorted(stairs + mu, key=_part_value, reverse=True)


def staircase_remove(lam: Overpartition, j: int) -> Overpartition:
    """Remove one plain copy of each of 1, 3, ..., 2j-1; the inverse of
    staircase_insert. Requires every odd value below 2j as a plain part,
    which is exactly the overline-mex >= 2j+1 precondition; a violation
    raises at once, naming the smallest missing stair, the overline-mex."""
    series._checked_int(j, 1, inf, "j must be >= 1")
    lam = Overpartition(lam)
    mex = op.overline_mex(lam)
    if mex < 2 * j + 1:
        raise BadParamsError(
            f"missing plain part {mex}: overline-mex precondition "
            f">= {2 * j + 1} is violated"
        )
    return Overpartition(_remove_stairs(lam, _stairs(j)))


def _remove_stairs(
    lam: tuple[Part, ...], stairs: tuple[Part, ...]
) -> tuple[Part, ...] | None:
    """The parts of staircase_remove(lam, j) as a plain tuple, for stairs =
    _stairs(j), or None when a stair is missing, which is exactly
    overline_mex(lam) < 2j+1; the result is not validated."""
    parts = list(lam)
    try:
        for stair in stairs:
            parts.remove(stair)
    except ValueError:
        return None
    return tuple(parts)


# -- exhaustive checks used by the identity harness and the CLI -------------

def _weight_down_walk(n: int) -> tuple[int, int, bool, bool, bool | None]:
    """(a_count, images_in_b, round_trip_ok, weights_ok, witness_ok) of the
    weight-down check at weight n, from the walk of A(n) and the C witness
    alone: it reads no shape table and no pbar. n is not checked."""
    a_count = images_in_b = 0
    round_trip_ok = weights_ok = True
    for pi in op._class_a(n):
        a_count += 1
        lam = Overpartition(_a_to_b_parts(pi))
        on_weight = lam.weight == n - 1
        if not on_weight:
            weights_ok = False
        back = _b_to_a_parts(lam)  # None outside B, failing the round trip
        if back is not None:
            images_in_b += on_weight
        if back != pi:
            round_trip_ok = False

    witness_ok: bool | None = None
    if n >= 4:
        w = c_witness(n)
        witness_ok = w.weight == n - 1 and not in_b(w)
    return a_count, images_in_b, round_trip_ok, weights_ok, witness_ok


def check_weight_down(n: int) -> dict:
    """Exhaustively verify the weight-down bijection at weight n.

    Returns a dict of counts and flags: sizes of A(n), B(n-1), C(n-1) (the
    last two counted over the partition shapes of n-1, C as pbar(n-1) less
    B, so no object of weight n-1 is built), how many images weigh n-1
    and lie in B, whether every image weighs n-1, whether every image lies
    in B and maps back to the original, and whether the witness behaves
    when n >= 4. Each walked tuple of A(n) is mapped by the core, and only
    its image is built as an Overpartition; an image outside B fails the
    round trip, which compares the inverse's core tuple with the source.
    A passing round trip proves the source valid and in A (module
    docstring) and makes the map injective, so distinct_images is a_count
    then, and None when the round trip fails. Weight n past OBJECT_CEILING
    raises before anything is enumerated.
    """
    op._check_weight(n, 1, "n", OBJECT_CEILING)
    b_count = op._shape_tables(n - 1).b
    c_count = op.pbar(n - 1) - b_count
    pbar = op.pbar(n)
    a_count, images_in_b, round_trip_ok, weights_ok, witness_ok = (
        _weight_down_walk(n)
    )
    return {
        "n": n,
        "a_count": a_count,
        "b_count": b_count,
        "c_count": c_count,
        "images_in_b": images_in_b,
        "distinct_images": a_count if round_trip_ok else None,
        "round_trip_ok": round_trip_ok,
        "weights_ok": weights_ok,
        "witness_ok": witness_ok,
        "pbar_half": pbar // 2 if pbar % 2 == 0 else -1,
        "ok": (
            a_count == b_count == images_in_b == pbar // 2
            and pbar % 2 == 0
            and round_trip_ok
            and weights_ok
            and (n > 3 or c_count == 0)
            and (n < 4 or (witness_ok is True and c_count >= 1))
        ),
    }


def check_staircase(n: int, j: int) -> dict:
    """Exhaustively verify the staircase bijection between overpartitions of
    n - j^2 and overpartitions of n with overline-mex at least 2j+1. It is
    matched when every image weighs n with mex >= 2j+1 and the source is as
    large as the target's shape count op21(n, j) + op21(n, j + 1); each
    image in the target must map back to its source, which makes the map
    injective. Each walked tuple of weight n - j^2 is mapped by the
    insertion core, and only its image is built as an Overpartition; the
    round trip compares the removal core's tuple with the source, and a
    passing one proves the source valid (module docstring). The round trip
    cannot see a source yielded twice, so from source weight 1 matched also
    needs half the sources to have an overlined smallest part; the
    enumeration tests pin the walk's distinctness in general. Every bound
    is checked before anything is enumerated: n - j^2 against
    OBJECT_CEILING, then n against the shape ceiling."""
    series._checked_int(j, 1, inf, f"j must be >= 1, got {j!r}")
    series._checked_int(n, j * j, inf, f"n must be >= j^2 = {j * j}, got {n!r}")
    op._check_weight(n - j * j, 0, "weight", OBJECT_CEILING)
    op._check_weight(n, 1, "n")
    target_count = op.op21(n, j) + op.op21(n, j + 1)
    stairs = _stairs(j)
    source_count = overlined = 0
    in_target = round_trip_ok = True
    for mu in op._overpartitions(n - j * j):
        source_count += 1
        if mu and mu[-1].overlined:
            overlined += 1
        lam = Overpartition(_insert_stairs(mu, stairs))
        # a missing stair (None) is exactly an overline-mex below 2j+1
        back = _remove_stairs(lam, stairs)
        if back is None or lam.weight != n:
            in_target = False
        elif back != mu:
            round_trip_ok = False
    # each source of weight >= 1 has a twin with its smallest part toggled
    balanced = n == j * j or 2 * overlined == source_count
    matched = in_target and balanced and source_count == target_count
    return {
        "n": n,
        "j": j,
        "source_count": source_count,
        "target_count": target_count,
        "matched": matched,
        "round_trip_ok": round_trip_ok,
        "ok": matched and round_trip_ok,
    }

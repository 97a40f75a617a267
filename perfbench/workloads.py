"""The three workloads as plain data: which public call each check makes.

A check is (key, function, args). `function` names a public callable as
"module.name" inside the oplab package; the workload process looks it up
at call time, so a traced run goes through the wrappers. This module does
not import oplab, so the parent process can use it too.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite", "series-high-order", "bijections")

# One check per series identity except yao (its lhs is enumeration, which
# suite covers), at the first point of its default grid. The two ids whose
# rhs builders are cubic in the order run at 400: at MAX_ORDER = 2000 they
# take 400-560 s each, more than a repeated workload can afford.
SERIES_CHECKS = (
    ("am-2018-truncation", {"k": 1}, 2000),
    ("cor-2-6", {"k": 1}, 2000),
    ("cor-2-9", {"k": 1}, 2000),
    ("euler-odd-distinct", {}, 2000),
    ("gauss", {}, 2000),
    ("guo-zeng-truncation", {"k": 1}, 400),
    ("li-truncation", {"k": 1}, 2000),
    ("pentagonal-am", {"k": 1}, 400),
    ("sec5-main", {"k": 1}, 2000),
    ("sec5-reduced", {"k": 1}, 2000),
)

BIJECTION_MAX_N = 24


def plan(workload: str, seed: int) -> list[tuple[str, str, tuple]]:
    """The checks of one workload pass, in the order they are issued.

    The seed permutes series-high-order and bijections: the same checks and
    the same total work, but a different check pays each cache fill.
    suite keeps the order that `verify --all` fixes.
    """
    if workload == "suite":
        return [("verify --all", "cli.main", (["verify", "--all"],))]
    if workload == "series-high-order":
        checks = [
            (f"{ident} order={order}", "identities.verify_series",
             (ident, params, order))
            for ident, params, order in SERIES_CHECKS
        ]
    elif workload == "bijections":
        checks = [
            (f"weight_down n={n}", "bijections.check_weight_down", (n,))
            for n in range(1, BIJECTION_MAX_N + 1)
        ]
        checks += [
            (f"staircase n={n} j={j}", "bijections.check_staircase", (n, j))
            for n in range(1, BIJECTION_MAX_N + 1)
            for j in range(1, n + 1)
            if j * j <= n
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(checks)
    return checks

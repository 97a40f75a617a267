"""Acceptance gate: the eight configured checks, one pass/fail line each.

Run with -s to see the lines; every check is exact (zero tolerance) and the
timed ones assert their wall-clock budget.
"""

import time

from oplab import bijections as bj
from oplab import identities as idn
from oplab import overpartitions as op

SERIES_200 = ["gauss", "euler-odd-distinct"]
SERIES_100_K8 = [
    "pentagonal-am",
    "guo-zeng-truncation",
    "am-2018-truncation",
    "li-truncation",
    "cor-2-6",
    "cor-2-9",
    "sec5-main",
    "sec5-reduced",
]
ENUM_IDS = [
    ("thm-1-1", [{"k": k} for k in range(1, 5)], 30),
    ("thm-1-3", [{"k": k} for k in range(1, 5)], 25),
    ("thm-1-4", [{"k": k} for k in range(1, 5)], 25),
    ("thm-2-2", [{}], 25),
    ("thm-2-3", [{}], 25),
    (
        "thm-2-4",
        [{"m": m, "k": k} for m in range(-4, 5) for k in range(m, 5)],
        25,
    ),
    ("cor-2-5-first", [{"k": k} for k in range(1, 5)], 25),
    ("cor-2-5-second", [{"k": k} for k in range(1, 5)], 25),
    ("cor-2-7", [{"k": k} for k in range(1, 5)], 25),
    ("gen-op", [{"k": k} for k in range(1, 5)], 25),
    ("lemma-4-1", [{"j": j} for j in range(1, 5)], 25),
    ("op-split-2-1", [{}], 25),
]
INEQ_IDS = [
    ("ineq-guo-zeng", [{"k": k} for k in range(1, 5)]),
    ("ineq-conj-1-5", [{"k": k} for k in range(1, 5)]),
    ("ineq-xyz", [{"k": k} for k in range(1, 5)]),
    (
        "ineq-m-k",
        [{"m": m, "k": k} for m in range(-4, 5) for k in range(m, 5)],
    ),
]

MEX_TABLE_4 = {
    ((4, False),): 1,
    ((4, True),): 1,
    ((3, False), (1, False)): 5,
    ((3, True), (1, False)): 3,
    ((3, False), (1, True)): 1,
    ((3, True), (1, True)): 1,
    ((2, False), (2, False)): 1,
    ((2, False), (2, True)): 1,
    ((2, False), (1, False), (1, False)): 3,
    ((2, True), (1, False), (1, False)): 3,
    ((2, False), (1, False), (1, True)): 3,
    ((2, True), (1, False), (1, True)): 3,
    ((1, False), (1, False), (1, False), (1, False)): 3,
    ((1, False), (1, False), (1, False), (1, True)): 3,
}


def _report(num: int, ok: bool, text: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance {num} failed: {text}"


def test_acceptance_1_ground_truth_counts():
    t0 = time.perf_counter()
    count = len(op.enumerate_overpartitions(4))
    split = op.op_class_counts(4)
    dt = time.perf_counter() - t0
    ok = count == 14 and split == (7, 7) and dt < 1.0
    _report(
        1,
        ok,
        f"pbar(4)={count} expected 14; mex split {split} expected (7, 7); "
        f"{dt:.3f}s < 1s",
    )


def test_acceptance_2_mex_table_weight_4():
    seen = {
        tuple((p.value, p.overlined) for p in pi.parts): op.overline_mex(pi)
        for pi in op.enumerate_overpartitions(4)
    }
    ok = seen == MEX_TABLE_4
    _report(2, ok, f"{len(seen)} rows of the weight-4 mex table reproduced")


def test_acceptance_3_series_identities():
    t0 = time.perf_counter()
    failures = []
    n_checked = 0
    for ident in SERIES_200:
        r = idn.verify_series(ident, order=200)
        n_checked += 1
        if not r.passed:
            failures.append((ident, {}, r.first_mismatch))
    for ident in SERIES_100_K8:
        for k in range(1, 9):
            r = idn.verify_series(ident, {"k": k}, 100)
            n_checked += 1
            if not r.passed:
                failures.append((ident, k, r.first_mismatch))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 2.0
    _report(
        3,
        ok,
        f"{n_checked} series checks (order 200 and order 100 for k=1..8), "
        f"failures {failures}, {dt:.1f}s < 2s",
    )


def test_acceptance_4_enumerative_identities():
    t0 = time.perf_counter()
    failures = []
    n_checked = 0
    for ident, grid, n_max in ENUM_IDS:
        for params in grid:
            r = idn.verify_enumerative(ident, params, n_max)
            n_checked += 1
            if not r.passed:
                failures.append((ident, params, r.first_mismatch))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 5.0
    _report(
        4,
        ok,
        f"{n_checked} enumerative checks, failures {failures}, {dt:.1f}s < 5s",
    )


def test_acceptance_5_dilated_series_from_enumeration():
    t0 = time.perf_counter()
    failures = []
    for k in range(1, 4):
        for ell in range(1, 4):
            r = idn.verify_series("yao", {"k": k, "ell": ell}, 25)
            if not r.passed:
                failures.append((k, ell, r.first_mismatch))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 3.0
    _report(
        5,
        ok,
        f"9 dilated checks at order 25 (enumerated left side), "
        f"failures {failures}, {dt:.1f}s < 3s",
    )


def test_acceptance_6_inequalities_with_strictness():
    failures = []
    n_checked = 0
    for ident, grid in INEQ_IDS:
        for params in grid:
            r = idn.verify_inequality(ident, params, 60)
            n_checked += 1
            if not r.passed:
                failures.append((ident, params, r.detail))
    ok = not failures
    _report(
        6,
        ok,
        f"{n_checked} inequality scans to n=60 incl strict thresholds, "
        f"failures {failures}",
    )


def test_acceptance_7_bijection_suite():
    t0 = time.perf_counter()
    problems = []
    for n in range(1, 21):
        result = bj.check_weight_down(n)
        if not result["ok"] or result["a_count"] != op.pbar(n) // 2:
            problems.append(("weight-down", n))
        if n <= 3 and result["c_count"] != 0:
            problems.append(("complement-nonempty", n))
        if n >= 4 and (result["c_count"] < 1 or result["witness_ok"] is not True):
            problems.append(("witness", n))
        j = 1
        while j * j <= n:
            stair = bj.check_staircase(n, j)
            if not stair["ok"]:
                problems.append(("staircase", n, j))
            j += 1
    dt = time.perf_counter() - t0
    ok = not problems and dt < 5.0
    _report(
        7,
        ok,
        f"both maps exhaustive to n=20, problems {problems}, {dt:.1f}s < 5s",
    )


def test_acceptance_8_mutation_sensitivity():
    # perturbing one coefficient of any registered left side must trip the
    # matching verifier at exactly the perturbed index
    misses = []
    for desc in idn.list_identities():
        params = idn.expand_grid(desc)[0]
        if desc.has_series:
            r = idn.verify_series(desc.id, params, 30, perturb=(7, 3))
            if r.passed or r.first_mismatch[0] != 7:
                misses.append((desc.id, "series", r.first_mismatch))
        if desc.has_enum:
            r = idn.verify_enumerative(desc.id, params, 10, perturb=(6, 2))
            if r.passed or r.first_mismatch[0] != 6:
                misses.append((desc.id, "enum", r.first_mismatch))
        if desc.has_inequality:
            r = idn.verify_inequality(desc.id, params, 10, perturb=(5, -10**9))
            if r.passed or r.first_mismatch[0] != 5:
                misses.append((desc.id, "ineq", r.first_mismatch))
    ok = not misses
    _report(8, ok, f"every registered form trips at the perturbed index; "
                   f"misses {misses}")

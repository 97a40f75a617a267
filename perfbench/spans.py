"""Spans around oplab's public functions, and the per-layer metrics made
from them.

The recorder wraps each traced function at the name its caller looks up:
a module attribute, a method of TruncatedSeries, or a side builder of the
descriptor that `identities.get_identity` returns. The program's source is
not changed; the wrappers exist only inside a traced workload process.

A span is (name, start, end, parent, key). `parent` is the index of the
span that was open when this one started, or -1. `key` holds what the
counted metrics need: the arguments, and for a bijection check the number
of objects it mapped.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

SERIES_IDS = (
    "am-2018-truncation", "cor-2-6", "cor-2-9", "euler-odd-distinct",
    "gauss", "guo-zeng-truncation", "li-truncation", "pentagonal-am",
    "sec5-main", "sec5-reduced",
)
KERNEL = {
    "times_factor": "series.times_factor",
    "div_factor": "series.div_factor",
    "__mul__": "series.mul",
    "invert": "series.invert",
}
STATS = (
    "op21", "mbar", "nbar", "mk_stat", "op_class_counts",
    "enumerate_overpartitions",
)
# stat scans that read every overpartition (or, for mk_stat, partition) of n
SCANS = ("op21", "mbar", "nbar", "op_class_counts")
SIDES = {
    "series_lhs": "series.lhs",
    "series_rhs": "series.rhs",
    "enum_lhs": "enum.lhs",
    "enum_rhs": "enum.rhs",
    "ineq_values": "ineq",
}
VERIFIERS = ("verify_series", "verify_enumerative", "verify_inequality")
BIJECTION_CHECKS = {
    "check_weight_down": "a_count",
    "check_staircase": "source_count",
}

PER_LAYER = (
    [(f"{name}.calls", "count") for name in KERNEL.values()]
    + [("series.kernel_s", "s"), ("series.coeff_ops", "count")]
    + [
        (f"identities.{ident}.{side}_s", "s")
        for ident in SERIES_IDS
        for side in ("lhs", "rhs")
    ]
    + [(f"identities.{side}_s", "s") for side in SIDES.values()]
    + [("identities.harness_s", "s")]
    + [
        (f"overpartitions.{fn}{suffix}", unit)
        for fn in STATS
        for suffix, unit in ((".calls", "count"), (".distinct", "count"),
                             ("_s", "s"))
    ]
    + [("overpartitions.objects_scanned", "count")]
    + [(f"bijections.{fn}_s", "s") for fn in BIJECTION_CHECKS]
    + [("bijections.enumerate_s", "s"), ("bijections.objects_mapped", "count")]
    + [("cli.self_s", "s"), ("cli.output_bytes", "bytes")]
    + [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
)


def _args_key(args, result):
    return [a if isinstance(a, int) else repr(a) for a in args]


def _factor_key(args, result):
    return [args[0].order, args[1]]


def _order_key(args, result):
    return [args[0].order]


def _no_key(args, result):
    return None


class Recorder:
    """Keeps spans in memory; `install` wraps oplab's public functions."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, fn, name, key=_args_key):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent, key(args, result))

        return traced

    def _patch(self, owner, attr, name, key=_args_key) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, key))

    def install(self, oplab) -> None:
        ts = oplab.series.TruncatedSeries
        for attr, name in KERNEL.items():
            key = _factor_key if attr.endswith("_factor") else _order_key
            self._patch(ts, attr, name, key)

        op = oplab.overpartitions
        for fn in STATS:
            self._patch(op, fn, f"overpartitions.{fn}")
        bij = oplab.bijections
        # bijections binds enumerate_overpartitions at import
        if hasattr(bij, "enumerate_overpartitions"):
            self._patch(bij, "enumerate_overpartitions",
                        "overpartitions.enumerate_overpartitions")
        for fn, field in BIJECTION_CHECKS.items():
            self._patch(bij, fn, f"bijections.{fn}",
                        lambda args, result, field=field: [
                            *args, result[field] if result else 0])

        ids = oplab.identities
        for fn in VERIFIERS:
            self._patch(ids, fn, "identities.verify", _no_key)
        wrapped = {}
        for desc in ids.list_identities():
            sides = {
                attr: self.wrap(builder, f"identities.{attr}",
                                lambda args, result, i=desc.id: i)
                for attr in SIDES
                if (builder := getattr(desc, attr)) is not None
            }
            wrapped[desc.id] = dataclasses.replace(desc, **sides)
        get_identity = ids.get_identity
        ids.get_identity = functools.wraps(get_identity)(
            lambda ident: wrapped[get_identity(ident).id]
        )

        self._patch(oplab.cli, "main", "cli.main", _no_key)


def _counts(n_max: int, overlined: bool) -> list[int]:
    """p(n), or pbar(n) when overlined, for n = 0..n_max, from the product
    formula; independent of the program's own tables."""
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(k, n_max + 1):
            c[i] += c[i - k]
        if overlined:
            for i in range(n_max, k - 1, -1):
                c[i] += c[i - k]
    return c


def _coeff_ops(name: str, key) -> int:
    """Coefficient updates the kernel loop performs on a dense operand."""
    order = key[0]
    if name == "series.mul":
        return (order + 1) * (order + 2) // 2
    if name == "series.invert":
        return order * (order + 1) // 2
    exponent = key[1]
    return order + 1 if exponent == 0 else max(0, order + 1 - exponent)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced pass. Times are seconds; a layer's
    self time is its spans' duration minus that of their child spans."""
    children = [0.0] * len(spans)
    for name, start, end, parent, key in spans:
        if parent >= 0:
            children[parent] += end - start
    m = {name: 0 for name, _ in PER_LAYER}
    distinct = {fn: set() for fn in STATS}
    scanned: list[tuple[bool, int]] = []
    for i, (name, start, end, parent, key) in enumerate(spans):
        duration = end - start
        self_s = duration - children[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        layer, _, fn = name.partition(".")
        if layer == "series":
            m[f"{name}.calls"] += 1
            m["series.coeff_ops"] += _coeff_ops(name, key)
            if not parent_name.startswith("series."):
                m["series.kernel_s"] += duration
        elif name == "identities.verify":
            m["identities.harness_s"] += self_s
        elif layer == "identities":
            m[f"identities.{SIDES[fn]}_s"] += duration
            side = {"series_lhs": "lhs", "series_rhs": "rhs"}.get(fn)
            if side and key in SERIES_IDS:
                m[f"identities.{key}.{side}_s"] += duration
        elif layer == "overpartitions":
            m[f"{name}.calls"] += 1
            m[f"{name}_s"] += self_s
            distinct[fn].add(tuple(key))
            if fn in SCANS or fn == "mk_stat":
                scanned.append((fn != "mk_stat", key[0]))
            if parent_name.startswith("bijections."):
                m["bijections.enumerate_s"] += duration
        elif layer == "bijections":
            m[f"{name}_s"] += self_s
            m["bijections.objects_mapped"] += key[-1]
        elif name == "cli.main":
            m["cli.self_s"] += self_s
    for fn, keys in distinct.items():
        m[f"overpartitions.{fn}.distinct"] = len(keys)
    if scanned:
        top = max(n for _, n in scanned)
        table = {True: _counts(top, True), False: _counts(top, False)}
        m["overpartitions.objects_scanned"] = sum(
            table[overlined][n] for overlined, n in scanned
        )
    return m

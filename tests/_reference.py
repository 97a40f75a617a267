"""Reference oracles that only the tests use: the shortest direct
definitions of things the package does not provide itself, the per-weight
shape tables that the package's incremental fill replaced, probes that record
which weights the package walks and tabulates, the read ledger of a side
builder, object scans of the statistics, and a reader of the statements."""

import functools
import itertools
import math
import operator
import re

import pytest

from oplab import identities, overpartitions, series
from oplab.overpartitions import Overpartition, Part
from oplab.series import TruncatedSeries


def shift(f, e):
    """f times q^e, dropping what lands past the order."""
    return TruncatedSeries(f.order, ((0,) * e + f.coeffs)[: f.order + 1])


def dilate(f, ell, order):
    """f with q -> q^ell, at the given order; f must reach order // ell."""
    c = [0] * (order + 1)
    c[::ell] = f.coeffs[: order // ell + 1]
    return TruncatedSeries(order, c)


def div_product(f, start, step, sign=1):
    """f / prod_{i>=0} (1 - sign*q^(start + step*i)), one factor at a time."""
    for e in range(start, f.order + 1, step):
        f = f.div_factor(e, sign)
    return f


def partition_gf(order):
    """1/(q;q)oo, one factor at a time."""
    return div_product(series.one(order), 1, 1)


def ref_invert(a):
    """1/a for a coefficient list with constant term +1 or -1, by the
    coefficient-at-a-time recurrence."""
    n = len(a) - 1
    b = [a[0]] + [0] * n
    for m in range(1, n + 1):
        b[m] = -a[0] * sum(a[i] * b[m - i] for i in range(1, m + 1))
    return b


def overpartition_gf(order):
    """(-q;q)oo/(q;q)oo from its two products, one factor at a time."""
    return div_product(series.qproduct(-1, 1, 1, None, order), 1, 1)


def poch_ratio(numer_start, denom_start, order):
    """(-q^numer_start;q)oo / (q^denom_start;q)oo, one factor at a time."""
    return div_product(series.qproduct(-1, numer_start, 1, None, order),
                       denom_start, 1)


def of(*parts):
    """An Overpartition from parts in any order: an int is a plain part, a
    (value, overlined) pair or a Part is taken as it is."""
    norm = [Part(p, False) if isinstance(p, int) else Part(*p) for p in parts]
    return Overpartition(tuple(sorted(norm, key=lambda p: p.rank, reverse=True)))


def rank_walk(n):
    """Every overpartition of n in increasing lexicographic order of its
    part ranks (1bar=1, 1=2, 2bar=3, ...), by a depth-first walk over both
    halves of the weight: ranks never rise along a sequence, after an
    overlined part the next rank is strictly smaller, and 1bar only ever
    comes last."""
    values = [(r + 1) // 2 for r in range(2 * n + 1)]
    parts = [Part(v, r % 2 == 1) for r, v in enumerate(values)]
    stack, out = [], []

    def walk(remaining, top):
        if not remaining:
            out.append(Overpartition(stack))
            return
        lo = 1 if remaining == 1 else 2
        for r in range(lo, min(top, 2 * remaining) + 1):
            stack.append(parts[r])
            walk(remaining - values[r], r & -2)
            stack.pop()

    walk(n, 2 * n)
    return tuple(out)


def _record_calls(monkeypatch, module, name, key=lambda n: n, calls=None):
    """Patch module.name so each call appends key(*args) to calls, a new
    list unless one is given, and return calls."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def recording(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def record_walks(monkeypatch):
    """Patch the A(n) walk, overpartitions._class_a, so each call appends
    its weight to the returned list."""
    return _record_calls(monkeypatch, overpartitions, "_class_a")


def record_tables(monkeypatch):
    """Patch overpartitions._shape_tables, which every shape-counted
    statistic reads, so each call appends its weight to the returned list."""
    return _record_calls(monkeypatch, overpartitions, "_shape_tables")


# The helpers a read ledger records, each with the arguments of every call:
# the cached intermediates, the A(n) walk, the named derived-series helpers
# and the pentagonal and theta sums. Every side builder reaches them through
# these module attributes, so patching them sees every call.
LEDGER_HELPERS = (
    (overpartitions, ("_pbar_table", "_shape_tables", "_class_a")),
    (identities, ("_tail_sum", "_pbar_gf", "_large_tail", "_li_tail",
                  "_op21_gf", "_odd_square_theta")),
    (series, ("pentagonal_series", "gauss_theta", "theta_partial")),
)
# the division kernel, recorded by the length it divides to; it is no
# intermediate, so no independence check reads it
KERNEL = "_div_sparse"
# cleared before each build, so a cached helper's own reads are recorded
# whatever ran before it
LEDGER_CACHES = (identities._tail_sum, overpartitions._pbar_table)


def reads(build, *args):
    """The read ledger of build(*args): the set of (helper, key) pairs it
    reads, directly or through another helper, from cold caches."""
    calls = []
    for cache in LEDGER_CACHES:
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        for module, names in LEDGER_HELPERS:
            for name in names:
                _record_calls(m, module, name,
                              lambda *a, name=name: (name, a), calls)
        _record_calls(m, series, KERNEL,
                      lambda num, den: (KERNEL, len(num)), calls)
        build(*args)
    return set(calls)


def helpers(ledger):
    """The names of the helpers a ledger holds."""
    return {name for name, _ in ledger}


def value_blocks(n):
    """Yield every partition shape of n once, as ((value, count), ...) with
    values strictly decreasing, starting from ((n, 1),).

    An iterative walk in multiplicity form (Nijenhuis and Wilf's NEXPAR;
    Zoghbi and Stojmenovic's ZS1): one list of blocks per walk, and each
    step strips the 1s, takes one copy off the smallest part v >= 2 and
    refills the freed weight with as many parts v - 1 as fit plus one
    remainder part, so a step touches only the last few blocks."""
    if n == 0:
        yield ()
        return
    blocks = [(n, 1)]
    while True:
        yield tuple(blocks)
        freed = 0
        if blocks[-1][0] == 1:
            freed = blocks.pop()[1]
            if not blocks:
                return
        v, c = blocks[-1]
        if c > 1:
            blocks[-1] = (v, c - 1)
        else:
            blocks.pop()
        count, rest = divmod(freed + v, v - 1)
        blocks.append((v - 1, count))
        if rest:
            blocks.append((rest, 1))


def shape_tables(n):
    """The shape tables of weight n from one pass over its p(n) shapes,
    each weight walked on its own: each shape of b blocks stands for its 2^b
    overline assignments, weighed in closed form."""
    mbar_diff = [0] * (n + 2)
    nbar_col = [0] * (n + 2)
    mk_col = [0] * (n + 2)
    # the overline-mex 2j + 1 needs 1, 3, ..., 2j - 1: j^2 <= n, 2j + 1 <= n + 3
    mex_col = [0] * (n + 4)
    b = 0
    for blocks in value_blocks(n):
        weight = 1 << len(blocks)
        half = weight >> 1
        b += weight
        # B fails only with an overlined 1 (c1 copies of 1, r = c1 - 1 of
        # them plain) whose next value v2 ranks below the plain part c1 + 1:
        # as v2bar when v2 <= c1 + 1, as plain v2 when v2 <= c1; the other
        # blocks' flags are free
        if len(blocks) > 1 and blocks[-1][0] == 1:
            v2, c1 = blocks[-2][0], blocks[-1][1]
            b -= (half >> 1) * ((v2 <= c1 + 1) + (v2 <= c1))
        prev = prev_c = 0
        parts = below = 0
        gap = 1  # least value missing so far: the mex of the plain values
        odd = 1  # least odd value not yet seen present as a plain part
        odd_weight = weight
        for v, c in reversed(blocks):  # values increasing
            parts += c
            # mbar: for prev <= k < v the smallest value above k is v, which
            # occurs c times whatever the flags, so k <= c - 1 qualifies
            top = v if v < c else c
            if top > prev:
                mbar_diff[prev] += weight
                mbar_diff[top] -= weight
            # nbar, prev < k < v: the smallest part >= k has value v and must
            # be plain, so v is plain and c == k
            if prev < c < v:
                nbar_col[c] += half
            # nbar, k == v: v plain needs c == k; v overlined with c >= 2 is
            # exempt once, leaving c - 1 == k plain copies
            if c == v or c - 1 == v:
                nbar_col[v] += half
            # nbar, k == prev overlined with one copy: it is exempt entirely,
            # so this block decides and must be plain with k copies
            if prev_c == 1 and c == prev:
                nbar_col[prev] += half >> 1
            # mk: values 1..gap-1 are the first blocks, the rest lie above gap
            if v == gap:
                gap += 1
                below += c
            # overline-mex: a value occurring twice or more is always plain; a
            # single copy is plain in half the assignments, and in the other
            # half the mex is v
            if v == odd:
                if c == 1:
                    odd_weight >>= 1
                    mex_col[v] += odd_weight
                odd += 2
            prev, prev_c = v, c
        if parts - below > below:
            mk_col[gap] += 1
        mex_col[odd] += odd_weight
    return overpartitions._ShapeTables(
        tuple(itertools.accumulate(mbar_diff)), tuple(nbar_col), tuple(mk_col),
        tuple(mex_col), b,
    )


# -- the statistics, scanned object by object ---------------------------------
#
# The package counts its statistics over partition shapes weighted by their
# overline assignments; these scans read each enumerated object instead. The
# shape-table tests and the statement reader below share them.

REF_N_MAX = 20  # the largest weight a scan is asked for


@functools.cache
def _objects(n):
    """(overpartition, its overline-mex) for each overpartition of n."""
    if n > REF_N_MAX:
        raise ValueError(f"object scans stop at weight {REF_N_MAX}, got {n}")
    return [(pi, overpartitions.overline_mex(pi))
            for pi in overpartitions.enumerate_overpartitions(n)]


@functools.cache
def ref_op21(n, k):
    return sum(mex >= 2 * k + 1 and mex % 4 == (2 * k + 1) % 4
               for _, mex in _objects(n))


@functools.cache
def ref_mbar(n, k):
    """The smallest value above k occurs at least k + 1 times."""
    values = [[p.value for p in pi] for pi, _ in _objects(n)]
    return sum(vs.count(min(v for v in vs if v > k)) > k
               for vs in values if max(vs, default=0) > k)


@functools.cache
def ref_nbar(n, k):
    """After exempting one overlined k, the smallest part of value >= k is
    plain and its value occurs exactly k times."""
    count = 0
    for pi, _ in _objects(n):
        parts = list(pi)
        if Part(k, True) in parts:
            parts.remove(Part(k, True))
        low = min((p for p in parts if p.value >= k), key=lambda p: p.rank,
                  default=Part(k, True))
        count += not low.overlined and [p.value for p in parts].count(low.value) == k
    return count


@functools.cache
def ref_mk_stat(n, k):
    """Partitions of n whose least non-part is k, with more parts above k
    than below."""
    plain = [[p.value for p in pi] for pi, _ in _objects(n)
             if not any(p.overlined for p in pi)]
    return sum(k not in vs and set(range(1, k)) <= set(vs)
               and sum(v > k for v in vs) > sum(v < k for v in vs) for vs in plain)


# -- the statements, read literally -------------------------------------------
#
# A third oracle: each statement evaluated as it is written, with nothing from
# oplab.series; the README's "Statement notation" gives the grammar. A value is
# an int or the coefficient list of a series truncated at env["top"], which is
# the order of a series clause and the weight n of a coefficient clause.

# the two places the text departs from the grammar, (id, word): meaning
NOTATION = {("yao", "l"): "ell", ("yao", "sum_j"): "sum_{j in Z}"}
# ids whose statement the grammar cannot read, with the construct it lacks
UNREADABLE = {"sec3-bijection": "prose: a bijection between two classes"}
# what each "counts ..." clause counts, by id
COUNTS = {"thm-1-1": ref_mk_stat, "thm-1-3": ref_mbar, "thm-1-4": ref_nbar}
_STATS = {"op21": ref_op21, "Mbar": ref_mbar, "Nbar": ref_nbar,
          # the overline-mex is 1 or 3 mod 4: op21(n|0) and op21(n|1)
          "op_{2 1}": lambda n: ref_op21(n, 0), "opbar_{2 1}": lambda n: ref_op21(n, 1)}
_TOKEN = re.compile(r"op_\{2 1\}|opbar_\{2 1\}|\d+|[A-Za-z][A-Za-z0-9]*|\.\.|[<>]=|\S")
_KEYWORDS = {"when", "where", "and", "for", "with", "in", "oo", "Z"}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _exact(a, b):
    quotient, rest = divmod(a, b)
    if rest:
        raise ValueError(f"{a}/{b} is not an integer")
    return quotient


def _arith(op, a, b):
    """a + b, a * b or a / b, exactly, of ints and truncated series."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b if op == "+" else a * b if op == "*" else _exact(a, b)
    if op != "+" and isinstance(b, int) or op == "*" and isinstance(a, int):
        c, s = (b, a) if isinstance(b, int) else (a, b)
        return [_exact(x, c) if op == "/" else c * x for x in s]
    size = len(a if isinstance(a, list) else b)
    a, b = ([x] + [0] * (size - 1) if isinstance(x, int) else x for x in (a, b))
    if op == "+":
        return [x + y for x, y in zip(a, b)]
    c = []
    for e in range(size):
        if op == "*":
            c.append(sum(a[i] * b[e - i] for i in range(e + 1)))
        else:
            c.append(_exact(a[e] - sum(b[i] * c[e - i] for i in range(1, e + 1)), b[0]))
    return c


def _pow(a, e):
    """a^e; of a series only a power e >= 0."""
    if isinstance(a, int):
        return a ** (e % 2) if a in (1, -1) else a ** e
    return functools.reduce(lambda x, _: _arith("*", x, a), range(e), 1)


def _q(top, e=1):
    if e < 0:
        raise ValueError(f"negative power q^{e}")
    return [int(i == e) for i in range(top + 1)]


def _poch(a, step, n, top):
    """(a;step)_n = prod_{i<n} (1 - a step^i), n None for oo, with a one term
    c q^e and step q^s; a factor past top is 1, and so is a step past it."""
    [(c, e)] = [(a, 0)] if isinstance(a, int) else [
        (x, i) for i, x in enumerate(a) if x] or [(0, 0)]
    s = next((i for i in range(1, top + 1) if step[i]), top + 1)
    out = _q(top, 0)
    for i in range(top + 1 if n is None else n):
        for t in range(top, e + s * i - 1, -1):
            out[t] -= c * out[t - e - s * i]
    return out


@functools.cache
def _count(name, n):
    """p(n) or pbar(n) off 1/(q;q)oo or (-q;q)oo/(q;q)oo; 0 below 0."""
    if n < 0:
        return 0
    q = _q(n)
    top = _poch(_arith("*", -1, q), q, None, n) if name == "pbar" else 1
    return _arith("/", top, _poch(q, q, None, n))[n]


def _call(name, args, top):
    """A named function of the grammar at its evaluated arguments."""
    if name in _STATS:  # Mbar_k(n) and Nbar_k(n) arrive as (n, k)
        return _STATS[name](*args) if args[0] >= 0 else 0
    if name in ("p", "pbar"):
        return _count(name, args[0])
    if name in ("min", "max"):
        return (min if name == "min" else max)(args)
    (a, b), q = args, _q(top)  # qbin(a|b), the Gaussian binomial
    return 0 if not 0 <= b <= a else _arith("/", _poch(q, q, a, top), _arith(
        "*", _poch(q, q, b, top), _poch(q, q, a - b, top)))


class _Reader:
    """A recursive-descent reader of one clause: each rule returns a function
    of the environment (parameters, bound names, top). stat: the side read so
    far reads a statistic; free_n: the clause reads the weight n unbound."""

    def __init__(self, text, names):
        self.tokens, self.names = _TOKEN.findall(text) + [None, None], names
        self.i, self.bound, self.stat, self.free_n = 0, set(), False, False

    def peek(self, ahead=0):
        return self.tokens[self.i + ahead]

    def accept(self, *toks):
        if self.peek() not in toks:
            return None
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, *toks):
        """Consume toks in order; None, so that expect(...) or rule() reads on."""
        for tok in toks:
            if not self.accept(tok):
                raise SyntaxError(f"expected {tok!r} at {self.peek()!r}")

    def take(self):
        if self.peek() is None:
            raise SyntaxError("the statement ends early")
        return self.accept(self.peek())

    def group(self, close, sep=None):
        """Expressions up to close, separated by sep."""
        out = [self.expr()]
        while sep and self.accept(sep):
            out.append(self.expr())
        self.expect(close)
        return out

    def expr(self):
        terms = [(-1 if self.accept("-") else 1, self.term())]
        while self.peek() in ("+", "-"):
            terms.append((-1 if self.take() == "-" else 1, self.term()))
        if terms[0][0] == 1 and len(terms) == 1:
            return terms[0][1]
        return lambda env: functools.reduce(
            lambda acc, t: _arith("+", acc, _arith("*", t[0], t[1](env))), terms, 0)

    def term(self):
        """Factors by *, / or juxtaposition, left to right; a zero product
        reads no further factor."""
        ops = [("*", self.factor())]
        while (op := self.accept("*", "/")) or self.starts_atom():
            ops.append((op or "*", self.factor()))
        if len(ops) == 1:
            return ops[0][1]

        def run(env):
            acc = 1
            for op, f in ops:
                if any(acc) if isinstance(acc, list) else acc:
                    acc = _arith(op, acc, f(env))
            return acc
        return run

    def starts_atom(self):
        tok = self.peek() or "="
        return tok[0].isdigit() or tok == "(" or (
            tok[0].isalpha() and tok not in _KEYWORDS and self.peek(1) != "=")

    def factor(self):
        is_q = self.accept("q")
        base = (lambda env: _q(env["top"])) if is_q else self.atom()
        if not self.accept("^"):
            return base
        e = self.atom()
        if is_q:
            return lambda env: _q(env["top"], e(env))
        return lambda env: _pow(base(env), e(env))

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return lambda env: int(tok)
        if tok == "(":
            a, *step = self.group(")", ";")
            n = None if not step or self.accept("oo") else self.subscript()
            return a if not step else lambda env: _poch(
                a(env), step[0](env), n(env) if n else None, env["top"])
        if tok in ("p", "pbar", "qbin", "min", "max") or tok in _STATS:
            k = [self.subscript()] if tok in ("Mbar", "Nbar") else []
            self.expect("(")
            if tok in ("min", "max"):  # atoms separated by spaces; |x| is abs
                args = []
                while not self.accept(")"):
                    if self.accept("|"):
                        x = self.group("|")[0]
                        args.append(lambda env, x=x: abs(x(env)))
                    else:
                        args.append(self.atom())
            else:
                args = self.group(")", "|") + k
            self.stat |= tok in _STATS
            return lambda env: _call(tok, [a(env) for a in args], env.get("top"))
        if tok == "sum":
            return self.sum()
        if tok in self.names or len(tok) == 1 and tok.isalpha():
            self.free_n |= tok == "n" and "n" not in self.bound
            return lambda env: env[tok]
        if tok.isalpha() and set(tok) <= self.names:
            # a run of parameter letters, as in mk, is their product
            return lambda env: math.prod(env[v] for v in tok)
        raise SyntaxError(f"cannot read {tok!r}")

    def subscript(self):
        self.expect("_")
        return self.group("}")[0] if self.accept("{") else self.atom()

    def sum(self):
        """sum_{v=lo..hi}, sum_{v>=lo}, sum_{v in Z} or sum_v (v >= 0) over the
        rest of the product; an infinite one runs over top + 1 values (-top..top
        over Z), as each step moves a term's lowest power or weight by >= 1."""
        self.expect("_")
        braced = self.accept("{")
        v, rel = self.take(), braced and self.take()
        lo = self.expr() if rel in ("=", ">=") else None
        hi = self.expect("..") or self.expr() if rel == "=" else None
        if rel == "in":
            self.expect("Z")
        if braced:
            self.expect("}")
        inner = v not in self.bound
        self.bound.add(v)
        body = self.term()
        self.bound -= {v} if inner else set()

        def run(env):
            start = lo(env) if lo else -env["top"] if rel == "in" else 0
            stop = hi(env) if hi else env["top"] + (0 if rel == "in" else start)
            return functools.reduce(lambda acc, j: _arith(
                "+", acc, body({**env, v: j})), range(start, stop + 1), 0)
        return run

    def condition(self):
        a, rel, b = self.expr(), _COMPARE[self.take()], self.expr()
        return lambda env: rel(a(env), b(env))

    def side(self):
        """expr [when cond {and expr when cond}] [where name=term ...], the
        first case whose condition holds, as (function, reads a statistic)."""
        self.stat = False
        cases = [(self.expr(), self.accept("when") and self.condition())]
        while cases[-1][1] and self.accept("and"):
            cases.append((self.expr(), self.expect("when") or self.condition()))
        binds = []
        while (binds or self.accept("where")) and self.peek(1) == "=":
            binds.append((self.take(), self.expect("=") or self.term()))

        def run(env):
            for name, value in binds:
                env = {**env, name: value(env)}
            return next(f(env) for f, holds in cases if not holds or holds(env))
        return run, self.stat


@functools.cache
def read(ident):
    """The clauses ("; equivalently" separates them) of one id's statement,
    after its NOTATION: (relations, strict, domain, free_n) each. relations
    pairs (lhs, rhs), each side (function, reads a statistic), rhs None for
    ">= 0"; strict is T of "strict inequality for n >= T"; domain "for C"."""
    desc = identities.get_identity(ident)
    text = desc.statement
    for (i, word), meaning in NOTATION.items():
        text = re.sub(rf"\b{word}\b", meaning, text) if i == ident else text
    clauses = []
    for clause in text.split("; equivalently "):
        head, counts, _ = clause.partition(" counts ")
        reader = _Reader(head, {name for name, _, _ in desc.schema})
        relations, strict, domain = [], None, None
        while not relations or reader.accept("and"):
            lhs = reader.side()
            if counts:
                rhs = (lambda env, scan=COUNTS[ident]: scan(env["n"], env["k"]), True)
            elif reader.accept(">="):
                rhs = reader.expect("0")
                if reader.accept("with"):
                    reader.expect("strict", "inequality", "for", "n", ">=")
                    strict = reader.expr()
            else:
                rhs = reader.expect("=") or reader.side()
            relations.append((lhs, rhs))
        domain = reader.accept("for") and reader.condition()
        if reader.peek() is not None:
            raise SyntaxError(f"cannot read {reader.peek()!r}")
        clauses.append((relations, strict, domain, reader.free_n))
    return clauses


def _statement_side(ident, form, side):
    """One side of a form as its statement computes it, a function of (params,
    bound), and whether it reads a statistic. The series form reads the first
    clause, the counting forms the last."""
    relations, strict, domain, free_n = read(ident)[0 if form == "series" else -1]
    if side == "strict_from":
        return (lambda p, n: strict and strict(p)), False
    sides = [pair[side.endswith("rhs")] for pair in relations]

    def value(f, env):
        if domain and not domain(env):
            raise ValueError(f"{ident}: {env} is outside the statement")
        v = f(env)
        return [v] + [0] * env["top"] if isinstance(v, int) and not free_n else v

    def run(p, bound):
        if free_n:  # a coefficient clause, row by row
            return [tuple(value(f, {**p, "n": n, "top": n}) for f, _ in sides)
                    for n in range(1, bound + 1)]
        [(f, _)] = sides  # a series equation, by its coefficients
        s = value(f, {**p, "top": bound})
        return s if form == "series" else [(c,) for c in s[1:]]
    return run, any(stat for _, stat in sides)


def statement_sides(desc):
    """(form, side) for each side of each form of desc; an inequality's second
    side is its strict_from."""
    for form, f in identities._FORMS.items():
        if getattr(desc, f.attr) is not None:
            rhs = "strict_from" if form == "inequality" else f.attr.replace("lhs", "rhs")
            yield from ((form, f.attr), (form, rhs))


def statement_mismatches(desc, p, bound=None, only=None):
    """(form, side, bound, built, read) for each side of desc (or only the one
    named) that differs from its statement at p, at the bound or else the
    default (order at most 30); a side that reads a statistic stops at REF_N_MAX."""
    out = []
    for form, side in statement_sides(desc):
        if only not in (None, side):
            continue
        default = getattr(desc, f"default_{identities._FORMS[form].bound}")
        default = min(default, 30) if form == "series" else default
        top = default if bound is None else bound
        want, stat = _statement_side(desc.id, form, side)
        n = min(top, REF_N_MAX) if stat else top
        built = (desc.strict_from and desc.strict_from(p)
                 if side == "strict_from" else getattr(desc, side)(p, n))
        built, got = list(built.coeffs) if form == "series" else built, want(p, n)
        if built != got:
            out.append((form, side, n, built, got))
    return out


@functools.cache
def schema_grid(desc):
    """Every point of desc's schema, with m <= k where desc requires it."""
    ranges = {name: (lo, hi) for name, lo, hi in desc.schema}
    return identities.expand_grid(desc, ranges)

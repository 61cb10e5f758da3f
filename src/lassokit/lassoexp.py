"""Rational lasso expressions and their compilation to lasso automata.

A lasso expression denotes a set of lassos: `r@` denotes the lassos with
empty spoke and loop in the language of r (r must not accept the empty
word), `t·ρ` extends spokes on the left, and `+` is union.  Every lasso
expression flattens to a disjunctive form, a finite set of
(spoke expression, loop expression) pairs; disjunctive forms are the
spoke states of the compiled automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NullableLoopError, ParseError, StateLimitError
from .langops import STATE_CAP
from .lassos import Lasso
from .ratexp import (
    Alphabet,
    ONE,
    RatExpr,
    ZERO,
    deriv,
    ewp,
    letters_of,
    member_naive,
    normalize_b,
    rcat,
    render_rexp,
    rexp_to_str,
    rsum,
    structural_key,
    sum_of,
)
from .syntax import RawExpr, parse_raw, raw_to_rexp


class LassoExpr:
    __slots__ = ()

    def __str__(self) -> str:
        return lexp_to_str(self)


@dataclass(frozen=True)
class LZero(LassoExpr):
    pass


@dataclass(frozen=True)
class Circle(LassoExpr):
    body: RatExpr

    def __post_init__(self):
        if ewp(self.body):
            raise NullableLoopError(
                f"'@' requires a loop without the empty word, got {rexp_to_str(self.body)!r}"
            )


@dataclass(frozen=True)
class Prefix(LassoExpr):
    head: RatExpr
    tail: LassoExpr


@dataclass(frozen=True)
class LSum(LassoExpr):
    left: LassoExpr
    right: LassoExpr


LZERO = LZero()


def lprefix(t: RatExpr, rho: LassoExpr) -> LassoExpr:
    """Prefixing with unit/zero folding."""
    if t == ZERO or rho == LZERO:
        return LZERO
    if t == ONE:
        return rho
    return Prefix(t, rho)


def lsum(l: LassoExpr, r: LassoExpr) -> LassoExpr:
    if l == LZERO:
        return r
    if r == LZERO:
        return l
    return LSum(l, r)


def _raw_to_lexp(raw: RawExpr) -> LassoExpr:
    match raw:
        case ("zero",):
            return LZERO
        case ("sum", l, r):
            return LSum(_raw_to_lexp(l), _raw_to_lexp(r))
        case ("cat", l, r):
            return Prefix(raw_to_rexp(l), _raw_to_lexp(r))
        case ("circle", x):
            return Circle(raw_to_rexp(x))
    raise ParseError("expected a lasso expression; every branch must end in '@' or 0")


def parse_lexp(text: str, alphabet: Alphabet | None = None) -> LassoExpr:
    """Parse a lasso expression (grammar with postfix '@')."""
    return _raw_to_lexp(parse_raw(text, frozenset({"circle"}), alphabet))


def lexp_to_str(rho: LassoExpr) -> str:
    def go(rho: LassoExpr, level: int) -> str:
        match rho:
            case LZero():
                return "0"
            case Circle(r):
                return render_rexp(r, 3) + "@"
            case Prefix(t, tail):
                s = render_rexp(t, 2) + go(tail, 1)
                return f"({s})" if level > 1 else s
            case LSum(l, r):
                s = go(l, 1) + "+" + go(r, 0)
                return f"({s})" if level > 0 else s
        raise TypeError(f"not a lasso expression: {rho!r}")

    return go(rho, 0)


def lexp_letters(rho: LassoExpr) -> set[str]:
    match rho:
        case LZero():
            return set()
        case Circle(r):
            return letters_of(r)
        case Prefix(t, tail):
            return letters_of(t) | lexp_letters(tail)
        case LSum(l, r):
            return lexp_letters(l) | lexp_letters(r)
    raise TypeError(f"not a lasso expression: {rho!r}")


def member_lasso_naive(rho: LassoExpr, l: Lasso) -> bool:
    """Membership straight from the semantics; the independent oracle.

    Loops are matched whole against '@' bodies, spokes by trying every
    left split against the prefixing expression.
    """
    match rho:
        case LZero():
            return False
        case Circle(r):
            return l.spoke == "" and member_naive(r, l.loop)
        case Prefix(t, tail):
            return any(
                member_naive(t, l.spoke[:i]) and member_lasso_naive(tail, Lasso(l.spoke[i:], l.loop))
                for i in range(len(l.spoke) + 1)
            )
        case LSum(left, right):
            return member_lasso_naive(left, l) or member_lasso_naive(right, l)
    raise TypeError(f"not a lasso expression: {rho!r}")


@dataclass(frozen=True)
class DisjunctiveForm:
    """Canonical finite sum of (spoke, loop) pairs.

    Spokes are normalize_b-normalized, loops kept syntactic; pairs whose
    spoke or loop denotes the empty language are dropped, the rest are
    deduplicated and sorted.  The canonical value doubles as a spoke
    state of the compiled automaton.
    """

    pairs: tuple[tuple[RatExpr, RatExpr], ...]

    def __post_init__(self):
        canon: list[tuple[RatExpr, RatExpr]] = []
        seen = set()
        for t, s in self.pairs:
            tn = normalize_b(t)
            if tn == ZERO or normalize_b(s) == ZERO:
                continue
            if ewp(s):
                raise NullableLoopError(f"loop {rexp_to_str(s)!r} accepts the empty word")
            if (tn, s) not in seen:
                seen.add((tn, s))
                canon.append((tn, s))
        canon.sort(key=lambda p: (structural_key(p[0]), structural_key(p[1])))
        object.__setattr__(self, "pairs", tuple(canon))

    def __str__(self) -> str:
        return df_to_str(self)


def df_to_str(df: DisjunctiveForm) -> str:
    if not df.pairs:
        return "0"
    return " + ".join(f"{render_rexp(t, 1)}.({rexp_to_str(s)})@" for t, s in df.pairs)


def df_letters(df: DisjunctiveForm) -> set[str]:
    out: set[str] = set()
    for t, s in df.pairs:
        out |= letters_of(t) | letters_of(s)
    return out


def df_member(df: DisjunctiveForm, l: Lasso) -> bool:
    return any(member_naive(t, l.spoke) and member_naive(s, l.loop) for t, s in df.pairs)


def df_to_lexp(df: DisjunctiveForm) -> LassoExpr:
    out: LassoExpr = LZERO
    for t, s in reversed(df.pairs):
        out = lsum(lprefix(t, Circle(s)), out)
    return out


def disjunctive_form(rho: LassoExpr) -> DisjunctiveForm:
    """Flatten to a sum of (spoke, loop) pairs; semantics-preserving."""
    match rho:
        case LZero():
            return DisjunctiveForm(())
        case Circle(r):
            return DisjunctiveForm(((ONE, r),))
        case Prefix(t, tail):
            inner = disjunctive_form(tail)
            return DisjunctiveForm(tuple((rcat(t, ti), si) for ti, si in inner.pairs))
        case LSum(l, r):
            return DisjunctiveForm(disjunctive_form(l).pairs + disjunctive_form(r).pairs)
    raise TypeError(f"not a lasso expression: {rho!r}")


def d1_general(rho: LassoExpr, a: str) -> LassoExpr:
    """Spoke derivative on arbitrary lasso expressions."""
    match rho:
        case LZero() | Circle(_):
            return LZERO
        case LSum(l, r):
            return lsum(d1_general(l, a), d1_general(r, a))
        case Prefix(t, tail):
            first = lprefix(deriv(t, a), tail)
            if ewp(t):
                return lsum(first, d1_general(tail, a))
            return first
    raise TypeError(f"not a lasso expression: {rho!r}")


def d2_general(rho: LassoExpr, a: str) -> RatExpr:
    """Switch derivative: the rational expression entered when the loop starts with a."""
    match rho:
        case LZero():
            return ZERO
        case Circle(r):
            return deriv(r, a)
        case LSum(l, r):
            return normalize_b(rsum(d2_general(l, a), d2_general(r, a)))
        case Prefix(t, tail):
            return d2_general(tail, a) if ewp(t) else ZERO
    raise TypeError(f"not a lasso expression: {rho!r}")


def d1_df(df: DisjunctiveForm, a: str) -> DisjunctiveForm:
    """Spoke derivative on disjunctive forms: derive every spoke, keep loops."""
    return DisjunctiveForm(tuple((deriv(t, a), s) for t, s in df.pairs))


def d2_df(df: DisjunctiveForm, a: str) -> RatExpr:
    """Switch derivative on disjunctive forms: sum of loop derivatives over
    the pairs whose spoke accepts the empty word."""
    return normalize_b(sum_of(deriv(s, a) for t, s in df.pairs if ewp(t)))


def compile_lasso(rho: LassoExpr | DisjunctiveForm, alphabet: Alphabet | None = None):
    """Compile to a finite lasso automaton accepting exactly the semantics.

    Spoke states are the disjunctive forms reachable under d1; loop states
    are the normalized rational expressions reachable from the switch
    images under the word derivative.
    """
    from .lassoaut import LassoAutomaton

    df0 = rho if isinstance(rho, DisjunctiveForm) else disjunctive_form(rho)
    if alphabet is None:
        letters = df_letters(df0) if isinstance(rho, DisjunctiveForm) else lexp_letters(rho)
        alphabet = Alphabet(tuple(sorted(letters))) if letters else Alphabet(("a",))

    spoke_index: dict[DisjunctiveForm, int] = {df0: 0}
    spoke_order = [df0]
    d1_rows: list[tuple[int, ...]] = []
    switch_exprs: list[tuple[RatExpr, ...]] = []
    queue = deque([df0])
    while queue:
        df = queue.popleft()
        row = []
        for a in alphabet:
            nxt = d1_df(df, a)
            if nxt not in spoke_index:
                if len(spoke_index) >= STATE_CAP:
                    raise StateLimitError(f"spoke closure exceeded {STATE_CAP} states")
                spoke_index[nxt] = len(spoke_order)
                spoke_order.append(nxt)
                queue.append(nxt)
            row.append(spoke_index[nxt])
        d1_rows.append(tuple(row))
        switch_exprs.append(tuple(d2_df(df, a) for a in alphabet))

    loop_index: dict[RatExpr, int] = {}
    loop_order: list[RatExpr] = []

    def intern_loop(e: RatExpr) -> int:
        if e not in loop_index:
            if len(loop_index) >= STATE_CAP:
                raise StateLimitError(f"loop closure exceeded {STATE_CAP} states")
            loop_index[e] = len(loop_order)
            loop_order.append(e)
        return loop_index[e]

    d2_rows = tuple(tuple(intern_loop(e) for e in row) for row in switch_exprs)
    d3_rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(loop_order):
        e = loop_order[i]
        d3_rows.append(tuple(intern_loop(deriv(e, a)) for a in alphabet))
        i += 1
    finals = frozenset(i for i, e in enumerate(loop_order) if ewp(e))
    return LassoAutomaton(
        alphabet=alphabet,
        d1=tuple(d1_rows),
        d2=d2_rows,
        d3=tuple(d3_rows),
        initial=0,
        finals=finals,
        spoke_labels=tuple(df_to_str(df) for df in spoke_order),
        loop_labels=tuple(rexp_to_str(e) for e in loop_order),
    )

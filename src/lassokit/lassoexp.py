"""Tailed expressions, and the compilation of lasso expressions to lasso
automata.

Rational lasso expressions and omega expressions share one grammar: a
sum of rational prefixes `t·ρ`, each branch ending in 0 or in a terminal
whose body must not accept the empty word.  Only the terminal differs:
`r@` denotes the lassos with empty spoke and loop in the language of r,
`r$` the omega power of r.  The tree, its conversion from the parser's
raw tree, printer, letter collector, smart constructors and flattening
fold are shared.

The kind of an expression is its base class, `LassoExpr` or
`OmegaExpr`.  Each kind has its own thin node subclasses, so expressions
of two kinds never compare equal, and the functions that give an
expression its meaning (`member_lasso_naive` and `disjunctive_form`
here, `h_map` and `to_nba` in `omega`) reject the other kind with a
TypeError.

Every lasso expression flattens to a disjunctive form, a finite set of
(spoke expression, loop expression) pairs; disjunctive forms are the
spoke states of the automaton `compile_lasso` builds from a lasso
expression.  A disjunctive form itself compiles to the minimal lasso
automaton of its lassos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from .errors import NullableLoopError, ParseError
from .langops import Dfa, boolean_combine, compile_dfa, explore, minimize_dfa
from .lassos import Lasso
from .ratexp import (
    Alphabet,
    ONE,
    RatExpr,
    ZERO,
    alphabet_of,
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


class TailedExpr:
    """Base of both expression kinds.

    A kind's base class names it in error messages (`noun`) and holds its
    zero and its terminal, prefix and sum classes, so that code written
    once for both kinds can build nodes of the kind it is given.
    """

    __slots__ = ()
    noun: ClassVar[str]
    zero: ClassVar[TailedExpr]
    terminal: ClassVar[type[Terminal]]
    prefix: ClassVar[type[TailPrefix]]
    sum: ClassVar[type[TailSum]]

    def __str__(self) -> str:
        return tailed_to_str(self)


@dataclass(frozen=True)
class TailZero(TailedExpr):
    pass


@dataclass(frozen=True)
class Terminal(TailedExpr):
    """A terminal loop: the postfix `mark` applied to a body without the
    empty word; `tag` is the parser's name for the operator."""

    body: RatExpr
    mark: ClassVar[str]
    tag: ClassVar[str]
    body_noun: ClassVar[str]

    def __post_init__(self):
        if ewp(self.body):
            raise NullableLoopError(
                f"{self.mark!r} requires {self.body_noun} without the empty word, got {rexp_to_str(self.body)!r}"
            )


@dataclass(frozen=True)
class TailPrefix(TailedExpr):
    head: RatExpr
    tail: TailedExpr


@dataclass(frozen=True)
class TailSum(TailedExpr):
    left: TailedExpr
    right: TailedExpr


class LassoExpr(TailedExpr):
    __slots__ = ()
    noun = "a lasso expression"


@dataclass(frozen=True)
class LZero(TailZero, LassoExpr):
    pass


@dataclass(frozen=True)
class Circle(Terminal, LassoExpr):
    mark, tag, body_noun = "@", "circle", "a loop"


@dataclass(frozen=True)
class Prefix(TailPrefix, LassoExpr):
    pass


@dataclass(frozen=True)
class LSum(TailSum, LassoExpr):
    pass


class OmegaExpr(TailedExpr):
    __slots__ = ()
    noun = "an omega expression"


@dataclass(frozen=True)
class OZero(TailZero, OmegaExpr):
    pass


@dataclass(frozen=True)
class OmegaPower(Terminal, OmegaExpr):
    mark, tag, body_noun = "$", "omega", "a body"


@dataclass(frozen=True)
class OPrefix(TailPrefix, OmegaExpr):
    pass


@dataclass(frozen=True)
class OSum(TailSum, OmegaExpr):
    pass


LZERO = LZero()
OZERO = OZero()
LassoExpr.zero, LassoExpr.terminal, LassoExpr.prefix, LassoExpr.sum = LZERO, Circle, Prefix, LSum
OmegaExpr.zero, OmegaExpr.terminal, OmegaExpr.prefix, OmegaExpr.sum = OZERO, OmegaPower, OPrefix, OSum


def tprefix(t: RatExpr, rho: TailedExpr) -> TailedExpr:
    """Prefixing with unit/zero folding."""
    if t == ZERO or isinstance(rho, TailZero):
        return rho.zero
    if t == ONE:
        return rho
    return rho.prefix(t, rho)


def tsum(l: TailedExpr, r: TailedExpr) -> TailedExpr:
    if isinstance(l, TailZero):
        return r
    if isinstance(r, TailZero):
        return l
    return l.sum(l, r)


def tsum_of(zero: TailedExpr, terms: Sequence[TailedExpr]) -> TailedExpr:
    """Right-nested sum of the terms, in order, with zero folding; `zero`,
    the zero of their kind, when there are none."""
    out = zero
    for t in reversed(terms):
        out = tsum(t, out)
    return out


def raw_to_tailed(raw: RawExpr, kind: type[TailedExpr]) -> TailedExpr:
    match raw:
        case ("zero",):
            return kind.zero
        case ("sum", l, r):
            return kind.sum(raw_to_tailed(l, kind), raw_to_tailed(r, kind))
        case ("cat", l, r):
            return kind.prefix(raw_to_rexp(l), raw_to_tailed(r, kind))
        case (tag, x) if tag == kind.terminal.tag:
            return kind.terminal(raw_to_rexp(x))
    raise ParseError(f"expected {kind.noun}; every branch must end in {kind.terminal.mark!r} or 0")


def parse_tailed(text: str, kind: type[TailedExpr], alphabet: Alphabet | None = None) -> TailedExpr:
    """Parse an expression of the given kind; only its terminal operator is allowed."""
    return raw_to_tailed(parse_raw(text, frozenset({kind.terminal.tag}), alphabet), kind)


def parse_lexp(text: str, alphabet: Alphabet | None = None) -> LassoExpr:
    """Parse a lasso expression (grammar with postfix '@')."""
    return parse_tailed(text, LassoExpr, alphabet)


def parse_oexpr(text: str, alphabet: Alphabet | None = None) -> OmegaExpr:
    """Parse an omega expression (grammar with postfix '$')."""
    return parse_tailed(text, OmegaExpr, alphabet)


def tailed_to_str(rho: TailedExpr) -> str:
    def go(rho: TailedExpr, level: int) -> str:
        match rho:
            case TailZero():
                return "0"
            case Terminal(r):
                return render_rexp(r, 3) + rho.mark
            case TailPrefix(t, tail):
                s = render_rexp(t, 2) + go(tail, 1)
                return f"({s})" if level > 1 else s
            case TailSum(l, r):
                s = go(l, 1) + "+" + go(r, 0)
                return f"({s})" if level > 0 else s
        raise TypeError(f"not a lasso or omega expression: {rho!r}")

    return go(rho, 0)


def tailed_letters(rho: TailedExpr) -> set[str]:
    match rho:
        case TailZero():
            return set()
        case Terminal(r):
            return letters_of(r)
        case TailPrefix(t, tail):
            return letters_of(t) | tailed_letters(tail)
        case TailSum(l, r):
            return tailed_letters(l) | tailed_letters(r)
    raise TypeError(f"not a lasso or omega expression: {rho!r}")


lprefix = oprefix = tprefix
lsum = osum = tsum
lexp_to_str = oexp_to_str = tailed_to_str
lexp_letters = oexp_letters = tailed_letters


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


def spoke_live_naive(rho: LassoExpr, u: str) -> bool:
    """Does some lasso with spoke u lie in rho?  `member_lasso_naive`'s
    recursion without the loop test: an '@' takes the empty spoke when
    its body denotes some word, which is then a loop.  Nothing is
    compiled.  A loop bound can leave out every loop of a live spoke, but
    every lasso accepted within it has a live spoke, so a spoke found
    dead needs no loop tried.  The tail is tested before the prefix, so
    an '@' tail asks `member_naive` only for the whole spoke.
    """
    match rho:
        case LZero():
            return False
        case Circle(r):
            return u == "" and normalize_b(r) != ZERO
        case Prefix(t, tail):
            return any(spoke_live_naive(tail, u[i:]) and member_naive(t, u[:i]) for i in range(len(u) + 1))
        case LSum(left, right):
            return spoke_live_naive(left, u) or spoke_live_naive(right, u)
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
    return tsum_of(LZERO, [tprefix(t, Circle(s)) for t, s in df.pairs])


def flatten(
    rho: TailedExpr, kind: type[TailedExpr], terminal_pairs: Callable[[RatExpr], Iterable[tuple[RatExpr, RatExpr]]]
) -> DisjunctiveForm:
    """Fold the prefix/sum structure of an expression of the given kind into
    a disjunctive form: sums join their pairs, a prefix t turns each pair
    (ti, si) into (t·ti, si), and a terminal with body r contributes the
    pairs terminal_pairs(r).  Raises TypeError on any other kind."""
    if isinstance(rho, kind):
        match rho:
            case TailZero():
                return DisjunctiveForm(())
            case Terminal(r):
                return DisjunctiveForm(tuple(terminal_pairs(r)))
            case TailPrefix(t, tail):
                inner = flatten(tail, kind, terminal_pairs)
                return DisjunctiveForm(tuple((rcat(t, ti), si) for ti, si in inner.pairs))
            case TailSum(l, r):
                return DisjunctiveForm(flatten(l, kind, terminal_pairs).pairs + flatten(r, kind, terminal_pairs).pairs)
    raise TypeError(f"not {kind.noun}: {rho!r}")


def disjunctive_form(rho: LassoExpr) -> DisjunctiveForm:
    """Flatten to a sum of (spoke, loop) pairs; semantics-preserving."""
    return flatten(rho, LassoExpr, lambda r: ((ONE, r),))


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

    A lasso expression gets the Brzozowski construction: spoke states are
    the disjunctive forms reachable under d1, loop states the normalized
    rational expressions reachable from the switch images under the word
    derivative, and both are kept as state labels.  This is `compile
    --lexp`.

    A disjunctive form, such as the γ-closed form that
    `omega_to_omega_automaton` compiles, gets the minimal lasso
    automaton, without labels (`_compile_minimal`).
    """
    from .lassoaut import LassoAutomaton

    if isinstance(rho, DisjunctiveForm):
        return _compile_minimal(rho, alphabet_of(df_letters(rho)) if alphabet is None else alphabet)
    df0 = disjunctive_form(rho)
    if alphabet is None:
        alphabet = alphabet_of(lexp_letters(rho))

    spoke_index, d1_rows = explore([df0], lambda df: [d1_df(df, a) for a in alphabet], "spoke closure")
    switch_exprs = [[d2_df(df, a) for a in alphabet] for df in spoke_index]
    loop_index, d3_rows = explore(
        [e for row in switch_exprs for e in row], lambda e: [deriv(e, a) for a in alphabet], "loop closure"
    )
    return LassoAutomaton(
        alphabet=alphabet,
        d1=tuple(d1_rows),
        d2=tuple(tuple(loop_index[e] for e in row) for row in switch_exprs),
        d3=tuple(d3_rows),
        initial=0,
        finals=frozenset(i for e, i in loop_index.items() if ewp(e)),
        spoke_labels=tuple(df_to_str(df) for df in spoke_index),
        loop_labels=tuple(rexp_to_str(e) for e in loop_index),
    )


def _compile_minimal(df: DisjunctiveForm, alphabet: Alphabet):
    """The minimal lasso automaton of a disjunctive form, built on minimal
    DFAs of its loops.

    Each distinct loop expression is compiled once to its minimal DFA,
    and equal DFAs share one loop number.  A spoke state is the set of
    (spoke derivative, loop number) pairs reached by a word, pairs whose
    spoke derivative is 0 dropped.  Its switch language is the union of the
    loop DFAs of its pairs whose spoke accepts the empty word, built one
    DFA at a time and minimized after each step, so it stays as small as
    its language; it is built once per set of loops.  The loop part lays
    the switch DFAs side by side, and `minimize_lasso` merges what is
    equal and numbers the result canonically.
    """
    from .lassoaut import LassoAutomaton, minimize_lasso

    loop_numbers: dict[Dfa, int] = {}
    number_of: dict[RatExpr, int] = {}
    for _, s in df.pairs:
        if s not in number_of:
            number_of[s] = loop_numbers.setdefault(minimize_dfa(compile_dfa(s, alphabet)), len(loop_numbers))
    loop_dfas = list(loop_numbers)

    def d1(state: frozenset[tuple[RatExpr, int]]) -> list[frozenset[tuple[RatExpr, int]]]:
        return [frozenset((dt, i) for t, i in state if (dt := deriv(t, a)) != ZERO) for a in alphabet]

    spokes, d1_rows = explore([frozenset((t, number_of[s]) for t, s in df.pairs)], d1, "spoke closure")

    empty = Dfa(alphabet, (tuple(0 for _ in alphabet.letters),), 0, frozenset())
    switch_rows: dict[frozenset[int], tuple[int, ...]] = {}  # set of loops -> d2 row into its switch DFA
    d2: list[tuple[int, ...]] = []
    d3: list[tuple[int, ...]] = []
    finals: set[int] = set()
    for state in spokes:
        loops = frozenset(i for t, i in state if ewp(t))
        if loops not in switch_rows:
            ids = sorted(loops)
            union = loop_dfas[ids[0]] if ids else empty
            for i in ids[1:]:
                union = minimize_dfa(boolean_combine(union, loop_dfas[i], "or"))
            offset = len(d3)
            d3 += [tuple(offset + q for q in row) for row in union.trans]
            finals.update(offset + q for q in union.finals)
            switch_rows[loops] = d3[offset + union.initial]
        d2.append(switch_rows[loops])
    return minimize_lasso(LassoAutomaton(alphabet, tuple(d1_rows), tuple(d2), tuple(d3), 0, frozenset(finals)))

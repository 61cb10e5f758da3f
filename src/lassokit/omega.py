"""The Buchi membership oracle for omega expressions, and the pipeline
that turns an omega expression into a finite saturated lasso automaton.
The omega expression tree itself (`OmegaExpr`, `parse_oexpr`,
`oexp_to_str`, ...) is the tailed-expression tree of `lassoexp`.

The pipeline has three stages.  `h_map` translates an omega expression
into a disjunctive form whose lassos denote exactly the ultimately
periodic words of the expression, and whose lasso set is closed under
rewrite expansion.  `gamma_map` then closes the set under rewrite
reduction using splitting, intersection and the root operation.  It
builds the automata of all its split triples in three shared closures
(derivatives, products, concatenations), each partitioned once by
language (Moore, "Gedanken-experiments on sequential machines", 1956),
so it takes one root per distinct loop language.
`compile_lasso` turns that γ-closed form into the minimal lasso
automaton of its lassos, built on the minimal DFAs of its loops, with
no state labels.  Saturation is a property of the accepted lassos
(Calbrix, Nivat & Podelski, "Ultimately periodic words of rational
omega-languages", MFPS 1993), so that automaton is saturated too.

The oracle (`to_nba`/`up_member`) goes through a nondeterministic Buchi
automaton, kept as one successor table (`Nba.rows`), and shares nothing
with the lasso machinery, so pipeline bugs cannot cancel out in the
tests.  `up_member` meets two sets of states.  One is the set the spoke
leads to (`_spoke_states`), from one subset walk on bit masks.  The
other is the set from which the loop's omega power is accepted
(`_loop_accepting`).  It is read off the loop's transition profile
(`_profile`): for each state, which states the loop leads it to, and
which of them on a path through an accepting state (Sistla, Vardi &
Wolper, TCS 1987).  One transitive closure of the profile answers every
state at once (`_omega_accepting`).  Every lasso with the same spoke or
the same loop shares that half.  Sets of states are int bit masks
here.  The per-letter successor masks of each automaton and both halves
are kept in `lru_cache`s of `LOOP_CACHE_SIZE` entries each; `to_nba` is
unbounded.  The live states, from which some omega word is accepted,
are the nodes that reach an accepting node lying on a cycle; `_live`
finds them on the automaton's edges over all letters (`_live_states`)
in one linear strongly-connected-components pass (Tarjan, "Depth-first
search and linear graph algorithms", 1972).
On them `live_spoke_walk` tests spokes alone, so that enumeration
decides a lasso only when some omega word can follow its spoke (the
live-state pruning of Ackerman & Shallit, "Efficient enumeration of
words in regular languages", 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import CertificationError
from .langops import Dfa, class_dfa, compile_dfa, dfa_to_expr, quotient, root
# the omega expression tree is lassoexp's tailed-expression tree; its
# public names are re-exported here
from .lassoexp import (
    DisjunctiveForm,
    OmegaExpr,
    OmegaPower,
    OPrefix,
    OSum,
    OZERO,
    OZero,
    compile_lasso,
    df_letters,
    flatten,
    oexp_letters,
    oexp_to_str,
    oprefix,
    osum,
    parse_oexpr,
)
from .lassoaut import is_saturated
from .lassos import Lasso
from .ratexp import Alphabet, RatExpr, alphabet_of, deriv, ewp, normalize_b, rcat, rstar, split


def _oexp_alphabet(T: OmegaExpr, alphabet: Alphabet | None) -> Alphabet:
    return alphabet_of(oexp_letters(T)) if alphabet is None else alphabet


# ---------------------------------------------------------------------------
# Buchi oracle


@dataclass(frozen=True, eq=False)
class Nba:
    """Nondeterministic Buchi automaton; oracle machinery only.  `rows[q][i]`
    holds q's successors on the i-th letter of the alphabet.  Compared by
    identity: `to_nba` returns one object per expression and alphabet."""

    alphabet: Alphabet
    rows: tuple[tuple[frozenset[int], ...], ...]
    initials: frozenset[int]
    accepting: frozenset[int]


def _shifted(rows: tuple[tuple[frozenset[int], ...], ...], off: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """The rows with every state number raised by `off`."""
    return tuple(tuple(frozenset(q + off for q in cell) for cell in row) for row in rows)


@lru_cache(maxsize=None)
def to_nba(T: OmegaExpr, alphabet: Alphabet | None = None) -> Nba:
    """Buchi automaton for the omega language of T.

    Finite parts are compiled to DFAs.  An omega power keeps the DFA's
    transitions and adds a fresh accepting initial state; every edge into
    a final DFA state is duplicated to point back at it, so hitting it
    infinitely often decomposes the word into infinitely many body words.
    Prefixing glues a DFA in front of the tail automaton by redirecting
    edges into final states onto the tail's initial states.
    """
    alphabet = _oexp_alphabet(T, alphabet)
    match T:
        case OZero():
            return Nba(alphabet, (), frozenset(), frozenset())
        case OmegaPower(r):
            # state 0 is the fresh start, DFA state q becomes q + 1
            d = compile_dfa(r, alphabet)
            edge = lambda q: frozenset({q + 1, 0} if q in d.finals else {q + 1})
            rows = tuple(tuple(map(edge, d.trans[q])) for q in (d.initial, *range(d.n_states)))
            return Nba(alphabet, rows, frozenset({0}), frozenset({0}))
        case OPrefix(t, tail):
            d = compile_dfa(t, alphabet)
            inner = to_nba(tail, alphabet)
            off = d.n_states
            enter = frozenset(s + off for s in inner.initials)
            edge = lambda q: enter | {q} if q in d.finals else frozenset({q})
            rows = tuple(tuple(map(edge, row)) for row in d.trans) + _shifted(inner.rows, off)
            initials = frozenset({d.initial}) | (enter if ewp(t) else frozenset())
            return Nba(alphabet, rows, initials, frozenset(s + off for s in inner.accepting))
        case OSum(l, r):
            n1 = to_nba(l, alphabet)
            n2 = to_nba(r, alphabet)
            off = len(n1.rows)
            return Nba(
                alphabet,
                n1.rows + _shifted(n2.rows, off),
                n1.initials | frozenset(s + off for s in n2.initials),
                n1.accepting | frozenset(s + off for s in n2.accepting),
            )
    raise TypeError(f"not an omega expression: {T!r}")


def _live(
    starts: Iterable[int], successors: Callable[[int], Iterable[int]], accepting: Callable[[int], bool]
) -> set[int]:
    """The nodes reachable from `starts` that reach an accepting node
    lying on a cycle.

    One iterative Tarjan pass.  Components come out sinks first, so when
    one is complete the components it reaches are already known.  A
    component is good when it holds an accepting node and an edge inside
    it (an accepting node on a cycle), or when it has an edge into a good
    node.  Each node's successors are asked for once.
    """
    number: dict[int, int] = {}
    low: dict[int, int] = {}
    edges: dict[int, list[int]] = {}  # successors of the nodes not yet in a component
    stack: list[int] = []
    good: set[int] = set()
    path: list[tuple[int, Iterator[int]]] = []

    def visit(v: int) -> None:
        number[v] = low[v] = len(number)
        stack.append(v)
        edges[v] = list(successors(v))
        path.append((v, iter(edges[v])))

    for start in starts:
        if start in number:
            continue
        visit(start)
        while path:
            v, todo = path[-1]
            for w in todo:
                if w not in number:
                    visit(w)
                    break
                if w in edges:  # on the stack: same component or an open one
                    low[v] = min(low[v], number[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != number[v]:
                    continue
                component = [stack.pop()]
                while component[-1] != v:
                    component.append(stack.pop())
                out = [w for u in component for w in edges.pop(u)]
                on_cycle = any(map(accepting, component)) and not set(component).isdisjoint(out)
                if on_cycle or not good.isdisjoint(out):
                    good.update(component)
    return good


# entries of each of the oracle's caches, keyed by NBA or (NBA, word)
LOOP_CACHE_SIZE = 1024


def _mask(states: Iterable[int]) -> int:
    """The int bit mask of a set of states."""
    return sum(1 << q for q in states)


@lru_cache(maxsize=LOOP_CACHE_SIZE)
def _bit_rows(nba: Nba) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The NBA on bit masks, built once per automaton: `rows[i][q]` holds
    q's successors on the i-th letter; the second field holds the
    accepting states."""
    rows = tuple(tuple(_mask(row[i]) for row in nba.rows) for i in range(len(nba.alphabet)))
    return rows, _mask(nba.accepting)


def _image(row: tuple[int, ...], states: int) -> int:
    """The states one edge of `row` away from the bit mask `states`."""
    out = 0
    while states:
        low = states & -states
        out |= row[low.bit_length() - 1]
        states ^= low
    return out


# a word's transition profile: (reach, through), one bit mask per state each
Profile = tuple[tuple[int, ...], tuple[int, ...]]


def _profile(nba: Nba, word: str) -> Profile:
    """The transition profile of a word: two bit masks per state p.
    `reach[p]` holds the states the word leads p to, and `through[p]`
    those it leads p to on a path that visits an accepting state after
    at least one letter.  Folded one letter at a time, without recursion,
    from the empty word's profile."""
    n = len(nba.rows)
    profile = tuple(1 << p for p in range(n)), (0,) * n
    for a in word:
        profile = _extend(nba, profile, a)
    return profile


def _extend(nba: Nba, profile: Profile, a: str) -> Profile:
    """The profile of wa from the profile (reach, through) of w: letter a
    maps reach to δ_a(reach), and through to δ_a(through) | (δ_a(reach) &
    accepting)."""
    rows, accepting = _bit_rows(nba)
    row = rows[nba.alphabet.index(a)]
    reach = tuple([_image(row, r) for r in profile[0]])
    return reach, tuple([_image(row, t) | (r & accepting) for r, t in zip(reach, profile[1])])


def _omega_accepting(profile: Profile) -> int:
    """The states from which w^ω is accepted, as a bit mask, given the
    profile (reach, through) of w.

    A run on w^ω walks the graph with an edge from x to every state of
    reach[x], and it is accepting iff it takes an edge into through[x]
    infinitely often.  So q accepts iff q reaches some x that has an
    edge to some y in through[x] from which x is reached back.  "Reaches"
    is in zero or more edges; `closed[x]` holds what x reaches, from one
    Warshall pass over bit masks, quadratic in the states.  When no path
    of w visits an accepting state, no run of w^ω does.
    """
    reach, through = profile
    if not any(through):
        return 0
    closed = [r | 1 << x for x, r in enumerate(reach)]
    for k in range(len(closed)):
        bit, ck = 1 << k, closed[k]
        closed = [c | ck if c & bit else c for c in closed]
    good = sum(1 << x for x, t in enumerate(through) if _image(closed, t) >> x & 1)
    return sum(1 << q for q, c in enumerate(closed) if c & good)


@lru_cache(maxsize=LOOP_CACHE_SIZE)
def _loop_accepting(nba: Nba, loop: str) -> int:
    """The states of the NBA from which it accepts loop^ω, as a bit mask.

    Acceptance of loop^ω depends only on the loop's transition profile,
    which states it leads each state to and whether on the way it visits
    an accepting state (Sistla, Vardi & Wolper, "The complementation
    problem for Büchi automata with applications to temporal logic",
    TCS 1987).  `_profile` folds the loop's letters into it and
    `_omega_accepting` reads the states off it.  The cost is linear in
    the loop's length times the states, plus a closure quadratic in the
    states, once per distinct loop word (the cache holds
    `LOOP_CACHE_SIZE` of them).
    """
    return _omega_accepting(_profile(nba, loop))


@lru_cache(maxsize=LOOP_CACHE_SIZE)
def _spoke_states(nba: Nba, spoke: str) -> int:
    """The states of the NBA that the spoke leads to from its initial
    states, as a bit mask, one subset step per letter; empty once no run
    survives."""
    rows, _ = _bit_rows(nba)
    cur = _mask(nba.initials)
    for a in spoke:
        cur = _image(rows[nba.alphabet.index(a)], cur)
        if not cur:
            break
    return cur


def _step(nba: Nba, states: Iterable[int], a: str) -> set[int]:
    """The states one `a` edge away from `states`."""
    i = nba.alphabet.index(a)
    return {q for p in states for q in nba.rows[p][i]}


def up_member(T: OmegaExpr, l: Lasso, alphabet: Alphabet | None = None) -> bool:
    """Does the ultimately periodic word of the lasso lie in the omega
    language of T?  Decided on the Buchi automaton: the states the spoke
    leads to (`_spoke_states`) must meet those from which loop^ω is
    accepted (`_loop_accepting`).  The latter are read off the loop's
    transition profile (Sistla, Vardi & Wolper 1987): for each state, the
    states the loop leads it to, and those it leads it to through an
    accepting state.  Both halves are cached per automaton, so the lassos
    of one spoke walk it once and the lassos of one loop fold it once.
    A decision costs the spoke's length times the states, plus the loop's
    length times the states and a closure quadratic in the states, each
    paid once per distinct spoke or loop word while its cache holds it."""
    nba = to_nba(T, _oexp_alphabet(T, alphabet))
    cur = _spoke_states(nba, l.spoke)
    return cur != 0 and _loop_accepting(nba, l.loop) & cur != 0


def _live_states(nba: Nba) -> frozenset[int]:
    """The states from which the NBA accepts some omega word: `_live` on
    the graph of its edges over all letters.  The set is closed under
    predecessors."""
    graph = [set().union(*row) for row in nba.rows]
    return frozenset(_live(range(len(graph)), graph.__getitem__, nba.accepting.__contains__))


def live_spoke_walk(T: OmegaExpr, alphabet: Alphabet | None = None) -> Callable[[str], bool]:
    """A test of spokes: is some omega word with prefix u in the
    language of T?  That holds iff some lasso whose spoke extends u is
    accepted, so a spoke it rejects needs no loop tried.

    Each spoke carries the live states (`_live_states`) of the Buchi
    automaton that it reaches, and the spoke is live iff that set is
    nonempty.  The set of u is one `_step` from the set of u less its
    last letter when that was asked for before; asked shortest first, as
    `enumerate_lassos` asks its spoke test, each spoke costs one step.
    Otherwise the set is walked forward from the empty spoke, one letter
    at a time and without recursion, and only u's own set is kept.  A
    dead state steps only to dead states, so every extension of a dead
    spoke is dead too, without a step.  Oracle machinery, like
    `up_member`: nothing of the pipeline is used.
    """
    nba = to_nba(T, _oexp_alphabet(T, alphabet))
    live = _live_states(nba)
    reached = {"": live & nba.initials}  # spoke -> its live states
    shared: dict[frozenset[int], frozenset[int]] = {}  # one object per distinct set

    def states(u: str) -> frozenset[int]:
        if u not in reached:
            before = reached.get(u[:-1])
            rest = u[-1:]
            if before is None:
                before, rest = reached[""], u
            for a in rest:
                if not before:
                    break
                before = live.intersection(_step(nba, before, a))
            reached[u] = shared.setdefault(before, before)
        return reached[u]

    return lambda u: bool(states(u))


# ---------------------------------------------------------------------------
# the pipeline: omega expression -> disjunctive form -> saturated automaton


def h_map(T: OmegaExpr) -> DisjunctiveForm:
    """Disjunctive form whose lassos denote exactly the ultimately periodic
    words of T, closed under rewrite expansion.

    An omega power contributes, for every split (t0, t1) of its body t,
    the pair (t*·t0, t1·t*·t0): rotating any prefix of the loop into the
    spoke and raising the loop to powers stays inside the set.
    """

    def power_pairs(r: RatExpr):
        star = rstar(r)
        for t0, t1 in split(r):
            yield rcat(star, t0), normalize_b(rcat(t1, rcat(star, t0)))

    return flatten(T, OmegaExpr, power_pairs)


def gamma_map(df: DisjunctiveForm, alphabet: Alphabet | None = None) -> DisjunctiveForm:
    """Close a disjunctive form under rewrite reduction.

    For each pair (t, s) and each way of splitting t into t0·t1 and s
    into s0·s1, the loop words whose some power lies in (t1 ∩ s1)·s0 are
    reattached after spoke t0.  The intersection, its concatenation with
    s0 and the root are all computed on DFAs; only the root is converted
    back to an expression, so the expression grammar stays plain.  Pairs
    with an empty loop language are dropped.

    Every distinct triple (t1, s1, s0) of the call is handled in three
    shared closures, each partitioned once by language (`quotient`), so
    equal languages get equal class numbers:
    1. one derivative closure from every distinct t1, s1 and s0;
    2. one product closure from every (t1, s1) pair of derivative
       classes; the intersection of a pair is empty when its class is the
       non-final class whose every letter loops back to it;
    3. one concatenation closure from every (intersection class, s0) of a
       nonempty intersection, on `concat_dfa`'s rule: a state is an
       intersection class, s0, and the set of s0's derivative classes
       entered so far as an int bit mask, and s0 joins the set whenever
       the intersection class is final (once the intersection class is
       the empty one, s0 can enter no more and is dropped from the state).
    A triple's loop language is the class of its start in the third
    closure.  `root` runs once per class, on the class's canonical
    minimal DFA (`class_dfa`), and `dfa_to_expr` once per root DFA, a
    minimal DFA as well.  Both depend only on the language, so every
    triple gets the expression its own DFA would give.

    Each closure counts the states of all of the call's triples against
    `STATE_CAP`, and raises StateLimitError ("gamma derivative
    closure", "gamma product automaton", "gamma concatenation
    automaton") beyond it.

    Applied to an expansion-closed input (such as h_map output) the
    result is saturated; on arbitrary inputs a single application need
    not be.
    """
    if alphabet is None:
        alphabet = alphabet_of(df_letters(df))
    split_of = {e: split(e) for e in dict.fromkeys(chain.from_iterable(df.pairs))}
    splits = [(split_of[t], split_of[s]) for t, s in df.pairs]
    exprs = list(dict.fromkeys(
        e for t_splits, s_splits in splits for e in chain((t1 for _, t1 in t_splits), *s_splits)
    ))
    expr_cls, deriv_rows, deriv_finals = quotient(
        [normalize_b(e) for e in exprs], lambda e: [deriv(e, a) for a in alphabet], ewp, "gamma derivative closure"
    )
    class_of = dict(zip(exprs, expr_cls))
    # the split pairs by class: (t0, t1's class) and (s0's class, s1's class)
    splits = [
        ([(t0, class_of[t1]) for t0, t1 in t_splits], [(class_of[s0], class_of[s1]) for s0, s1 in s_splits])
        for t_splits, s_splits in splits
    ]
    # the distinct (t1, s1, s0) triples of classes
    keys = list(dict.fromkeys(
        (t1, s1, s0) for t_splits, s_splits in splits for _, t1 in t_splits for s0, s1 in s_splits
    ))

    pairs = [(t1, s1) for t1, s1, _ in keys]
    pair_cls, inter_rows, inter_finals = quotient(
        pairs,
        lambda pq: zip(deriv_rows[pq[0]], deriv_rows[pq[1]]),
        lambda pq: pq[0] in deriv_finals and pq[1] in deriv_finals,
        "gamma product automaton",
    )
    # the one class of the empty language, if any: non-final, every letter loops
    empty = next((c for c, row in enumerate(inter_rows) if c not in inter_finals and all(t == c for t in row)), None)

    bits = [tuple(1 << t for t in row) for row in deriv_rows]
    final_mask = sum(1 << c for c in deriv_finals)
    moves: dict[int, tuple[int, ...]] = {}  # set of derivative classes -> its successor set per letter

    def step(mask: int) -> tuple[int, ...]:
        if mask not in moves:
            reach, rest = [0] * len(alphabet), mask
            while rest:
                low = rest & -rest
                reach = [r | b for r, b in zip(reach, bits[low.bit_length() - 1])]
                rest ^= low
            moves[mask] = tuple(reach)
        return moves[mask]

    def enter(c: int, s0: int, mask: int) -> tuple[int, int, int]:
        if c == empty:
            return (c, -1, mask)
        return (c, s0, mask | 1 << s0) if c in inter_finals else (c, s0, mask)

    def successors(state: tuple[int, int, int]):
        c, s0, mask = state
        return [enter(c2, s0, m2) for c2, m2 in zip(inter_rows[c], step(mask))]

    live = [(key, c) for key, c in zip(keys, pair_cls) if c != empty]
    lang_cls, lang_rows, lang_finals = quotient(
        [enter(c, key[2], 0) for key, c in live],
        successors,
        lambda state: bool(state[2] & final_mask),
        "gamma concatenation automaton",
    )

    loops: dict[int, RatExpr | None] = {}  # language class -> loop expression
    root_exprs: dict[Dfa, RatExpr | None] = {}  # many languages share one root
    for c in lang_cls:
        if c not in loops:
            rt = root(class_dfa(alphabet, lang_rows, lang_finals, c))
            if rt not in root_exprs:
                root_exprs[rt] = dfa_to_expr(rt) if rt.finals else None
            loops[c] = root_exprs[rt]
    loop_of = {key: loops[c] for (key, _), c in zip(live, lang_cls)}
    out = []
    for t_splits, s_splits in splits:
        for t0, t1 in t_splits:
            for s0, s1 in s_splits:
                loop = loop_of.get((t1, s1, s0))
                if loop is not None:
                    out.append((t0, loop))
    return DisjunctiveForm(tuple(out))


def represent(T: OmegaExpr, alphabet: Alphabet | None = None) -> DisjunctiveForm:
    """Disjunctive form whose lasso set is exactly the set of lassos
    denoting ultimately periodic words of T."""
    return gamma_map(h_map(T), _oexp_alphabet(T, alphabet))


def omega_to_omega_automaton(T: OmegaExpr, alphabet: Alphabet | None = None):
    """Finite saturated lasso automaton accepting exactly the lassos whose
    words lie in the omega language of T.

    The automaton is `compile_lasso` of the γ-closed form `represent(T)`:
    the minimal lasso automaton of that language, numbered canonically
    and without state labels, so `write_automaton` prints no `# x = …`
    lines.  Saturation is asserted exactly on it."""
    alphabet = _oexp_alphabet(T, alphabet)
    aut = compile_lasso(represent(T, alphabet), alphabet)
    sat, pair = is_saturated(aut)
    if not sat:
        raise CertificationError(f"pipeline output not saturated (pair {pair[0]} / {pair[1]})")
    return aut

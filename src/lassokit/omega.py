"""The Buchi membership oracle for omega expressions, and the pipeline
that turns an omega expression into a finite saturated lasso automaton.
The omega expression tree itself (`OmegaExpr`, `parse_oexpr`,
`oexp_to_str`, ...) is the tailed-expression tree of `lassoexp`.

The pipeline has three stages.  `h_map` translates an omega expression
into a disjunctive form whose lassos denote exactly the ultimately
periodic words of the expression, and whose lasso set is closed under
rewrite expansion.  `gamma_map` then closes the set under rewrite
reduction using splitting, intersection and the root operation.
`compile_lasso` turns that γ-closed form into the minimal lasso
automaton of its lassos, built on the minimal DFAs of its loops, with
no state labels.  Saturation is a property of the accepted lassos
(Calbrix, Nivat & Podelski, "Ultimately periodic words of rational
omega-languages", MFPS 1993), so that automaton is saturated too.

The oracle (`to_nba`/`up_member`) goes through a nondeterministic Buchi
automaton and shares nothing with the lasso machinery, so pipeline bugs
cannot cancel out in the tests.  For each pair of an automaton and a
loop word, one strongly-connected-components pass (Tarjan, "Depth-first
search and linear graph algorithms", 1972) over the automaton's states
times the loop's positions finds the states from which the loop's omega
power is accepted; `up_member` runs the spoke and meets that set, so
every spoke with the same loop shares the pass.  The sets are kept in
an `lru_cache` of `LOOP_CACHE_SIZE` entries; `to_nba` is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CertificationError
from .langops import Dfa, boolean_combine, compile_dfa, concat_dfa, dfa_to_expr, minimize_dfa, root
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
from .ratexp import Alphabet, RatExpr, alphabet_of, ewp, normalize_b, rcat, rstar, split


def _oexp_alphabet(T: OmegaExpr, alphabet: Alphabet | None) -> Alphabet:
    return alphabet_of(oexp_letters(T)) if alphabet is None else alphabet


# ---------------------------------------------------------------------------
# Buchi oracle


@dataclass(frozen=True)
class Nba:
    """Nondeterministic Buchi automaton; oracle machinery only."""

    alphabet: Alphabet
    n_states: int
    transitions: frozenset[tuple[int, str, int]]
    initials: frozenset[int]
    accepting: frozenset[int]
    # (state, letter) -> successor states, derived from `transitions`; not
    # part of equality, hash or repr
    succ: dict[tuple[int, str], frozenset[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        succ: dict[tuple[int, str], set[int]] = {}
        for p, a, q in self.transitions:
            succ.setdefault((p, a), set()).add(q)
        object.__setattr__(self, "succ", {k: frozenset(v) for k, v in succ.items()})


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
            return Nba(alphabet, 0, frozenset(), frozenset(), frozenset())
        case OmegaPower(r):
            d = compile_dfa(r, alphabet)
            trans: set[tuple[int, str, int]] = set()
            for q in range(d.n_states):
                for ai, a in enumerate(alphabet.letters):
                    nxt = d.trans[q][ai]
                    trans.add((q + 1, a, nxt + 1))
                    if nxt in d.finals:
                        trans.add((q + 1, a, 0))
            for ai, a in enumerate(alphabet.letters):
                nxt = d.trans[d.initial][ai]
                trans.add((0, a, nxt + 1))
                if nxt in d.finals:
                    trans.add((0, a, 0))
            return Nba(alphabet, d.n_states + 1, frozenset(trans), frozenset({0}), frozenset({0}))
        case OPrefix(t, tail):
            d = compile_dfa(t, alphabet)
            inner = to_nba(tail, alphabet)
            off = d.n_states
            trans = {(p + off, a, q + off) for (p, a, q) in inner.transitions}
            for q in range(d.n_states):
                for ai, a in enumerate(alphabet.letters):
                    nxt = d.trans[q][ai]
                    trans.add((q, a, nxt))
                    if nxt in d.finals:
                        trans.update((q, a, s + off) for s in inner.initials)
            initials = {d.initial}
            if ewp(t):
                initials.update(s + off for s in inner.initials)
            accepting = frozenset(s + off for s in inner.accepting)
            return Nba(alphabet, off + inner.n_states, frozenset(trans), frozenset(initials), accepting)
        case OSum(l, r):
            n1 = to_nba(l, alphabet)
            n2 = to_nba(r, alphabet)
            off = n1.n_states
            trans = set(n1.transitions)
            trans.update((p + off, a, q + off) for (p, a, q) in n2.transitions)
            return Nba(
                alphabet,
                off + n2.n_states,
                frozenset(trans),
                n1.initials | frozenset(s + off for s in n2.initials),
                n1.accepting | frozenset(s + off for s in n2.accepting),
            )
    raise TypeError(f"not an omega expression: {T!r}")


# (NBA, loop word) pairs whose accepting states `_loop_accepting` keeps
LOOP_CACHE_SIZE = 1024


@lru_cache(maxsize=LOOP_CACHE_SIZE)
def _loop_accepting(nba: Nba, loop: str) -> frozenset[int]:
    """The states of the NBA from which it accepts loop^ω.

    One Tarjan pass over the product of the states with the loop's
    positions, node q·m + j for state q at position j.  Components come
    out sinks first, so when one is complete the components it reaches
    are already known.  A node is good when its component holds an
    accepting state and an edge inside it (an accepting node on a cycle),
    or when it has an edge into a good node.  The answer is read at
    position 0.
    """
    m = len(loop)
    edges: dict[int, list[int]] = {}

    def successors(v: int) -> list[int]:
        q, j = divmod(v, m)
        nxt = (j + 1) % m
        edges[v] = [p * m + nxt for p in nba.succ.get((q, loop[j]), ())]
        return edges[v]

    number: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    finished: set[int] = set()  # nodes of completed components
    good: set[int] = set()
    for start in range(0, nba.n_states * m, m):
        if start in number:
            continue
        number[start] = low[start] = len(number)
        stack.append(start)
        path = [(start, iter(successors(start)))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if w not in number:
                    number[w] = low[w] = len(number)
                    stack.append(w)
                    path.append((w, iter(successors(w))))
                    break
                if w not in finished:
                    low[v] = min(low[v], number[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != number[v]:
                    continue
                i = stack.index(v)
                component = stack[i:]
                del stack[i:]
                finished.update(component)
                members = set(component)
                inner = any(w in members for u in component for w in edges[u])
                if (inner and any(u // m in nba.accepting for u in component)) or any(
                    w in good for u in component for w in edges[u]
                ):
                    good.update(component)
    return frozenset(q for q in range(nba.n_states) if q * m in good)


def up_member(T: OmegaExpr, l: Lasso, alphabet: Alphabet | None = None) -> bool:
    """Does the ultimately periodic word of the lasso lie in the omega
    language of T?  Decided on the Buchi automaton: the states reached
    after the spoke must meet those from which the loop's omega power is
    accepted (`_loop_accepting`)."""
    nba = to_nba(T, _oexp_alphabet(T, alphabet))
    cur = nba.initials
    for a in l.spoke:
        cur = {q for p in cur for q in nba.succ.get((p, a), ())}
        if not cur:
            return False
    return not _loop_accepting(nba, l.loop).isdisjoint(cur)


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

    The distinct triples (t1, s1, s0) are grouped by (t1, s1), so each
    intersection is built once and dropped after its triples.  A triple
    maps to the loop expression of the minimal DFA of (t1 ∩ s1)·s0,
    through a per-call cache keyed by that DFA.  Many triples denote one
    language, and a minimal DFA is canonical, so `root` runs once per
    language.  Its result is minimal too, and many languages share one
    root, so `dfa_to_expr` runs once per root DFA.  Both minimize their
    input first, so keying by the minimal DFA gives every triple the
    expression its own DFA would give.

    Applied to an expansion-closed input (such as h_map output) the
    result is saturated; on arbitrary inputs a single application need
    not be.
    """
    if alphabet is None:
        alphabet = alphabet_of(df_letters(df))
    # many split keys share a t1 or an s1; each is compiled once per call
    dfas: dict[RatExpr, Dfa] = {}

    def dfa_of(e: RatExpr) -> Dfa:
        if e not in dfas:
            dfas[e] = compile_dfa(e, alphabet)
        return dfas[e]

    splits = [(split(t), split(s)) for t, s in df.pairs]
    triples: dict[tuple[RatExpr, RatExpr], list[RatExpr]] = {}  # (t1, s1) -> its s0s
    for t_splits, s_splits in splits:
        for _, t1 in t_splits:
            for s0, s1 in s_splits:
                triples.setdefault((t1, s1), []).append(s0)
    # an empty intersection is keyed None and has no loop expression
    loops: dict[Dfa | None, RatExpr | None] = {None: None}
    # many languages share one root, a minimal DFA as well
    root_exprs: dict[Dfa, RatExpr | None] = {}
    loop_of: dict[tuple[RatExpr, RatExpr, RatExpr], RatExpr | None] = {}
    for (t1, s1), s0s in triples.items():
        # the product and root's minimal result hold only reachable
        # states: each is empty iff it has no finals
        inter = boolean_combine(dfa_of(t1), dfa_of(s1), "and")
        for s0 in s0s:
            if (t1, s1, s0) not in loop_of:
                lang = minimize_dfa(concat_dfa(inter, dfa_of(s0))) if inter.finals else None
                if lang not in loops:
                    rt = root(lang)
                    if rt not in root_exprs:
                        root_exprs[rt] = dfa_to_expr(rt) if rt.finals else None
                    loops[lang] = root_exprs[rt]
                loop_of[t1, s1, s0] = loops[lang]
    pairs = []
    for t_splits, s_splits in splits:
        for t0, t1 in t_splits:
            for s0, s1 in s_splits:
                loop = loop_of[t1, s1, s0]
                if loop is not None:
                    pairs.append((t0, loop))
    return DisjunctiveForm(tuple(pairs))


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

"""Deterministic finite automata: compilation, Boolean algebra, quotients,
the root operation, and state elimination back to expressions.

Automata are total by construction.  Every operation that returns a
witness or counterexample produces the shortest one, breaking ties by
the fixed alphabet order: every such word is read off an `explore`
numbering by `access_words`, the one witness rule.

Every construction that builds states (derivative closures, products,
subset and transformation closures, minimization, and the lasso
automaton constructions in `lassoexp` and `lassoaut`) goes through
`explore`, the one breadth-first closure and the one place that applies
`STATE_CAP`.  `quotient` partitions one closure, of one start or of
many, by language; `class_dfa` reads a class off it as its canonical
minimal DFA, which is all that `minimize_dfa` does.

State elimination (`dfa_to_expr`) certifies every expression it returns
on the expression's position automaton (Glushkov, "The abstract theory
of automata", 1961; McNaughton & Yamada, "Regular expressions and state
graphs for automata", 1960), which shares nothing with the derivative
closure of `compile_dfa`: one `explore` over pairs of a position set and
an input DFA state checks that the two agree on acceptance everywhere.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

from .errors import AlphabetMismatchError, CertificationError, StateLimitError
from .ratexp import (
    Alphabet,
    Concat,
    Letter,
    ONE,
    One,
    RatExpr,
    Star,
    Sum,
    ZERO,
    Zero,
    _normal_sum,
    deriv,
    ewp,
    infer_alphabet,
    letter_count,
    normalize_b,
    rcat,
    rexp_to_str,
    rstar,
)

STATE_CAP = 100_000
# letter occurrences of an expression that `_certify` checks: its follow
# masks take up to one bit per pair of positions, 300 MiB at the cap
POSITION_CAP = 50_000

S = TypeVar("S", bound=Hashable)


def explore(
    starts: Iterable[S], successors: Callable[[S], Iterable[S]], what: str
) -> tuple[dict[S, int], list[tuple[int, ...]]]:
    """Breadth-first closure of `starts` under `successors`.

    States are numbered in the order they are first seen: the starts
    first (duplicates folded), then each state's successors in the order
    `successors` yields them.  Returns the numbering (a dict in that
    order) and, per state, the tuple of its successors' numbers.  Raises
    StateLimitError once more than STATE_CAP states would be numbered;
    `what` names the construction in the message.
    """
    index: dict[S, int] = {}
    order: list[S] = []
    rows: list[tuple[int, ...]] = []

    def number(state: S) -> int:
        i = index.get(state)
        if i is None:
            if len(order) >= STATE_CAP:
                raise StateLimitError(f"{what} exceeded {STATE_CAP} states")
            i = index[state] = len(order)
            order.append(state)
        return i

    for state in starts:
        number(state)
    for state in order:  # grows while it is read: the breadth-first queue
        row = []
        for nxt in successors(state):
            i = index.get(nxt)
            row.append(number(nxt) if i is None else i)
        rows.append(tuple(row))
    return index, rows


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    trans: tuple[tuple[int, ...], ...]  # trans[state][letter_index]
    initial: int
    finals: frozenset[int]
    # presentation metadata, not part of equality: the state terms of a
    # derivative automaton, printed only when `labels` is read
    terms: tuple[RatExpr, ...] | None = field(default=None, compare=False, repr=False)
    # set only by `class_dfa`, the quotient readout of `minimize_dfa`: the
    # automaton is already the canonical minimal one, which `minimize_dfa`
    # then returns unchanged; not part of equality, hash or repr
    minimal: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def labels(self) -> tuple[str, ...] | None:
        """State terms as expression text, or None for automata without terms."""
        return None if self.terms is None else tuple(rexp_to_str(e) for e in self.terms)

    @property
    def n_states(self) -> int:
        return len(self.trans)

    def step(self, q: int, a: str) -> int:
        return self.trans[q][self.alphabet.index(a)]


def run_dfa(d: Dfa, u: str) -> bool:
    q = d.initial
    for a in u:
        q = d.step(q, a)
    return q in d.finals


def compile_dfa(t: RatExpr, alphabet: Alphabet | None = None) -> Dfa:
    """Derivative automaton of t: states are normalize_b classes reachable
    from normalize_b(t), finals are the classes with the empty word property."""
    if alphabet is None:
        alphabet = infer_alphabet(t)
    index, rows = explore([normalize_b(t)], lambda e: [deriv(e, a) for a in alphabet], "derivative closure")
    finals = frozenset(i for e, i in index.items() if ewp(e))
    return Dfa(alphabet, tuple(rows), 0, finals, tuple(index))


def moore_classes(keys: list[Hashable], rows: list[tuple[int, ...]]) -> list[int]:
    """Moore partition refinement: the coarsest partition of the states
    that separates different keys and is respected by every letter.

    Each round works column by column: a state's signature is its class
    together with the classes of its successors, one column per letter,
    and equal signatures form one class of the next round.  A round only
    splits classes, so a round that keeps the class count keeps the
    partition, which is then stable: the rounds stop there.

    Classes are numbered by first member.  When the states are an
    `explore` numbering, that is the breadth-first numbering of the
    quotient from the classes of the starts: a class's successors are
    first reached from its first member."""
    first: dict[Hashable, int] = {}
    cls = [first.setdefault(k, len(first)) for k in keys]
    count = len(first)
    cols = list(zip(*rows))
    while True:
        sig: dict[tuple, int] = {}
        cls = [sig.setdefault(s, len(sig)) for s in zip(cls, *([cls[t] for t in col] for col in cols))]
        if len(sig) == count:
            return cls
        count = len(sig)


def quotient(
    starts: Iterable[S], successors: Callable[[S], Iterable[S]], is_final: Callable[[S], bool], what: str
) -> tuple[list[int], list[tuple[int, ...]], set[int]]:
    """One `explore` closure of `starts`, partitioned by language.

    `moore_classes` separates final from non-final states, so two states
    share a class exactly when they accept the same words.  Returns the
    class of each start (in the order given), the quotient's rows (one
    per class, its successors' classes by letter) and the final classes.
    The closure's own numbering is dropped on return.
    """
    index, rows = explore(starts, successors, what)
    keys = [is_final(state) for state in index]
    cls = moore_classes(keys, rows)
    # all members of a class step into the same classes
    member = {c: q for q, c in enumerate(cls)}
    class_rows = [tuple(cls[t] for t in rows[member[c]]) for c in range(len(member))]
    return [cls[index[state]] for state in starts], class_rows, {c for c, k in zip(cls, keys) if k}


def class_dfa(alphabet: Alphabet, rows: list[tuple[int, ...]], finals: set[int], start: int | None = None) -> Dfa:
    """The canonical minimal DFA of class `start` of a `quotient`: the
    classes it reaches, numbered breadth-first from it.  Without `start`,
    `rows` is the quotient of a closure of one start, whose classes
    `moore_classes` already numbered breadth-first from class 0, so none
    is renumbered.  The result is marked minimal (`Dfa.minimal`)."""
    if start is None:
        d = Dfa(alphabet, tuple(rows), 0, frozenset(finals))
    else:
        index, class_rows = explore([start], rows.__getitem__, "minimization")
        d = Dfa(alphabet, tuple(class_rows), 0, frozenset(i for c, i in index.items() if c in finals))
    object.__setattr__(d, "minimal", True)
    return d


def minimize_dfa(d: Dfa) -> Dfa:
    """Moore partition refinement (`quotient`) on the reachable part,
    finals apart from the other states; language-preserving.

    The result is canonical: states are numbered breadth-first from the
    initial state (`class_dfa`), so two DFAs for the same language
    minimize to equal `Dfa`s.  A DFA that `class_dfa` built is returned
    as it is."""
    if d.minimal:
        return d
    _, rows, finals = quotient([d.initial], d.trans.__getitem__, d.finals.__contains__, "minimization")
    return class_dfa(d.alphabet, rows, finals)


# the final-state rule of each product, on (final in d1, final in d2)
_COMBINE_OPS: dict[str, Callable[[bool, bool], bool]] = {
    "and": lambda f1, f2: f1 and f2,
    "or": lambda f1, f2: f1 or f2,
    "diff": lambda f1, f2: f1 and not f2,
    "xor": lambda f1, f2: f1 != f2,
}


def _product(d1: Dfa, d2: Dfa) -> tuple[dict[tuple[int, int], int], list[tuple[int, ...]]]:
    """`explore` over the state pairs of d1 and d2 reachable from their
    initial pair, which is numbered 0."""
    return explore(
        [(d1.initial, d2.initial)], lambda pq: zip(d1.trans[pq[0]], d2.trans[pq[1]]), "product automaton"
    )


def boolean_combine(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Product automaton on reachable state pairs; op is one of and/or/diff/xor."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("boolean_combine requires identical alphabets")
    is_final = _COMBINE_OPS.get(op)
    if is_final is None:
        raise ValueError(f"unknown op {op!r}")
    index, rows = _product(d1, d2)
    finals = frozenset(i for (p, q), i in index.items() if is_final(p in d1.finals, q in d2.finals))
    return Dfa(d1.alphabet, tuple(rows), 0, finals)


def concat_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    """Automaton for L(d1)·L(d2) by subset construction on reachable states.

    A state is a d1 state together with the set of d2 states entered so
    far; d2's initial state joins the set whenever the d1 state is final.
    A state is final when its set meets d2's finals.
    """
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("concat_dfa requires identical alphabets")
    na = len(d1.alphabet.letters)

    def enter(p: int, qs: frozenset[int]) -> tuple[int, frozenset[int]]:
        return (p, qs | {d2.initial}) if p in d1.finals else (p, qs)

    def successors(state: tuple[int, frozenset[int]]):
        p, qs = state
        return [enter(d1.trans[p][ai], frozenset(d2.trans[q][ai] for q in qs)) for ai in range(na)]

    index, rows = explore([enter(d1.initial, frozenset())], successors, "concatenation automaton")
    finals = frozenset(i for (_, qs), i in index.items() if not qs.isdisjoint(d2.finals))
    return Dfa(d1.alphabet, tuple(rows), 0, finals)


def complement(d: Dfa) -> Dfa:
    finals = frozenset(range(d.n_states)) - d.finals
    return Dfa(d.alphabet, d.trans, d.initial, finals, d.terms)


def access_words(rows: list[tuple[int, ...]], letters: tuple[str, ...]) -> list[str]:
    """Shortest access word per state of a breadth-first numbering from one
    start (`explore` rows): each state is entered first from the earliest
    state and letter, so the words come out in length-lex order."""
    words = [""]
    for i, row in enumerate(rows):
        for a, j in zip(letters, row):
            if j == len(words):
                words.append(words[i] + a)
    return words


def is_empty_dfa(d: Dfa) -> tuple[bool, str | None]:
    """(True, None) if no final state is reachable, else (False, shortest
    accepted word): the access word of the first final state reached."""
    index, rows = explore([d.initial], d.trans.__getitem__, "emptiness check")
    first = next((i for q, i in index.items() if q in d.finals), None)
    return (True, None) if first is None else (False, access_words(rows, d.alphabet.letters)[first])


def equivalent_dfa(d1: Dfa, d2: Dfa) -> tuple[bool, str | None]:
    """Language equality; on failure the least word of the symmetric difference.

    One closure of the reachable state pairs (`_product`): the access
    word of the first pair that is final on one side only, which is the
    word that `is_empty_dfa` reads off the xor product (`boolean_combine`)."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("equivalent_dfa requires identical alphabets")
    index, rows = _product(d1, d2)
    first = next((i for (p, q), i in index.items() if (p in d1.finals) != (q in d2.finals)), None)
    return (True, None) if first is None else (False, access_words(rows, d1.alphabet.letters)[first])


def left_derivative(d: Dfa, a: str) -> Dfa:
    """Accepts {v : a·v in L(d)}: the initial state moves along a."""
    return Dfa(d.alphabet, d.trans, d.step(d.initial, a), d.finals, d.terms)


def right_quotient(d: Dfa, a: str) -> Dfa:
    """Accepts {v : v·a in L(d)}: states one a-step away from a final become final."""
    ai = d.alphabet.index(a)
    finals = frozenset(q for q in range(d.n_states) if d.trans[q][ai] in d.finals)
    return Dfa(d.alphabet, d.trans, d.initial, finals, d.terms)


def root(d: Dfa) -> Dfa:
    """Automaton for {u nonempty : u^k in L(d) for some k >= 1}.

    States are the transformations of d induced by nonempty input words,
    explored from those of the letters.  A word u is accepted iff
    iterating its transformation from the initial state ever hits a final
    state; the orbit repeats within n steps, so k ranges over 1..n.  A
    separate non-final start state keeps the empty word rejected even when
    some nonempty word acts as the identity.
    """
    d = minimize_dfa(d)
    n = d.n_states
    letter_funcs = list(zip(*d.trans))

    def accepts_transformation(f: tuple[int, ...]) -> bool:
        x = d.initial
        for _ in range(n):
            x = f[x]
            if x in d.finals:
                return True
        return False

    # state 0 (None) is the fresh start; the others are transformations,
    # f followed by letter a acting as x -> a(f(x))
    def successors(f: tuple[int, ...] | None):
        return letter_funcs if f is None else [tuple(g[x] for x in f) for g in letter_funcs]

    index, rows = explore([None], successors, "transformation closure")
    finals = frozenset(i for f, i in index.items() if f is not None and accepts_transformation(f))
    return minimize_dfa(Dfa(d.alphabet, tuple(rows), 0, finals))


def _positions(t: RatExpr, alphabet: Alphabet) -> tuple[bool, int, int, list[int], list[int]]:
    """The position automaton of t, in one pass over the term.

    Every letter occurrence of t is a position, numbered left to right and
    held as one bit of an int mask.  Returns whether t is nullable, the
    masks of its first and last positions, the follow mask of each
    position, and the mask of the positions of each letter of `alphabet`.
    """
    follow: list[int] = []
    of_letter = [0] * len(alphabet.letters)

    def link(last: int, first: int) -> None:
        # every position of `last` may be followed by every one of `first`
        if first:
            while last:
                low = last & -last
                follow[low.bit_length() - 1] |= first
                last ^= low

    def walk(t: RatExpr) -> tuple[bool, int, int]:
        match t:
            case Letter(c):
                bit = 1 << len(follow)
                follow.append(0)
                of_letter[alphabet.index(c)] |= bit
                return False, bit, bit
            case Concat(l, r):
                nl, fl, ll = walk(l)
                nr, fr, lr = walk(r)
                link(ll, fr)
                return nl and nr, fl | fr if nl else fl, ll | lr if nr else lr
            case Sum(l, r):
                nl, fl, ll = walk(l)
                nr, fr, lr = walk(r)
                return nl or nr, fl | fr, ll | lr
            case Star(x):
                _, f, l = walk(x)
                link(l, f)
                return True, f, l
            case One():
                return True, 0, 0
            case Zero():
                return False, 0, 0
        raise TypeError(f"not a rational expression: {t!r}")

    nullable, first, last = walk(t)
    return nullable, first, last, follow, of_letter


def _certify(e: RatExpr, d: Dfa) -> None:
    """Raise CertificationError unless L(e) = L(d).

    One `explore` runs over the pairs of a state of e's position automaton
    (`_positions`), determinized on the fly as a set of positions, and a
    state of d; a distinct marker (-1, no position mask) stands for the
    start before any letter.  A pair is accepting on the expression side
    iff its set meets the last positions, or, at the start, e is nullable.
    Every reached pair must agree with d.  The pairs are numbered
    breadth-first, so the first pair that disagrees is entered by the
    length-lex least word on which the languages differ, which the error
    names.

    The follow masks take up to one bit per pair of positions, so an
    expression of more than POSITION_CAP letter occurrences raises
    StateLimitError before any mask is built.
    """
    if letter_count(e) > POSITION_CAP:
        raise StateLimitError(f"certificate positions exceeded {POSITION_CAP}")
    nullable, first, last, follow, of_letter = _positions(e, d.alphabet)
    start = -1
    moves: dict[int, tuple[int, ...]] = {start: tuple(first & m for m in of_letter)}

    def step(positions: int) -> tuple[int, ...]:
        if positions not in moves:
            reach, rest = 0, positions
            while rest:
                low = rest & -rest
                reach |= follow[low.bit_length() - 1]
                rest ^= low
            moves[positions] = tuple(reach & m for m in of_letter)
        return moves[positions]

    index, rows = explore([(start, d.initial)], lambda pq: zip(step(pq[0]), d.trans[pq[1]]), "certificate product")
    for (positions, q), i in index.items():
        accepts = nullable if positions == start else bool(positions & last)
        if accepts != (q in d.finals):
            cex = access_words(rows, d.alphabet.letters)[i]
            raise CertificationError(f"state elimination produced a wrong expression (differs on {cex!r})")


def _eliminate(d: Dfa) -> RatExpr:
    """Expression for L(d) by state elimination, in normal form.

    Each step eliminates the state of least weight, ties to the lowest
    state number.  The weight is the number of letter occurrences
    (`letter_count`) that eliminating the state adds to the edges
    (Delgado & Morais, "Approximation to the smallest regular expression
    for a given regular language", CIAA 2004).  With indeg and outdeg
    counted without the self-loop, each in-edge is copied outdeg times,
    each out-edge indeg times and the loop indeg x outdeg times, and the
    originals go:

        W(s) = Σ|in|·(outdeg - 1) + Σ|out|·(indeg - 1) + |loop|·(indeg·outdeg - 1)

    An edge is held as its letter count and its normal summands, which
    become one normal sum only when a state of the edge is eliminated.
    The input is deterministic, so the summands of one edge stand for
    paths that read disjoint nonempty languages: no summand comes twice,
    and an edge's letter count is the sum of its summands'.  Each node
    keeps the letter counts of its in-edges, its out-edges and its loop
    summed, updated with the edges, so a weight costs O(1).
    """
    n = d.n_states
    na = len(d.alphabet.letters)
    init_node, final_node = -1, -2
    # (p, q) -> [letter count, summands] of the edge's term
    edges: dict[tuple[int, int], list] = {}
    # neighbours other than the node itself, kept in step with `edges`, and
    # the letter counts of the edges from them, to them and of the loop
    ins: dict[int, set[int]] = {q: set() for q in range(-2, n)}
    outs: dict[int, set[int]] = {q: set() for q in range(-2, n)}
    in_size = dict.fromkeys(ins, 0)
    out_size = dict.fromkeys(ins, 0)
    loop_size = dict.fromkeys(ins, 0)

    def add_edge(p: int, q: int, size: int, summands: list[RatExpr]) -> None:
        edge = edges.get((p, q))
        if edge is None:
            edges[(p, q)] = [size, summands[:]]
        else:
            edge[0] += size
            edge[1] += summands
        if p == q:
            loop_size[p] += size
        else:
            outs[p].add(q)
            ins[q].add(p)
            out_size[p] += size
            in_size[q] += size

    def weight(s: int) -> int:
        n_in, n_out = len(ins[s]), len(outs[s])
        return in_size[s] * (n_out - 1) + out_size[s] * (n_in - 1) + loop_size[s] * (n_in * n_out - 1)

    def term(summands: list[RatExpr]) -> RatExpr:
        return summands[0] if len(summands) == 1 else _normal_sum(summands)

    letters = [[Letter(a)] for a in d.alphabet.letters]
    for p in range(n):
        for ai in range(na):
            add_edge(p, d.trans[p][ai], 1, letters[ai])
    add_edge(init_node, d.initial, 0, [ONE])
    for f in d.finals:
        add_edge(f, final_node, 0, [ONE])

    remaining = set(range(n))
    while remaining:
        s = min(remaining, key=lambda s: (weight(s), s))
        remaining.remove(s)
        loop = edges.pop((s, s), None)
        del loop_size[s]
        preds = [(p, *edges.pop((p, s))) for p in ins.pop(s)]
        succs = [(q, *edges.pop((s, q))) for q in outs.pop(s)]
        for p, n_in, _ in preds:
            outs[p].discard(s)
            out_size[p] -= n_in
        for q, n_out, _ in succs:
            ins[q].discard(s)
            in_size[q] -= n_out
        succs = [(q, n_out, out_summands, term(out_summands)) for q, n_out, out_summands in succs]
        for p, n_head, head_summands in preds:
            # e_in·loop*, shared by every successor; a sum only as e_in itself
            head = term(head_summands)
            if loop is not None:
                head = rcat(head, rstar(term(loop[1])))
                n_head += loop[0]
                head_summands = [head]
            # a normal term without letters on an edge is 1
            for q, n_out, out_summands, t_out in succs:
                if n_out == 0:
                    add_edge(p, q, n_head, head_summands)
                elif n_head == 0:
                    add_edge(p, q, n_out, out_summands)
                else:
                    add_edge(p, q, n_head + n_out, [Concat(head, t_out)])

    final = edges.get((init_node, final_node))
    return ZERO if final is None else normalize_b(term(final[1]))


def dfa_to_expr(d: Dfa) -> RatExpr:
    """Expression for L(d) by state elimination, self-certified.

    Eliminates the states of the minimal DFA of d (`_eliminate`), least
    added text first, so the expression depends only on the language.
    Before it is returned, it is checked equivalent to d itself on its
    position automaton (`_certify`); a wrong expression raises
    CertificationError naming the least word on which the two differ, and
    one of more than POSITION_CAP letter occurrences raises
    StateLimitError.
    """
    result = _eliminate(minimize_dfa(d))
    _certify(result, d)
    return result


def dot_label(text: str) -> str:
    """`text` as a quoted DOT string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dfa_to_dot(d: Dfa) -> str:
    """DOT rendering with solid edges; finals as double circles."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    labels = d.labels
    for q in range(d.n_states):
        label = labels[q] if labels else f"q{q}"
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f"  q{q} [shape={shape}, label={dot_label(label)}];")
    lines.append(f"  __start -> q{d.initial};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for p in range(d.n_states):
        for ai, a in enumerate(d.alphabet.letters):
            grouped.setdefault((p, d.trans[p][ai]), []).append(a)
    for (p, q), symbols in sorted(grouped.items()):
        lines.append(f"  q{p} -> q{q} [label={dot_label(','.join(symbols))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dfa(d: Dfa) -> str:
    """Line-oriented text dump of a DFA (states are named q0..qN)."""
    lines = [f"alphabet: {' '.join(d.alphabet.letters)}"]
    lines.append(f"states: {' '.join(f'q{i}' for i in range(d.n_states))}")
    lines.append(f"initial: q{d.initial}")
    lines.append(f"final: {' '.join(f'q{i}' for i in sorted(d.finals))}")
    labels = d.labels
    if labels:
        for i, lab in enumerate(labels):
            lines.append(f"# q{i} = {lab}")
    for p in range(d.n_states):
        for ai, a in enumerate(d.alphabet.letters):
            lines.append(f"d: q{p} {a} q{d.trans[p][ai]}")
    return "\n".join(lines) + "\n"

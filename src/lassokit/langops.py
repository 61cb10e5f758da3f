"""Deterministic finite automata: compilation, Boolean algebra, quotients,
the root operation, and state elimination back to expressions.

Automata are total by construction.  Every operation that returns a
witness or counterexample produces the shortest one, breaking ties by
the fixed alphabet order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import AlphabetMismatchError, CertificationError, StateLimitError
from .ratexp import (
    Alphabet,
    Letter,
    ONE,
    RatExpr,
    ZERO,
    deriv,
    ewp,
    infer_alphabet,
    normalize_b,
    rcat,
    rexp_to_str,
    rstar,
    rsum,
)

STATE_CAP = 100_000


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    trans: tuple[tuple[int, ...], ...]  # trans[state][letter_index]
    initial: int
    finals: frozenset[int]
    # presentation metadata, not part of equality: the state terms of a
    # derivative automaton, printed only when `labels` is read
    terms: tuple[RatExpr, ...] | None = field(default=None, compare=False, repr=False)

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
    start = normalize_b(t)
    index = {start: 0}
    order = [start]
    rows: list[tuple[int, ...]] = []
    queue = deque([start])
    while queue:
        e = queue.popleft()
        row = []
        for a in alphabet:
            nxt = deriv(e, a)
            if nxt not in index:
                if len(index) >= STATE_CAP:
                    raise StateLimitError(f"derivative closure exceeded {STATE_CAP} states")
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = frozenset(i for i, e in enumerate(order) if ewp(e))
    return Dfa(alphabet, tuple(rows), 0, finals, tuple(order))


def _reachable(d: Dfa) -> Dfa:
    seen = {d.initial: 0}
    order = [d.initial]
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for ai in range(len(d.alphabet.letters)):
            nxt = d.trans[q][ai]
            if nxt not in seen:
                seen[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    rows = tuple(tuple(seen[d.trans[q][ai]] for ai in range(len(d.alphabet.letters))) for q in order)
    finals = frozenset(seen[q] for q in d.finals if q in seen)
    terms = tuple(d.terms[q] for q in order) if d.terms else None
    return Dfa(d.alphabet, rows, 0, finals, terms)


def minimize_dfa(d: Dfa) -> Dfa:
    """Moore partition refinement on the reachable part; language-preserving."""
    d = _reachable(d)
    n = d.n_states
    na = len(d.alphabet.letters)
    cls = [1 if q in d.finals else 0 for q in range(n)]
    while True:
        sig: dict[tuple, int] = {}
        new = []
        for q in range(n):
            s = (cls[q],) + tuple(cls[d.trans[q][ai]] for ai in range(na))
            new.append(sig.setdefault(s, len(sig)))
        if new == cls:
            break
        cls = new
    # renumber classes in BFS order from the initial class for determinism
    rep: dict[int, int] = {}
    order: list[int] = []
    queue = deque([d.initial])
    rep[cls[d.initial]] = 0
    order.append(d.initial)
    while queue:
        q = queue.popleft()
        for ai in range(na):
            nxt = d.trans[q][ai]
            if cls[nxt] not in rep:
                rep[cls[nxt]] = len(order)
                order.append(nxt)
                queue.append(nxt)
    rows = tuple(tuple(rep[cls[d.trans[q][ai]]] for ai in range(na)) for q in order)
    finals = frozenset(rep[cls[q]] for q in d.finals)
    return Dfa(d.alphabet, rows, 0, finals)


def boolean_combine(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Product automaton on reachable state pairs; op is one of and/or/diff."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("boolean_combine requires identical alphabets")
    if op not in ("and", "or", "diff"):
        raise ValueError(f"unknown op {op!r}")
    na = len(d1.alphabet.letters)
    index = {(d1.initial, d2.initial): 0}
    order = [(d1.initial, d2.initial)]
    queue = deque(order)
    rows = []
    while queue:
        p, q = queue.popleft()
        row = []
        for ai in range(na):
            nxt = (d1.trans[p][ai], d2.trans[q][ai])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))

    def is_final(p: int, q: int) -> bool:
        f1, f2 = p in d1.finals, q in d2.finals
        if op == "and":
            return f1 and f2
        if op == "or":
            return f1 or f2
        return f1 and not f2

    finals = frozenset(i for i, (p, q) in enumerate(order) if is_final(p, q))
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

    start = enter(d1.initial, frozenset())
    index = {start: 0}
    order = [start]
    queue = deque(order)
    rows = []
    while queue:
        p, qs = queue.popleft()
        row = []
        for ai in range(na):
            nxt = enter(d1.trans[p][ai], frozenset(d2.trans[q][ai] for q in qs))
            if nxt not in index:
                if len(index) >= STATE_CAP:
                    raise StateLimitError(f"concatenation automaton exceeded {STATE_CAP} states")
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = frozenset(i for i, (_, qs) in enumerate(order) if not qs.isdisjoint(d2.finals))
    return Dfa(d1.alphabet, tuple(rows), 0, finals)


def complement(d: Dfa) -> Dfa:
    finals = frozenset(range(d.n_states)) - d.finals
    return Dfa(d.alphabet, d.trans, d.initial, finals, d.terms)


def _bfs_word(d: Dfa, accept) -> str | None:
    """Shortest word leading from the initial state into `accept`, alphabet order ties."""
    if accept(d.initial):
        return ""
    parent: dict[int, tuple[int, str]] = {d.initial: (-1, "")}
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for ai, a in enumerate(d.alphabet.letters):
            nxt = d.trans[q][ai]
            if nxt not in parent:
                parent[nxt] = (q, a)
                if accept(nxt):
                    word = []
                    cur = nxt
                    while cur != d.initial:
                        prev, sym = parent[cur]
                        word.append(sym)
                        cur = prev
                    return "".join(reversed(word))
                queue.append(nxt)
    return None


def is_empty_dfa(d: Dfa) -> tuple[bool, str | None]:
    """(True, None) if no final state is reachable, else (False, shortest accepted word)."""
    witness = _bfs_word(d, lambda q: q in d.finals)
    return (witness is None, witness)


def equivalent_dfa(d1: Dfa, d2: Dfa) -> tuple[bool, str | None]:
    """Language equality via product BFS; on failure the shortest distinguishing word."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError("equivalent_dfa requires identical alphabets")
    _, w1 = is_empty_dfa(boolean_combine(d1, d2, "diff"))
    _, w2 = is_empty_dfa(boolean_combine(d2, d1, "diff"))
    candidates = [w for w in (w1, w2) if w is not None]
    if not candidates:
        return (True, None)
    best = min(candidates, key=lambda w: (len(w), w))
    return (False, best)


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

    States are the transformations of d induced by input words, explored
    from the identity.  A word u is accepted iff iterating its
    transformation from the initial state ever hits a final state; the
    orbit repeats within n steps, so k ranges over 1..n.  A separate
    non-final start state keeps the empty word rejected even when some
    nonempty word acts as the identity.
    """
    d = minimize_dfa(d)
    n = d.n_states
    na = len(d.alphabet.letters)
    letter_funcs = [tuple(d.trans[q][ai] for q in range(n)) for ai in range(na)]

    def accepts_transformation(f: tuple[int, ...]) -> bool:
        x = d.initial
        for _ in range(n):
            x = f[x]
            if x in d.finals:
                return True
        return False

    index: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []

    def intern(f: tuple[int, ...]) -> int:
        if f not in index:
            if len(index) >= STATE_CAP:
                raise StateLimitError(f"transformation closure exceeded {STATE_CAP} functions")
            index[f] = len(order)
            order.append(f)
        return index[f]

    start_targets = [intern(letter_funcs[ai]) for ai in range(na)]
    queue = deque(range(len(order)))
    rows_funcs: dict[int, tuple[int, ...]] = {}
    while queue:
        i = queue.popleft()
        f = order[i]
        before = len(order)
        rows_funcs[i] = tuple(intern(tuple(letter_funcs[ai][f[q]] for q in range(n))) for ai in range(na))
        queue.extend(range(before, len(order)))
    # state 0 is the fresh start; transformation i maps to state i+1
    rows = [tuple(t + 1 for t in start_targets)]
    for i in range(len(order)):
        rows.append(tuple(t + 1 for t in rows_funcs[i]))
    finals = frozenset(i + 1 for i, f in enumerate(order) if accepts_transformation(f))
    return minimize_dfa(Dfa(d.alphabet, tuple(rows), 0, finals))


def dfa_to_expr(d: Dfa) -> RatExpr:
    """Expression for L(d) by state elimination, self-certified.

    Eliminates the state minimizing in-degree x out-degree; the result is
    recompiled and checked equivalent to the input before returning.
    """
    original = d
    d = minimize_dfa(d)
    n = d.n_states
    na = len(d.alphabet.letters)
    init_node, final_node = -1, -2
    edges: dict[tuple[int, int], RatExpr] = {}
    # neighbours other than the node itself, kept in step with `edges`
    ins: dict[int, set[int]] = {q: set() for q in range(n)}
    outs: dict[int, set[int]] = {q: set() for q in range(n)}
    ins[final_node], outs[init_node] = set(), set()

    def add_edge(p: int, q: int, e: RatExpr) -> None:
        if e == ZERO:
            return
        cur = edges.get((p, q), ZERO)
        edges[(p, q)] = normalize_b(rsum(cur, e))
        if p != q:
            outs[p].add(q)
            ins[q].add(p)

    for p in range(n):
        for ai in range(na):
            add_edge(p, d.trans[p][ai], Letter(d.alphabet.letters[ai]))
    add_edge(init_node, d.initial, ONE)
    for f in d.finals:
        add_edge(f, final_node, ONE)

    remaining = set(range(n))
    while remaining:
        s = min(remaining, key=lambda s: (len(ins[s]) * len(outs[s]), s))
        remaining.remove(s)
        loop = edges.pop((s, s), ZERO)
        star_loop = rstar(loop) if loop != ZERO else ONE
        preds = [(p, edges.pop((p, s))) for p in ins.pop(s)]
        succs = [(q, edges.pop((s, q))) for q in outs.pop(s)]
        for p, _ in preds:
            outs[p].discard(s)
        for q, _ in succs:
            ins[q].discard(s)
        for p, e_in in preds:
            for q, e_out in succs:
                add_edge(p, q, rcat(rcat(e_in, star_loop), e_out))

    result = normalize_b(edges.get((init_node, final_node), ZERO))
    ok, cex = equivalent_dfa(compile_dfa(result, original.alphabet), original)
    if not ok:
        raise CertificationError(f"state elimination produced a wrong expression (differs on {cex!r})")
    return result


def dfa_to_dot(d: Dfa, name: str = "dfa") -> str:
    """DOT rendering with solid edges; finals as double circles."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    labels = d.labels
    for q in range(d.n_states):
        label = labels[q] if labels else f"q{q}"
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{label}"];')
    lines.append(f"  __start -> q{d.initial};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for p in range(d.n_states):
        for ai, a in enumerate(d.alphabet.letters):
            grouped.setdefault((p, d.trans[p][ai]), []).append(a)
    for (p, q), symbols in sorted(grouped.items()):
        lines.append(f'  q{p} -> q{q} [label="{",".join(symbols)}"];')
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
